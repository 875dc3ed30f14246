"""Dense state-vector simulator in the spin language (L <= 14).

Gives direct access to the quench phenomenology that needs X-basis
product states or the integrability-breaking longitudinal field.  Its
state vectors, ``z_expectations`` and ``reduced_entropy_oracle`` are also
the brute-force oracle that the Gaussian engine is checked against.

Basis conventions: site j (1-based) owns bit j-1 of the computational
index; a cleared bit is spin up (Z = +1), a set bit is spin down, i.e. an
occupied fermion site.  One period applies the diagonal field kick
exp(i h sum Z), then the bond-factorized coupling kick exp(i J sum XX),
then exp(i K sum X) when K is nonzero, then renormalizes.  Every gate is
exact: bond terms commute within a kick.  Spin observables use S = sigma/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .params import LatticeSpec, ModelParams, ProductState, QuenchConfig

MAX_SITES = 14


def _check_size(L: int):
    if L > MAX_SITES:
        raise CapacityError(f"dense simulation capped at {MAX_SITES} sites, got {L}")


def _z_site(L: int, j: int) -> np.ndarray:
    """Z eigenvalue of site j (1-based) for every basis index."""
    idx = np.arange(2 ** L)
    return 1.0 - 2.0 * ((idx >> (j - 1)) & 1)


def product_state(state: ProductState) -> np.ndarray:
    """Dense amplitudes of a z- or x-basis product state."""
    _check_size(state.L)
    psi = np.ones(1, dtype=complex)
    for s in state.pattern:
        if state.basis == "z":
            local = np.array([1.0, 0.0]) if s == 1 else np.array([0.0, 1.0])
        else:
            local = np.array([1.0, s]) / np.sqrt(2.0)
        psi = np.kron(local.astype(complex), psi)  # later sites on higher bits
    return psi


def apply_floquet_period(psi: np.ndarray, params: ModelParams,
                         lat: LatticeSpec, K: float = 0.0) -> np.ndarray:
    """One period of exp(iJ sum XX) exp(ih sum Z), optionally followed by
    exp(iK sum X), acting on a normalized state."""
    L = lat.L
    _check_size(L)
    if psi.shape != (2 ** L,):
        raise ValidationError("state vector has the wrong dimension")
    idx = np.arange(2 ** L)
    zsum = np.zeros(2 ** L)
    for j in range(1, L + 1):
        zsum += _z_site(L, j)
    psi = psi * np.exp(1j * params.h * zsum)
    n_bonds = L if lat.bc.periodic else L - 1
    cj, sj = np.cos(params.J), np.sin(params.J)
    for j in range(1, n_bonds + 1):
        j2 = j % L + 1
        mask = (1 << (j - 1)) | (1 << (j2 - 1))
        psi = cj * psi + 1j * sj * psi[idx ^ mask]
    if K != 0.0:
        ck, sk = np.cos(K), np.sin(K)
        for j in range(1, L + 1):
            psi = ck * psi + 1j * sk * psi[idx ^ (1 << (j - 1))]
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValidationError("state annihilated exactly")
    return psi / norm


def sx_expectations(psi: np.ndarray, L: int) -> np.ndarray:
    """<S_x^j> for all sites (S = sigma/2)."""
    idx = np.arange(2 ** L)
    return np.array([np.real(np.vdot(psi, psi[idx ^ (1 << j)])) / 2.0
                     for j in range(L)])


def z_expectations(psi: np.ndarray, L: int) -> np.ndarray:
    p = np.abs(psi) ** 2
    return np.array([float(np.sum(p * _z_site(L, j))) for j in range(1, L + 1)])


def xx_expectation(psi: np.ndarray, L: int, i: int, j: int) -> float:
    """<X_i X_j>, 1-based sites."""
    idx = np.arange(2 ** L)
    mask = (1 << (i - 1)) | (1 << (j - 1))
    return float(np.real(np.vdot(psi, psi[idx ^ mask])))


def sx_edge_correlation(psi: np.ndarray, L: int) -> float:
    """<S_x^1 S_x^L> = <X_1 X_L> / 4."""
    return xx_expectation(psi, L, 1, L) / 4.0


def ghz_overlap(psi: np.ndarray) -> float:
    """Larger squared overlap with (|+...+> +- |-...->)/sqrt(2) in the X
    basis (the ferromagnetic order parameter direction).

    The two cat signs span the ferromagnetic doublet; their nonunitary decay
    rates split at finite size, so which one the steady state approaches is
    an initial-state detail.
    """
    dim = len(psi)
    plus = np.ones(dim) / np.sqrt(dim)
    par = (-1.0) ** np.array([bin(i).count("1") for i in range(dim)])
    minus = par / np.sqrt(dim)
    cats = [(plus + minus) / np.sqrt(2.0), (plus - minus) / np.sqrt(2.0)]
    return max(float(abs(np.vdot(c, psi)) ** 2) for c in cats)


def reduced_entropy_oracle(psi: np.ndarray, sites, L: int) -> float:
    """von Neumann entropy of the reduced state on ``sites`` (1-based) by
    dense partial trace."""
    _check_size(L)
    axes_keep = [L - s for s in sorted(sites)]  # tensor axis 0 is site L
    t = np.asarray(psi).reshape([2] * L)
    order = axes_keep + [ax for ax in range(L) if ax not in axes_keep]
    t = np.transpose(t, order).reshape(2 ** len(list(sites)), -1)
    sv = np.linalg.svd(t, compute_uv=False)
    p = sv ** 2
    p = p[p > 1e-14]
    return float(-np.sum(p * np.log(p)))


# --------------------------------------------------------------------------
# quench experiments
# --------------------------------------------------------------------------

@dataclass
class ObservableTrace:
    sx: np.ndarray              # (n_periods, L)
    sx_edge_corr: np.ndarray    # (n_periods,)
    ghz: np.ndarray             # (n_periods,)

    @property
    def n_periods(self) -> int:
        return self.sx.shape[0]


def quench_experiment(params: ModelParams, lat: LatticeSpec,
                      quench: QuenchConfig) -> ObservableTrace:
    """Per-period spin observables for the configured quench."""
    L = lat.L
    psi = product_state(quench.initial_state)
    sx = np.zeros((quench.n_periods, L))
    edge = np.zeros(quench.n_periods)
    ghz = np.zeros(quench.n_periods)
    for t in range(quench.n_periods):
        psi = apply_floquet_period(psi, params, lat, K=quench.K)
        sx[t] = sx_expectations(psi, L)
        edge[t] = sx_edge_correlation(psi, L)
        ghz[t] = ghz_overlap(psi)
    return ObservableTrace(sx, edge, ghz)
