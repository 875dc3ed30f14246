"""Brute-force references that the tests check the package against.

The dense Majorana correlation matrix of a spin state, the invariants
and bond expectations of a Majorana correlation matrix C (the array held
by ``gaussian.CorrelationMatrix``), and the decay length of an edge mode's
site weights by a tail fit.  Nothing in the package calls them.
"""

import numpy as np

from floquet_ising.ed import _check_size, _z_site
from floquet_ising.params import LatticeSpec


def _apply_majorana(psi: np.ndarray, m: int, L: int) -> np.ndarray:
    """Act with Majorana a_m (0-based index) on a dense state.

    a_{2j-1} = (prod_{l<j} Z_l) X_j and a_{2j} = -(prod_{l<j} Z_l) Y_j in
    the convention c_j = (prod_{l<j} Z_l)(X_j + i Y_j)/2.
    """
    j = m // 2 + 1
    idx = np.arange(2 ** L)
    string = np.ones(2 ** L)
    for l in range(1, j):
        string = string * _z_site(L, l)
    flipped = psi[idx ^ (1 << (j - 1))]
    if m % 2 == 0:  # a_{2j-1}: string * X_j
        return string * flipped
    # a_{2j} = -string * Y_j;  (Y psi)[n] = -i z_j(n) psi[n ^ bit]
    return string * (1j * _z_site(L, j)) * flipped


def majorana_correlation_dense(psi: np.ndarray, L: int) -> np.ndarray:
    """Majorana correlation matrix <a_m a_n> of a normalized dense state."""
    _check_size(L)
    acted = [_apply_majorana(psi, m, L) for m in range(2 * L)]
    c = np.empty((2 * L, 2 * L), dtype=complex)
    for m in range(2 * L):
        for n in range(2 * L):
            c[m, n] = np.vdot(acted[m], acted[n])  # a_m self-adjoint
    return c


def cprime(c: np.ndarray) -> np.ndarray:
    return c - np.eye(c.shape[0])


def anticommutation_defect(c: np.ndarray) -> float:
    return float(np.linalg.norm(c + c.T - 2 * np.eye(c.shape[0])))


def purity_defect(c: np.ndarray) -> float:
    """Distance of C'^2 from the identity; equivalently the defect of
    (iC')^2 = -1.  Zero for globally pure Gaussian states."""
    cp = cprime(c)
    return float(np.linalg.norm(cp @ cp - np.eye(cp.shape[0])))


def xx_expectations(c: np.ndarray, lat: LatticeSpec) -> np.ndarray:
    """<X_j X_{j+1}> = <i a_{2j} a_{2j+1}>; the wraparound bond carries
    the parity-sector sign."""
    L = c.shape[0] // 2
    vals = [(1j * c[2 * j + 1, 2 * j + 2]).real for j in range(L - 1)]
    if lat.bc.periodic:
        vals.append((lat.bc.wrap_sign * 1j * c[2 * L - 1, 0]).real)
    return np.array(vals)


def decay_length_fit(weights: np.ndarray) -> float:
    """Decay length (sites, of the amplitude) of an edge mode from its site
    weights |psi|^2: -2 over the least-squares slope of log weight over the
    outer quarter of the heavier end, on the weights above 1e-20 of the
    largest only, since those below are rounding; inf where the tail
    does not decay."""
    n = max(3, len(weights) // 4)
    tail = weights[:n] if weights[:n].sum() >= weights[-n:].sum() else weights[-n:][::-1]
    site = np.flatnonzero(tail > 1e-20 * weights.max())
    slope = np.polyfit(site, np.log(tail[site]), 1)[0]
    return float(-2.0 / slope) if slope < 0 else float("inf")
