"""Quasiparticle spectra of the one-period Majorana map.

Conventions
-----------
* The coupling kick contributes H_1 = i sum_j a_{2j} W'_{2j,2j+1} a_{2j+1}
  and the field kick H_2 = i sum_j a_{2j-1} W''_{2j-1,2j} a_{2j}, with the
  full antisymmetric matrices carrying J/2 and h/2 on their bonds.
* One period conjugates Majorana operators by exp(4W'') exp(4W'); the
  transfer matrix reported here is M = exp(4W') exp(4W''), similar to it,
  with identical spectrum.  M is complex orthogonal, so det M = 1 and the
  eigenvalues {mu} close under mu -> 1/mu.
* Quasienergies are eps = i Log(mu) on the principal branch, real parts
  folded to (-pi, pi].  For PBC-even the multiset equals the analytic
  momentum pairs {+-eps_k} over antiperiodic momenta, a calibration the
  test suite pins.
* Each kick is a direct sum of commuting two-Majorana rotations, so its
  exponential is assembled bond by bond in closed form (exact, O(L)).
* Both kicks are odd under the chiral sign Gamma = diag((-1)^m) and the
  mirror P: m -> 2L-1-m, so M commutes with R = Gamma P and splits into
  two L-dimensional reflection sectors.  Gamma swaps them and, in the
  symmetric time frame, inverts the map (chiral pairing): one L x L eig
  of the sector R = +i gives every mu, its inverse, and all right
  eigenvectors.  Left eigenvectors need no second eig: M^T M = 1 makes
  the left vector of mu the conjugate of the right vector of 1/mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import MetricPoleError, NumericalBreakdown, ValidationError
from .params import (BoundaryCondition, LatticeSpec, ModelParams, PhaseLabel,
                     PI4)

# --------------------------------------------------------------------------
# quadratic forms and kick exponentials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MajoranaQuadraticForm:
    """Antisymmetric W of H = i sum_jk a_j W_jk a_k on ``n`` Majoranas.

    ``bonds`` lists the entries W_pq = w = -W_qp as (p, q, w) in 0-based
    Majorana indices; kicks touch each Majorana at most once, which makes
    their exponentials exact closed forms.  Derived once here:
    ``partner``, each Majorana's bond partner (itself if unbonded);
    ``angle``, its rotation angle (+4w at p, -4w at q, 0 if unbonded);
    ``cos`` and ``sin`` of the angles as complex128 columns.
    """

    n: int
    bonds: tuple[tuple[int, int, complex], ...] = ()

    def __post_init__(self):
        p, q = np.array([b[:2] for b in self.bonds], dtype=int).reshape(-1, 2).T
        s = np.array([b[2] for b in self.bonds], dtype=complex)
        touched = np.concatenate([p, q])
        if np.unique(touched).size != touched.size:
            raise ValidationError("kick bonds must be disjoint")
        partner = np.arange(self.n)
        partner[p], partner[q] = q, p
        angle = np.zeros(self.n, dtype=complex)
        angle[p], angle[q] = 4 * s, -4 * s
        for name, value in (("partner", partner), ("angle", angle),
                            ("cos", np.cos(angle)[:, None]), ("sin", np.sin(angle)[:, None])):
            object.__setattr__(self, name, value)

    @property
    def w(self) -> np.ndarray:
        """The dense n x n matrix W, built on demand: W[j, partner[j]] = angle[j]/4."""
        w = np.zeros((self.n, self.n), dtype=complex)
        w[np.arange(self.n), self.partner] = self.angle / 4
        return w

    def kick(self, x: np.ndarray, sign: float = 1.0) -> np.ndarray:
        """exp(sign * 4 W) @ x as one rotation per bond, O(n) per column.

        Row p of the result is cos(t_p) x_p + sign sin(t_p) x_partner(p),
        t_p = angle_p.  For clongdouble ``x`` (the edge-pair refine) the
        cosines and sines of the exact angles are taken in that precision.
        """
        c, s = self.cos, self.sin
        if x.dtype == np.clongdouble:
            t = self.angle.astype(np.clongdouble)[:, None]
            c, s = np.cos(t), np.sin(t)
        y = x[self.partner] * (sign * s)
        y += c * x
        return y


class KickForms(NamedTuple):
    """The two kick generators (W', W'') of one period."""

    coupling_form: MajoranaQuadraticForm
    field_form: MajoranaQuadraticForm


def _form_from_bonds(n: int, p, q, s) -> MajoranaQuadraticForm:
    """Form with the bonds (p[i], q[i], s[i]) from index and value arrays."""
    return MajoranaQuadraticForm(n, tuple(zip(p.tolist(), q.tolist(), s.tolist())))


def build_kick_forms(params: ModelParams, lat: LatticeSpec) -> KickForms:
    """The two kick generators (W', W'') for the given chain.

    W' couples Majoranas (2j, 2j+1) with strength J/2; W'' couples
    (2j-1, 2j) with h/2.  On periodic chains the wraparound bond of W'
    carries the parity-sector sign (antiperiodic for the even sector);
    open chains drop it.
    """
    L, n = lat.L, lat.n_majorana
    site = np.arange(0, n, 2)
    p, q, s = site[1:] - 1, site[1:], np.full(L - 1, params.J / 2.0)
    if lat.bc.periodic:
        # (0, n-1) stores the (a_{2L}, a_1) bond with reversed orientation,
        # hence the extra minus sign on top of the sector sign.
        p, q, s = (np.append(p, 0), np.append(q, n - 1),
                   np.append(s, -lat.bc.wrap_sign * params.J / 2.0))
    return KickForms(_form_from_bonds(n, p, q, s),
                     _form_from_bonds(n, site, site + 1, np.full(L, params.h / 2.0)))


def kick_exponential(form: MajoranaQuadraticForm, sign: float = 1.0) -> np.ndarray:
    """exp(sign * 4 W) as a dense matrix (exact for disjoint bonds)."""
    return form.kick(np.eye(form.n, dtype=complex), sign)


# --------------------------------------------------------------------------
# transfer matrix
# --------------------------------------------------------------------------

@dataclass
class TransferMatrix:
    """One-period Majorana map M = exp(4W') exp(4W'') with its spectrum.

    ``eigenvalues`` lists the L eigenvalues mu of the reflection sector B_+
    and then their inverses; column i + L of ``right_eigenvectors`` is the
    chiral partner of column i (see ``build_transfer_matrix``).  Columns
    have unit norm.  ``m`` is built only when read.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray | None
    diagonalizable: bool
    condition_estimate: float
    coupling_form: MajoranaQuadraticForm
    field_form: MajoranaQuadraticForm

    @property
    def n(self) -> int:
        return self.coupling_form.n

    @cached_property
    def m(self) -> np.ndarray:
        return self.coupling_form.kick(kick_exponential(self.field_form))

    @property
    def left_eigenvectors(self) -> np.ndarray | None:
        """Columns l with l^H M = mu l^H.  M^T M = 1, so l = conj(v) for
        the right vector v of 1/mu, which sits half the columns away."""
        if self.right_eigenvectors is None:
            return None
        return np.roll(self.right_eigenvectors, self.n // 2, axis=1).conj()


def _require_reflection_odd(form: MajoranaQuadraticForm) -> None:
    """W must be odd under Gamma = diag((-1)^m) and under the mirror
    P: m -> n-1-m, i.e. bonds join Majoranas of opposite parity and the
    mirror image of each bond is a bond with the opposite angle."""
    j = np.arange(form.n)
    mirror = form.n - 1 - j
    bonded = form.partner != j
    if not (np.all((j[bonded] + form.partner[bonded]) % 2 == 1)
            and np.array_equal(form.partner[mirror], mirror[form.partner])
            and np.array_equal(form.angle[mirror], -form.angle)):
        raise ValidationError("kick forms must be odd under the chiral sign "
                              "(-1)^m and the chain mirror")


def build_transfer_matrix(coupling_form: MajoranaQuadraticForm,
                          field_form: MajoranaQuadraticForm,
                          cond_cutoff: float = 1e10) -> TransferMatrix:
    """Spectrum of M = K1 K2 (K1 = exp(4W'), K2 = exp(4W'')) from one L x L eig.

    Both kicks are odd under Gamma and P, so M commutes with R = Gamma P
    (R^2 = -1) and leaves the sector R = +i, with basis
    (e_m + i(-1)^m e_{n-1-m}) / sqrt(2), m < L, invariant.  Without the
    1/sqrt(2) the basis is e_m on rows m < L, so the block B_+ of M is the
    top L rows of the kicked basis.  Gamma swaps the sectors and inverts
    the map in the symmetric frame K2^{1/2} K1 K2^{1/2}, so for
    M v = mu v the vector K2^{-1/2} Gamma K2^{1/2} v = Gamma K2 v has
    eigenvalue 1/mu.  The eigenvector matrix is the unitary sector basis
    times the two L x L coordinate blocks, whose singular values give its
    condition number.
    """
    if coupling_form.n != field_form.n:
        raise ValidationError("kick forms must have matching dimension")
    _require_reflection_odd(coupling_form)
    _require_reflection_odd(field_form)
    n = coupling_form.n
    L = n // 2
    sign = (-1.0) ** np.arange(n)
    top = np.arange(L)
    mirror = n - 1 - top
    basis = np.zeros((n, L), dtype=complex)
    basis[top, top] = 1.0
    basis[mirror, top] = 1j * sign[:L]
    b_plus = coupling_form.kick(field_form.kick(basis))[:L]
    try:
        mu, c_plus = np.linalg.eig(b_plus)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalBreakdown(f"eigendecomposition failed: {exc}") from exc
    v_plus = np.empty((n, L), dtype=complex)
    v_plus[:L] = c_plus / math.sqrt(2.0)
    v_plus[mirror] = 1j * sign[:L, None] * v_plus[:L]
    v_minus = sign[:, None] * field_form.kick(v_plus)
    v_minus /= np.linalg.norm(v_minus, axis=0)
    sv = np.linalg.svd(np.stack([c_plus, math.sqrt(2.0) * v_minus[:L]]),
                       compute_uv=False)
    cond = float(sv.max() / sv.min()) if sv.min() > 0 else np.inf
    with np.errstate(divide="ignore", invalid="ignore"):  # mu underflowed to 0: no partner
        mu = np.concatenate([mu, 1.0 / mu])
    tm = TransferMatrix(mu, np.hstack([v_plus, v_minus]), cond < cond_cutoff, cond,
                        coupling_form, field_form)
    if not tm.diagonalizable:
        # exceptional point: fall back to Schur values, flagged
        t, _ = scipy.linalg.schur(tm.m, output="complex")
        tm.eigenvalues, tm.right_eigenvectors = np.diag(t).copy(), None
    return tm


def fold_real_part(re: np.ndarray | float) -> np.ndarray | float:
    """Map real parts into (-pi, pi], identifying -pi with +pi."""
    out = np.mod(np.asarray(re, dtype=float) + np.pi, 2 * np.pi) - np.pi
    out = np.where(out <= -np.pi + 1e-15, out + 2 * np.pi, out)
    if np.isscalar(re):
        return float(out)
    return out


def quasienergies_from_eigenvalues(mu: np.ndarray) -> np.ndarray:
    eps = 1j * np.log(mu.astype(complex))
    return fold_real_part(eps.real) + 1j * eps.imag


# --------------------------------------------------------------------------
# momentum-space dispersion
# --------------------------------------------------------------------------

class ModeClass:
    REAL = "real"
    CONJUGATE_PAIR = "conjugate-pair"
    GROW_DECAY = "grow-decay"
    EXCEPTIONAL = "exceptional"


@dataclass(frozen=True)
class DispersionPoint:
    k: float
    epsilon: tuple[complex, complex]
    w_k: complex
    x: complex
    classification: str


def _classify_pair(eps: complex, defect: float, tol: float) -> str:
    if defect < tol:
        return ModeClass.EXCEPTIONAL
    if abs(eps.imag) < tol:
        return ModeClass.REAL
    re = abs(fold_real_part(eps.real))
    if re < tol or abs(re - np.pi) < tol:
        return ModeClass.CONJUGATE_PAIR
    return ModeClass.GROW_DECAY


def _dispersion(J: complex, h: complex, k) -> tuple[np.ndarray, ...]:
    """x, disc = (x/4)^2 - 1, w_k and eps = i w_k (folded) at each momentum.

    x = 2(1+cos k) cos(2h-2J) + 2(1-cos k) cos(2h+2J) and exp(w_k) are the
    two reciprocal roots of a quadratic with cosh(w_k) = x/4; the pair is
    eps = +-i w_k folded to the principal zone.
    """
    k = np.asarray(k, dtype=float)
    x = (2 * (1 + np.cos(k)) * np.cos(2 * h - 2 * J)
         + 2 * (1 - np.cos(k)) * np.cos(2 * h + 2 * J))
    disc = (x / 4.0) ** 2 - 1.0
    root = np.sqrt(np.asarray(disc, dtype=complex))
    ew = x / 4.0 + root
    ew = np.where(np.abs(ew) < 1e-300, x / 4.0 - root, ew)  # degenerate root at x = -4
    w = np.log(ew)
    eps = 1j * w
    eps.real = fold_real_part(eps.real)
    return x, disc, w, eps


def floquet_dispersion(J: complex, h: complex, k: float,
                       tol: float = 1e-10) -> DispersionPoint:
    """Quasienergy pair at momentum k for the kicked chain (see ``_dispersion``)."""
    x, disc, w, eps = (a[0] for a in _dispersion(J, h, [k]))
    eps = complex(eps)
    # the partner is the exact negative so the pair sums to zero; for a
    # +pi mode it therefore prints as -pi (same quasienergy class)
    pair = (eps, -eps)
    cls = _classify_pair(eps, abs(disc), tol)
    return DispersionPoint(float(k), pair, complex(w), complex(x), cls)


def dispersion_continuous(J: complex, h: complex, k: float,
                          tol: float = 1e-10) -> DispersionPoint:
    """Continuous-time limit spectrum +-2 sqrt(h^2 - 2hJ cos k + J^2)."""
    rad = h * h - 2 * h * J * np.cos(k) + J * J
    lam = 2 * np.sqrt(complex(rad))
    cls = _classify_pair(lam, abs(rad), tol)
    return DispersionPoint(float(k), (lam, -lam), complex("nan"), complex(rad), cls)


def allowed_momenta(lat: LatticeSpec) -> np.ndarray:
    """Momenta of the fermion sector in (-pi, pi]."""
    L, m = lat.L, np.arange(lat.L)
    if lat.bc is BoundaryCondition.PBC_EVEN:
        return -np.pi + (2 * m + 1) * np.pi / L
    if lat.bc is BoundaryCondition.PBC_ODD:
        return fold_real_part(2 * np.pi * m / L)
    raise ValidationError("momenta are defined for periodic chains")


@dataclass(frozen=True)
class RealModeCensus:
    count: int
    total: int

    @property
    def density(self) -> float:
        return self.count / self.total


def count_real_modes(params: ModelParams, lat_or_L, tol_real: float | None = None,
                     sectors: str = "both") -> RealModeCensus:
    """Census of real quasienergies over the allowed momenta.

    By default both parity sectors are scanned so that the isolated k = 0
    zero mode of the J = h line (periodic sector only) is visible.
    """
    L = lat_or_L.L if isinstance(lat_or_L, LatticeSpec) else int(lat_or_L)
    if sectors == "both":
        bcs = [BoundaryCondition.PBC_EVEN, BoundaryCondition.PBC_ODD]
    else:
        bcs = [BoundaryCondition(sectors)]
    count = total = 0
    for bc in bcs:
        # one eps of each +-eps pair per momentum; both have the same |eps|
        eps = _dispersion(params.J, params.h, allowed_momenta(LatticeSpec(L, bc)))[3]
        radius = max(np.max(np.abs(eps)), 1.0)
        tol = tol_real if tol_real is not None else 1e-8 * radius
        count += 2 * int(np.sum(np.abs(eps.imag) < tol))
        total += 2 * len(eps)
    return RealModeCensus(count, total)


# --------------------------------------------------------------------------
# spectrum reports and edge modes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeModeRecord:
    kind: str                  # "zero" or "pi"
    energy: complex
    localization_length: float
    left_weight: float
    right_weight: float


@dataclass
class SpectrumReport:
    quasienergies: np.ndarray
    edge_modes: list[EdgeModeRecord]
    boundary_condition: BoundaryCondition
    diagonalizable: bool = True
    delocalization_warning: bool = False


def quasienergies_from_transfer(tm: TransferMatrix,
                                bc: BoundaryCondition) -> SpectrumReport:
    return SpectrumReport(quasienergies_from_eigenvalues(tm.eigenvalues), [], bc,
                          tm.diagonalizable)


def _inv2_ld(s):
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    return np.array([[s[1, 1], -s[0, 1]], [-s[1, 0], s[0, 0]]],
                    dtype=s.dtype) / det


def _refine_pair(tm: TransferMatrix, idx: np.ndarray) -> np.ndarray:
    """Eigenvalues of a two-mode cluster via biorthogonal projection.

    The invariant plane of a nearly degenerate pair is well conditioned even
    when the individual eigenvectors are not; applying M to that plane in
    extended precision resolves exponentially small edge splittings that
    plain double-precision eig smears to ~1e-6.  An edge pair mu, 1/mu sits
    in two reflection sectors, so the projected 2x2 map is near diagonal and
    its eigenvalues are split with (b00 - b11)^2 + 4 b01 b10, not with
    tr^2 - 4 det, which cancels there.
    """
    vr = np.linalg.qr(tm.right_eigenvectors[:, idx])[0].astype(np.clongdouble)
    vl = np.linalg.qr(tm.left_eigenvectors[:, idx])[0].astype(np.clongdouble)
    s = vl.conj().T @ vr
    if abs(s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]) < 1e-12:
        return tm.eigenvalues[idx]
    mvr = tm.coupling_form.kick(tm.field_form.kick(vr))
    b = _inv2_ld(s) @ (vl.conj().T @ mvr)
    tr = b[0, 0] + b[1, 1]
    disc = np.sqrt((b[0, 0] - b[1, 1]) ** 2 + 4 * b[0, 1] * b[1, 0])
    return np.array([complex((tr + disc) / 2), complex((tr - disc) / 2)])


def _site_weights(vec: np.ndarray) -> np.ndarray:
    p = np.abs(vec) ** 2
    w = p[0::2] + p[1::2]
    return w / w.sum()


def _localization_length(weights: np.ndarray) -> float:
    """Decay length (sites) from a log-linear fit over the outer quarter."""
    L = len(weights)
    n = max(3, L // 4)
    if weights[:n].sum() >= weights[-n:].sum():
        tail = weights[:n]
    else:
        tail = weights[-n:][::-1]
    y = np.log(np.maximum(tail, 1e-300))
    slope = np.polyfit(np.arange(n), y, 1)[0]
    if slope >= 0:
        return float("inf")
    return float(-2.0 / slope)  # weights are |psi|^2


def _require_edge_lattice(lat: LatticeSpec) -> None:
    if lat.bc.periodic:
        raise ValidationError("edge modes are defined for open chains")
    if lat.L < 8:
        raise ValidationError("edge detection needs L >= 8")


def detect_edge_modes(params: ModelParams, lat: LatticeSpec,
                      tol_edge: float = 1e-3, im_tol: float = 1e-2,
                      edge_fraction: float = 0.1,
                      refine: bool = True) -> SpectrumReport:
    """Scan the open-chain spectrum for localized zero and pi modes.

    Near alpha = pi/4 the edge modes delocalize at finite size; an empty
    scan there raises no error but sets ``delocalization_warning``.  At an
    exceptional point the transfer matrix has no eigenvector basis to scan,
    and NumericalBreakdown carries its condition estimate.
    """
    _require_edge_lattice(lat)
    w1, w2 = build_kick_forms(params, lat)
    tm = build_transfer_matrix(w1, w2)
    if tm.right_eigenvectors is None:
        raise NumericalBreakdown("open-chain transfer matrix is not diagonalizable; "
                                 "no edge-mode scan", condition=tm.condition_estimate)
    report = quasienergies_from_transfer(tm, lat.bc)
    eps = report.quasienergies
    ne = max(1, int(edge_fraction * lat.L))

    candidates = {"zero": [], "pi": []}
    for i in range(tm.n):
        if abs(eps[i].imag) > im_tol:
            continue
        re = abs(eps[i].real)
        kind = None
        if re < tol_edge:
            kind = "zero"
        elif abs(re - np.pi) < tol_edge:
            kind = "pi"
        if kind is None:
            continue
        weights = _site_weights(tm.right_eigenvectors[:, i])
        lw, rw = float(weights[:ne].sum()), float(weights[-ne:].sum())
        if lw + rw <= 0.5:
            continue
        candidates[kind].append((i, weights, lw, rw))

    records = []
    for kind, items in candidates.items():
        idx = np.array([i for i, *_ in items], dtype=int)
        energies = {i: eps[i] for i in idx}
        if refine and len(idx) == 2:
            mu_ref = _refine_pair(tm, idx)
            eref = quasienergies_from_eigenvalues(mu_ref)
            # keep the refined value closest to each raw one
            d = np.abs(eref[:, None] - np.array([eps[i] for i in idx])[None, :])
            order = d.argmin(axis=0)
            for j, i in enumerate(idx):
                energies[i] = complex(eref[order[j]])
        for i, weights, lw, rw in items:
            records.append(EdgeModeRecord(kind, energies[i],
                                          _localization_length(weights), lw, rw))

    report.edge_modes = records
    a = (params.alpha_J % (np.pi / 2.0))
    report.delocalization_warning = (not records) and abs(a - PI4) < 0.1 * PI4
    return report


# --------------------------------------------------------------------------
# pseudo-Hermiticity certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricOperator:
    eta: np.ndarray
    residual: float
    family: str
    certified: bool


def bdg_block(J: complex, h: complex, k: float) -> np.ndarray:
    """Single-particle Hamiltonian block in the (c_k, c^dag_{-k}) basis for
    H = J sum X X + h sum Z."""
    a = 2 * (J * np.cos(k) - h)
    b = 2j * J * np.sin(k)
    return np.array([[a, b], [-b, -a]], dtype=complex)


_NAMBU_FROM_MAJORANA = np.array([[1.0, 1.0], [1j, -1j]], dtype=complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def momentum_kick_blocks(J: complex, h: complex, k: float):
    """2x2 momentum blocks of exp(4W') and exp(4W'') in the Majorana basis."""
    e2 = np.array([[np.cos(2 * h), np.sin(2 * h)],
                   [-np.sin(2 * h), np.cos(2 * h)]], dtype=complex)
    e1 = np.array([[np.cos(2 * J), np.sin(2 * J) * np.exp(-1j * k)],
                   [-np.sin(2 * J) * np.exp(1j * k), np.cos(2 * J)]], dtype=complex)
    return e1, e2


def cell_momenta(lat: LatticeSpec) -> np.ndarray:
    """Two-site Bloch momenta q = 2 pi (m + theta) / N, m = 0..N-1, of a
    periodic chain of even length L = 2N: theta = 1/2 (antiperiodic) for
    pbc-even, 0 for pbc-odd.  q/2 and q/2 + pi run over ``allowed_momenta``."""
    if not lat.bc.periodic or lat.L % 2:
        raise ValidationError("two-site cells need a periodic chain of even length")
    n = lat.L // 2
    theta = 0.5 if lat.bc is BoundaryCondition.PBC_EVEN else 0.0
    return 2 * np.pi * (np.arange(n) + theta) / n


def frame_map_blocks(params: ModelParams, q: np.ndarray) -> np.ndarray:
    """4x4 blocks F_q of the annihilator-frame map exp(-4W') exp(-4W'').

    A two-site Bloch vector carries e^{iqx} u on cell x (sites 2x+1, 2x+2,
    Majorana rows 4x..4x+3).  The kicks act bond by bond, as in
    ``period_map``: the bonds inside a cell are those of a two-site open
    chain, and the coupling bond from row 3 to row 0 of the next cell
    carries e^{iq}.  The spectrum of F_q is that of the one-site blocks of
    ``momentum_kick_blocks`` at k = q/2 and k + pi.
    """
    w1, w2 = build_kick_forms(params, LatticeSpec(2, BoundaryCondition.OBC))
    f = np.repeat(w1.kick(kick_exponential(w2, -1.0), -1.0)[None], len(q), axis=0)
    c, s = np.cos(2 * params.J), np.sin(2 * params.J)
    phase = np.exp(1j * np.asarray(q, dtype=float))[:, None]
    f[:, 3], f[:, 0] = c * f[:, 3] - s * phase * f[:, 0], c * f[:, 0] + s / phase * f[:, 3]
    return f


def _branch_log(mu: complex) -> complex:
    """Principal log with Arg(-r) pinned to +pi regardless of signed zeros."""
    ang = math.atan2(mu.imag, mu.real)
    if abs(abs(ang) - math.pi) < 1e-12:
        ang = math.pi
    return math.log(abs(mu)) + 1j * ang


def effective_hamiltonian_nambu(J: complex, h: complex, k: float) -> np.ndarray:
    """i Log of the one-period momentum block, rotated to the complex-fermion
    basis, with the branch chosen so conjugation-paired eigenvalues stay
    paired (negative real propagator eigenvalues both take Arg = +pi)."""
    e1, e2 = momentum_kick_blocks(J, h, k)
    v = _NAMBU_FROM_MAJORANA
    t = np.linalg.solve(v, (e1 @ e2) @ v)
    mu, vec = np.linalg.eig(t)
    vinv = np.linalg.inv(vec)
    hk = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        hk += (1j * _branch_log(complex(mu[i]))) * np.outer(vec[:, i], vinv[i, :])
    return hk


def _metric_residual(eta: np.ndarray, hk: np.ndarray) -> float:
    lhs = eta @ hk @ np.linalg.inv(eta)
    return float(np.linalg.norm(lhs - hk.conj().T) / max(np.linalg.norm(hk), 1e-300))


def _hermitian_lstsq_metric(hk: np.ndarray) -> np.ndarray:
    """Least-squares Hermitian eta minimizing ||eta H - H^dag eta||."""
    n = hk.shape[0]
    basis = []
    for i in range(n):
        e = np.zeros((n, n), complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), complex)
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
            e = np.zeros((n, n), complex)
            e[i, j] = 1j
            e[j, i] = -1j
            basis.append(e)
    cols = [ (b @ hk - hk.conj().T @ b).ravel() for b in basis ]
    a = np.array([np.concatenate([c.real, c.imag]) for c in cols]).T
    _, _, vt = np.linalg.svd(a)
    coef = vt[-1]
    eta = sum(c * b for c, b in zip(coef, basis))
    eta = eta / np.linalg.norm(eta) * math.sqrt(n)
    return eta


def pseudo_hermiticity_certificate(params: ModelParams, k: float,
                                   continuous: bool | None = None) -> MetricOperator:
    """Closed-form similarity metric where one is known, else a numerical
    least-squares attempt (reported, not certified).

    Families: (i) continuous limit with J = conj(h) uses the cot(k/2)
    metric; (ii) the alpha = pi/4 line uses the first Pauli matrix on the
    effective Floquet Hamiltonian; Hermitian couplings use the identity.
    """
    J, h = params.J, params.h
    hermitian = params.beta_J == 0 and params.beta_h == 0
    conj_pair = abs(J - np.conj(h)) < 1e-12 and not hermitian
    a_fold = params.alpha_J % (np.pi / 2.0)
    dual_line = (params.equal_alpha and abs(a_fold - PI4) < 1e-12
                 and not hermitian)
    if continuous is None:
        continuous = conj_pair

    if hermitian:
        hk = bdg_block(J, h, k) if continuous else effective_hamiltonian_nambu(J, h, k)
        eta = np.eye(2, dtype=complex)
        res = _metric_residual(eta, hk)
        return MetricOperator(eta, res, "hermitian", res < 1e-8)

    if conj_pair and continuous:
        if abs(math.sin(k / 2.0)) < 1e-12:
            raise MetricPoleError("cot(k/2) metric is singular at k = 0")
        g = (params.beta_J / params.alpha_J) / math.tan(k / 2.0)
        eta = np.array([[1.0, g], [g, 1.0]], dtype=complex)
        hk = bdg_block(J, h, k)
        res = _metric_residual(eta, hk)
        return MetricOperator(eta, res, "conjugate-couplings", res < 1e-8)

    if dual_line:
        hk = effective_hamiltonian_nambu(J, h, k)
        res = _metric_residual(_SIGMA_X, hk)
        return MetricOperator(_SIGMA_X.copy(), res, "self-dual-line", res < 1e-8)

    hk = effective_hamiltonian_nambu(J, h, k)
    eta = _hermitian_lstsq_metric(hk)
    sv = np.linalg.svd(eta, compute_uv=False)
    res = _metric_residual(eta, hk) if sv[-1] > 1e-8 * sv[0] else np.inf
    return MetricOperator(eta, res, "numerical", False)


def spectrum_conjugation_defect(eps: np.ndarray) -> float:
    """Distance between the quasienergy multiset and its conjugate.

    Optimal matching with real parts compared modulo 2 pi; zero means the
    spectrum closes under complex conjugation.
    """
    from scipy.optimize import linear_sum_assignment

    eps = np.asarray(eps, dtype=complex)
    conj = eps.conj()
    dre = np.abs(fold_real_part(eps.real[:, None] - conj.real[None, :]))
    dim = np.abs(eps.imag[:, None] - conj.imag[None, :])
    cost = np.hypot(dre, dim)
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def classify_phase_from_spectrum(obc_report: SpectrumReport | None,
                                 pbc_census: RealModeCensus,
                                 density_threshold: float = 0.1,
                                 few_mode_max: int = 4) -> PhaseLabel:
    """Phase label from the edge-mode census plus the real-mode density.

    ``obc_report`` is read only when the census finds no real modes, and
    may be None otherwise.
    """
    if pbc_census.density >= density_threshold:
        return PhaseLabel.CRITICAL_VOLUME
    if pbc_census.count > few_mode_max:
        return PhaseLabel.AMBIGUOUS
    if pbc_census.count > 0:
        return PhaseLabel.CRITICAL_LOG
    kinds = {r.kind for r in obc_report.edge_modes}
    if kinds == set():
        return PhaseLabel.TRIVIAL
    if kinds == {"zero"}:
        return PhaseLabel.ZERO_MODE
    if kinds == {"pi"}:
        return PhaseLabel.PI_MODE
    return PhaseLabel.ZERO_PI


def classify_phase(params: ModelParams, L: int = 40,
                   tol_edge: float = 1e-3, im_tol: float = 1e-2,
                   confirm_L: int | None = 144) -> PhaseLabel:
    """Convenience wrapper: momentum census plus open-chain edge scan.

    ``L`` sizes the momentum census.  Edge modes within a few localization
    lengths of a phase boundary are invisible at small L, so the edge scan
    runs once, at ``confirm_L`` when that is larger than ``L`` (the bulk
    census is size-insensitive).  It is skipped when the census finds real
    modes, which decide the label on their own.
    """
    census = count_real_modes(params, L)
    scan_L = confirm_L if confirm_L and confirm_L > L else L
    lat = LatticeSpec(scan_L, BoundaryCondition.OBC)
    _require_edge_lattice(lat)
    obc = None if census.count else detect_edge_modes(
        params, lat, tol_edge=tol_edge, im_tol=im_tol, refine=False)
    return classify_phase_from_spectrum(obc, census)
