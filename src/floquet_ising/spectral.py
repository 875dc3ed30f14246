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
  folded to (-pi, pi].  On periodic chains the multiset equals the
  momentum pairs {+-eps_k} of ``_dispersion`` over ``allowed_momenta``, a
  calibration the test suite pins.
* One Bloch convention: k names the same block in ``allowed_momenta``
  (odd multiples of pi/L on pbc-even, even ones on pbc-odd, any L),
  ``_dispersion`` and ``momentum_kick_blocks`` (tr(e1 e2)/2 = x(k)/4).
* Each kick is a direct sum of commuting two-Majorana rotations, so its
  exponential is assembled bond by bond in closed form (exact, O(L)).
* Both kicks are odd under the chiral sign Gamma = diag((-1)^m) and the
  mirror P: m -> 2L-1-m, so M commutes with R = Gamma P and splits into
  two L-dimensional reflection sectors.  Gamma swaps them and, in the
  symmetric time frame, inverts the map (chiral pairing): the eigenvalues
  of the L x L sector block B_+ (R = +i) give every mu and its inverse, and
  an eigenvector of B_+ gives the right vectors of both.  Left eigenvectors
  need no second solve: M^T M = 1 makes the left vector of mu the
  conjugate of the right vector of 1/mu.
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

_MODE_CLASS_TOL = 1e-10  # pair classes: exceptional defect, conjugate-pair Re eps
_REAL_MODE_RTOL = 1e-8   # real mode: |Im eps| below this times max(max |eps|, 1)
_EDGE_RE_TOL = 1e-3      # edge candidates: |Re eps| or |Re eps - pi| below this
_EDGE_IM_TOL = 1e-2      # ... and |Im eps| at most this
_COND_CUTOFF = 1e10      # largest eigenvalue condition the edge scan accepts
_EDGE_FRACTION = 0.1     # an edge mode holds half its weight on this end share
_VOLUME_DENSITY = 0.1    # real-mode density at which the label is volume law
_FEW_MODE_MAX = 4        # more isolated real modes than this are ambiguous

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

    def step(self, x: np.ndarray, sign: float = 1.0) -> np.ndarray:
        """exp(sign 4W') exp(sign 4W'') @ x, bond by bond: the one place
        where two kicks make a period (sign = -1 moves annihilator frames)."""
        return self.coupling_form.kick(self.field_form.kick(x, sign), sign)


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


# --------------------------------------------------------------------------
# transfer matrix
# --------------------------------------------------------------------------

@dataclass
class TransferMatrix:
    """One-period Majorana map M = exp(4W') exp(4W'') with its spectrum.

    ``eigenvalues`` lists the L eigenvalues mu of the reflection-sector
    block ``b_plus`` and then their inverses (see ``build_transfer_matrix``).
    The dense ``m`` is built on first read.  Eigenvectors are computed only
    for the edge scan's candidates (``_candidate_vectors``).
    """

    eigenvalues: np.ndarray
    b_plus: np.ndarray
    kicks: KickForms

    @property
    def n(self) -> int:
        return self.kicks.coupling_form.n

    @cached_property
    def m(self) -> np.ndarray:
        return self.kicks.step(np.eye(self.n, dtype=complex))


def _sector_vectors(field_form: MajoranaQuadraticForm, c: np.ndarray) -> np.ndarray:
    """Unit right eigenvectors [v_+, v_-] of M for the unit eigenvectors c
    (L x k) of B_+: v_+ is c in the sector basis and v_- = Gamma K2 v_+ is
    the chiral partner with eigenvalue 1/mu."""
    L = len(c)
    sign = (-1.0) ** np.arange(2 * L)
    v_plus = np.empty((2 * L, c.shape[1]), dtype=complex)
    v_plus[:L] = c / math.sqrt(2.0)
    v_plus[L:] = (1j * sign[:L, None] * v_plus[:L])[::-1]
    v_minus = sign[:, None] * field_form.kick(v_plus)
    v_minus /= np.linalg.norm(v_minus, axis=0)
    return np.hstack([v_plus, v_minus])


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
                          field_form: MajoranaQuadraticForm) -> TransferMatrix:
    """Spectrum of M = K1 K2 (K1 = exp(4W'), K2 = exp(4W'')) from one L x L eigvals.

    Both kicks are odd under Gamma and P, so M commutes with R = Gamma P
    (R^2 = -1) and leaves the sector R = +i, with basis
    (e_m + i(-1)^m e_{n-1-m}) / sqrt(2), m < L, invariant.  Without the
    1/sqrt(2) the basis is e_m on rows m < L, so the block B_+ of M is the
    top L rows of the kicked basis; it is pentadiagonal, as each bond joins
    neighbouring rows or (the periodic wrap) a row and its mirror.  Gamma
    swaps the sectors and inverts the map in the symmetric frame
    K2^{1/2} K1 K2^{1/2}, so for M v = mu v the vector
    K2^{-1/2} Gamma K2^{1/2} v = Gamma K2 v has eigenvalue 1/mu.
    No eigenvectors are computed here; the edge scan solves for the few it
    reads (``_candidate_vectors``).
    """
    if coupling_form.n != field_form.n:
        raise ValidationError("kick forms must have matching dimension")
    _require_reflection_odd(coupling_form)
    _require_reflection_odd(field_form)
    n = coupling_form.n
    L = n // 2
    top = np.arange(L)
    basis = np.zeros((n, L), dtype=complex)
    basis[top, top] = 1.0
    basis[n - 1 - top, top] = 1j * (-1.0) ** top
    kicks = KickForms(coupling_form, field_form)
    b_plus = kicks.step(basis)[:L]
    try:
        mu = np.linalg.eigvals(b_plus)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalBreakdown(f"eigenvalue solve failed: {exc}") from exc
    with np.errstate(divide="ignore", invalid="ignore"):  # mu underflowed to 0: no partner
        mu = np.concatenate([mu, 1.0 / mu])
    return TransferMatrix(mu, b_plus, kicks)


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
    classification: str


def _real(eps: np.ndarray) -> np.ndarray:
    """The one real-mode rule: |Im eps| < _REAL_MODE_RTOL max(max |eps|, 1),
    the max taken over the whole spectrum ``eps`` being classified."""
    return np.abs(eps.imag) < _REAL_MODE_RTOL * max(np.max(np.abs(eps)), 1.0)


def _classify_pair(eps: complex, defect: float, real: bool) -> str:
    if defect < _MODE_CLASS_TOL:
        return ModeClass.EXCEPTIONAL
    if real:
        return ModeClass.REAL
    re = abs(fold_real_part(eps.real))
    if re < _MODE_CLASS_TOL or abs(re - np.pi) < _MODE_CLASS_TOL:
        return ModeClass.CONJUGATE_PAIR
    return ModeClass.GROW_DECAY


def classify_modes(eps: np.ndarray, defect=None) -> list[str]:
    """Class of each pair +-eps, real by ``_real`` over all of ``eps``; the
    exceptional test runs only where coalescence ``defect`` values are given."""
    defect = np.full(len(eps), np.inf) if defect is None else np.abs(defect)
    return [_classify_pair(complex(e), d, r) for e, d, r in zip(eps, defect, _real(eps))]


def _dispersion(J: complex, h: complex, k) -> tuple[np.ndarray, np.ndarray]:
    """disc = (x/4)^2 - 1 and eps = i w_k (folded) at each momentum.

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
    eps = 1j * np.log(ew)
    eps.real = fold_real_part(eps.real)
    return disc, eps


def dispersion_points(J: complex, h: complex, k) -> list[DispersionPoint]:
    """Quasienergy pairs at the momenta ``k``, the real-mode rule taken over
    all of them.  The partner is the exact negative so the pair sums to
    zero; for a +pi mode it therefore prints as -pi (same quasienergy class)."""
    k = np.asarray(k, dtype=float)
    disc, eps = _dispersion(J, h, k)
    return [DispersionPoint(float(q), (complex(e), -complex(e)), c)
            for q, e, c in zip(k, eps, classify_modes(eps, disc))]


def floquet_dispersion(J: complex, h: complex, k: float) -> DispersionPoint:
    """Quasienergy pair at momentum k for the kicked chain (see ``_dispersion``)."""
    return dispersion_points(J, h, [k])[0]


def dispersion_continuous(J: complex, h: complex, k: float) -> DispersionPoint:
    """Continuous-time limit spectrum +-2 sqrt(h^2 - 2hJ cos k + J^2)."""
    rad = h * h - 2 * h * J * np.cos(k) + J * J
    lam = 2 * np.sqrt(complex(rad))
    return DispersionPoint(float(k), (lam, -lam), classify_modes(np.array([lam]), [rad])[0])


def allowed_momenta(lat: LatticeSpec) -> np.ndarray:
    """Momenta of the fermion sector in (-pi, pi]: odd multiples of pi/L on
    pbc-even (antiperiodic), even ones on pbc-odd, for odd L too."""
    L, m = lat.L, np.arange(lat.L)
    if lat.bc is BoundaryCondition.PBC_EVEN:
        return -np.pi + (2 * m + 1 + L % 2) * np.pi / L
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


def count_real_modes(params: ModelParams, L: int, sectors: str = "both") -> RealModeCensus:
    """Census of real quasienergies over the allowed momenta.

    By default both parity sectors are scanned so that the isolated k = 0
    zero mode of the J = h line (periodic sector only) is visible.
    """
    if sectors == "both":
        bcs = [BoundaryCondition.PBC_EVEN, BoundaryCondition.PBC_ODD]
    else:
        bcs = [BoundaryCondition(sectors)]
    count = total = 0
    for bc in bcs:
        # one eps of each +-eps pair per momentum; both have the same |eps|
        eps = _dispersion(params.J, params.h, allowed_momenta(LatticeSpec(L, bc)))[1]
        count += 2 * int(np.sum(_real(eps)))
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
    delocalization_warning: bool = False


def quasienergies_from_transfer(tm: TransferMatrix) -> SpectrumReport:
    return SpectrumReport(quasienergies_from_eigenvalues(tm.eigenvalues), [])


def _refine_pair(tm: TransferMatrix, mu, vr, vl) -> np.ndarray:
    """Eigenvalues of a two-mode cluster via biorthogonal projection.

    The invariant plane of a nearly degenerate pair is well conditioned even
    when the individual eigenvectors are not; applying M to that plane in
    extended precision resolves exponentially small edge splittings that
    plain double-precision eig smears to ~1e-6.  An edge pair mu, 1/mu sits
    in two reflection sectors, so the projected 2x2 map is near diagonal and
    its eigenvalues are split with (b00 - b11)^2 + 4 b01 b10, not with
    tr^2 - 4 det, which cancels there.  ``vr``, ``vl``: vectors of ``mu``.
    """
    vr = np.linalg.qr(vr)[0].astype(np.clongdouble)
    vl = np.linalg.qr(vl)[0].astype(np.clongdouble)
    s = vl.conj().T @ vr
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    if abs(det) < 1e-12:
        return mu
    mvr = tm.kicks.step(vr)
    s_inv = np.array([[s[1, 1], -s[0, 1]], [-s[1, 0], s[0, 0]]], dtype=s.dtype) / det
    b = s_inv @ (vl.conj().T @ mvr)
    tr = b[0, 0] + b[1, 1]
    disc = np.sqrt((b[0, 0] - b[1, 1]) ** 2 + 4 * b[0, 1] * b[1, 0])
    return np.array([complex((tr + disc) / 2), complex((tr - disc) / 2)])


def _site_weights(vec: np.ndarray) -> np.ndarray:
    p = np.abs(vec) ** 2
    w = p[0::2] + p[1::2]
    return w / w.sum(axis=0)


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


def _candidate_vectors(tm: TransferMatrix, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit right eigenvectors of mu_j, then of 1/mu_j (sector indices j),
    and the eigenvalue condition kappa = 1/|l^H r| of each pair.

    Two steps of inverse iteration on the pentadiagonal B_+ - mu_j (banded
    LU, O(L)), shifted off mu_j by tol = L eps ||B_+||_1 so that no pivot
    cancels to zero; a residual ||B_+ x - mu_j x|| above 64 tol raises
    NumericalBreakdown.  l of mu is conj(r) of 1/mu, so kappa = 1/|v_-^T v_+|.
    """
    b, mu = tm.b_plus, tm.eigenvalues[j]
    L = len(b)
    tol = L * np.finfo(float).eps * np.linalg.norm(b, 1)
    band = np.array([np.pad(np.diagonal(b, k), (max(k, 0), max(-k, 0)))
                     for k in (2, 1, 0, -1, -2)])
    c = np.empty((L, len(j)), dtype=complex)
    try:
        for col, shift in enumerate(mu + tol):
            a, x = band.copy(), np.exp(1j * np.arange(L))
            a[2] -= shift
            for _ in range(2):
                x = scipy.linalg.solve_banded((2, 2), a, x, check_finite=False)
                x /= np.linalg.norm(x)
            c[:, col] = x
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"inverse iteration failed: {exc}") from exc
    residual = np.linalg.norm(b @ c - c * mu, axis=0)
    if not np.all(residual <= 64 * tol):
        raise NumericalBreakdown(f"edge candidate residual {np.max(residual):.1e} "
                                 f"above its gate {64 * tol:.1e}")
    v = _sector_vectors(tm.kicks.field_form, c)
    with np.errstate(divide="ignore"):
        kappa = 1.0 / np.abs(np.sum(v[:, :len(j)] * v[:, len(j):], axis=0))
    return v, kappa


def detect_edge_modes(params: ModelParams, lat: LatticeSpec,
                      refine: bool = True) -> SpectrumReport:
    """Scan the open-chain spectrum for localized zero and pi modes.

    Candidates are the quasienergies within ``_EDGE_RE_TOL`` of 0 or pi and
    ``_EDGE_IM_TOL`` of the real axis, with their chiral partners; only they
    get eigenvectors (``_candidate_vectors``).  One with more than half its
    weight on the outer ``_EDGE_FRACTION`` of sites is an edge mode.  A
    candidate with eigenvalue condition kappa >= ``_COND_CUTOFF`` (an
    exceptional point in the edge window; the constant is read at call
    time) or a failed residual gate raises NumericalBreakdown, with the
    worst kappa as ``condition``; bulk eigenvalues are not judged.  Near
    alpha = pi/4 the edge modes delocalize at finite size; an empty scan
    there raises no error but sets ``delocalization_warning``.
    """
    _require_edge_lattice(lat)
    tm = build_transfer_matrix(*build_kick_forms(params, lat))
    report = quasienergies_from_transfer(tm)
    eps = report.quasienergies
    re = np.abs(eps.real)
    kinds = np.where(re < _EDGE_RE_TOL, "zero",
                     np.where(np.abs(re - np.pi) < _EDGE_RE_TOL, "pi", ""))
    kinds[np.abs(eps.imag) > _EDGE_IM_TOL] = ""
    j = np.unique(np.flatnonzero(kinds) % lat.L)
    idx = np.concatenate([j, j + lat.L])
    vecs, kappa = _candidate_vectors(tm, j)
    if np.any(kappa >= _COND_CUTOFF):
        raise NumericalBreakdown("ill-conditioned edge candidate: exceptional point "
                                 "in the edge window", condition=float(kappa.max()))
    weights = _site_weights(vecs)
    ne = max(1, int(_EDGE_FRACTION * lat.L))
    lw, rw = weights[:ne].sum(axis=0), weights[-ne:].sum(axis=0)

    records = []
    for kind in ("zero", "pi"):
        sel = np.flatnonzero((kinds[idx] == kind) & (lw + rw > 0.5))
        energies = eps[idx[sel]]
        if refine and len(sel) == 2:
            left = np.roll(vecs, len(j), axis=1).conj()
            eref = quasienergies_from_eigenvalues(_refine_pair(
                tm, tm.eigenvalues[idx[sel]], vecs[:, sel], left[:, sel]))
            # keep the refined value closest to each raw one
            energies = eref[np.abs(eref[:, None] - energies[None, :]).argmin(axis=0)]
        records += [EdgeModeRecord(kind, complex(e), _localization_length(weights[:, k]),
                                   float(lw[k]), float(rw[k]))
                    for e, k in zip(energies, sel)]

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
    """Majorana-basis 2x2 blocks of exp(4W'), exp(4W'') at the k of ``_dispersion``."""
    e2 = np.array([[np.cos(2 * h), np.sin(2 * h)],
                   [-np.sin(2 * h), np.cos(2 * h)]], dtype=complex)
    e1 = np.array([[np.cos(2 * J), -np.sin(2 * J) * np.exp(1j * k)],
                   [np.sin(2 * J) * np.exp(-1j * k), np.cos(2 * J)]], dtype=complex)
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
    cell = build_kick_forms(params, LatticeSpec(2, BoundaryCondition.OBC))
    f = np.repeat(cell.step(np.eye(4, dtype=complex), -1.0)[None], len(q), axis=0)
    c, s = np.cos(2 * params.J), np.sin(2 * params.J)
    phase = np.exp(1j * np.asarray(q, dtype=float))[:, None]
    f[:, 3], f[:, 0] = c * f[:, 3] - s * phase * f[:, 0], c * f[:, 0] + s / phase * f[:, 3]
    return f


def effective_hamiltonian_nambu(J: complex, h: complex, k: float) -> np.ndarray:
    """i Log of the one-period momentum block t in the complex-fermion basis,
    in closed form: det t = 1 and c = tr t / 2 = x/4, so with r = sqrt(disc)
    and eps of ``_dispersion``, i Log t = ((eps - s)/r)(t - c) - |s|.  s = 0
    keeps the pair +-eps; a pair on the negative real axis (the conjugate-pair
    rule at Re eps = +-pi) takes Arg = +pi in both logs: s = pi sign(Re eps).
    At r = 0 the ratio is its limit i/c: t = +-1 gives 0 or -pi."""
    e1, e2 = momentum_kick_blocks(J, h, k)
    v = _NAMBU_FROM_MAJORANA
    t = np.linalg.solve(v, (e1 @ e2) @ v)
    c = np.trace(t) / 2
    disc, eps = (complex(a[0]) for a in _dispersion(J, h, [k]))
    r, on_axis = np.sqrt(disc), abs(abs(eps.real) - math.pi) < _MODE_CLASS_TOL
    s = math.copysign(math.pi, eps.real) if on_axis else 0.0
    ratio = (eps - s) / r if r else 1j / c
    return ratio * (t - c * np.eye(2)) - abs(s) * np.eye(2)


def _metric_residual(eta: np.ndarray, hk: np.ndarray) -> float:
    """||eta H eta^-1 - H^dag|| / ||H||; inf where eta is singular."""
    with np.errstate(all="ignore"):
        try:
            lhs = eta @ hk @ np.linalg.inv(eta)
        except np.linalg.LinAlgError:
            return np.inf
        res = float(np.linalg.norm(lhs - hk.conj().T) / max(np.linalg.norm(hk), 1e-300))
    return res if np.isfinite(res) else np.inf


def pseudo_hermiticity_certificate(params: ModelParams, k: float,
                                   continuous: bool | None = None) -> MetricOperator:
    """Closed-form similarity metric where one is known, else the exact
    eigenbasis verdict.

    Families: (i) continuous limit with J = conj(h) uses the cot(k/2)
    metric; (ii) the alpha = pi/4 line uses the first Pauli matrix on the
    effective Floquet Hamiltonian; Hermitian couplings use the identity.
    Elsewhere ("numerical") a diagonalizable 2 x 2 block H = R D R^-1 is
    pseudo-Hermitian iff its eigenvalues are real or a complex-conjugate
    pair, with metric l1 l1^dag + l2 l2^dag or l1 l2^dag + l2 l1^dag over
    the left eigenvectors l_i, the columns of R^-dag; the one with the
    smaller residual is reported, certified under the same gate as the
    families.  An exceptional block (coalesced eigenvectors) has no metric;
    where R is singular in floating point its residual is inf.
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
    with np.errstate(all="ignore"):
        try:
            l1, l2 = np.linalg.inv(np.linalg.eig(hk)[1]).conj()
        except np.linalg.LinAlgError:
            l1 = l2 = np.zeros(2)
        metrics = (np.outer(l1, l1.conj()) + np.outer(l2, l2.conj()),
                   np.outer(l1, l2.conj()) + np.outer(l2, l1.conj()))
    residuals = [_metric_residual(eta, hk) for eta in metrics]
    best = int(np.argmin(residuals))
    res = residuals[best]
    return MetricOperator(metrics[best], res, "numerical", res < 1e-8)


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
                                 pbc_census: RealModeCensus) -> PhaseLabel:
    """Phase label from the edge-mode census plus the real-mode density.

    ``obc_report`` is read only when the census finds no real modes, and
    may be None otherwise.
    """
    if pbc_census.density >= _VOLUME_DENSITY:
        return PhaseLabel.CRITICAL_VOLUME
    if pbc_census.count > _FEW_MODE_MAX:
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
    obc = None if census.count else detect_edge_modes(params, lat, refine=False)
    return classify_phase_from_spectrum(obc, census)
