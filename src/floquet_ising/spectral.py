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
  ``_dispersion`` and ``bloch_blocks`` (tr/2 of exp(4W'_k) exp(4W''_k) is
  x(k)/4), which builds every one-site block.  The annihilator-frame map
  and the continuous limit at k read it at -k: t_k = exp(-4W'_{-k})
  exp(-4W''_{-k}), h_k = i(W'_{-k} + W''_{-k}), and so does the
  continuous certificate, 4 N^-1 h_k N (N = ``_NAMBU_FROM_MAJORANA``).
* Each kick is a direct sum of commuting two-Majorana rotations, so its
  exponential is a closed form (exact, O(L)), gathered from the cos and sin
  of a kick's at most five angles (``_kick_scalars``, ``_kick_forms``).
* Both kicks (``build_kick_forms``) are odd under the chiral sign
  Gamma = diag((-1)^m) and the mirror P: m -> 2L-1-m on every boundary
  condition, so M commutes with R = Gamma P and splits into two
  L-dimensional reflection sectors (``sector_basis``).  Gamma swaps them
  and, in the symmetric time frame, inverts the map (chiral pairing): the
  eigenvalues of the L x L sector block B_+ (R = +i) give every mu and its
  inverse, and an eigenvector of B_+ gives the right vectors of both.  Left
  eigenvectors need no second solve: M^T M = 1 makes the left vector of mu
  the conjugate of the right vector of 1/mu.
* The edge window (eps near 0 and pi) lies in the discs |mu -+ 1| < 0.02,
  so the edge scan needs no dense spectrum (``detect_edge_modes``): the
  argument principle counts B_+'s eigenvalues in each disc from det of the
  tridiagonal pencil K2_+ - z K1_+^-1, a closed-form 2 x 2 transfer-matrix
  power per contour point, and Rayleigh-quotient iteration on the band of
  B_+ gives a disc's one eigenvalue with its eigenvector.  Anything else
  falls back to the dense eigenvalues, each refined with its vector by the
  same iteration, and the report records why.  A record's decay length is
  the closed form of its kind (``_decay_lengths``), not a fit; its refined
  energy a quotient on the same band in long double.  No kick form is built.
* What the kicks, the scan and the census need of the chain length alone
  is built once per length and shared read-only (``_sector_plan``,
  ``_coupling_plan``, ``_chain_plan``, ``_census_momenta``): the template
  chain and gather indices of the sector bands, each Majorana's bond
  partners and angle indices, the sector phases, the chiral signs, the
  start vector of the Rayleigh-quotient iteration and the census momenta.
  No disc constant is kept there; each is read at call time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
_DISC_RADIUS = 0.02      # windowed edge scan: discs |z -+ 1| < this hold the edge window
_DISC_POINTS = 32        # contour points to start each disc count with ...
_DISC_POINTS_MAX = 256   # ... inserted where a phase step reaches _DISC_STEP, up to this
_DISC_STEP = np.pi / 4 - 1e-9  # less rounding: a step of exactly pi/4 is refined
_RQI_STEPS = 10          # Rayleigh-quotient steps that locate a disc's one eigenvalue
_SOLVE_MAX = 1e150       # a banded solve with a part this large is singular
_VOLUME_DENSITY = 0.1    # real-mode density at which the label is volume law
_FEW_MODE_MAX = 4        # more isolated real modes than this are ambiguous

# --------------------------------------------------------------------------
# quadratic forms and kick exponentials
# --------------------------------------------------------------------------

def _kick_cos_sin(angle, what: str = "kick exp(4W)") -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of kick angles (or the flow's, ``what``), the one finiteness
    test of a kick: where either overflows (|Im angle| beyond ~710) the
    exponential has no double-precision form, and NumericalBreakdown is
    raised with the largest |Im angle| as ``condition``."""
    with np.errstate(over="ignore", invalid="ignore"):
        cos, sin = np.cos(angle), np.sin(angle)
    if not (np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))):
        grow = float(np.abs(np.imag(angle)).max())
        raise NumericalBreakdown(f"{what} overflows: cos and sin of an angle "
                                 f"with |Im| = {grow:.4g} are not finite", condition=grow)
    return cos, sin


def _period_overflow(J: complex, h: complex) -> NumericalBreakdown:
    """The error of a period with no double-precision form: condition
    |Im 2J| + |Im 2h|, the kicks' growth."""
    grow = abs((2 * J).imag) + abs((2 * h).imag)
    return NumericalBreakdown(f"period exp(4W') exp(4W'') overflows: the kicks' growth "
                              f"|Im 2J| + |Im 2h| = {grow:.4g}", condition=grow)


def _period_cos_sin(kicks: list, J: complex, h: complex) -> list:
    """The two kicks' (cos, sin), each kick tested (``_kick_cos_sin``): the one
    overflow test of a period.  Where the product of the kicks' largest cos or
    sin (by modulus, one from each kick) is not finite, the period has no
    double-precision form (``_period_overflow``)."""
    with np.errstate(over="ignore"):  # |z| of finite parts may pass the largest double
        a, b = (float(np.abs(np.concatenate(kick, axis=None)).max()) for kick in kicks)
    if not math.isfinite(a * b):  # a product of Python floats overflows to inf silently
        raise _period_overflow(J, h)
    return kicks


def _rotate(x: np.ndarray, partner, cos, sin, sign: float) -> np.ndarray:
    """A kick exp(sign 4W) @ x from its (partner, cos, sin): rows x_partner(p)
    (sign sin_p) + cos_p x_p in the one order every kick takes, so the same
    operands give the same bits."""
    y = x[partner] * (sign * sin)
    y += cos * x
    return y


class KickForms(NamedTuple):
    """The two kicks exp(4W'), exp(4W'') of one period, each a (partner, cos,
    sin) triple (``_kick_forms``) for ``_rotate``."""

    coupling: tuple
    field: tuple

    def step(self, x: np.ndarray, sign: float = 1.0) -> np.ndarray:
        """exp(sign 4W') exp(sign 4W'') @ x, bond by bond: the one place
        where two kicks make a period (sign = -1 moves annihilator frames)."""
        return _rotate(_rotate(x, *self.field, sign), *self.coupling, sign)


def _bond_ends(params: ModelParams, bc: BoundaryCondition) -> list:
    """Each kick's first and last bond value (s_0, s_b), W_pq = s = -W_qp:
    J/2, and J/2 or a periodic chain's wraparound (0, 2L-1) bond, reversed,
    -wrap_sign J/2; then h/2 and h/2.  Every bond of a kick is one of them."""
    last = -bc.wrap_sign * params.J / 2.0 if bc.periodic else params.J / 2.0
    return [np.array([params.J / 2.0, last]), np.array([params.h / 2.0, params.h / 2.0])]


def _kick_scalars(params: ModelParams, lat: LatticeSpec, dtype) -> list:
    """(cos, sin) of each kick's angles [4s_0, 4s_b, -4s_0, -4s_b, 0]
    (``_bond_ends``), coupling first, in ``dtype`` (complex128, or long
    double for the edge-pair refine): on the uniform chain every angle of a
    kick is one of these five, so every kick is gathered from them
    (``_kick_forms``).  An overflowing kick or period raises
    NumericalBreakdown (``_period_cos_sin``)."""
    angles = (np.concatenate([4 * s, -4 * s, np.zeros(1)]).astype(dtype)
              for s in _bond_ends(params, lat.bc))
    return _period_cos_sin([_kick_cos_sin(a) for a in angles], params.J, params.h)


def _kick_plans(L: int, bc: BoundaryCondition) -> tuple:
    """Each kick's Majorana partners and angle indices, coupling first."""
    chain = _chain_plan(L)
    return _coupling_plan(L, bc), (chain.pairs, chain.field)


def _kick_forms(scalars: list, L: int, bc: BoundaryCondition) -> KickForms:
    """The two kicks of the L-site chain of ``bc``, the one gather of the kick
    scalars (``_kick_scalars``, in their dtype) by ``_kick_plans``."""
    return KickForms(*((partner, cos[k], sin[k])
                       for (cos, sin), (partner, k) in zip(scalars, _kick_plans(L, bc))))


def build_kick_forms(params: ModelParams, lat: LatticeSpec) -> KickForms:
    """The two kicks (W', W'') of the chain, gathered from its kick scalars
    (``_kick_forms``); an overflowing kick or period raises
    NumericalBreakdown (``_kick_scalars``)."""
    return _kick_forms(_kick_scalars(params, lat, complex), lat.L, lat.bc)


_G_FIELD = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # g''


@dataclass(frozen=True)
class BlochBlocks:
    """The one-site Majorana blocks of ``bloch_blocks``: 4W'_k = 2J g'_k and
    4W'' = 2h g'', ``coupling`` the stack of g'_k = [[0, -e^{ik}],
    [e^{-ik}, 0]] (k.shape x 2 x 2) and g'' = [[0, 1], [-1, 0]], g^2 = -1."""

    J: complex
    h: complex
    coupling: np.ndarray

    def period(self, sign: float = 1.0) -> np.ndarray:
        """exp(sign 4W'_k) exp(sign 4W''_k), each kick cos 2x + sign sin 2x g;
        an overflowing kick or period (``_period_cos_sin``), or a product
        that is not finite, raises NumericalBreakdown (``_period_overflow``)."""
        (c1, c2), (s1, s2) = _kick_cos_sin(np.array([2 * self.J, 2 * self.h]))
        _period_cos_sin([(c1, s1), (c2, s2)], self.J, self.h)
        with np.errstate(over="ignore", invalid="ignore"):  # finite kicks, overflowing sums
            t = ((c1 * np.eye(2) + sign * s1 * self.coupling)
                 @ (c2 * np.eye(2) + sign * s2 * _G_FIELD))
        if not np.isfinite(t).all():
            raise _period_overflow(self.J, self.h)
        return t

    def hamiltonian(self) -> np.ndarray:
        """The continuous limit i(W'_k + W''_k) = (i/2)(J g'_k + h g'')."""
        return 0.5j * (self.J * self.coupling + self.h * _G_FIELD)

    def flow(self, t: float) -> np.ndarray:
        """exp(-4i t H_k) in closed form: H_k is traceless, H_k^2 = lam^2, so it
        is cos(4t lam) - i (sin(4t lam)/lam) H_k, the ratio 4t at lam = 0; an
        overflowing cos or sin raises NumericalBreakdown (``_kick_cos_sin``)."""
        hk = self.hamiltonian()
        lam = np.sqrt(hk[..., :1, :1] ** 2 + hk[..., :1, 1:] * hk[..., 1:, :1])
        cos, sin = _kick_cos_sin(4 * t * lam, "flow exp(-4i t H)")
        ratio = np.divide(sin, lam, out=np.full_like(sin, 4 * t), where=lam != 0)
        return cos * np.eye(2) - 1j * ratio * hk


def bloch_blocks(J: complex, h: complex, k) -> BlochBlocks:
    """The one builder of the one-site Bloch blocks, at momenta ``k`` of any
    shape (the module's Bloch convention says which k each reader takes)."""
    e = np.exp(1j * np.asarray(k, dtype=float))[..., None, None]
    return BlochBlocks(J, h, np.array([[0, -1], [0, 0]]) * e + np.array([[0, 0], [1, 0]]) / e)


# --------------------------------------------------------------------------
# transfer matrix
# --------------------------------------------------------------------------

@dataclass
class TransferMatrix:
    """One-period Majorana map M = exp(4W') exp(4W'') with its spectrum.

    ``band`` holds the five diagonals of the pentadiagonal L x L
    reflection-sector block B_+ = K1_+ K2_+ in LAPACK band layout (7 x L,
    Fortran order, B_+[i, j] at row 4 + i - j, rows 0 and 1 free for
    ``zgbsv``'s fill-in), and ``tol`` = L eps ||B_+||_1, the shift of the
    edge scan's banded solves.  ``pencil`` (2 x 3 x L) holds the three
    diagonals of the tridiagonal sector kicks K2_+ and K1_+^-1, entry
    [i, j] at row 1 + i - j, whose pencil K2_+ - z K1_+^-1 gives the disc
    counts their determinant phases in closed form (``_det_phases``);
    ``field_kick``, the field kick's cos and sin (``_sector_vectors``).  The
    dense ``b_plus`` and ``eigenvalues`` (those of ``b_plus``, then their
    inverses) are formed on first read; eigenvectors only for the edge
    scan's candidates (``_rayleigh_pair``).  No kick form is built.
    """

    band: np.ndarray
    pencil: np.ndarray
    tol: float
    field_kick: list
    lat: LatticeSpec

    @property
    def n(self) -> int:
        return self.lat.n_majorana

    @cached_property
    def b_plus(self) -> np.ndarray:
        L = self.band.shape[1]
        i, j = _band_index(L, 2)
        b = np.zeros((L, L), dtype=complex)
        b[i, j] = self.band[4 + i - j, j]
        return b

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """A sector eigenvalue outside [tiny, 1/tiny] (tiny the smallest
        normal double; eig can return an exact 0), where its partner 1/mu
        over- or underflows, or not finite raises NumericalBreakdown, as a
        failed solve does."""
        try:
            mu = np.linalg.eigvals(self.b_plus)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise NumericalBreakdown(f"eigenvalue solve failed: {exc}") from exc
        a, tiny = np.abs(mu), np.finfo(float).tiny
        bad = ~((a >= tiny) & (a <= 1 / tiny))  # nan or inf too: |mu| is not finite
        if bad.any():
            raise NumericalBreakdown(f"sector eigenvalue {mu[bad][0]:.4g} underflowed, overflowed "
                                     "or is not finite: outside [tiny, 1/tiny], 1/mu has no double")
        return _pairs(mu)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


class _ChainPlan(NamedTuple):
    """Vectors of an L-site chain that depend on L alone, read-only."""

    phase: np.ndarray   # i(-1)^m, m < L: the mirror-row entries of the sector basis
    chiral: np.ndarray  # (-1)^m, m < 2L, a column: the chiral sign Gamma
    start: np.ndarray   # e^{im}, m < L: the start vector of the Rayleigh-quotient iteration
    pairs: np.ndarray   # m XOR 1, m < 2L: each Majorana's field-bond partner ...
    field: np.ndarray   # ... and the index of its field angle (``_kick_scalars``), a column


@lru_cache(maxsize=64)
def _chain_plan(L: int) -> _ChainPlan:
    m = np.arange(2 * L)
    plan = _ChainPlan(1j * (-1.0) ** m[:L], ((-1.0) ** m)[:, None], np.exp(1j * m[:L]),
                      m ^ 1, 2 * (m[:, None] % 2))
    _read_only(*plan)
    return plan


def sector_basis(n: int) -> np.ndarray:
    """sqrt(2) times an orthonormal basis of the reflection sector R = +i:
    the n x n/2 columns e_m + i(-1)^m e_{n-1-m}, m < n/2, whose top n/2
    rows are the identity.  Their conjugates span R = -i."""
    m, u = np.arange(n // 2), np.zeros((n, n // 2), dtype=complex)
    u[m, m], u[n - 1 - m, m] = 1.0, _chain_plan(n // 2).phase
    return u


def _band_index(L: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of every entry [i, j], |i - j| <= w, of an L x L band."""
    i = np.arange(L) + np.arange(-w, w + 1)[:, None]
    j = np.broadcast_to(np.arange(L), i.shape)
    inside = (i >= 0) & (i < L)
    return i[inside], j[inside]


@lru_cache(maxsize=64)
def _coupling_plan(L: int, bc: BoundaryCondition) -> tuple[np.ndarray, np.ndarray]:
    """Each Majorana's coupling-bond partner (itself if unbonded) and the
    index of its angle in ``_kick_scalars`` (a column) on the L-site chain of ``bc``,
    read-only: bonds (p, p + 1), p = 1, 3, .., 2L-3, and a periodic chain's (0, 2L-1)."""
    p = np.arange(1, 2 * L - 2, 2)
    p, q = (np.append(p, 0), np.append(p + 1, 2 * L - 1)) if bc.periodic else (p, p + 1)
    partner, angle = np.arange(2 * L), np.full((2 * L, 1), 4)
    partner[p], partner[q] = q, p
    angle[p], angle[q], angle[p[-1]], angle[q[-1]] = 0, 2, 1, 3
    _read_only(partner, angle)
    return partner, angle


@lru_cache(maxsize=64)
def _sector_plan(L: int, bc: BoundaryCondition) -> tuple[np.ndarray, ...]:
    """What ``build_transfer_matrix`` needs of (L, bc) alone, read-only: the
    ``sector_basis`` of the template chain (L0 = min(L, 8 + L % 2) sites)
    and each band (L x 7) and pencil entry's flat index into its blocks."""
    L0 = min(L, 8 + L % 2)
    size, j = 2 * L0 * L0, np.arange(L)
    # the template column of column j: three at each end, the middle two between
    src = np.where(j < 3, j, np.where(j >= L - 3, j + L0 - L, 3 + (j - 3) % 2))
    index = []
    for w, top, blocks in ((2, 4, [0]), (1, 1, [1, 2])):  # K1 K2 U; K2 U, K1^-1 U
        i, k = _band_index(L, w)
        index.append(np.full((len(blocks), top + w + 1, L), 3 * size))  # 3 size: a zero
        index[-1][:, top + i - k, k] = np.c_[blocks] * size + (src[k] + i - k) * L0 + src[k]
    plan = sector_basis(2 * L0), index[0][0].T.copy(), index[1]
    _read_only(*plan)
    return plan


def _sector_vectors(field_kick: list, c: np.ndarray) -> np.ndarray:
    """Unit right eigenvectors [v_+, v_-] of M for the unit eigenvectors c
    (L x k) of B_+: v_+ = U c / sqrt(2) in the ``sector_basis`` U, written
    by index (top L rows c / sqrt(2), row 2L-1-m that times i(-1)^m), and
    v_- = Gamma K2 v_+ is the chiral partner with eigenvalue 1/mu, K2
    rotating each field bond by its cos and sin ``field_kick``."""
    plan = _chain_plan(len(c))
    c = c / math.sqrt(2.0)
    v_plus = np.concatenate([c, (plan.phase[:, None] * c)[::-1]])
    cos, sin = field_kick
    v_minus = plan.chiral * _rotate(v_plus, plan.pairs, cos[plan.field], sin[plan.field], 1.0)
    v_minus /= np.linalg.norm(v_minus, axis=0)
    return np.hstack([v_plus, v_minus])


def _sector_blocks(scalars: list, lat: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The band and pencil of ``TransferMatrix`` from ``_kick_scalars``, in
    their dtype, by the template chain's kick forms (``_kick_forms``)."""
    u, band, pencil = _sector_plan(lat.L, lat.bc)
    coupling, field_kick = _kick_forms(scalars, len(u) // 2, lat.bc)
    k2 = _rotate(u, *field_kick, 1.0)
    blocks = np.concatenate([_rotate(k2, *coupling, 1.0).ravel(), k2.ravel(),
                             _rotate(u, *coupling, -1.0).ravel(), [0]])
    return blocks[band].T, blocks[pencil]  # band: L x 7 in C order, so Fortran 7 x L


def build_transfer_matrix(params: ModelParams, lat: LatticeSpec) -> TransferMatrix:
    """M = K1 K2 (K1 = exp(4W'), K2 = exp(4W'')) by the bands of its L x L
    sector blocks, closed forms of the kick scalars (``_sector_blocks``).

    Both kicks are odd under Gamma and P on every boundary condition, so
    each commutes with R = Gamma P (R^2 = -1) and leaves the sector R = +i
    of ``sector_basis`` invariant; a kick's sector block is the top L rows
    of the kicked basis, and B_+ = K1_+ K2_+.  Each kick's block is
    tridiagonal and B_+ pentadiagonal: the band, and the ``pencil`` of K2_+
    and K1_+^-1 (the coupling kick with sign -1).  On a uniform chain a
    column repeats the one two before it but for the boundary entries: row
    0 (the open end or the wraparound bond) reaches columns 0 to 2, the
    mirror rows (the sector's halves meet at the middle bond) L-2 and L-1.
    So the blocks are those of a template chain of at most 9 sites, same
    parity and boundary (``_sector_plan``), kicked from the scalars in the
    kick's order (``_rotate``): three end columns kept at each end, the
    middle two repeated, bit for bit the dense kicks' (signed zeros too).
    Nothing is diagonalized here (``eigenvalues``, ``_rayleigh_pair``).  An
    overflowing kick or period raises as ``build_kick_forms`` does; below
    that bound the kicks' sums can still overflow, and a band (through
    ``tol``) or pencil that is not finite raises NumericalBreakdown with
    condition |Im 2J| + |Im 2h| before any scan.
    """
    scalars = _kick_scalars(params, lat, complex)
    with np.errstate(over="ignore", invalid="ignore"):  # finite kicks, overflowing sums
        band, pencil = _sector_blocks(scalars, lat)
        tol = lat.L * np.finfo(float).eps * np.abs(band).sum(axis=0).max()
    if not (np.isfinite(tol) and np.isfinite(pencil).all()):
        grow = abs((2 * params.J).imag) + abs((2 * params.h).imag)
        raise NumericalBreakdown(f"sector band overflows: the kicks' growth "
                                 f"|Im 2J| + |Im 2h| = {grow:.4g}", condition=grow)
    return TransferMatrix(band, pencil, tol, scalars[1], lat)


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


def _classify_pair(eps: complex, defect: float, real: bool, folded: bool = True) -> str:
    if defect < _MODE_CLASS_TOL:
        return ModeClass.EXCEPTIONAL
    if real:
        return ModeClass.REAL
    re = abs(fold_real_part(eps.real) if folded else eps.real)
    if re < _MODE_CLASS_TOL or (folded and abs(re - np.pi) < _MODE_CLASS_TOL):
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
    eps = +-i w_k folded to the principal zone, exp(w_k) = x/4 + sqrt(disc)
    (1/(x/4 - sqrt(disc)) where the sum cancels); where (x/4)^2 overflows
    (|Im(2h +- 2J)| beyond ~355) exp(w_k) is x/2 to rounding.  A cosine or
    an x that overflows (|Im(2h +- 2J)| beyond ~709) raises NumericalBreakdown
    with the larger |Im(2h +- 2J)| as ``condition``, as an overflowing kick does.
    """
    k = np.asarray(k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        c_minus, c_plus = np.cos(2 * h - 2 * J), np.cos(2 * h + 2 * J)
        x = 2 * (1 + np.cos(k)) * c_minus + 2 * (1 - np.cos(k)) * c_plus
        disc = (x / 4.0) ** 2 - 1.0
    if not (cmath.isfinite(c_minus) and cmath.isfinite(c_plus) and np.isfinite(x).all()):
        grow = float(max(abs((2 * h - 2 * J).imag), abs((2 * h + 2 * J).imag)))
        raise NumericalBreakdown(f"dispersion overflows at |Im(2h +- 2J)| = {grow:.4g}",
                                 condition=grow)
    big = ~np.isfinite(disc)  # (x/4)^2 overflows: arccosh(x/4) = log(x/2) to rounding
    root = np.sqrt(np.asarray(np.where(big, 0.0, disc), dtype=complex))
    ew, rest = x / 4.0 + root, x / 4.0 - root  # ew rest = 1, the sum cancels if smaller
    ew = np.divide(1.0, rest, out=ew, where=np.abs(ew) < np.abs(rest))
    eps = 1j * np.log(np.where(big, x / 2.0, ew))
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
    """Continuous-limit pair +-2 sqrt(h^2 - 2hJ cos k + J^2), classed without the Floquet fold."""
    rad = h * h - 2 * h * J * np.cos(k) + J * J
    lam = 2 * np.sqrt(complex(rad))
    kind = _classify_pair(lam, abs(rad), bool(_real(np.array([lam]))[0]), folded=False)
    return DispersionPoint(float(k), (lam, -lam), kind)


def allowed_momenta(lat: LatticeSpec) -> np.ndarray:
    """Momenta of the fermion sector in (-pi, pi]: odd multiples of pi/L on
    pbc-even (antiperiodic), even ones on pbc-odd, for odd L too."""
    L, m = lat.L, np.arange(lat.L)
    if lat.bc is BoundaryCondition.PBC_EVEN:
        return -np.pi + (2 * m + 1 + L % 2) * np.pi / L
    if lat.bc is BoundaryCondition.PBC_ODD:
        return fold_real_part(2 * np.pi * m / L)
    raise ValidationError("momenta are defined for periodic chains")


@lru_cache(maxsize=64)
def _census_momenta(L: int, bc: BoundaryCondition) -> np.ndarray:
    """``allowed_momenta`` of the L-site chain in sector ``bc``, read-only,
    built once per (L, bc)."""
    k = allowed_momenta(LatticeSpec(L, bc))
    _read_only(k)
    return k


def cell_momenta(lat: LatticeSpec) -> np.ndarray:
    """Two-site Bloch momenta q = 2 pi (m + theta) / N, m = 0..N-1, of a
    periodic chain of even length L = 2N: theta = 1/2 (antiperiodic) for
    pbc-even, 0 for pbc-odd.  q/2 and q/2 + pi run over ``allowed_momenta``."""
    if not lat.bc.periodic or lat.L % 2:
        raise ValidationError("two-site cells need a periodic chain of even length")
    n = lat.L // 2
    theta = 0.5 if lat.bc is BoundaryCondition.PBC_EVEN else 0.0
    return 2 * np.pi * (np.arange(n) + theta) / n


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
    zero mode of the J = h line (periodic sector only) is visible.  One
    ``_dispersion`` call; ``_real`` reads each sector's own max |eps|.
    """
    bcs = ([BoundaryCondition.PBC_EVEN, BoundaryCondition.PBC_ODD] if sectors == "both"
           else [BoundaryCondition(sectors)])
    k = np.concatenate([_census_momenta(L, bc) for bc in bcs])
    # one eps of each +-eps pair per momentum; both have the same |eps|
    eps = _dispersion(params.J, params.h, k)[1].reshape(len(bcs), L)
    return RealModeCensus(sum(2 * int(np.sum(_real(e))) for e in eps), 2 * eps.size)


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
    """A transfer matrix's quasienergies and the edge modes found in them.

    ``quasienergies`` (one eps per eigenvalue of ``transfer``) is computed
    densely on first read.  ``fallback`` is None where the discs of
    ``detect_edge_modes`` found the edge scan's candidates, else the reason
    it took them from the dense eigenvalues of B_+ ("disc-count", "contour",
    "singular-lu": a zero or non-finite pencil determinant, or "iteration").
    """

    transfer: TransferMatrix
    edge_modes: list[EdgeModeRecord] = field(default_factory=list)
    delocalization_warning: bool = False
    fallback: str | None = None

    @cached_property
    def quasienergies(self) -> np.ndarray:
        return quasienergies_from_eigenvalues(self.transfer.eigenvalues)


def quasienergies_from_transfer(tm: TransferMatrix) -> SpectrumReport:
    return SpectrumReport(tm)


def _site_weights(vec: np.ndarray) -> np.ndarray:
    p = np.abs(vec) ** 2
    w = p[0::2] + p[1::2]
    return w / w.sum(axis=0)


def _require_edge_lattice(lat: LatticeSpec) -> None:
    if lat.bc.periodic:
        raise ValidationError("edge modes are defined for open chains")
    if lat.L < 8:
        raise ValidationError("edge detection needs L >= 8")


def _pairs(mu: np.ndarray) -> np.ndarray:
    """The sector eigenvalues mu and then their chiral partners 1/mu."""
    return np.concatenate([mu, 1.0 / mu])


def _edge_kinds(eps: np.ndarray) -> np.ndarray:
    """"zero" or "pi" for each quasienergy in the edge window (within
    ``_EDGE_RE_TOL`` of 0 or pi and ``_EDGE_IM_TOL`` of the real axis), else ""."""
    re = np.abs(eps.real)
    kinds = np.where(re < _EDGE_RE_TOL, "zero",
                     np.where(np.abs(re - np.pi) < _EDGE_RE_TOL, "pi", ""))
    kinds[np.abs(eps.imag) > _EDGE_IM_TOL] = ""
    return kinds


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B_+ x from the LAPACK ``band`` of ``TransferMatrix``, O(L) per column."""
    a = band.reshape(band.shape + (1,) * (x.ndim - 1))
    y = a[4] * x
    for k in (1, 2):
        y[:-k] += a[4 - k, k:] * x[k:]
        y[k:] += a[4 + k, :-k] * x[:-k]
    return y


def _solve_shifted(band: np.ndarray, shift: complex, x: np.ndarray) -> np.ndarray:
    """(B_+ - shift)^-1 x by one banded LU (LAPACK ``zgbsv``), O(L).  A zero
    pivot is singular, and so is a solution with a part of ``_SOLVE_MAX`` or
    more, inf or nan: B_+ - shift is then singular far below rounding, and
    the callers' norm of the solution would overflow."""
    a = band.copy(order="F")
    a[4] -= shift
    _, _, y, info = scipy.linalg.lapack.zgbsv(2, 2, a, x, overwrite_ab=1)
    if info > 0 or not np.all(np.abs(y.view(float)) < _SOLVE_MAX):
        raise np.linalg.LinAlgError("singular matrix")
    return y


def _candidate_vectors(tm: TransferMatrix, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit right eigenvectors of M for the unit eigenvectors c (L x k) of
    B_+, those of mu and then of 1/mu (``_sector_vectors``), and the
    eigenvalue condition kappa = 1/|l^H r| of each pair: l of mu is conj(r)
    of 1/mu, so kappa = 1/|v_-^T v_+|."""
    v = _sector_vectors(tm.field_kick, c)
    with np.errstate(divide="ignore"):
        kappa = 1.0 / np.abs(np.sum(v[:, :c.shape[1]] * v[:, c.shape[1]:], axis=0))
    return v, kappa


class _DenseFallback(Exception):
    """The disc count cannot vouch for its candidates; the message says why."""


def _det_phases(tm: TransferMatrix, z: np.ndarray) -> np.ndarray:
    """arg det T mod 2 pi, T = K2_+ - z K1_+^-1, at each z (L >= 8): arg
    det(B_+ - z) less the constant arg det K1_+, in closed form, O(1) per z.
    The minors D_k of the tridiagonal T step by A_k = [[d_k, -p_k], [1, 0]]
    (d_k = T[k, k], p_k = T[k-1, k] T[k, k-1]).  T is exactly 2-periodic
    in columns 1 .. L-2: past the first steps (one more on even L), M^m,
    m = (L-3) // 2, M = one period's two steps, reaches column L-2, and
    M^m = r+^(m-1) (S_{m-1} M - r- S_{m-2}) (Cayley-Hamilton; |r-| <= |r+|
    the eigenvalues of M, rho = r-/r+, S_k = (1 - rho^(k+1)) / (1 - rho),
    k + 1 where tr^2 = 4 det).  Each z's entries are scaled to at most 1 and
    r+^(m-1) adds only its phase, so nothing overflows.  A zero or non-finite
    det T is a nan phase, "singular-lu" to its disc (no LU is formed)."""
    L = tm.pencil.shape[2]
    c = tm.pencil[:, :, [0, 1, 2, 3, L - 2, L - 1], None]
    t = c[0] - c[1] * z
    with np.errstate(divide="ignore", invalid="ignore"):  # T = 0, r+ = 0 or s = 0
        t /= np.abs(t).max(axis=(0, 1))
        d0, d1, d2, d3, _, d_last = t[1]
        p1, p2, p3, p_last = t[0, [1, 2, 3, 5]] * t[2, [0, 1, 2, 4]]
        (da, pa), (db, pb) = ((d2, p2), (d3, p3)) if L % 2 else ((d3, p3), (d2, p2))
        v0, v1 = d1 * d0 - p1, d0  # (D_2, D_1), on even L stepped to (D_3, D_2)
        v0, v1 = (v0, v1) if L % 2 else (db * v0 - pb * v1, v0)
        m, m00, m01 = (L - 3) // 2, db * da - pb, -db * pa  # M = A_b A_a
        tr, det = m00 - pa, pa * pb
        s = np.sqrt(tr * tr - 4 * det)  # r+ - r-, signed so that |r+| >= |r-|
        s[(tr.conj() * s).real < 0] *= -1
        r_plus, r_minus = (tr + s) / 2, 2 * det / (tr + s)
        kp1 = np.array([[m], [m - 1]])  # k + 1 of S_{m-1} and S_{m-2}; 1 - rho = s / r+
        s1, s2 = np.where(s == 0, kp1, (1 - (r_minus / r_plus) ** kp1) * r_plus / s)
        x0 = s1 * (m00 * v0 + m01 * v1) - r_minus * s2 * v0
        x1 = s1 * (da * v0 - pa * v1) - r_minus * s2 * v1
        det_t = d_last * x0 - p_last * x1
        phase = np.angle(det_t) + (m - 1) * np.angle(r_plus)
    return np.where(np.isfinite(det_t) & (det_t != 0), phase, np.nan)


def _disc_count(tm: TransferMatrix, z0: float, theta: np.ndarray, phase: np.ndarray) -> int:
    """Eigenvalues of B_+ in |z - z0| < ``_DISC_RADIUS`` by the argument
    principle: the winding number of det(K2_+ - z K1_+^-1) on the circle,
    which is that of det(B_+ - z) (``_det_phases``, closed form), from its
    ``phase`` at the angles ``theta``, with a midpoint inserted in every
    step whose phase change reaches ``_DISC_STEP``, up to
    ``_DISC_POINTS_MAX`` points (beyond: the "contour" fallback); a nan
    phase is the "singular-lu" fallback."""
    while True:
        if np.isnan(phase).any():
            raise _DenseFallback("singular-lu")
        step = np.angle(np.exp(1j * (np.roll(phase, -1) - phase)))
        coarse = np.abs(step) >= _DISC_STEP
        if not coarse.any():
            return round(step.sum() / (2 * np.pi))
        if len(theta) + np.count_nonzero(coarse) > _DISC_POINTS_MAX:
            raise _DenseFallback("contour")
        mid = (theta + np.diff(theta, append=2 * np.pi) / 2)[coarse]
        theta = np.concatenate([theta, mid])
        phase = np.concatenate([phase, _det_phases(tm, z0 + _DISC_RADIUS * np.exp(1j * mid))])
        order = np.argsort(theta)
        theta, phase = theta[order], phase[order]


def _rayleigh_pair(band: np.ndarray, tol: float, centre: complex) -> tuple[complex, np.ndarray]:
    """An eigenpair (mu, x) of B_+ near ``centre``, x a unit vector, by
    Rayleigh-quotient iteration on the band from mu = ``centre`` and the
    chain's start vector: each step solves with B_+ - mu - tol
    (``_solve_shifted``; off mu, since a centre and the quotients after it
    can be eigenvalues to the last bit) and takes the quotient as mu,
    unless it lies ``_DISC_RADIUS`` or more from ``centre`` (mu then stays:
    a step of inverse iteration).  The pair is returned once its residual
    ||B_+ x - mu x|| is within tol, the one check of an edge candidate; a
    singular solve or no such pair within ``_RQI_STEPS`` steps is the
    "iteration" fallback."""
    mu, x = complex(centre), _chain_plan(band.shape[1]).start
    for _ in range(_RQI_STEPS):
        try:
            x = _solve_shifted(band, mu + tol, x)
        except np.linalg.LinAlgError:
            break
        x /= np.linalg.norm(x)
        bx = _band_matvec(band, x)
        quotient = np.vdot(x, bx)
        if abs(quotient - centre) < _DISC_RADIUS:
            mu = quotient
        if np.linalg.norm(bx - mu * x) <= tol:
            return mu, x
    raise _DenseFallback("iteration")


def _window_centres(tm: TransferMatrix):
    """Each centre z0 = +1, -1 whose disc |z - z0| < ``_DISC_RADIUS`` (the
    two hold the edge window) holds one eigenvalue of B_+, by its count
    (``_disc_count``), taken as the centre is reached; a count of 2 or more
    is the "disc-count" fallback.  One ``_det_phases`` call starts both."""
    theta = 2 * np.pi * np.arange(_DISC_POINTS) / _DISC_POINTS
    circles = [z0 + _DISC_RADIUS * np.exp(1j * theta) for z0 in (1.0, -1.0)]
    for z0, phase in zip((1.0, -1.0), np.split(_det_phases(tm, np.concatenate(circles)), 2)):
        count = _disc_count(tm, z0, theta, phase)
        if count not in (0, 1):
            raise _DenseFallback("disc-count")
        if count:
            yield z0


def _in_window(mu: np.ndarray) -> np.ndarray:
    """Whether mu or 1/mu of each sector eigenvalue is in the edge window."""
    kinds = _edge_kinds(quasienergies_from_eigenvalues(_pairs(mu)))
    return (kinds != "").reshape(2, -1).any(axis=0)


def _edge_candidates(tm: TransferMatrix) -> tuple[np.ndarray, np.ndarray, str | None]:
    """The sector eigenpairs (mu, unit columns c, by ``_rayleigh_pair``) with
    mu or 1/mu in the edge window, and the reason for a fallback: None where
    the discs that hold one eigenvalue give them, else from the dense
    ``eigenvalues`` in the window, where a miss of the iteration raises
    NumericalBreakdown."""
    try:
        pairs = [_rayleigh_pair(tm.band, tm.tol, z0) for z0 in _window_centres(tm)]
        fallback = None
    except _DenseFallback as exc:
        mu, fallback = tm.eigenvalues[:tm.n // 2], str(exc)
        try:
            pairs = [_rayleigh_pair(tm.band, tm.tol, m) for m in mu[_in_window(mu)]]
        except _DenseFallback:
            raise NumericalBreakdown(f"no eigenpair within {_RQI_STEPS} Rayleigh-quotient "
                                     "steps of a dense eigenvalue") from None
    mu = np.array([m for m, _ in pairs], dtype=complex)
    c = np.array([x for _, x in pairs], dtype=complex).reshape(-1, tm.n // 2).T
    keep = _in_window(mu)
    return mu[keep], c[:, keep], fallback


def _decay_length(a: float, b: float) -> float:
    """Decay length xi = -1/ln r (sites) of an edge mode whose amplitude
    falls by r = a/b per site (a, b >= 0); inf where r >= 1, where it does
    not decay."""
    r = a / b if b else math.inf
    if r >= 1:
        return math.inf
    return -1.0 / math.log(r) if r else 0.0


def _decay_lengths(params: ModelParams) -> dict[str, float]:
    """Decay length of a zero and of a pi edge mode in closed form, from
    the ratio per site of the semi-infinite chain's mode amplitude:
    r_0 = |tan h / tan J|, r_pi = 1/|tan J tan h|."""
    tan_j, tan_h = abs(cmath.tan(params.J)), abs(cmath.tan(params.h))
    return {"zero": _decay_length(tan_h, tan_j), "pi": _decay_length(1.0, tan_j * tan_h)}


def detect_edge_modes(params: ModelParams, lat: LatticeSpec,
                      refine: bool = True) -> SpectrumReport:
    """Localized zero and pi modes of the open chain, without its spectrum.

    Candidates are the sector eigenvalues mu whose quasienergy, or that of
    the chiral partner 1/mu, is within ``_EDGE_RE_TOL`` of 0 or pi and
    ``_EDGE_IM_TOL`` of the real axis; every such mu lies within 0.0101 of
    +1 or -1.  They are found without a dense solve (``fallback`` None):
    around each of z0 = +1 and -1 the eigenvalues of B_+ in the disc
    |z - z0| < ``_DISC_RADIUS`` are counted by the argument principle.
    B_+ = K1_+ K2_+ with both sector kicks tridiagonal, so det(B_+ - z) is
    det K1_+ det(K2_+ - z K1_+^-1), and the constant first factor drops
    out of every phase step: the pencil's determinant is a closed form,
    O(1) per contour point.  The band and the pencil are closed forms of
    the kick scalars, the boundary entries a template chain's
    (``build_transfer_matrix``).  A count of 1 is located, with its
    eigenvector, by Rayleigh-quotient iteration from z0 on the band of B_+
    (``_rayleigh_pair``), whose residual test is the candidate's one check.
    A disc count of 2 or more, a contour unresolved at the point cap, a
    zero or non-finite determinant or an iteration that does not converge
    inside its disc fall back to the dense eigenvalues of B_+, the reason
    in ``fallback``; each dense candidate is refined with its vector by the
    same iteration, and one that does not converge raises
    NumericalBreakdown.  An overflowing kick or period raises
    NumericalBreakdown before any of this (``_kick_scalars``).

    Only candidates get eigenvectors.  One with more than half its weight on
    the outer ``_EDGE_FRACTION`` of sites is an edge mode; its
    ``localization_length`` is the closed-form decay length of its kind
    (``_decay_lengths``).  With ``refine``, each record's mu is the
    two-sided Rayleigh quotient l^H M r / l^H r = v_-^T M v_+ / v_-^T v_+ =
    w^T B_+ x / w^T x (M v_+ = U B_+ x, x = v_+[:L], w = U^T v_-), B_+ the
    band in long double (``_sector_blocks``; no kick form is built), and its
    partner's 1/mu: an edge pair mu, 1/mu lies in two reflection sectors,
    where the pair's projected map is diagonal.  Kinds and weights are the
    unrefined mu's, so the refine moves no label.  A candidate with
    eigenvalue condition kappa >= ``_COND_CUTOFF`` (an exceptional point in
    the edge window; the constant, like those of the discs, is read at call
    time) raises NumericalBreakdown, with the worst kappa as ``condition``;
    bulk eigenvalues are not judged.  Near alpha = pi/4 the edge modes
    delocalize at finite size; an empty scan there raises no error but sets
    ``delocalization_warning``.  The report's ``quasienergies`` are computed
    densely if read.
    """
    _require_edge_lattice(lat)
    tm = build_transfer_matrix(params, lat)
    mu, c, fallback = _edge_candidates(tm)
    eps = quasienergies_from_eigenvalues(_pairs(mu))
    kinds = _edge_kinds(eps)
    vecs, kappa = _candidate_vectors(tm, c)
    if np.any(kappa >= _COND_CUTOFF):
        raise NumericalBreakdown("ill-conditioned edge candidate: exceptional point "
                                 "in the edge window", condition=float(kappa.max()))
    weights = _site_weights(vecs)
    ne = max(1, int(_EDGE_FRACTION * (tm.n // 2)))
    lw, rw = weights[:ne].sum(axis=0), weights[-ne:].sum(axis=0)

    if refine and len(mu):  # two-sided Rayleigh quotients; the kappa gate bounds 1/denominator
        L, band = lat.L, _sector_blocks(_kick_scalars(params, lat, np.clongdouble), lat)[0]
        v_plus, v_minus = np.split(vecs.astype(band.dtype), 2, axis=1)
        x, w = v_plus[:L], v_minus[:L] + _chain_plan(L).phase[:, None] * v_minus[::-1][:L]
        eps = quasienergies_from_eigenvalues(_pairs(
            np.sum(w * _band_matvec(band, x), axis=0) / np.sum(w * x, axis=0)))

    xi, edge = _decay_lengths(params), lw + rw > 0.5
    records = [EdgeModeRecord(kind, complex(eps[k]), xi[kind], float(lw[k]), float(rw[k]))
               for kind in ("zero", "pi") for k in np.flatnonzero((kinds == kind) & edge)]

    a = (params.alpha_J % (np.pi / 2.0))
    return SpectrumReport(tm, records, (not records) and abs(a - PI4) < 0.1 * PI4, fallback)


# --------------------------------------------------------------------------
# pseudo-Hermiticity certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricOperator:
    eta: np.ndarray
    residual: float
    family: str
    certified: bool


_NAMBU_FROM_MAJORANA = np.array([[1.0, 1.0], [1j, -1j]], dtype=complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def effective_hamiltonian_nambu(J: complex, h: complex, k: float) -> np.ndarray:
    """i Log of the one-period momentum block t in the complex-fermion basis,
    in closed form: det t = 1 and c = tr t / 2 = x/4, so with r = sqrt(disc)
    and eps of ``_dispersion``, i Log t = ((eps - s)/r)(t - c) - |s|.  s = 0
    keeps the pair +-eps; a pair on the negative real axis (the conjugate-pair
    rule at Re eps = +-pi) takes Arg = +pi in both logs: s = pi sign(Re eps).
    At r = 0 the ratio is its limit i/c: t = +-1 gives 0 or -pi.  t is the
    period block of ``bloch_blocks`` at +k, taken to the Nambu basis."""
    v = _NAMBU_FROM_MAJORANA
    t = np.linalg.solve(v, bloch_blocks(J, h, k).period() @ v)
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
    eigenbasis verdict, on the continuous block where ``continuous`` (by
    default on J = conj(h)), else on ``effective_hamiltonian_nambu``.

    Families: Hermitian couplings use the identity; (i) the continuous
    limit with J = conj(h), alpha_J != 0, uses the cot(k/2) metric; (ii) the
    alpha = pi/4 line uses the first Pauli matrix on the Floquet block.
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
    v = _NAMBU_FROM_MAJORANA
    hk = (4 * np.linalg.solve(v, bloch_blocks(J, h, k).hamiltonian() @ v) if continuous
          else effective_hamiltonian_nambu(J, h, k))

    if hermitian:
        eta, family = np.eye(2, dtype=complex), "hermitian"
    elif conj_pair and continuous and params.alpha_J != 0:
        if abs(math.sin(k / 2.0)) < 1e-12:
            raise MetricPoleError("cot(k/2) metric is singular at k = 0")
        g = -(params.beta_J / params.alpha_J) / math.tan(k / 2.0)
        eta, family = np.array([[1.0, g], [g, 1.0]], dtype=complex), "conjugate-couplings"
    elif dual_line and not continuous:
        eta, family = _SIGMA_X.copy(), "self-dual-line"
    else:
        with np.errstate(all="ignore"):
            try:
                l1, l2 = np.linalg.inv(np.linalg.eig(hk)[1]).conj()
            except np.linalg.LinAlgError:
                l1 = l2 = np.zeros(2)
            metrics = (np.outer(l1, l1.conj()) + np.outer(l2, l2.conj()),
                       np.outer(l1, l2.conj()) + np.outer(l2, l1.conj()))
        eta = min(metrics, key=lambda m: _metric_residual(m, hk))
        family = "numerical"
    res = _metric_residual(eta, hk)
    return MetricOperator(eta, res, family, res < 1e-8)


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
    modes, which decide the label on their own.  The scan is
    ``detect_edge_modes`` without the refine, which moves no label: disc
    counts in closed form, no dense solve unless they fall back.
    """
    census = count_real_modes(params, L)
    scan_L = confirm_L if confirm_L and confirm_L > L else L
    lat = LatticeSpec(scan_L, BoundaryCondition.OBC)
    _require_edge_lattice(lat)
    obc = None if census.count else detect_edge_modes(params, lat, refine=False)
    return classify_phase_from_spectrum(obc, census)
