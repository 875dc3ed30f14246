"""Pure fermionic Gaussian states under the nonunitary Floquet map.

A pure Gaussian state is stored as the 2L x L frame Phi whose columns are
the coefficient vectors of its annihilators d_i = sum_m Phi_mi a_m.  The
frame is kept isotropic (Phi^T Phi = 0) and orthonormal (Phi^dag Phi = 1);
the Majorana correlation matrix follows in closed form,

    C = 2 conj(Phi) Phi^T,      C' = C - 1  (Hermitian, antisymmetric),

a contraction locked against the dense state-vector oracle in the tests.

One period maps Phi -> exp(-4W') exp(-4W'') Phi followed by a factorization
that restores both frame invariants.  Plain QR restores orthonormality
only; the residual isotropy defect is amplified exponentially by the
nonunitary map and silently derails the state after ~40 periods, so the
re-orthonormalization below interleaves QR with first-order isotropy
corrections Phi <- Phi - conj(Phi) (Phi^T Phi) / 2 until the defect is at
rounding level.

On periodic chains of even length the map commutes with translation by
two sites, so a state with that symmetry keeps it: the frame splits into
one 4x2 block per two-site Bloch momentum q, each moved by its own 4x4
block F_q = V_q diag(t_k, t_{k+pi}) V_q^dag (``_bloch_stack``), and
isotropy pairs q with -q.  Every frame is such a stack of Bloch blocks
(``GaussianFrame``); the dense frame is the one-cell stack.

The momentum stack (pbc-even, L divisible by 4, a state of period 2:
``_momentum_route``) has one engine, ``_stacked_frames``: every frame is
taken from the initial frame directly, from the closed-form eigenpairs of
the 2x2 one-site Bloch blocks, pivoted on the rows of maximal volume
(``_pivot``), stacked over a vector of multipliers: the periods 1..n of the
stroboscopic loop (``period_frames``), the n of the steady state
(``run_to_steady_state``) or the times of the continuous flow
(``evolve_continuous``), with the log-modes of the period blocks t_k or of
the one-site Hamiltonian blocks H_k.  Its gates are read at every
multiplier before the first frame; where one misses, the whole run takes
the one-cell stack, as every other chain does: the loop of ``period_map``
with LAPACK's QR, a direct steady state from a Schur form of the L x L +
reflection-sector block alone (``_dominant_frame``, ``_sector_split``),
split at the L/L cut or with the edge pair straddling it swapped across
it (the - block is the inverse transpose of the +, so its modes and its
split follow from the + sector's), and the continuous flow stepped by
``expm``.  ``entropy_trace`` reads the entropies of any stream of frames.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import entanglement, sweep
from .errors import (DegenerateEvolution, NumericalBreakdown,
                     UnsupportedStateError, ValidationError)
from .params import (BoundaryCondition, LatticeSpec, ModelParams,
                     ProductState, QuenchConfig, SubsystemSpec)
from .spectral import (KickForms, _bond_ends, _chain_plan, _kick_plans, bloch_blocks,
                       build_kick_forms, cell_momenta, sector_basis)

_ISO_TOL = 1e-13
_RANK_TOL = 1e-13
_OVERLAP_TOL = 1e-10
_ISOLATION_TOL = 1e-6
_ROUNDING_TOL = 1e-12
_PAIRS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])  # _PAIRS[5 - i]: the rest
_MAX_SWEEPS = 4  # isotropy corrections before orthonormalize gives up (read at call time)
_RECORD_BYTES = 8 << 20  # frame rows entropy_trace holds before taking their entropies
_STACK_BYTES = 1 << 20  # frame rows and C_A blocks stacked into one entropy call


@dataclass
class GaussianFrame:
    """A stack of Bloch blocks: ``blocks`` is N x r x c, one Phi_q per
    momentum q of ``momenta``, the grid of ``cell_momenta``.  The dense
    frame's columns are U_q Phi_q, with U_q[(x, a), b] = e^{iqx} delta_ab /
    sqrt(N) on cell x (Majorana rows r x + a); ``phi`` builds it on demand.
    Isotropy pairs block q with block ``partner[q]`` = -q: Phi^T Phi = 0 is
    Phi_{-q}^T Phi_q = 0.  A dense frame is the one-cell stack (N = 1,
    q = 0, paired with itself).

    ``isotropy`` is ||Phi^T Phi|| as ``orthonormalize`` measured it on this
    frame (``isotropy_defect()`` bit for bit); ``route`` is how the frame was
    made: ``"loop"`` by ``period_map``, ``"schur"`` directly from the
    initial frame, by the stacked pivot on the momentum stack (every frame
    of ``period_frames`` and ``run_to_steady_state``) or by the Schur split
    of the one-cell steady state, ``"continuous"`` by ``evolve_continuous``
    (directly or by a step).  Both are None for initial frames."""

    blocks: np.ndarray
    momenta: np.ndarray = field(default_factory=lambda: np.zeros(1))
    partner: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=int))
    period_count: int = 0
    norm_log: float = 0.0
    isotropy: float | None = None
    route: str | None = None

    @classmethod
    def from_dense(cls, frame: GaussianFrame, lat: LatticeSpec) -> GaussianFrame:
        """Blocks of a one-cell frame whose first cell, columns 2x and 2x+1
        on rows 4x..4x+3, repeats on every cell of ``cell_momenta``.  The
        partner of q = 2 pi (m + theta) / N is -q, at (-m - 2 theta) mod N."""
        q = cell_momenta(lat)
        n = len(q)
        partner = (-np.arange(n) - round(q[0] * n / np.pi)) % n
        return cls(np.repeat(frame.blocks[:, :4, :2], n, axis=0), q, partner)

    @cached_property
    def phi(self) -> np.ndarray:
        n, r, c = self.blocks.shape
        u = np.exp(1j * np.outer(np.arange(n), self.momenta)) / np.sqrt(n)
        return np.einsum("xq,qab->xaqb", u, self.blocks).reshape(n * r, n * c)

    def isotropy_defect(self) -> float:
        return float(_isotropy(self.blocks[None], self.partner)[1][0])

    def orthonormality_defect(self) -> float:
        return _orthonormality(self.blocks)


def initial_frame(state: QuenchConfig | ProductState, lat: LatticeSpec) -> GaussianFrame:
    """Frame of a z-basis product state: empty sites contribute c_j, occupied
    sites c_j^dag as annihilators."""
    if isinstance(state, QuenchConfig):
        state = state.initial_state
    if state.basis != "z":
        raise UnsupportedStateError(
            "x-polarized states are not Gaussian in this fermion basis; "
            "use the dense spin simulator")
    if state.L != lat.L:
        raise ValidationError(f"state has {state.L} sites, lattice {lat.L}")
    phi = np.zeros((lat.n_majorana, lat.L), dtype=complex)
    inv, j = 1.0 / np.sqrt(2.0), np.arange(lat.L)
    phi[2 * j, j] = inv
    phi[2 * j + 1, j] = np.where(state.occupations(), 1j, -1j) * inv
    return GaussianFrame(phi[None])


def _isotropy(q: np.ndarray, partner: np.ndarray | None = None):
    """S = q_{-}^T q, ||S|| and q_- (block partner[i] of block i) of each frame
    of the stack ``q`` (M frames on the leading axis), one broadcast on
    momentum stacks, each frame's norm taken over its own row so that it is
    the same alone or among others; a dense frame or one-cell stack pairs
    with itself in place, so that S = q^T q is one symmetric product,
    exactly symmetric."""
    if partner is None or len(partner) == 1:
        s = np.swapaxes(q, -1, -2) @ q
        return s, np.array([np.linalg.norm(si) for si in s]), q
    qt = q.T  # columns x rows x N x M, the layout ``_qr`` leaves
    p = np.take(qt, partner, axis=2)
    s = p[:, None, 0] * qt[None, :, 0]
    for a in range(1, len(qt[0])):  # the rows in one order on any layout
        s += p[:, None, a] * qt[None, :, a]
    rows = np.ascontiguousarray(s.transpose(3, 0, 1, 2)).reshape(len(q), -1)
    return s.transpose(3, 2, 0, 1), np.sqrt(np.add.reduce((rows.conj() * rows).real, 1)), p.T


def _orthonormality(q: np.ndarray) -> float:
    """||q^dag q - 1|| over one frame or a stack of blocks."""
    return float(np.linalg.norm(np.swapaxes(q.conj(), -1, -2) @ q - np.eye(q.shape[-1])))


def orthonormalize(phi: np.ndarray, partner: np.ndarray | None = None):
    """Span-preserving factorization restoring orthonormality and isotropy.

    ``phi`` is one dense frame or, with ``partner``, a stack of blocks
    whose isotropy pairs block i with block partner[i] (the dense frame is
    one block paired with itself); each block is factorized on its own.  A
    leading axis (M x N x r x c) holds M such stacks, each a frame of its
    own: the rank test, the log-magnitude and the defect are taken per
    frame, and only the frames whose defect is above tolerance are swept.
    Returns the new frame, the log-magnitude discarded by the first QR (the
    state-norm bookkeeping) and the isotropy defect ||q_-^T q|| measured on
    the returned frame (with a frame axis, arrays of M).  Raises
    DegenerateEvolution on rank loss or where the factorization is not
    finite (``condition`` inf: a finite frame whose norms overflow), and
    NumericalBreakdown (``condition`` = the defect) if the isotropy defect
    is still above tolerance after ``_MAX_SWEEPS`` corrections, each for
    the first frame that fails.
    """
    frames = phi.ndim == 4
    with np.errstate(over="ignore", invalid="ignore"):  # a finite frame whose norms overflow
        q, rd = _qr(phi if frames else phi[None], partner)
    rd = np.ascontiguousarray(rd.reshape(len(q), -1))  # each frame's log-sum in one order
    top, low = rd.max(1), rd.min(1)
    lost = ~(np.isfinite(top) & (low >= _RANK_TOL * np.maximum(top, 1.0)))
    if lost.any():
        top, low = top[lost][0], low[lost][0]
        cond = float(top / low) if math.isfinite(top) and low > top * 1e-290 else math.inf
        raise DegenerateEvolution("frame lost rank during evolution",
                                  condition=cond)
    log_mag = np.log(rd).sum(1)
    s, defect, p = _isotropy(q, partner)
    for sweep in range(_MAX_SWEEPS + 1):
        todo = np.flatnonzero(~(defect < _ISO_TOL))
        if not len(todo):
            break
        if sweep == _MAX_SWEEPS:
            left = float(defect[todo[0]])
            raise NumericalBreakdown(
                f"isotropy defect {left:.3g} left after {_MAX_SWEEPS} sweeps",
                condition=left)
        q[todo] = _qr(q[todo] - 0.5 * np.conj(p[todo]) @ s[todo], partner)[0]
        s[todo], defect[todo], p[todo] = _isotropy(q[todo], partner)
    if frames:
        return q, log_mag, defect
    return q[0], float(log_mag[0]), float(defect[0])


def _qr(phi: np.ndarray, partner: np.ndarray | None):
    """Q and |diag R| of the QR of a frame or of each block: LAPACK's, but on
    a momentum stack (N > 1 two-column blocks) Gram-Schmidt with one
    re-orthogonalization ("twice is enough": Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 2005), norms by hypot (no square overflows); a
    zero column gives R_jj = 0.  |diag R| is finite only where Q is: an
    overflowing norm is inf, and LAPACK's Q that is not finite (of a finite
    frame near the largest double) gives NaN.  A leading frame axis on a
    momentum stack gives |diag R| per frame (M x 2N)."""
    if partner is None or len(partner) == 1:
        q, r = np.linalg.qr(phi)
        rd = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        return q, rd if np.isfinite(q).all() else rd * np.nan
    a, b = np.ascontiguousarray(phi.T)  # the two columns, rows x N
    r1 = np.hypot.reduce(np.abs(a), axis=0)
    a = a * (1.0 / np.maximum(r1, 1e-300))
    a_conj = a.conj()
    for _ in range(2):
        b = b - np.add.reduce(a_conj * b, 0) * a
    r2 = np.hypot.reduce(np.abs(b), axis=0)
    return np.array([a, b * (1.0 / np.maximum(r2, 1e-300))]).T, np.concatenate([r1, r2]).T


def period_map(frame: GaussianFrame, kicks: KickForms) -> GaussianFrame:
    """Advance the state of a one-cell frame by one Floquet period.

    Annihilator frames transform with exp(-4W') exp(-4W''), the transpose of
    the operator conjugation exp(4W'') exp(4W'), applied bond by bond in
    O(L^2) to the frame's one block (``KickForms.step``).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # finite kicks, overflowing sums
        phi = kicks.step(frame.blocks[0], -1.0)
    return _advance(frame, phi[None], "loop")


def _advance(frame: GaussianFrame, blocks: np.ndarray, route: str, periods=1,
             log_scale=0.0):
    """The frame ``periods`` periods on, from its blocks moved by the frame
    map and the log-magnitude ``log_scale`` they dropped (a direct route's,
    ``_Pivot.blocks`` and ``_dominant_frame``).  The QR adds the rest, so
    ``norm_log`` is the loop's.  With a leading frame axis on ``blocks``
    (M x N x r x c), ``periods`` and ``log_scale`` hold one value per frame,
    and the M frames are returned as a list."""
    blocks, log_mag, defect = orthonormalize(blocks, partner=frame.partner)
    if blocks.ndim == 3:
        return GaussianFrame(blocks, frame.momenta, frame.partner, frame.period_count + periods,
                             frame.norm_log + (log_scale + log_mag), defect, route)
    return [GaussianFrame(b, frame.momenta, frame.partner, frame.period_count + int(n),
                          frame.norm_log + float(s + m), float(d), route)
            for b, n, s, m, d in zip(blocks, periods, log_scale, log_mag, defect)]


@dataclass(frozen=True)
class CorrelationMatrix:
    """Majorana two-point matrix C_mn = <a_m a_n> of a normalized state.

    C is Hermitian with C + C^T = 2, so C' = C - 1 is antisymmetric with
    purely imaginary entries and real eigenvalue pairs +-nu.
    """

    c: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.c.shape[0] // 2

    def z_expectations(self) -> np.ndarray:
        """<Z_j> = <i a_{2j-1} a_{2j}>."""
        L = self.n_sites
        return np.array([(1j * self.c[2 * j, 2 * j + 1]).real for j in range(L)])


def correlation_from_frame(frame: GaussianFrame) -> CorrelationMatrix:
    return CorrelationMatrix(2.0 * np.conj(frame.phi) @ frame.phi.T)


def _block_plan(frame: GaussianFrame, idx: np.ndarray):
    """What the block C_A of the Majorana indices ``idx`` needs of a stack
    shaped like ``frame``, worked out once: the within-cell rows it reads
    and the function that takes a stack's ``blocks[:, rows]`` to C_A, and
    a stack of them (..., N, k, c) to C_A of each, bit for bit.

    In block-Toeplitz form, with Majorana row r x + a on cell x,
    C[(x, a), (y, b)] = T(y - x)[a, b],
    T(d) = (2/N) sum_q e^{iqd} (conj(Phi_q) Phi_q^T)[a, b].
    The momenta are the grid q = 2 pi (m + theta) / N of ``cell_momenta``,
    so T(d) = 2 e^{i q_0 d} ifft_m(conj(Phi_q) Phi_q^T)[d mod N]
    (q_0 = 2 pi theta / N): one FFT over the stack.  The block over the
    indices' m-cell span is a strided view of T(1 - m..m - 1): a contiguous
    run of indices slices its one copy, others gather from the view.  One
    cell gives 2 conj(Phi) Phi^T restricted to those rows, taken directly.
    """
    n, r = frame.blocks.shape[:2]
    if n == 1:
        return idx, lambda sub: 2.0 * (np.conj(sub) @ np.swapaxes(sub, -1, -2))[..., 0, :, :]
    x, a = np.divmod(np.asarray(idx), r)
    rows, a = np.unique(a, return_inverse=True)
    k, x = len(rows), x - x.min()
    m = x.max() + 1
    d = np.arange(1 - m, m)
    phase = 2.0 * np.exp(1j * frame.momenta[0] * d)
    pos = k * x + a
    run = slice(pos[0], pos[-1] + 1) if (np.diff(pos) == 1).all() else None

    def block(sub: np.ndarray) -> np.ndarray:
        g = np.fft.ifft(np.conj(sub) @ np.swapaxes(sub, -1, -2), axis=-3)
        # t[..., a, m - 1 + d, b] = T(d)[a, b] in C order, so block row (i, a) of
        # the span is the run of t[..., a] from d = -i: w[..., a, i, k j + b] = T(j - i)[a, b]
        t = np.take(np.moveaxis(g, -3, -2), d % n, axis=-2) * phase[:, None]
        *lead, s0, s1, s2 = t.strides
        w = np.ndarray((*t.shape[:-3], k, m, m * k), t.dtype, t, (m - 1) * s1,
                       (*lead, s0, -s1, s2))
        if run is not None:
            return np.swapaxes(w, -3, -2).reshape(*w.shape[:-3], m * k, m * k)[..., run, run]
        return w[..., a[:, None], x[:, None], pos]

    return rows, block


def correlation_block(frame: GaussianFrame, majorana_idx: np.ndarray) -> np.ndarray:
    """Restricted C block without forming the full matrix (``_block_plan``)."""
    rows, block = _block_plan(frame, majorana_idx)
    return block(frame.blocks[:, rows])


@dataclass
class EntropyTrace:
    periods: np.ndarray
    entropy: np.ndarray
    norm_log: np.ndarray
    purity_residual: np.ndarray

    def steady_state(self, tail: int | None = None) -> float:
        n = len(self.entropy)
        tail = tail or max(10, n // 4)
        return float(np.mean(self.entropy[-tail:]))

    def growth_rate(self, horizon: int) -> float:
        """S(T)/(2T) at T = ``horizon`` periods (two entangling cuts)."""
        if horizon < 1 or horizon > len(self.entropy):
            raise ValidationError("growth horizon outside the recorded trace")
        return float(self.entropy[horizon - 1] / (2.0 * horizon))


def _flush(a: np.ndarray) -> np.ndarray:
    """``a`` with its subnormal parts set to zero, in place: they change no
    product at working precision, but slow every BLAS call they enter."""
    for part in (a.real, a.imag):
        part[np.abs(part) < np.finfo(float).tiny] = 0.0
    return a


def _scaled_power(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """t_i**n = exp(log_s[i]) m_i as (m, log_s) for each matrix of the stack
    t (N x s x s), by repeated squaring with every product rescaled to unit
    largest entry, so nothing overflows."""
    def rescale(m, log_s):
        s = np.abs(m).max(axis=(-2, -1), initial=0.0)
        s = np.where(s > 0, s, 1.0)
        return m * (1.0 / s)[:, None, None], log_s + np.log(s)

    out = np.repeat(np.eye(t.shape[-1], dtype=complex)[None], len(t), axis=0)
    log_out = np.zeros(len(t))
    base, log_base = t, np.zeros(len(t))
    while n and t.size:  # an empty block's power is itself
        if n & 1:
            out, log_out = rescale(out @ base, log_out + log_base)
        n >>= 1
        if n:
            base, log_base = rescale(base @ base, 2.0 * log_base)
    return out, log_out


def _dominant_frame(kicks: KickForms, frame: GaussianFrame, n: int) -> GaussianFrame | None:
    """The n-period frame from the one-cell ``frame`` Phi0, taken from a
    Schur form of the frame map F, or None unless it provably equals the
    loop's frame.  F keeps both reflection sectors: F U = U B_+ and
    F conj(U) = conj(U) B_-, U the ``sector_basis``, so T = diag(T_+, T_-)
    and Q = [U Q_+, conj(U) Q_-] / sqrt(2) are a Schur form of F.

    One Schur form B_+ = Q_+ T_+ Q_+^dag gives both: F is complex
    orthogonal (F^T F = 1) and U^T U = 0, U^dag U = 2, so B_-^T B_+ = 1
    and B_- = B_+^-T = (conj(Q_+) J)(J T_+^-T J)(conj(Q_+) J)^dag, J the
    exchange matrix: T_- = J T_+^-T J is upper triangular, and the - modes
    are the reciprocals of the + modes in reverse order.  Neither T nor Q
    is formed: ``_sector_form`` reorders T_+ once, ``_sector_split`` works
    on T_+ and T_+^-1, and y = Q^dag Phi0 and the frame Q (S coords) go
    through U (two entries per column), Q_+ and Q_- = conj(Q_+) J.  The
    L/L split is tried first and, where it misses and an isolated edge pair
    mu_0, 1/mu_0 straddles the L/L cut, the L/L split with that pair
    swapped across the cut.  A B_+ or B_- that overflows is a miss.
    """
    u = sector_basis(frame.blocks.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # finite kicks, overflowing sums
        b_plus, b_minus = (kicks.step(x, -1.0)[:len(x) // 2] for x in (u, u.conj()))
    if not (np.isfinite(b_plus).all() and np.isfinite(b_minus).all()):
        return None
    try:
        t, q = scipy.linalg.schur(b_plus, output="complex")
    except np.linalg.LinAlgError:  # the Schur iteration did not converge
        return None
    form = _sector_form(t, q, b_minus)
    if form is None:
        return None
    t, q, t_inv, tops = form
    phase = _chain_plan(len(t)).phase[:, None]
    top, mirror = frame.blocks[0, :len(t)], frame.blocks[0, len(t):][::-1]
    y = (_hc(q) @ (top - phase * mirror) / np.sqrt(2.0),
         (q.T @ (top + phase * mirror))[::-1] / np.sqrt(2.0))
    for k in tops:
        found = _sector_split(t, t_inv, y, n, k)
        if found is not None:
            c_plus, c_minus, log_scale = found
            a, b = q @ c_plus, q.conj() @ c_minus[::-1]
            phi = np.concatenate([a + b, (phase * (a - b))[::-1]]) / np.sqrt(2.0)
            return _advance(frame, phi[None], "schur", n, log_scale)
    return None


def _sector_form(t: np.ndarray, q: np.ndarray, b_minus: np.ndarray):
    """The + sector's Schur form (t, q) reordered on |mu| for
    ``_sector_split``, with t^-1 and the top sizes k to try, each a split of
    its modes into a top [:k] and a bottom [k:]; or None where no split is
    possible or the reorder or the - form fails.

    The 2L modes of F are those of t and their reciprocals.  Sorted by
    log|mu|, the L/L split cuts between the L-th and (L+1)-th and needs
    exactly one member of each (mu, 1/mu) pair above the cut; its top is
    the + modes above it.  Where the L-th and (L+1)-th are one pair mu_0,
    1/mu_0, isolated by _ISOLATION_TOL in log|mu| from their neighbours,
    every other pair keeping one member above them, the L/L split with mu_0
    and 1/mu_0 swapped across the cut is tried next.  One ``ztrsen`` puts
    the + modes above the pair first and one ``ztrexc`` moves mu_0 right
    after them: the two tops are then the first k and k + 1 modes, the L/L
    split's first, so both read one order.  The - form read from t^-1 must
    pass ||B_- Q_- - Q_- T_-|| <= _OVERLAP_TOL ||B_-||; a mode whose log is
    not finite, or a residual that is not, is a miss.
    """
    L, mu = len(t), np.diag(t)
    with np.errstate(all="ignore"):  # mu = 0, or |mu| or 1/mu past the largest double
        pairs = np.log(np.abs(np.stack([mu, 1.0 / mu])))
    if not np.isfinite(pairs).all():  # the - form does not exist in double precision
        return None
    log_mu = np.sort(pairs.ravel())[::-1]
    cut = (log_mu[:-1] + log_mu[1:]) / 2
    above = lambda i: np.count_nonzero(pairs > cut[i], axis=0)  # members of each pair
    tops, select = [], None
    if np.all(above(L - 1) == 1):
        select = pairs[0] > cut[L - 1]
        tops.append(np.count_nonzero(select))
    if (min(log_mu[L - 2] - log_mu[L - 1], log_mu[L] - log_mu[L + 1]) > _ISOLATION_TOL
            and np.all(above(L - 2) + above(L) == 2) and np.count_nonzero(above(L) == 2) == 1):
        select = pairs[0] > cut[L - 2]
        k = np.count_nonzero(select)
        tops = tops + [2 * k + 1 - tops[0]] if tops else [k, k + 1]  # |mu_0| = 1: either first
    if select is None:
        return None
    t, q, _, _, _, _, info = scipy.linalg.lapack.ztrsen(select, t, q, job="N")
    if info == 0 and len(tops) == 2:
        # mu_0: the + mode below the top with the largest |mu|
        first = k + int(np.argmax(np.abs(np.diag(t)[k:])))
        if first > k:
            t, q, info = scipy.linalg.lapack.ztrexc(t, q, first + 1, k + 1)
    if info != 0:
        return None
    t_inv, info = scipy.linalg.lapack.ztrtri(t)
    q_minus = q[:, ::-1].conj()
    # both sides scaled by a power of two (exact) to max |B_-| < 1: no norm overflows
    scale = 2.0 ** -np.frexp(np.abs(b_minus.view(float)).max())[1]
    with np.errstate(all="ignore"):
        res = np.linalg.norm(b_minus * scale @ q_minus - q_minus @ (t_inv[::-1, ::-1].T * scale))
    if info != 0 or not res <= _OVERLAP_TOL * np.linalg.norm(b_minus * scale):
        return None
    return t, q, t_inv, tops


def _sector_split(t: np.ndarray, t_inv: np.ndarray, y: tuple[np.ndarray, np.ndarray],
                  n: int, k: int):
    """The Schur coordinates of F^n Phi0 from the reordered + sector form t
    and t^-1 (``_sector_form``), with the + modes split into a top [:k] and
    a bottom [k:], and y = Q^dag Phi0 as its + and - rows.  F's top T1 =
    diag(T_tt, J T_bb^-T J) and bottom T2 = diag(T_bb, J T_tt^-T J) hold one
    block of each sector (T_tt = t[:k, :k], T_bb = t[k:, k:]), L modes
    each.  The blocks are decoupled, T = S diag(T1, T2) S^-1 with
    S = [[1, x], [0, 1]]: one Sylvester solve in the + sector, and in the -
    sector S_- = J S_+^-T J gives x_- = -J x^T J.  With z = S^-1 y,

        F^n Phi0 ~ Q S [[1], [E]],    E = T2^n z2 z1^-1 T1^-n,

    where T1^-n and T2^n are made of the two powers T_tt^-n and T_bb^n,
    each with its own log-scale, and so is each block of E.  Every term is
    kept (no convergence assumed).  Returns S coords as its + and - rows
    (L x L each) and the log-magnitude dropped from them, or None unless

    - the Sylvester solve succeeds;
    - sigma_min(z1) > _OVERLAP_TOL max(sigma_max(z1), 1).  The unit floor
      matters: y has orthonormal columns, and a Phi0 inside the decaying
      subspace leaves a z1 of rounding size whose singular value ratio may
      still be O(1);
    - the loop's rounding on a bottom mode, amplified against the top
      modes, stays below _ROUNDING_TOL: n max(0, max log|mu| over T2 - min
      log|mu| over T1) < log(_ROUNDING_TOL / eps), taken in log space.  The
      bottom modes being the top's reciprocals, the left side is
      -2n min(0, min log|mu| over T1): 0 on the L/L split, 2n |log|mu_0||
      with mu_0 and 1/mu_0 swapped;
    - every term is finite and |E| <= 1.  Far above that bound the exact
      frame leaves the loop (by 1e-9 at |E| ~ 1e8), and a 60-digit
      evolution sides with the loop.
    """
    L, r = len(t), len(t) - k  # r: the bottom of the + sector, the top of the -
    log_mu = np.log(np.abs(np.diag(t)))
    log_top = np.concatenate([log_mu[:k], -log_mu[k:]])  # log|mu| over T1
    if not -2.0 * n * log_top.min(initial=0.0) < np.log(_ROUNDING_TOL / np.finfo(float).eps):
        return None
    x = _sylvester(t[:k, :k], t[k:, k:], t[:k, k:])
    if x is None:
        return None
    sectors = ((k, x), (r, -x.T[::-1, ::-1]))  # (top size, x) of the + and the - sector
    z_p, z_m = (np.concatenate([yi[:top] - x_top @ yi[top:], yi[top:]])
                for yi, (top, x_top) in zip(y, sectors))
    qz, rz = np.linalg.qr(_hc(np.concatenate([z_p[:k], z_m[:r]])))  # z1 = rz^dag qz^dag
    sv = np.linalg.svd(rz, compute_uv=False)
    if not sv[-1] > _OVERLAP_TOL * max(sv[0], 1.0):
        return None
    (p_t,), (log_t,) = _scaled_power(t_inv[None, :k, :k], n)  # T_tt^-n
    (p_b,), (log_b,) = _scaled_power(t[None, k:, k:], n)      # T_bb^n
    # the bottom rows, + then -, times z1^-1 = qz rz^-dag, then times T1^-n
    zg = scipy.linalg.lapack.ztrtrs(rz, _hc(np.concatenate([z_p[k:], z_m[r:]]) @ qz))[0].conj().T
    zg_t, zg_b = zg[:, :k] @ p_t, zg[:, k:] @ p_b.T[::-1, ::-1]
    rows = [(p_b, log_b, slice(0, r)), (p_t.T[::-1, ::-1], log_t, slice(r, None))]
    with np.errstate(over="ignore", invalid="ignore"):
        coords = np.concatenate([np.concatenate([
            np.exp(log_p + log_t) * (p @ zg_t[i]), np.exp(log_p + log_b) * (p @ zg_b[i])], axis=1)
            for p, log_p, i in rows])
    if not (np.all(np.isfinite(coords)) and np.abs(coords).max() <= 1.0):
        return None
    _flush(coords)
    c_plus = np.concatenate([np.eye(k, L), coords[:r]])
    c_minus = np.concatenate([np.eye(r, L, k), coords[r:]])
    for c, (top, x_top) in zip((c_plus, c_minus), sectors):
        c[:top] += x_top @ c[top:]
    log_scale = n * (np.sum(log_mu[:k]) - np.sum(log_mu[k:])) + np.sum(np.log(sv))
    return _flush(c_plus), _flush(c_minus), float(log_scale)


class _Pivot(NamedTuple):
    """What the stacked pivot takes from the blocks alone (``_pivot``),
    in tables over each pair p of rows of each block q: whether the pair's
    minor passes the gate (``certain``, entry 6 q + p), the rate and the
    offset of its log-volume, n rate + offset at multiplier n (6 x N each),
    the drift l_r - l_c and log E_rc at n = 0 of the other two rows with
    their W_R (``table``, column 6 q + p) and W_P (``w_top``)."""

    certain: np.ndarray
    rate: np.ndarray
    volume0: np.ndarray
    table: np.ndarray
    w_top: np.ndarray

    def choose(self, ns: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every pair's log-volume on the blocks ``q`` at each multiplier of
        ``ns`` (6 x len(q) x M) and the table column of the pair of largest
        volume (len(q) x M)."""
        volume = self.rate[:, q, None] * ns + self.volume0[:, q, None]
        return volume, volume.argmax(0) + 6 * q[:, None]

    def holds(self, ns: np.ndarray) -> bool:
        """Whether the pivot of every (n, q) passes the minor gate: one
        argmax pass over the blocks with a pair that fails it, no frame
        formed."""
        doubtful = np.flatnonzero(~self.certain.reshape(-1, 6).all(1))
        return bool(self.certain[self.choose(ns, doubtful)[1]].all())

    def blocks(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The blocks W_P + W_R E at each multiplier (M x N x 4 x 2) and
        the log-magnitude each frame's blocks dropped, in one pass."""
        N = self.rate.shape[1]
        volume, at = self.choose(ns, np.arange(N))
        piv = np.take(self.table, at, axis=1)
        e = ns * piv[:4]
        e += piv[4:8]
        with np.errstate(under="ignore"):
            e = np.exp(e, out=e).reshape(2, 2, N, -1)
        w_rest = piv[8:].reshape(2, 4, N, -1)
        blocks = np.take(self.w_top, at, axis=1).reshape(2, 4, N, -1)  # W_P, then W_P + W_R E
        for r in range(2):
            blocks += w_rest[r] * e[r, :, None]
        return blocks.T, np.ascontiguousarray(volume.max(0).T).sum(1)  # one order for any M


def _pivot(x: np.ndarray, log_mode: np.ndarray, v: np.ndarray,
           frame: GaussianFrame) -> _Pivot | None:
    """The pivot tables that move the momentum stack ``frame`` by F^n at any
    multiplier n (periods, or times), where F_q = W_q diag(e^{n l}) W_q^-1,
    W_q = V_q diag(X_k, X_{k+pi}) (V_q of ``_bloch_stack``), from the unit
    eigenvectors x of the one-site blocks (N x 2 x 2 x 2, ``_eig2``) and
    their log-modes l per unit of the multiplier (N x 2 x 2): log mu of the
    period blocks t, or -4i lam of the one-site H_k.  None unless the
    log-modes are finite (t finite) and kappa(X) <= 1 / _OVERLAP_TOL on
    every block (a double mode, t = 1 or H_k = 0 at J = h = 0, or a
    defective block has no eigenbasis).

    F^n Phi0 = W D^n y, y = W^-1 Phi0.  The pivot P = (i, j) at (n, q) is
    the pair of rows of D^n y of largest log-volume
    n Re(l_i + l_j) + log|m_ij|, m_ab = det y_ab taken at least at its
    rounding eps |y_a| |y_b|, and the other two rows R give

        F^n Phi0 ~ W_P + W_R E,    E_rc = exp(n (l_r - l_c)) (y_R y_P^-1)_rc,

    y_R y_P^-1 = [m_rj, m_ir] / m_ij by Cramer's rule, so each |E_rc| <= 1
    by maximal volume (Goreinov & Tyrtyshnikov, Contemp. Math. 280, 2001),
    taken in log space as its first factor alone may overflow; the log-
    magnitude is the pivots' log-volume.  Every 2x2 inverse, minor and
    singular value is closed-form, and what depends on the block alone is
    formed here, once.  The frame provably equals the loop's where
    sigma_min(y_P) > _OVERLAP_TOL max(sigma_max(y_P), 1) at every (n, q)
    (``_Pivot.holds``; the unit floor rejects a pivot minor of rounding
    size): a gate on the block and the chosen pair alone.
    """
    with np.errstate(invalid="ignore"):  # an x of NaN or inf (no eigenbasis)
        det_x = x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]
        # kappa + 1/kappa = 2 / |det X| on unit columns
        if not (np.isfinite(log_mode).all() and np.all(np.abs(det_x) > 2.0 * _OVERLAP_TOL)):
            return None
    N, top, rest = len(v), _PAIRS, _PAIRS[::-1]
    w = np.einsum("nasi,nsij->nasj", v.reshape(N, 4, 2, 2), x).reshape(N, 4, 4)
    u = (_hc(v) @ frame.blocks).reshape(N, 2, 2, -1)  # V^dag Phi0, then X^-1 = adj X / det X
    y = (np.stack([x[..., 1, 1, None] * u[:, :, 0] - x[..., 0, 1, None] * u[:, :, 1],
                   x[..., 0, 0, None] * u[:, :, 1] - x[..., 1, 0, None] * u[:, :, 0]], 2)
         / det_x[..., None, None]).reshape(N, 4, -1)
    m = y[:, :, None, 0] * y[:, None, :, 1] - y[:, :, None, 1] * y[:, None, :, 0]
    m_top = m[:, top[:, 0], top[:, 1]]  # N x 6
    row2 = (np.abs(y) ** 2).sum(-1)[:, top]  # |y_i|^2, |y_j|^2
    sq, f2 = np.abs(m_top) ** 2, row2.sum(-1)  # sigma_max^2 sigma_min^2, sigma_max^2 + sigma_min^2
    # a growing pair that the frame has no weight on, to rounding, still
    # takes the pivot (as the loop's rounding would grow) and fails the gate
    floor = np.finfo(float).eps ** 2 * row2.prod(-1)
    log_mode = log_mode.reshape(N, 4)
    with np.errstate(divide="ignore", invalid="ignore"):  # a minor that rounds to 0
        s_max = np.sqrt(0.5 * (f2 + np.sqrt(np.maximum(f2 * f2 - 4.0 * sq, 0.0))))
        certain = np.sqrt(sq) / s_max > _OVERLAP_TOL * np.maximum(s_max, 1.0)
        rate, volume0 = log_mode.real[:, top].sum(-1), 0.5 * np.log(np.maximum(sq, floor))
        log_e = (np.log(np.stack([m[:, rest, top[:, 1:]], m[:, top[:, :1], rest]], -1))
                 - np.log(m_top)[..., None, None])
    drift = log_mode[:, rest][..., None] - log_mode[:, top][:, :, None, :]  # l_r - l_c
    # tables of what each pair (q, p) gives, column q 6 + p, so that the
    # stack of every (n, q) gathers its pivots with M innermost: a frame
    # column c is the table's (c, row, n, q)
    table = np.concatenate([a.transpose(2, 3, 0, 1).reshape(4, -1) for a in (drift, log_e)]
                           + [w[:, :, rest].transpose(3, 1, 0, 2).reshape(8, -1)])
    w_top = w[:, :, top].transpose(3, 1, 0, 2).reshape(8, -1)
    return _Pivot(certain.ravel(), rate.T, volume0.T, table, w_top)


def _eig2(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modes and unit eigenvectors (columns) of each 2x2 t of a stack, in
    closed form: t = m + [[d, b], [c, -d]] has modes m +- s, s^2 = d^2 + bc,
    and eigenvectors [d + s, c] and [b, -d - s], the sign of s taken so that
    d + s does not cancel; a zero column (t = m, or defective) or an
    overflowing square gives NaN."""
    b, c = t[..., 0, 1], t[..., 1, 0]
    with np.errstate(all="ignore"):  # an overflowing sum or square, or a zero column
        m, d = (t[..., 0, 0] + t[..., 1, 1]) / 2, (t[..., 0, 0] - t[..., 1, 1]) / 2
        s = np.sqrt(d * d + b * c)
        s = np.where((d.conj() * s).real < 0, -s, s)
        x = np.stack([np.stack([d + s, c], -1), np.stack([b, -d - s], -1)], -1)
        return np.stack([m + s, m - s], -1), x / np.linalg.norm(x, axis=-2, keepdims=True)


def _bloch_stack(params: ModelParams, q: np.ndarray):
    """The one-site blocks at k = q/2 and k + pi (``spectral.bloch_blocks``,
    N x 2 stacks), whose ``period(-1.0)`` gives t_k, t_{k+pi} of the frame
    map and ``hamiltonian()`` the h_k of the continuous limit, and
    V_q = [[1, 1], [e^{ik}, -e^{ik}]] (x) 1 / sqrt(2), which takes each
    pair to its 4x4 cell block: F_q = V_q diag(t_k, t_{k+pi}) V_q^dag on the
    momentum stack (``GaussianFrame``).  Only ``period`` forms the kicks, so
    only it raises where they overflow."""
    blocks = bloch_blocks(params.J, params.h, -(q[:, None] / 2 + np.array([0.0, np.pi])))
    v = (np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2)) / np.sqrt(2.0)
         * np.exp(0.5j * np.outer(q, [0, 0, 1, 1]))[:, :, None])
    return blocks, v


def _sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """X with a X - X b = -c for upper-triangular a and b, or None where they
    (nearly) share an eigenvalue.  ``ztrsyl`` rejects empty blocks."""
    if not (a.size and b.size):
        return np.zeros(c.shape, dtype=complex)
    x, scale, info = scipy.linalg.lapack.ztrsyl(a, b, -c, isgn=-1)
    return x / scale if info == 0 else None


def _hc(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def _momentum_route(lat: LatticeSpec, state: ProductState) -> bool:
    """Whether a z-basis ``state`` on ``lat`` evolves on the momentum stack
    (``GaussianFrame.from_dense``): occupations of period 2 on a pbc-even
    chain with L divisible by 4.  Those are the chains where no two-site
    momentum is its own partner (q = -q: q = 0 on pbc-odd, q = pi on
    pbc-odd with L = 0 mod 4 and on pbc-even with L = 2 mod 4).  Where one
    is, the two engines part by O(1) within tens of periods at random
    couplings: the exact trajectory is unstable to rounding that breaks
    the translation symmetry or a conserved mode occupation, so the dense
    one-cell stack is kept there.
    """
    occ = state.occupations()
    return lat.bc is BoundaryCondition.PBC_EVEN and lat.L % 4 == 0 and occ[2:] == occ[:-2]


def _stacked_frames(params: ModelParams, lat: LatticeSpec, state: ProductState,
                    ns: np.ndarray, route: str) -> Iterator[GaussianFrame] | None:
    """The one engine of the momentum stack: the frames of ``state`` moved
    by F^n at each multiplier n of ``ns``, each directly from the initial
    frame by the stacked pivot (``_pivot``), yielded in order in chunks
    whose pivot tables (three times their frames) fill ``_RECORD_BYTES``.
    Route ``"schur"``: F the frame map, ``ns`` periods, ``period_count`` n;
    route ``"continuous"``: F = exp(-4i H), ``ns`` times, ``period_count``
    1, 2, ... along them.  None off the momentum route (``_momentum_route``)
    and where the pivot misses at any multiplier: its gates are read for
    every multiplier, chunk by chunk, before the first frame, so a run
    holds one stack throughout."""
    frame = initial_frame(state, lat)
    if not _momentum_route(lat, state):
        return None
    frame = GaussianFrame.from_dense(frame, lat)
    blocks, v = _bloch_stack(params, frame.momenta)
    flow = route == "continuous"
    modes, x = _eig2(blocks.hamiltonian() if flow else blocks.period(-1.0))
    with np.errstate(divide="ignore", invalid="ignore"):  # a mode of 0, or one past overflow
        log_mode = -4j * modes if flow else np.log(modes)
    pivot = _pivot(x, log_mode, v, frame)
    ns = np.asarray(ns, dtype=float)
    counts = np.arange(1, len(ns) + 1) if flow else ns
    per = max(1, _RECORD_BYTES // (3 * frame.blocks.nbytes))
    starts = range(0, len(ns), per)
    if pivot is None or not all(pivot.holds(ns[i:i + per]) for i in starts):
        return None

    def frames():
        for i in starts:
            blocks, log_scale = pivot.blocks(ns[i:i + per])
            yield from _advance(frame, blocks, route, counts[i:i + per], log_scale)
    return frames()


def _loop(frame: GaussianFrame, kicks: KickForms, n: int) -> Iterator[GaussianFrame]:
    for _ in range(n):
        frame = period_map(frame, kicks)
        yield frame


def period_frames(params: ModelParams, lat: LatticeSpec,
                  quench: QuenchConfig) -> Iterator[GaussianFrame]:
    """The frame after each of the configured periods, in order.  On the
    momentum stack each is taken directly from the initial frame by the
    stacked pivot over the periods 1..n (``_stacked_frames``, ``route ==
    "schur"``); where it misses at any period, and on every other chain,
    the one-cell stack steps the frame with ``period_map`` (``route ==
    "loop"``).  The quench is checked, and the stack chosen, on the call,
    before the first frame."""
    quench.require_free_fermion()
    n = quench.n_periods
    frames = _stacked_frames(params, lat, quench.initial_state, np.arange(1, n + 1), "schur")
    if frames is not None:
        return frames
    return _loop(initial_frame(quench, lat), build_kick_forms(params, lat), n)


def run_to_steady_state(params: ModelParams, lat: LatticeSpec,
                        quench: QuenchConfig) -> GaussianFrame:
    """The frame after the configured number of periods.

    On the momentum stack it is the stacked pivot's at that one period
    (``_stacked_frames``), which misses only where a t has no eigenbasis
    (J = h = 0) or the frame has no weight on a growing mode.  On the
    one-cell stack, where that misses and on every other chain, it is
    sought from a Schur form of the L x L + sector block, which gives the
    - sector's too (``_dominant_frame``), split at the L/L cut or with the
    edge pair that straddles it swapped across it.  Either is returned,
    with ``route == "schur"``, only where it provably equals the loop's
    frame on every block.  Otherwise it is the last frame of the one-cell
    loop, of which only the current frame is held.
    """
    quench.require_free_fermion()
    n = quench.n_periods
    frames = _stacked_frames(params, lat, quench.initial_state, [n], "schur")
    if frames is not None:
        return next(frames)
    frame, kicks = initial_frame(quench, lat), build_kick_forms(params, lat)
    if (found := _dominant_frame(kicks, frame, n)) is not None:
        return found
    for frame in _loop(frame, kicks, n):
        pass
    return frame


def entropy_trace(frames: Iterable[GaussianFrame], subsystem: SubsystemSpec,
                  lat: LatticeSpec, workers: int = 1) -> EntropyTrace:
    """The subsystem entropy of each frame of ``frames``, in order, with its
    norm bookkeeping and its isotropy defect ||Phi^T Phi|| as
    ``orthonormalize`` measured it (``purity_residual``; orthonormality
    holds by QR).

    Each frame's rows that the subsystem's block reads are held
    (``_block_plan``, made once from the first frame: the evolutions choose
    a run's stack before its first frame, and keep it).  The entropies are
    taken from them whenever they fill ``_RECORD_BYTES`` and after the last
    frame, in stacked calls of the frames whose rows and blocks fill up to
    ``_STACK_BYTES`` (at least one), mapped over ``workers`` processes
    (``sweep.map_points``): each frame's is independent of the others, and
    the trace is the same for any worker count.  Where ``frames`` raises,
    the held frames are evaluated first, so an entropy that failed before
    it is raised in its place, as in a serial run.
    """
    idx = subsystem.majorana_indices(lat)
    plan, held, ents, norms, purs = None, [], [], [], []

    def flush():
        nonlocal held
        rows, held = held, []  # off the list first: a failing entropy leaves none held
        if rows:
            per_chunk = max(1, _STACK_BYTES // (rows[0].nbytes + 16 * len(idx) ** 2))
            ents.extend(s for part in sweep.map_points(
                lambda i: entanglement.entropy_from_majorana_block(
                    plan[1](np.stack(rows[i:i + per_chunk]))).entropy,
                range(0, len(rows), per_chunk), workers) for s in part)

    try:
        for frame in frames:
            plan = plan or _block_plan(frame, idx)
            held.append(frame.blocks[:, plan[0]])
            norms.append(frame.norm_log)
            purs.append(frame.isotropy)
            if len(held) * held[0].nbytes >= _RECORD_BYTES:
                flush()
    except Exception:
        flush()  # raises instead where an earlier frame's entropy fails
        raise
    flush()
    return EntropyTrace(np.arange(1, len(ents) + 1), np.asarray(ents),
                        np.asarray(norms), np.asarray(purs))


def stroboscopic_run(params: ModelParams, lat: LatticeSpec, quench: QuenchConfig,
                     subsystem: SubsystemSpec, workers: int = 1) -> EntropyTrace:
    """Per-period subsystem entropy for the configured quench: the
    ``entropy_trace`` of ``period_frames``.

    On periodic chains the parity sector is taken from the lattice spec; use
    ``preferred_sector`` to match the initial state's fermion parity when
    comparing against the spin-language oracle.
    """
    return entropy_trace(period_frames(params, lat, quench), subsystem, lat, workers)


# --------------------------------------------------------------------------
# continuous-time evolution
# --------------------------------------------------------------------------

def continuous_hamiltonian(params: ModelParams, lat: LatticeSpec) -> np.ndarray:
    """Dense coefficient matrix H of H_op = sum_ij H_ij a_i a_j for the
    continuous limit H_op = J sum XX + h sum Z (equal to i (W' + W'')): each
    Majorana's bond value [s_0, s_b, -s_0, -s_b, 0] (``spectral._bond_ends``)
    put at its partner by the kicks' plans (``spectral._kick_plans``),
    without forming the kicks, which may overflow where H does not; read by
    ``evolve_continuous`` on the one-cell stack only."""
    w = np.zeros((lat.n_majorana, lat.n_majorana), dtype=complex)
    for s, (partner, k) in zip(_bond_ends(params, lat.bc), _kick_plans(lat.L, lat.bc)):
        w[np.arange(len(w)), partner] += np.concatenate([s, -s, np.zeros(1)])[k[:, 0]]
    return 1j * w


def evolve_continuous(params: ModelParams, lat: LatticeSpec, state: ProductState,
                      t_grid) -> list[GaussianFrame]:
    """Frames of exp(-i H_op t)|psi_0>, normalized, at each time of the
    non-decreasing grid ``t_grid`` of finite, non-negative times, for the
    z-basis product state psi_0 on ``lat`` and the continuous-limit H_op of
    ``params``.

    Exact: the frame at time T is exp(-4i T H) Phi0, orthonormalized like a
    period (``route == "continuous"``, ``period_count`` 1, 2, ... along the
    grid), and ``norm_log`` is the log-norm of exp(-4i T H) Phi0.  On the
    momentum stack every time of the grid is taken directly from the
    initial frame, with no step, by the one engine of the periods
    (``_stacked_frames``) with the log-modes -4i lam of the one-site blocks
    H_k.  Where that misses at any time (J = h = 0, a defective H_k, a
    pivot minor of rounding size), and on every other chain, the one-cell
    stack is stepped along the grid by ``expm`` of the dense 2L x 2L H
    (``continuous_hamiltonian``), one exponential per distinct step.
    """
    times = np.atleast_1d(np.asarray(t_grid, dtype=float))
    steps = np.diff(times, prepend=0.0)
    if (times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times))
            or not np.all(steps >= 0)):
        raise ValidationError("t_grid must be a non-empty, non-decreasing "
                              "grid of finite, non-negative times")
    frames = _stacked_frames(params, lat, state, times, "continuous")
    if frames is not None:
        return list(frames)
    frame, hmat = initial_frame(state, lat), continuous_hamiltonian(params, lat)[None]
    out, dt_u, u = [], None, None
    for dt in steps:
        with np.errstate(over="ignore", invalid="ignore"):  # orthonormalize refuses overflows
            if u is None or abs(dt - dt_u) > 1e-12 * dt:
                dt_u, u = dt, scipy.linalg.expm(-4j * dt * hmat)
            moved = u @ frame.blocks
        frame = _advance(frame, moved, "continuous")
        out.append(frame)
    return out
