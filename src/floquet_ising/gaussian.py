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
Both the stroboscopic loop and the continuous-time flow run on the
momentum stack where ``_momentum_route`` allows it (pbc-even, L divisible
by 4, a state of period 2), and on the one-cell stack everywhere else.
So does the direct steady state, which forms the n-period frame from the
frame map's blocks: on the momentum stack from the eigenpairs of the 2x2
one-site Bloch blocks t_k, t_{k+pi} themselves (``_bloch_frame``),
where the dense 2L x 2L frame map is not tried, and on the one-cell stack
from a Schur form of the L x L + reflection-sector block alone
(``_sector_split``): the - block is the inverse transpose of the +, so its
modes and its split follow from the + sector's.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.linalg

from . import entanglement, sweep
from .errors import (DegenerateEvolution, NumericalBreakdown,
                     UnsupportedStateError, ValidationError)
from .params import (BoundaryCondition, LatticeSpec, ModelParams,
                     ProductState, QuenchConfig, SubsystemSpec)
from .spectral import (KickForms, _chain_plan, _kick_bonds, bloch_blocks,
                       build_kick_forms, cell_momenta, sector_basis)

_ISO_TOL = 1e-13
_RANK_TOL = 1e-13
_OVERLAP_TOL = 1e-10
_ISOLATION_TOL = 1e-6
_ROUNDING_TOL = 1e-12
_MAX_SWEEPS = 4  # isotropy corrections before orthonormalize gives up (read at call time)
_RECORD_BYTES = 8 << 20  # frame rows stroboscopic_run holds before taking their entropies


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
    made: ``"loop"`` by ``period_map``, ``"schur"`` by the direct steady
    state of ``run_to_steady_state`` (on either stack), ``"momentum"`` by
    its momentum-block step, ``"continuous"`` by a step of
    ``evolve_continuous``.  Both are None for initial frames."""

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
        on rows 4x..4x+3, repeats on every cell of ``cell_momenta``."""
        q = cell_momenta(lat)
        partner = np.argmin(np.abs(np.exp(1j * (q[:, None] + q[None, :])) - 1), axis=1)
        return cls(np.repeat(frame.blocks[:, :4, :2], len(q), axis=0), q, partner)

    @cached_property
    def phi(self) -> np.ndarray:
        n, r, c = self.blocks.shape
        u = np.exp(1j * np.outer(np.arange(n), self.momenta)) / np.sqrt(n)
        return np.einsum("xq,qab->xaqb", u, self.blocks).reshape(n * r, n * c)

    def isotropy_defect(self) -> float:
        return _isotropy(self.blocks, self.partner)[1]

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
    inv = 1.0 / np.sqrt(2.0)
    for j, n in enumerate(state.occupations()):
        phi[2 * j, j] = inv
        phi[2 * j + 1, j] = (1j if n else -1j) * inv
    return GaussianFrame(phi[None])


def _partners(q: np.ndarray, partner: np.ndarray | None) -> np.ndarray:
    """Block partner[i] for each block i of the stack q.  A dense frame or
    a one-cell stack pairs with itself in place, so that S = q^T q is one
    symmetric product and comes out exactly symmetric."""
    return q if partner is None or len(partner) == 1 else q[partner]


def _isotropy(q: np.ndarray, partner: np.ndarray | None = None):
    """S = q_{-}^T q and ||S|| over one dense frame or a stack of blocks."""
    s = np.swapaxes(_partners(q, partner), -1, -2) @ q
    return s, float(np.linalg.norm(s))


def _orthonormality(q: np.ndarray) -> float:
    """||q^dag q - 1|| over one frame or a stack of blocks."""
    return float(np.linalg.norm(np.swapaxes(q.conj(), -1, -2) @ q - np.eye(q.shape[-1])))


def orthonormalize(phi: np.ndarray, partner: np.ndarray | None = None):
    """Span-preserving factorization restoring orthonormality and isotropy.

    ``phi`` is one dense frame or, with ``partner``, a stack of blocks
    whose isotropy pairs block i with block partner[i] (the dense frame is
    one block paired with itself); each block is factorized on its own.
    Returns the new frame, the log-magnitude discarded by the first QR (the
    state-norm bookkeeping) and the isotropy defect ||q_-^T q|| measured on
    the returned frame.  Raises DegenerateEvolution on rank loss,
    and NumericalBreakdown (``condition`` = the defect) if the isotropy
    defect is still above tolerance after ``_MAX_SWEEPS`` corrections.
    """
    q, r = np.linalg.qr(phi)
    rd = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if rd.min() < _RANK_TOL * max(rd.max(), 1.0):
        tiny = rd.max() * 1e-290
        cond = float(rd.max() / rd.min()) if rd.min() > tiny else float("inf")
        raise DegenerateEvolution("frame lost rank during evolution",
                                  condition=cond)
    log_mag = float(np.sum(np.log(rd)))
    for sweep in range(_MAX_SWEEPS + 1):
        s, defect = _isotropy(q, partner)
        if defect < _ISO_TOL:
            break
        if sweep == _MAX_SWEEPS:
            raise NumericalBreakdown(
                f"isotropy defect {defect:.3g} left after {_MAX_SWEEPS} sweeps",
                condition=defect)
        q = q - 0.5 * np.conj(_partners(q, partner)) @ s
        q, _ = np.linalg.qr(q)
    return q, log_mag, defect


def period_map(frame: GaussianFrame, kicks: KickForms) -> GaussianFrame:
    """Advance the state of a one-cell frame by one Floquet period.

    Annihilator frames transform with exp(-4W') exp(-4W''), the transpose of
    the operator conjugation exp(4W'') exp(4W'), applied bond by bond in
    O(L^2) to the frame's one block (``KickForms.step``).
    """
    phi = kicks.step(frame.blocks[0], -1.0)
    return _advance(frame, phi[None], "loop")


def _advance(frame: GaussianFrame, blocks: np.ndarray, route: str, periods: int = 1,
             log_scale: float = 0.0) -> GaussianFrame:
    """The frame ``periods`` periods on, from its blocks moved by the frame
    map and the log-magnitude ``log_scale`` they dropped (a direct route's,
    ``_bloch_frame`` and ``_dominant_frame``).  The QR adds the rest, so
    ``norm_log`` is the loop's."""
    blocks, log_mag, defect = orthonormalize(blocks, partner=frame.partner)
    return GaussianFrame(blocks, frame.momenta, frame.partner, frame.period_count + periods,
                         frame.norm_log + (log_scale + log_mag), defect, route)


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
    and the function that takes a stack's ``blocks[:, rows]`` to C_A.

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
        return idx, lambda sub: 2.0 * (np.conj(sub[0]) @ sub[0].T)
    x, a = np.divmod(np.asarray(idx), r)
    rows, a = np.unique(a, return_inverse=True)
    k, x = len(rows), x - x.min()
    m = x.max() + 1
    d = np.arange(1 - m, m)
    phase = 2.0 * np.exp(1j * frame.momenta[0] * d)
    pos = k * x + a
    run = slice(pos[0], pos[-1] + 1) if (np.diff(pos) == 1).all() else None

    def block(sub: np.ndarray) -> np.ndarray:
        g = np.fft.ifft(np.conj(sub) @ np.swapaxes(sub, -1, -2), axis=0)
        # t[a, m - 1 + d, b] = T(d)[a, b] in C order, so block row (i, a) of the
        # span is the run of t[a] from d = -i: w[a, i, k j + b] = T(j - i)[a, b]
        t = np.take(g.transpose(1, 0, 2), d % n, axis=1) * phase[:, None]
        s0, s1, s2 = t.strides
        w = np.ndarray((k, m, m * k), t.dtype, t, (m - 1) * s1, (s0, -s1, s2))
        if run is not None:
            return w.transpose(1, 0, 2).reshape(m * k, m * k)[run, run]
        return w[a[:, None], x[:, None], pos]

    return rows, block


def correlation_block(frame: GaussianFrame, majorana_idx: np.ndarray) -> np.ndarray:
    """Restricted C block without forming the full matrix (``_block_plan``)."""
    rows, block = _block_plan(frame, majorana_idx)
    return block(frame.blocks[:, rows])


Observer = Callable[[GaussianFrame], None]


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
    L/L split (no middle block) is tried first and, where it misses, the
    split that carries the edge pair straddling the L/L cut.
    """
    u = sector_basis(kicks.coupling_form.n)
    b_plus, b_minus = (kicks.step(x, -1.0)[:len(x) // 2] for x in (u, u.conj()))
    try:
        t, q = scipy.linalg.schur(b_plus, output="complex")
    except np.linalg.LinAlgError:  # the Schur iteration did not converge
        return None
    form = _sector_form(t, q, b_minus)
    if form is None:
        return None
    t, q, t_inv, cuts = form
    phase = _chain_plan(len(t)).phase[:, None]
    top, mirror = frame.blocks[0, :len(t)], frame.blocks[0, len(t):][::-1]
    y = (_hc(q) @ (top - phase * mirror) / np.sqrt(2.0),
         (q.T @ (top + phase * mirror))[::-1] / np.sqrt(2.0))
    for k1, k2 in cuts:
        found = _sector_split(t, t_inv, y, n, k1, k2)
        if found is not None:
            c_plus, c_minus, log_scale = found
            a, b = q @ c_plus, q.conj() @ c_minus[::-1]
            phi = np.concatenate([a + b, (phase * (a - b))[::-1]]) / np.sqrt(2.0)
            return _advance(frame, phi[None], "schur", n, log_scale)
    return None


def _sector_form(t: np.ndarray, q: np.ndarray, b_minus: np.ndarray):
    """The + sector's Schur form (t, q) reordered on |mu| for
    ``_sector_split``, with t^-1 and the splits (k1, k2) to try, of its
    modes into a top [:k1], a middle [k1:k2] and a bottom [k2:]; or None
    where no split is possible or the reorder or the - form fails.

    The 2L modes of F are those of t and their reciprocals.  Sorted by
    log|mu|, the L/L split cuts between the L-th and (L+1)-th and needs
    exactly one member of each (mu, 1/mu) pair above the cut; its top is
    the + modes above it, (k, k).  The pair split puts the L-th and
    (L+1)-th in a middle block, isolated by _ISOLATION_TOL in log|mu| from
    its neighbours, which must be one pair mu_0, 1/mu_0, every other pair
    keeping one member above it; its top is the + modes above the middle
    block.  One ``ztrsen`` puts the top first and, for the pair split, one
    ``ztrexc`` moves mu_0 right after it: the L/L split's top is then the
    first k or k + 1 modes, as mu_0 lies below or above the L/L cut, so
    both splits read one order.  The - form read from t^-1 must pass
    ||B_- Q_- - Q_- T_-|| <= _OVERLAP_TOL ||B_-||.
    """
    L, mu = len(t), np.diag(t)
    if not np.all(mu):  # singular: the - form does not exist
        return None
    pairs = np.log(np.abs(np.stack([mu, 1.0 / mu])))
    log_mu = np.sort(pairs.ravel())[::-1]
    cut = (log_mu[:-1] + log_mu[1:]) / 2
    above = lambda i: np.count_nonzero(pairs > cut[i], axis=0)  # members of each pair
    cuts, select = [], None
    if np.all(above(L - 1) == 1):
        select = pairs[0] > cut[L - 1]
        k = np.count_nonzero(select)
        cuts.append((k, k))
    if (min(log_mu[L - 2] - log_mu[L - 1], log_mu[L] - log_mu[L + 1]) > _ISOLATION_TOL
            and np.all(above(L - 2) + above(L) == 2) and np.count_nonzero(above(L) == 2) == 1):
        select = pairs[0] > cut[L - 2]
        k = np.count_nonzero(select)
        cuts.append((k, k + 1))
    if select is None:
        return None
    t, q, _, _, _, _, info = scipy.linalg.lapack.ztrsen(select, t, q, job="N")
    if info == 0 and cuts[-1][1] > cuts[-1][0]:
        # mu_0: the + mode below the top with the largest |mu|
        first = k + int(np.argmax(np.abs(np.diag(t)[k:])))
        if first > k:
            t, q, info = scipy.linalg.lapack.ztrexc(t, q, first + 1, k + 1)
    if info != 0:
        return None
    t_inv, info = scipy.linalg.lapack.ztrtri(t)
    q_minus = q[:, ::-1].conj()
    if info != 0 or not (np.linalg.norm(b_minus @ q_minus - q_minus @ t_inv[::-1, ::-1].T)
                         <= _OVERLAP_TOL * np.linalg.norm(b_minus)):
        return None
    return t, q, t_inv, cuts


def _sector_split(t: np.ndarray, t_inv: np.ndarray, y: tuple[np.ndarray, np.ndarray],
                  n: int, k1: int, k2: int):
    """The Schur coordinates of F^n Phi0 from the reordered + sector form t
    and t^-1 (``_sector_form``), with the + modes split into a top [:k1], a
    middle block of h = k2 - k1 (0 or 1) modes and a bottom [k2:], and
    y = Q^dag Phi0 as its + and - rows.  F's top T1 = diag(T_tt, J T_bb^-T
    J), middle T2 = diag(mu_0, 1/mu_0) and bottom T3 = diag(T_bb, J T_tt^-T
    J) hold one block of each sector (T_tt = t[:k1, :k1], T_bb = t[k2:,
    k2:]), 2h middle modes straddling the L/L cut and L - h in each of the
    others.  The blocks are decoupled, T = S diag(T1, T2, T3) S^-1 with
    S = [[1, x1], [0, [[1, x2], [0, 1]]]]: two Sylvester solves in the
    + sector, and in the - sector S_- = J S_+^-T J gives
    x1_- = -J [x1b + x1a x2; x2]^T J and x2_- = -J x1a^T J, where x1 =
    [x1a, x1b] is split at k2.  With z = S^-1 y, G1 a right inverse of z1
    and W an orthonormal basis of its null space, and T2^n z2 W = P R (QR),

        F^n Phi0 ~ Q S [[1, 0], [E_mid, P], [E_bot, T3^n z3 W R^-1]]
        E_mid = T2^n z2 G1 T1^-n,  E_bot = T3^n z3 G1 T1^-n,

    where T1^-n and T3^n are made of the two powers T_tt^-n and T_bb^n,
    each with its own log-scale, and so is each block of E.  Every term is
    kept (no convergence assumed).  Returns S coords as its + and - rows
    (L x L each) and the log-magnitude dropped from them, or None unless

    - both Sylvester solves succeed;
    - sigma_min(z1) > _OVERLAP_TOL max(sigma_max(z1), 1).  The unit floor
      matters: y has orthonormal columns, and a Phi0 inside the decaying
      subspace leaves a z1 of rounding size whose singular value ratio may
      still be O(1);
    - with a middle block, the loop's rounding on it, amplified like T2^n,
      stays below _ROUNDING_TOL of the smallest middle column:
      eps ||T2^n|| ||z2 W|| < _ROUNDING_TOL sigma_min(T2^n z2 W);
    - every term is finite and |E_mid|, |E_bot| <= 1.  Far above that
      bound the exact frame leaves the loop (by 1e-9 at |E| ~ 1e8), and a
      60-digit evolution sides with the loop.
    """
    L, h = len(t), k2 - k1
    r = L - k2  # the bottom of the + sector, the top of the -
    x1 = _sylvester(t[:k1, :k1], t[k1:, k1:], t[:k1, k1:])
    x2 = _sylvester(t[k1:k2, k1:k2], t[k2:, k2:], t[k1:k2, k2:])
    if x1 is None or x2 is None:
        return None
    sectors = ((k1, x1, x2),  # (top size, x1, x2) of the + and the - sector
               (r, -np.concatenate([x1[:, h:] + x1[:, :h] @ x2, x2]).T[::-1, ::-1],
                -x1[:, :h].T[::-1, ::-1]))
    z_p, z_m = (np.concatenate([yi[:top] - x_top @ yi[top:],
                                yi[top:top + h] - x_mid @ yi[top + h:], yi[top + h:]])
                for yi, (top, x_top, x_mid) in zip(y, sectors))
    k = k1 + r
    qz, rz = np.linalg.qr(_hc(np.concatenate([z_p[:k1], z_m[:r]])), mode="complete")
    rz = rz[:k]
    sv = np.linalg.svd(rz, compute_uv=False)
    if not sv[-1] > _OVERLAP_TOL * max(sv[0], 1.0):
        return None
    w = qz[:, k:]
    (p_t,), (log_t,) = _scaled_power(t_inv[None, :k1, :k1], n)  # T_tt^-n
    (p_b,), (log_b,) = _scaled_power(t[None, k2:, k2:], n)      # T_bb^n
    mid = np.concatenate([np.diag(t)[k1:k2], np.diag(t_inv)[k1:k2]])
    (p2,), (log2,) = _scaled_power(np.diag(mid)[None], n)
    v = np.concatenate([z_p[k1:k2], z_m[r:r + h]]) @ w
    pair, r_pair = np.linalg.qr(p2 @ v)
    sv_pair = np.linalg.svd(r_pair, compute_uv=False)
    if not (np.finfo(float).eps * np.linalg.norm(p2, 2) * np.linalg.norm(v, 2)
            < _ROUNDING_TOL * sv_pair.min(initial=np.inf)):
        return None
    # the rows below the top, in the order middle +, middle -, bottom +, bottom -
    rest = np.concatenate([z_p[k1:k2], z_m[r:r + h], z_p[k2:], z_m[r + h:]])
    zg = scipy.linalg.lapack.ztrtrs(rz, _hc(rest @ qz[:, :k]))[0].conj().T  # rest G1
    zg_t, zg_b = zg[:, :k1] @ p_t, zg[:, k1:] @ p_b.T[::-1, ::-1]       # times T1^-n
    w_r = w @ np.linalg.inv(r_pair)
    rows = [(p2, log2, slice(0, 2 * h), None),
            (p_b, log_b, slice(2 * h, 2 * h + r), z_p[k2:]),
            (p_t.T[::-1, ::-1], log_t, slice(2 * h + r, None), z_m[r + h:])]
    with np.errstate(over="ignore", invalid="ignore"):
        coords = np.concatenate([np.concatenate([
            np.exp(log_p + log_t) * (p @ zg_t[i]), np.exp(log_p + log_b) * (p @ zg_b[i]),
            pair if z_bot is None else np.exp(log_p - log2) * (p @ z_bot @ w_r)], axis=1)
            for p, log_p, i, z_bot in rows])
    if not (np.all(np.isfinite(coords)) and np.abs(coords[:, :k]).max() <= 1.0):
        return None
    _flush(coords)
    c_plus = np.concatenate([np.eye(k1, L), coords[:h], coords[2 * h:2 * h + r]])
    c_minus = np.concatenate([np.eye(r, L, k1), coords[h:2 * h], coords[2 * h + r:]])
    for c, (top, x_top, x_mid) in zip((c_plus, c_minus), sectors):
        c[top:top + h] += x_mid @ c[top + h:]
        c[:top] += x_top @ c[top:]
    log_scale = (n * (np.sum(np.log(np.abs(np.diag(t)[:k1])))
                      - np.sum(np.log(np.abs(np.diag(t)[k2:]))))
                 + np.sum(np.log(sv)) + h * log2 + np.sum(np.log(sv_pair)))
    return _flush(c_plus), _flush(c_minus), float(log_scale)


def _bloch_frame(t: np.ndarray, v: np.ndarray, frame: GaussianFrame,
                 n: int) -> GaussianFrame | None:
    """The n-period momentum stack from ``frame``, from the one-site blocks
    t of the frame map F_q = V_q diag(t_k, t_{k+pi}) V_q^dag
    (``_bloch_stack``), or None unless it provably equals the loop's.  Each
    t has determinant 1: its modes are a pair, the top mode mu_1 with the
    larger |mu| and the bottom mode mu_3 = 1/mu_1.

    With u the unit eigenvector of mu_1 and u' its orthogonal complement,
    t = [u, u'] [[mu_1, b], [0, mu_3]] [u, u']^dag, and w = u' + x u,
    x = b / (mu_3 - mu_1), is the eigenvector of mu_3.  So V_q [u_k,
    u_{k+pi}, w_k, w_{k+pi}] = Q S, a Schur basis of F_q times the
    decoupling S = [[1, x], [0, 1]], with T1 = diag(mu_1) and T3 =
    diag(mu_3).  With z = (Q S)^-1 Phi0 split into its top rows z1 and
    bottom rows z3,

        F^n Phi0 ~ Q S [1; E],    E_ij = (mu_3i / mu_1j)^n (z3 z1^-1)_ij,

    every term kept, the powers taken in log space; ``norm_log`` adds
    n sum log|mu_1| + sum log sigma(z1) to the QR's term.  Returns None
    unless on every block

    - |mu_1 - mu_3| > eps |mu_1|: a double mode (J = h = 0, or a
      defective t) has no w;
    - sigma_min(z1) > _OVERLAP_TOL max(sigma_max(z1), 1): Phi0 overlaps
      the top modes, and the unit floor rejects a z1 of rounding size
      (y = Q^dag Phi0 has orthonormal columns);
    - every term is finite and |E| <= 1.  Far above that bound the exact
      frame leaves the loop, and a 60-digit evolution sides with the
      loop.  A unit-circle pair (the volume law) keeps its entries of E
      at those of z3 z1^-1, which do not decay with n, and mostly misses
      here.
    """
    if not np.all(np.isfinite(t)):  # an overflowing map: eig would raise
        return None
    mu, vec = np.linalg.eig(t)
    top = np.argmax(np.abs(mu), axis=-1)[..., None]  # the member with the larger |mu|
    mu1, mu3 = (np.take_along_axis(mu, i, -1)[..., 0] for i in (top, 1 - top))
    if not np.all(np.abs(mu1 - mu3) > np.finfo(float).eps * np.abs(mu1)):
        return None
    u = np.take_along_axis(vec, top[..., None], -1)[..., 0]
    u_perp = np.stack([-u[..., 1].conj(), u[..., 0].conj()], axis=-1)
    basis = np.stack([u, u_perp], axis=-1)  # t = basis [[mu_1, b], [0, mu_3]] basis^dag
    x = (_hc(basis) @ t @ basis)[..., 0, 1] / (mu3 - mu1)
    y = _hc(basis) @ (_hc(v) @ frame.blocks).reshape(len(v), 2, 2, -1)
    z1, z3 = y[..., 0, :] - x[..., None] * y[..., 1, :], y[..., 1, :]
    sv = np.linalg.svd(z1, compute_uv=False)
    if not np.all(sv[:, -1] > _OVERLAP_TOL * np.maximum(sv[:, 0], 1.0)):
        return None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = (np.exp(n * (np.log(mu3)[:, :, None] - np.log(mu1)[:, None, :]))
             * (z3 @ np.linalg.inv(z1)))
    if not (np.all(np.isfinite(e)) and np.abs(e).max() <= 1.0):
        return None
    w = u_perp + x[..., None] * u
    # each sub-block's rows of S [1; E]: u e_s^T + w E_s
    coords = np.eye(2)[None, :, None, :] * u[..., None] + w[..., None] * e[:, :, None, :]
    log_scale = float(n * np.sum(np.log(np.abs(mu1))) + np.sum(np.log(sv)))
    return _advance(frame, v @ coords.reshape(len(v), 4, -1), "schur", n, log_scale)


def _bloch_stack(params: ModelParams, q: np.ndarray):
    """The one-site blocks at k = q/2 and k + pi (``spectral.bloch_blocks``,
    N x 2 stacks), whose ``period(-1.0)`` gives t_k, t_{k+pi} of the frame
    map and ``hamiltonian()`` h_k, h_{k+pi} of the continuous limit, and
    V_q = [[1, 1], [e^{ik}, -e^{ik}]] (x) 1 / sqrt(2), which takes each
    pair to its 4x4 cell block.  Only ``period`` forms the kicks, so only
    it raises where they overflow."""
    blocks = bloch_blocks(params.J, params.h, -(q[:, None] / 2 + np.array([0.0, np.pi])))
    v = (np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2)) / np.sqrt(2.0)
         * np.exp(0.5j * np.outer(q, [0, 0, 1, 1]))[:, :, None])
    return blocks, v


def _cell_blocks(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """V_q diag(b_k, b_{k+pi}) V_q^dag (F_q from t, H_q from h), so that
    F U_q = U_q F_q on the dense frame (``GaussianFrame``)."""
    v1, v2 = v[..., :2], v[..., 2:]
    return v1 @ b[:, 0] @ _hc(v1) + v2 @ b[:, 1] @ _hc(v2)


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


def run_to_steady_state(params: ModelParams, lat: LatticeSpec, quench: QuenchConfig,
                        observe: Observer | None = None) -> GaussianFrame:
    """Evolve for the configured number of periods and return the frame.

    This is the one stroboscopic loop: ``observe(frame)``, when given, is
    called with the frame after every period.  The frame is the momentum
    stack where ``_momentum_route`` allows it, else the one-cell stack.
    Without an observer it is first sought directly, on that stack: from
    the eigenpairs (mu, 1/mu) of the two 2x2 one-site Bloch blocks t_k,
    t_{k+pi} of each momentum q (``_bloch_frame``; the dense frame map is
    not tried), or from a Schur form of the one-cell map's L x L + sector
    block, which gives the - sector's too (``_dominant_frame``).  Each
    gives the exact n-period frame from the split of its spectrum at the
    cut (one member of each pair on top, on the momentum stack), and the
    one-cell map also from the split that carries one edge pair
    straddling that cut.  It is returned, with ``route == "schur"``, only
    where it provably equals the loop's frame on every block.  Otherwise
    the loop runs: on the momentum stack it steps one 4x2 block per
    momentum (``route == "momentum"``); on the one-cell stack it steps the
    frame with ``period_map`` (``route == "loop"``).
    """
    quench.require_free_fermion()
    frame = initial_frame(quench, lat)
    if _momentum_route(lat, quench.initial_state):
        frame = GaussianFrame.from_dense(frame, lat)
        blocks, v = _bloch_stack(params, frame.momenta)
        t = blocks.period(-1.0)
        fq = _cell_blocks(v, t)
        direct = partial(_bloch_frame, t, v)
        step = lambda f: _advance(f, fq @ f.blocks, "momentum")
    else:
        kicks = build_kick_forms(params, lat)
        direct = partial(_dominant_frame, kicks)
        step = partial(period_map, kicks=kicks)
    if observe is None:
        found = direct(frame, quench.n_periods)
        if found is not None:
            return found
    for _ in range(quench.n_periods):
        frame = step(frame)
        if observe is not None:
            observe(frame)
    return frame


def stroboscopic_run(params: ModelParams, lat: LatticeSpec, quench: QuenchConfig,
                     subsystem: SubsystemSpec, observe: Observer | None = None,
                     workers: int = 1) -> EntropyTrace:
    """Per-period subsystem entropy for the configured quench.

    The loop of ``run_to_steady_state`` records after every period the rows
    of the frame that the subsystem's block reads (``_block_plan``, made
    once per run), the norm bookkeeping and the frame's isotropy defect
    ||Phi^T Phi|| as ``orthonormalize`` measured it (``purity_residual``;
    orthonormality holds by QR), then calls ``observe(frame)`` when given.
    The entropies are taken from those rows after the loop, or whenever
    they fill ``_RECORD_BYTES``, mapped over ``workers`` processes
    (``sweep.map_points``): each period's is independent of the others, and
    the trace is the same for any worker count.  Where the loop raises,
    the recorded periods are evaluated first, so an entropy that failed
    before it is raised in its place, as in a serial run.

    On periodic chains the parity sector is taken from the lattice spec; use
    ``preferred_sector`` to match the initial state's fermion parity when
    comparing against the spin-language oracle.
    """
    idx = subsystem.majorana_indices(lat)
    plan, held, ents, norms, purs = None, [], [], [], []

    def flush():
        ents.extend(sweep.map_points(
            lambda sub: entanglement.entropy_from_majorana_block(plan[1](sub)).entropy,
            held, workers))
        held.clear()

    def record(frame: GaussianFrame):
        nonlocal plan
        plan = plan or _block_plan(frame, idx)
        held.append(frame.blocks[:, plan[0]])
        norms.append(frame.norm_log)
        purs.append(frame.isotropy)
        if len(held) * held[0].nbytes >= _RECORD_BYTES:
            flush()
        if observe is not None:
            observe(frame)

    try:
        run_to_steady_state(params, lat, quench, record)
    except Exception:
        flush()  # raises instead where an earlier period's entropy fails
        raise
    flush()
    return EntropyTrace(np.arange(1, len(ents) + 1), np.asarray(ents),
                        np.asarray(norms), np.asarray(purs))


# --------------------------------------------------------------------------
# continuous-time evolution
# --------------------------------------------------------------------------

def continuous_hamiltonian(params: ModelParams, lat: LatticeSpec) -> np.ndarray:
    """Dense coefficient matrix H of H_op = sum_ij H_ij a_i a_j for the
    continuous limit H_op = J sum XX + h sum Z (equal to i (W' + W'')),
    scattered from the chain's bonds (``spectral._kick_bonds``) without
    forming the kicks, which may overflow where H does not.
    ``evolve_continuous`` takes it only off the momentum route; on it, it
    takes the cell blocks H_q of the one-site blocks (``_bloch_stack``)."""
    w = np.zeros((lat.n_majorana, lat.n_majorana), dtype=complex)
    for p, q, s in _kick_bonds(params, lat):
        w[p, q] += s
        w[q, p] -= s
    return 1j * w


def evolve_continuous(params: ModelParams, lat: LatticeSpec, state: ProductState,
                      t_grid) -> list[GaussianFrame]:
    """Frames of exp(-i H_op t)|psi_0>, normalized, at each time of the
    non-decreasing, non-negative ``t_grid``, for the z-basis product state
    psi_0 on ``lat`` and the continuous-limit H_op of ``params``.

    Exact: the frame moves as exp(-4i t H) Phi; one matrix exponential per
    distinct step, each taken like a period (``route == "continuous"``):
    ``norm_log`` accumulates the log-norm of exp(-4i t H) Phi0.  Where
    ``_momentum_route`` allows it (pbc-even, L divisible by 4, occupations
    of period 2) the frame is the momentum stack and each step takes the
    exponentials of the L/2 4x4 blocks H_q = V_q diag(h_k, h_{k+pi}) V_q^dag,
    formed once per run from the one-site blocks (``_bloch_stack``);
    elsewhere it is the one-cell stack, moved by the exponential of the
    dense 2L x 2L H (``continuous_hamiltonian``).
    """
    steps = np.diff(np.atleast_1d(np.asarray(t_grid, dtype=float)), prepend=0.0)
    if steps.ndim != 1 or steps.size == 0 or not np.all(steps >= 0):
        raise ValidationError("t_grid must be a non-empty, non-decreasing "
                              "grid of non-negative times")
    frame = initial_frame(state, lat)
    if _momentum_route(lat, state):
        frame = GaussianFrame.from_dense(frame, lat)
        blocks, v = _bloch_stack(params, frame.momenta)
        hmat = _cell_blocks(v, blocks.hamiltonian())
    else:
        hmat = continuous_hamiltonian(params, lat)[None]
    out, dt_u, u = [], None, None
    for dt in steps:
        if u is None or abs(dt - dt_u) > 1e-12 * dt:
            dt_u, u = dt, scipy.linalg.expm(-4j * dt * hmat)
        frame = _advance(frame, u @ frame.blocks, "continuous")
        out.append(frame)
    return out
