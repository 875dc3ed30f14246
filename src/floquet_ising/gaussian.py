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
block F_q, and isotropy pairs q with -q.  Every frame is such a stack of
Bloch blocks (``GaussianFrame``); the dense frame is the one-cell stack.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.linalg

from . import entanglement
from .errors import (DegenerateEvolution, NumericalBreakdown,
                     UnsupportedStateError, ValidationError)
from .params import (BoundaryCondition, LatticeSpec, ModelParams,
                     ProductState, QuenchConfig, SubsystemSpec)
from .spectral import (KickForms, build_kick_forms, cell_momenta,
                       frame_map_blocks)

_ISO_TOL = 1e-13
_RANK_TOL = 1e-13
_OVERLAP_TOL = 1e-10
_ISOLATION_TOL = 1e-6
_ROUNDING_TOL = 1e-12
_MAX_SWEEPS = 4  # isotropy corrections before orthonormalize gives up (read at call time)


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
    state of ``run_to_steady_state``, ``"momentum"`` by its momentum-block
    step, ``"continuous"`` by a step of ``evolve_continuous``.  Both are
    None for initial frames."""

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


def _advance(frame: GaussianFrame, blocks: np.ndarray, route: str) -> GaussianFrame:
    """The frame one period on, from its blocks moved by the frame map."""
    blocks, log_mag, defect = orthonormalize(blocks, partner=frame.partner)
    return GaussianFrame(blocks, frame.momenta, frame.partner, frame.period_count + 1,
                         frame.norm_log + log_mag, defect, route)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Majorana two-point matrix C_mn = <a_m a_n> of a normalized state.

    C is Hermitian with C + C^T = 2, so C' = C - 1 is antisymmetric with
    purely imaginary entries and real eigenvalue pairs +-nu.
    """

    c: np.ndarray

    @property
    def cprime(self) -> np.ndarray:
        return self.c - np.eye(self.c.shape[0])

    @property
    def n_sites(self) -> int:
        return self.c.shape[0] // 2

    def anticommutation_defect(self) -> float:
        return float(np.linalg.norm(self.c + self.c.T - 2 * np.eye(self.c.shape[0])))

    def purity_defect(self) -> float:
        """Distance of C'^2 from the identity; equivalently the defect of
        (iC')^2 = -1.  Zero for globally pure Gaussian states."""
        cp = self.cprime
        return float(np.linalg.norm(cp @ cp - np.eye(cp.shape[0])))

    def z_expectations(self) -> np.ndarray:
        """<Z_j> = <i a_{2j-1} a_{2j}>."""
        L = self.n_sites
        return np.array([(1j * self.c[2 * j, 2 * j + 1]).real for j in range(L)])

    def xx_expectations(self, lat: LatticeSpec) -> np.ndarray:
        """<X_j X_{j+1}> = <i a_{2j} a_{2j+1}>; the wraparound bond carries
        the parity-sector sign."""
        L = self.n_sites
        vals = [(1j * self.c[2 * j + 1, 2 * j + 2]).real for j in range(L - 1)]
        if lat.bc.periodic:
            vals.append((lat.bc.wrap_sign * 1j * self.c[2 * L - 1, 0]).real)
        return np.array(vals)


def correlation_from_frame(frame: GaussianFrame) -> CorrelationMatrix:
    return CorrelationMatrix(2.0 * np.conj(frame.phi) @ frame.phi.T)


def correlation_block(frame: GaussianFrame, majorana_idx: np.ndarray) -> np.ndarray:
    """Restricted C block without forming the full matrix, in block-Toeplitz
    form: with Majorana row r x + a on cell x,
    C[(x, a), (y, b)] = T(y - x)[a, b],
    T(d) = (2/N) sum_q e^{iqd} (conj(Phi_q) Phi_q^T)[a, b],
    over the within-cell rows a that the block uses.  The momenta are the
    grid q = 2 pi (m + theta) / N of ``cell_momenta``, so
    T(d) = 2 e^{i q_0 d} ifft_m(conj(Phi_q) Phi_q^T)[d mod N]
    (q_0 = 2 pi theta / N): one FFT over the stack.  One cell gives
    2 conj(Phi) Phi^T restricted to those rows, taken directly.
    """
    n, r = frame.blocks.shape[:2]
    if n == 1:
        sub = frame.blocks[0, majorana_idx]
        return 2.0 * (np.conj(sub) @ sub.T)
    x, a = np.divmod(np.asarray(majorana_idx), r)
    rows, a = np.unique(a, return_inverse=True)
    k = len(rows)
    sub = frame.blocks[:, rows]
    g = np.fft.ifft(np.conj(sub) @ np.swapaxes(sub, -1, -2), axis=0).reshape(n, k * k)
    lo = x.min() - x.max()
    d = np.arange(lo, 1 - lo)
    t = g[d % n] * (2.0 * np.exp(1j * frame.momenta[0] * d))[:, None]
    return t.reshape(-1)[(x[None, :] - x[:, None] - lo) * k * k + k * a[:, None] + a[None, :]]


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


def _scaled_power(t: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """t**n = exp(log_s) m as (m, log_s), by repeated squaring with every
    product rescaled to unit largest entry, so nothing overflows."""
    def rescale(m, log_s):
        s = np.abs(m).max(initial=0.0)
        return (m / s, log_s + np.log(s)) if s > 0 else (m, log_s)

    out, log_out = np.eye(len(t), dtype=complex), 0.0
    base, log_base = t, 0.0
    while n:
        if n & 1:
            out, log_out = rescale(out @ base, log_out + log_base)
        n >>= 1
        if n:
            base, log_base = rescale(base @ base, 2.0 * log_base)
    return out, log_out


def _dominant_frame(kicks: KickForms, frame: GaussianFrame, n: int) -> GaussianFrame | None:
    """The n-period frame from the one-cell ``frame`` Phi0, taken from the
    Schur form F = Q T Q^dag of the frame map, or None unless it provably
    equals the loop's frame.  T is ordered on |mu| > 1, so that where L
    modes lie outside the unit circle the L/L split reorders nothing.

    ``_split`` is tried with an empty middle block (the L/L split) and,
    where that misses, with an edge pair straddling the L/L cut.  Either
    gives the unnormalized n-period frame and the log-magnitude it dropped;
    the frame's QR adds the rest, so ``norm_log`` is the loop's.
    """
    f = kicks.step(np.eye(kicks.coupling_form.n, dtype=complex), -1.0)
    try:
        t, q, _ = scipy.linalg.schur(f, output="complex", sort="ouc")
    except np.linalg.LinAlgError:  # eigenvalues too close to reorder
        return None
    phi0 = frame.blocks[0]
    found = _split(t, q, phi0, n, 0) or _split(t, q, phi0, n, 2)
    if found is None:
        return None
    phi, log_scale = found
    blocks, log_mag, defect = orthonormalize(phi[None], partner=frame.partner)
    return GaussianFrame(blocks, frame.momenta, frame.partner, n, float(log_scale + log_mag),
                         defect, "schur")


def _sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """X with a X - X b = -c for upper-triangular a and b, or None where they
    (nearly) share an eigenvalue.  ``ztrsyl`` rejects empty blocks."""
    if not a.size:
        return np.zeros(c.shape, dtype=complex)
    x, scale, info = scipy.linalg.lapack.ztrsyl(a, b, -c, isgn=-1)
    return x / scale if info == 0 else None


def _split(t: np.ndarray, q: np.ndarray, phi0: np.ndarray, n: int, m: int):
    """F^n Phi0 exactly, with T split on |mu| into the top k = L - m/2
    modes, a middle block of m modes straddling the L/L cut and the bottom
    k modes.

    T is reordered into blocks T1, T2, T3 and decoupled, T = S diag(T1, T2,
    T3) S^-1, by two Sylvester solves.  With z = S^-1 Q^dag Phi0, G1 a
    right inverse of z1 and W an orthonormal basis of its null space, and
    T2^n z2 W = P R (QR),

        F^n Phi0 ~ Q S [[1, 0], [E_mid, P], [E_bot, T3^n z3 W R^-1]]
        E_mid = T2^n z2 G1 T1^-n,  E_bot = T3^n z3 G1 T1^-n,

    every term kept (no convergence assumed).  m = 0 is the L/L split,
    F^n Phi0 ~ Q S [1; E_bot]; m = 2 carries an edge pair at |mu| ~ 1.
    Returns the frame and the log-magnitude dropped from it, or None unless

    - a middle block (m > 0) is isolated by _ISOLATION_TOL in log|mu|
      from its neighbours, and the reorders and Sylvester solves succeed;
    - sigma_min(z1) > _OVERLAP_TOL max(sigma_max(z1), 1).  The unit floor
      matters: y = Q^dag Phi0 has orthonormal columns, and a Phi0 inside
      the decaying subspace leaves a z1 of rounding size whose singular
      value ratio may still be O(1);
    - the loop's rounding on the middle block, amplified like T2^n, stays
      below _ROUNDING_TOL of the smallest middle column:
      eps ||T2^n|| ||z2 W|| < _ROUNDING_TOL sigma_min(T2^n z2 W);
    - every term is finite and |E_mid|, |E_bot| <= 1.  Far above that
      bound the exact frame leaves the loop (by 1e-9 at |E| ~ 1e8), and a
      60-digit evolution sides with the loop.
    """
    L = phi0.shape[1]
    k, b = L - m // 2, L + m // 2
    log_mu = np.sort(np.log(np.abs(np.diag(t))))[::-1]
    if m and not min(log_mu[k - 1] - log_mu[k], log_mu[b - 1] - log_mu[b]) > _ISOLATION_TOL:
        return None
    for count in sorted({b, k}, reverse=True):
        select = np.log(np.abs(np.diag(t))) > (log_mu[count - 1] + log_mu[count]) / 2
        if np.count_nonzero(select) != count:
            return None
        t, q, _, _, _, _, info = scipy.linalg.lapack.ztrsen(select, t, q, job="N")
        if info != 0:
            return None
    t1, t2, t3 = t[:k, :k], t[k:b, k:b], t[b:, b:]
    x1, x2 = _sylvester(t1, t[k:, k:], t[:k, k:]), _sylvester(t2, t3, t[k:b, b:])
    if x1 is None or x2 is None:
        return None
    y = q.conj().T @ phi0
    z = np.vstack([y[:k] - x1 @ y[k:], y[k:b] - x2 @ y[b:], y[b:]])
    qz, rz = np.linalg.qr(z[:k].conj().T, mode="complete")  # z1 = rz^dag qz[:, :k]^dag
    rz = rz[:k]
    sv = np.linalg.svd(rz, compute_uv=False)
    if not sv[-1] > _OVERLAP_TOL * max(sv[0], 1.0):
        return None
    w = qz[:, k:]
    p1, log1 = _scaled_power(scipy.linalg.solve_triangular(t1, np.eye(k)), n)
    p2, log2 = _scaled_power(t2, n)
    p3, log3 = _scaled_power(t3, n)
    v = z[k:b] @ w
    pair, r = np.linalg.qr(p2 @ v)
    sv_pair = np.linalg.svd(r, compute_uv=False)
    if not (np.finfo(float).eps * np.linalg.norm(p2, 2) * np.linalg.norm(v, 2)
            < _ROUNDING_TOL * sv_pair.min(initial=np.inf)):
        return None
    # z[k:] G1 with G1 = qz[:, :k] rz^-dag
    zg = scipy.linalg.solve_triangular(rz, (z[k:] @ qz[:, :k]).conj().T).conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        coords = np.block([
            [np.eye(k), np.zeros((k, m // 2))],
            [np.exp(log2 + log1) * (p2 @ zg[:m] @ p1), pair],
            [np.exp(log3 + log1) * (p3 @ zg[m:] @ p1),
             np.exp(log3 - log2) * (p3 @ np.linalg.solve(r.T, (z[b:] @ w).T).T)]])
    if not (np.all(np.isfinite(coords)) and np.abs(coords[k:, :k]).max() <= 1.0):
        return None
    _flush(coords)
    coords[k:b] += x2 @ coords[b:]
    coords[:k] += x1 @ coords[k:]
    log_scale = (n * float(np.sum(np.log(np.abs(np.diag(t1))))) + np.sum(np.log(sv))
                 + m // 2 * log2 + np.sum(np.log(sv_pair)))
    return q @ _flush(coords), log_scale


def run_to_steady_state(params: ModelParams, lat: LatticeSpec, quench: QuenchConfig,
                        observe: Observer | None = None) -> GaussianFrame:
    """Evolve for the configured number of periods and return the frame.

    This is the one stroboscopic loop: ``observe(frame)``, when given, is
    called with the frame after every period.  Without an observer the
    frame is first sought directly, from one ordered Schur factorization
    of the frame map (``_dominant_frame``): the exact n-period frame from
    the split of its spectrum at the L/L cut, else from the split that
    carries one edge pair straddling that cut.  It is returned, with
    ``route == "schur"``, only where it provably equals the loop's frame.
    Otherwise the loop runs.  From a state invariant under two-site
    translation (z-basis occupations of period 2) on a pbc-even chain with
    L divisible by 4 it steps one 4x2 block per momentum (``route ==
    "momentum"``); elsewhere it steps the one-cell frame with
    ``period_map`` (``route == "loop"``).  Those are the chains where
    no two-site momentum is its own partner (q = -q: q = 0 on pbc-odd,
    q = pi on pbc-odd with L = 0 mod 4 and on pbc-even with L = 2 mod 4).
    Where one is, the two engines part by O(1) within tens of periods at
    random couplings: the exact trajectory is unstable to rounding that
    breaks the translation symmetry or a conserved mode occupation, so
    the dense loop is kept there.
    """
    quench.require_free_fermion()
    kicks = build_kick_forms(params, lat)
    frame = initial_frame(quench, lat)
    if observe is None:
        direct = _dominant_frame(kicks, frame, quench.n_periods)
        if direct is not None:
            return direct
    occ = quench.initial_state.occupations()
    if lat.bc is BoundaryCondition.PBC_EVEN and lat.L % 4 == 0 and occ[2:] == occ[:-2]:
        frame = GaussianFrame.from_dense(frame, lat)
        fq = frame_map_blocks(params, frame.momenta)
        step = lambda f: _advance(f, fq @ f.blocks, "momentum")
    else:
        step = partial(period_map, kicks=kicks)
    for _ in range(quench.n_periods):
        frame = step(frame)
        if observe is not None:
            observe(frame)
    return frame


def stroboscopic_run(params: ModelParams, lat: LatticeSpec, quench: QuenchConfig,
                     subsystem: SubsystemSpec, observe: Observer | None = None) -> EntropyTrace:
    """Per-period subsystem entropy for the configured quench.

    Records after every period the entropy, the norm bookkeeping and the
    frame's isotropy defect ||Phi^T Phi|| as ``orthonormalize`` measured it
    (``purity_residual``; orthonormality holds by QR), then calls
    ``observe(frame)`` when given.

    On periodic chains the parity sector is taken from the lattice spec; use
    ``preferred_sector`` to match the initial state's fermion parity when
    comparing against the spin-language oracle.
    """
    ents, norms, purs = [], [], []

    def record(frame: GaussianFrame):
        ents.append(entanglement.subsystem_entropy(frame, subsystem, lat).entropy)
        norms.append(frame.norm_log)
        purs.append(frame.isotropy)
        if observe is not None:
            observe(frame)

    run_to_steady_state(params, lat, quench, record)
    return EntropyTrace(np.arange(1, len(ents) + 1), np.asarray(ents),
                        np.asarray(norms), np.asarray(purs))


# --------------------------------------------------------------------------
# continuous-time evolution
# --------------------------------------------------------------------------

def continuous_hamiltonian(params: ModelParams, lat: LatticeSpec) -> np.ndarray:
    """Coefficient matrix H of H_op = sum_ij H_ij a_i a_j for the continuous
    limit H_op = J sum XX + h sum Z (equal to i (W' + W''))."""
    w1, w2 = build_kick_forms(params, lat)
    return 1j * (w1.w + w2.w)


def evolve_continuous(frame: GaussianFrame, hmat: np.ndarray,
                      t_grid) -> list[GaussianFrame]:
    """Frames of exp(-i H_op t)|psi_0>, normalized, at each time of the
    non-decreasing, non-negative ``t_grid``, from the frame of psi_0.

    Exact: the frame moves as exp(-4i t H) Phi; one matrix exponential per
    distinct step, each taken like a period (``route == "continuous"``):
    ``norm_log`` accumulates the log-norm of exp(-4i t H) Phi0.
    """
    steps = np.diff(np.atleast_1d(np.asarray(t_grid, dtype=float)), prepend=0.0)
    if steps.ndim != 1 or steps.size == 0 or not np.all(steps >= 0):
        raise ValidationError("t_grid must be a non-empty, non-decreasing "
                              "grid of non-negative times")
    frame, out, dt_u, u = GaussianFrame(frame.phi[None]), [], None, None
    for dt in steps:
        if u is None or abs(dt - dt_u) > 1e-12 * dt:
            dt_u, u = dt, scipy.linalg.expm(-4j * dt * hmat)
        frame = _advance(frame, (u @ frame.blocks[0])[None], "continuous")
        out.append(frame)
    return out
