"""Entropy functionals on Gaussian frames and scaling fits.

The restricted block C'_A of C' = C - 1 is i A with A real and
antisymmetric, so its eigenvalues come in real pairs +-nu_i with nu_i in
[-1, 1].  They are found in real arithmetic: A^T A = -A^2 is real
symmetric with eigenvalues nu_i^2, each twice, so one real ``eigvalsh``
of a 2 L_A x 2 L_A matrix gives the spectrum.  The von Neumann entropy
sums the binary entropy of (1 + nu)/2 over one member of each pair;
summing the full 2 L_A spectrum and halving avoids any pairing
bookkeeping.  The kernel takes a stack of blocks in one call, with one
stacked ``eigvalsh``; a lone block is the stack with no leading axis.
The functionals take a frame and read each block C_A through
``gaussian.correlation_block``; the dense C is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gaussian
from .errors import CollapseError, PurityViolation, ValidationError
from .params import LatticeSpec, SubsystemSpec, TeePartition, majorana_indices

_CLAMP = 1e-14
_PURITY_SLACK = 1e-6
_VOLUME_SLOPE = 0.05     # fit_scaling: linear slope (nats/site) above which volume may win
_LOG_COEFFICIENT = 0.02  # fit_scaling: chord-log coefficient above which log may win
_MIN_SCALING_POINTS = 6  # fit_scaling's (L, L_A, S_A) samples, checked by sweep.scaling_grid too
_MIN_COLLAPSE_SIZES = 3  # tee_collapse's curves, checked by sweep.tee_grid too


@dataclass(frozen=True)
class EntropyReport:
    entropy: float
    nu: np.ndarray


def _nu_spectrum(block_c: np.ndarray) -> np.ndarray:
    """The 2 L_A values +-nu of C'_A = C_A - 1 = i A, ascending, from the
    real symmetric A^T A, of a block or of each of a stack.  Raises
    PurityViolation unless C'_A is i times a real antisymmetric matrix and
    every |nu| <= 1 (up to ``_PURITY_SLACK``), at the block where a loop
    would: one ``eigvalsh`` takes the blocks before the first that fails
    the first gate.  Re C'_A and A are read from C_A; C'_A is never formed."""
    n = block_c.shape[-1]
    stack = block_c.reshape(-1, n, n)
    k = len(stack)
    real, a = np.array(stack.real, dtype=float), np.ascontiguousarray(stack.imag)
    real.reshape(k, n * n)[:, ::n + 1] -= 1.0
    # each block's norm by the ddot of np.linalg.norm, so a lone block's gates are unchanged
    norm = lambda x: np.sqrt(x.reshape(k, 1, n * n) @ x.reshape(k, n * n, 1))[:, 0, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # entries beyond ~1e154 overflow
        real_norm, a_norm = norm(real), norm(a)
        defect = np.maximum(real_norm, norm(a + np.swapaxes(a, 1, 2)))
        bound = 1e-8 * np.maximum(1.0, np.hypot(real_norm, a_norm))
        failed = ~((defect <= bound) & (defect < np.inf))  # NaN and an overflowed defect fail
        cut = int(np.argmax(failed)) if failed.any() else k
        ata = np.swapaxes(a[:cut], 1, 2) @ a[:cut]
    if not (finite := np.isfinite(a_norm[:cut])).all():  # |A^T A| <= ||A||^2 <= n nu_max^2
        ata[~finite] = 0.0
    try:
        nu2 = np.linalg.eigvalsh(ata)
    except np.linalg.LinAlgError:  # the stacked driver does not say which block failed
        for block in stack[:cut] if k > 1 else ():
            _nu_spectrum(block)
        raise
    if not finite.all() or not np.isfinite(nu2).all():  # outside by inf
        nu2 = np.where(finite[:, None] & np.isfinite(nu2).all(-1, keepdims=True), nu2, np.inf)
    nu = np.sqrt(np.clip(nu2.reshape(cut, n // 2, 2).mean(axis=-1), 0.0, None))
    worst = nu[:, -1] - 1.0
    if (over := np.flatnonzero(worst > _PURITY_SLACK)).size:
        raise PurityViolation(f"correlation eigenvalue outside [-1, 1] by {worst[over[0]]:.2e}")
    if cut < k:
        raise PurityViolation("restricted C' is not i*(real antisymmetric): "
                              f"defect {defect[cut]:.2e}")
    return np.concatenate([-nu[:, ::-1], nu], axis=-1).reshape(block_c.shape[:-1])


def entropy_from_majorana_block(block_c: np.ndarray) -> EntropyReport:
    """Entropy of a subsystem given its restricted correlation block C_A,
    two Majorana rows per site; of each block of a stack (..., 2 L_A,
    2 L_A) in one call, where ``entropy`` and ``nu`` are stacked alike."""
    if block_c.shape[-1] % 2:
        raise ValidationError("Majorana block of odd size: a site has two rows")
    nu = _nu_spectrum(block_c)
    clipped = np.clip(nu, -1.0 + _CLAMP, 1.0 - _CLAMP)
    p, q = (1.0 + clipped) / 2.0, (1.0 - clipped) / 2.0
    entropy = -0.5 * np.sum(p * np.log(p) + q * np.log(q), axis=-1)
    return EntropyReport(entropy if entropy.ndim else float(entropy), nu)


def _entropy(frame: gaussian.GaussianFrame, idx: np.ndarray) -> EntropyReport:
    return entropy_from_majorana_block(gaussian.correlation_block(frame, idx))


def subsystem_entropy(frame: gaussian.GaussianFrame, subsystem: SubsystemSpec,
                      lat: LatticeSpec) -> EntropyReport:
    """Entropy of the subsystem in the frame's state, from its block of C."""
    return _entropy(frame, subsystem.majorana_indices(lat))


def _renyi_from_nu(nu: np.ndarray, n: int) -> float:
    nu = np.clip(nu, -1.0 + _CLAMP, 1.0 - _CLAMP)
    p = (1.0 + nu) / 2.0
    q = (1.0 - nu) / 2.0
    return float(np.sum(np.log(p ** n + q ** n)) / (2.0 * (1.0 - n)))


def renyi_entropy(frame: gaussian.GaussianFrame, subsystem: SubsystemSpec,
                  lat: LatticeSpec, n: int) -> float:
    """Order-n Renyi entropy from the same nu spectrum; n = 1 is von Neumann."""
    if n < 1 or int(n) != n:
        raise ValidationError("Renyi order must be a positive integer")
    report = subsystem_entropy(frame, subsystem, lat)
    return report.entropy if n == 1 else _renyi_from_nu(report.nu, int(n))


def mutual_information(frame: gaussian.GaussianFrame, sub_a: SubsystemSpec,
                       sub_b: SubsystemSpec, lat: LatticeSpec) -> float:
    if set(sub_a.sites(lat)) & set(sub_b.sites(lat)):
        raise ValidationError("mutual information needs disjoint subsystems")
    idx_a = sub_a.majorana_indices(lat)
    idx_b = sub_b.majorana_indices(lat)
    s = lambda idx: _entropy(frame, idx).entropy
    return s(idx_a) + s(idx_b) - s(np.concatenate([idx_a, idx_b]))


# --------------------------------------------------------------------------
# topological entanglement entropy
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TeeResult:
    s_top: float
    lengths: tuple[int, int, int, int]
    L: int


def tee(frame: gaussian.GaussianFrame, partition: TeePartition,
        lat: LatticeSpec) -> TeeResult:
    """S_AB + S_BC - S_B - S_ABC over the four-segment partition.

    Equal to the conditional mutual information I(A : C | B); quantized at
    ln 2 when the end segments A and C share the nonlocal Majorana pair.
    The state is pure, so S_ABC is taken as S_D of the one segment outside
    A, B and C, the smallest block instead of the largest.
    """
    segs = partition.segments(lat)
    s = lambda sites: _entropy(frame, majorana_indices(sorted(sites))).entropy
    a, b, cseg = segs["A"], segs["B"], segs["C"]
    s_top = s(a + b) + s(b + cseg) - s(b) - s(segs["D"])
    return TeeResult(float(s_top), partition.lengths, lat.L)


# --------------------------------------------------------------------------
# scaling fits
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    a: float          # coefficient of the chord-log term
    b: float          # offset
    residual: float
    law: str          # "area" | "log" | "volume"
    slope: float      # linear-fit slope, nats per site


def chord_abscissa(L, L_A) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    L_A = np.asarray(L_A, dtype=float)
    return np.log(L / np.pi * np.sin(np.pi * L_A / L))


def fit_scaling(points) -> ScalingFit:
    """Classify entropy scaling from (L, L_A, S_A) samples, 0 < L_A < L.

    Fits S = a ln((L/pi) sin(pi L_A / L)) + b and a straight line in L_A;
    volume wins if the linear slope exceeds ``_VOLUME_SLOPE`` and its
    residual beats the log fit, log wins if a exceeds ``_LOG_COEFFICIENT``
    and the log fit is tighter, otherwise area.
    """
    pts = np.array([(float(L), float(la), float(s)) for L, la, s in points])
    if len(pts) < _MIN_SCALING_POINTS:
        raise ValidationError(f"need at least {_MIN_SCALING_POINTS} scaling points")
    L, la, s = pts.T
    if not np.all((la > 0) & (la < L)):
        raise ValidationError("every scaling point needs 0 < L_A < L")
    x = chord_abscissa(L, la)
    if np.ptp(x) < 1e-12 or np.ptp(la) < 1e-12:
        raise ValidationError("degenerate design: abscissa does not vary")
    (a, b), log_res = _lstsq_line(x, s)
    (slope, _), lin_res = _lstsq_line(la, s)
    if slope > _VOLUME_SLOPE and lin_res < log_res:
        law = "volume"
    elif a > _LOG_COEFFICIENT and log_res <= lin_res:
        law = "log"
    else:
        law = "area"
    return ScalingFit(float(a), float(b), float(log_res), law, float(slope))


def _lstsq_line(x, y):
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    res = float(np.sum((design @ coef - y) ** 2))
    return (float(coef[0]), float(coef[1])), res


# --------------------------------------------------------------------------
# finite-size collapse of the TEE crossing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CollapseResult:
    beta_J0: float
    nu: float
    collapse_residual: float


def _collapse_costs(curves, beta0s: np.ndarray, nus: np.ndarray):
    """Mean squared deviation of every sample from the other curves'
    piecewise-linear interpolants over the common rescaled window, for
    each (beta0, nu) of the grid beta0s x nus at once; curve j is read at
    x_i on its own beta grid, at beta0 + x_i / L_j^nu.  Returns the cost
    array and the mask of grid points where that window holds samples."""
    b0, nu = beta0s[:, None, None], nus[None, :, None]
    xs = [(np.asarray(betas) - b0) * L ** nu for L, (betas, _) in curves.items()]
    lo = np.max([x.min(axis=-1) for x in xs], axis=0)[..., None]
    hi = np.min([x.max(axis=-1) for x in xs], axis=0)[..., None]
    total, count = np.zeros(lo.shape[:2]), np.zeros(lo.shape[:2], dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (xi, (_, vi)) in enumerate(zip(xs, curves.values())):
            sel = (xi >= lo) & (xi <= hi)
            for j, (Lj, (bj, vj)) in enumerate(curves.items()):
                if i != j:
                    dev = np.asarray(vi) - np.interp(b0 + xi / Lj ** nu, bj, vj)
                    total += np.sum(np.where(sel, dev ** 2, 0.0), axis=-1)
                    count += np.count_nonzero(sel, axis=-1)
        valid = (hi[..., 0] > lo[..., 0]) & (count > 0)
        return total / count, valid


def tee_collapse(curves: dict[int, tuple[np.ndarray, np.ndarray]]) -> CollapseResult:
    """Grid search for (beta_J0, nu) collapsing S_top(beta_J; L) curves.

    ``curves`` maps L to (beta_J grid, S_top values), each grid in any
    order: each curve is read sorted by beta_J (a stable sort).  41 beta0
    points over the data range by 35 nu points in [0.3, 2.0], then twice
    21 x 21 around the best; each pass evaluates the whole grid at once,
    ties break toward smaller nu, then smaller beta0.  Raises
    CollapseError if no rescaled overlap exists.
    """
    if len(curves) < _MIN_COLLAPSE_SIZES:
        raise ValidationError(f"collapse needs at least {_MIN_COLLAPSE_SIZES} system sizes")
    curves = {L: tuple(np.asarray(c)[:, np.argsort(c[0], kind="stable")])
              for L, c in curves.items()}
    all_betas = np.concatenate([b for b, _ in curves.values()])
    beta0_grid = np.linspace(all_betas.min(), all_betas.max(), 41)
    nu_grid = np.linspace(0.3, 2.0, 35)
    best = None
    for _ in range(3):
        cost, valid = _collapse_costs(curves, beta0_grid, nu_grid)
        ib, inu = np.nonzero(valid)  # beta0-major, as the grid is scanned
        if len(ib):
            k = np.lexsort((nu_grid[inu], cost[ib, inu]))[0]
            key = (float(cost[ib[k], inu[k]]), float(nu_grid[inu[k]]))
            if best is None or key < (best[0], best[1][1]):
                best = (key[0], (float(beta0_grid[ib[k]]), key[1]))
        if best is None:
            raise CollapseError("rescaled curves never overlap")
        b0c, nuc = best[1]
        db, dn = beta0_grid[1] - beta0_grid[0], nu_grid[1] - nu_grid[0]
        beta0_grid = np.linspace(b0c - db, b0c + db, 21)
        nu_grid = np.linspace(max(0.05, nuc - dn), nuc + dn, 21)
    cost, (b0, nu) = best
    return CollapseResult(b0, nu, cost)
