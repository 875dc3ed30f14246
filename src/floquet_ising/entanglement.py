"""Entropy functionals on Majorana correlation matrices and scaling fits.

The restricted block C'_A of C' = C - 1 is i A with A real and
antisymmetric, so its eigenvalues come in real pairs +-nu_i with nu_i in
[-1, 1].  They are found in real arithmetic: A^T A = -A^2 is real
symmetric with eigenvalues nu_i^2, each twice, so one real ``eigvalsh``
of a 2 L_A x 2 L_A matrix gives the spectrum.  The von Neumann entropy
sums the binary entropy of (1 + nu)/2 over one member of each pair;
summing the full 2 L_A spectrum and halving avoids any pairing
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollapseError, PurityViolation, ValidationError
from .params import LatticeSpec, SubsystemSpec, TeePartition, majorana_indices

_CLAMP = 1e-14
_PURITY_SLACK = 1e-6
_VOLUME_SLOPE = 0.05     # fit_scaling: linear slope (nats/site) above which volume may win
_LOG_COEFFICIENT = 0.02  # fit_scaling: chord-log coefficient above which log may win


@dataclass(frozen=True)
class EntropyReport:
    entropy: float
    nu: np.ndarray


def _nu_spectrum(block_cprime: np.ndarray) -> np.ndarray:
    """The 2 L_A values +-nu of C'_A = i A, ascending, from the real
    symmetric A^T A.  Raises PurityViolation unless C'_A is i times a real
    antisymmetric matrix and every |nu| <= 1 (up to ``_PURITY_SLACK``)."""
    a = np.ascontiguousarray(block_cprime.imag)
    defect = max(np.linalg.norm(block_cprime.real), np.linalg.norm(a + a.T))
    if defect > 1e-8 * max(1.0, np.linalg.norm(block_cprime)):
        raise PurityViolation("restricted C' is not i*(real antisymmetric): "
                              f"defect {defect:.2e}")
    nu2 = np.linalg.eigvalsh(a.T @ a).reshape(-1, 2).mean(axis=1)
    nu = np.sqrt(np.clip(nu2, 0.0, None))
    worst = float(nu[-1] - 1.0)
    if worst > _PURITY_SLACK:
        raise PurityViolation(f"correlation eigenvalue outside [-1, 1] by {worst:.2e}")
    return np.concatenate([-nu[::-1], nu])


def _binary_entropy_sum(nu: np.ndarray) -> float:
    nu = np.clip(nu, -1.0 + _CLAMP, 1.0 - _CLAMP)
    p = (1.0 + nu) / 2.0
    q = (1.0 - nu) / 2.0
    return float(-0.5 * np.sum(p * np.log(p) + q * np.log(q)))


def entropy_from_majorana_block(block_c: np.ndarray) -> EntropyReport:
    """Entropy of a subsystem given its restricted correlation block C_A,
    two Majorana rows per site."""
    if block_c.shape[0] % 2:
        raise ValidationError("Majorana block of odd size: a site has two rows")
    cp = block_c - np.eye(block_c.shape[0])
    nu = _nu_spectrum(cp)
    return EntropyReport(_binary_entropy_sum(nu), nu)


def entropy_from_correlations(corr, subsystem: SubsystemSpec,
                              lat: LatticeSpec) -> EntropyReport:
    """Restrict C to the subsystem's Majorana block and evaluate."""
    c = corr.c if hasattr(corr, "c") else np.asarray(corr)
    idx = subsystem.majorana_indices(lat)
    return entropy_from_majorana_block(c[np.ix_(idx, idx)])


def _renyi_from_nu(nu: np.ndarray, n: int) -> float:
    nu = np.clip(nu, -1.0 + _CLAMP, 1.0 - _CLAMP)
    p = (1.0 + nu) / 2.0
    q = (1.0 - nu) / 2.0
    return float(np.sum(np.log(p ** n + q ** n)) / (2.0 * (1.0 - n)))


def renyi_entropy(corr, subsystem: SubsystemSpec, lat: LatticeSpec, n: int) -> float:
    """Order-n Renyi entropy from the same nu spectrum; n = 1 is von Neumann."""
    if n < 1 or int(n) != n:
        raise ValidationError("Renyi order must be a positive integer")
    report = entropy_from_correlations(corr, subsystem, lat)
    if n == 1:
        return report.entropy
    return _renyi_from_nu(report.nu, int(n))


def mutual_information(corr, sub_a: SubsystemSpec, sub_b: SubsystemSpec,
                       lat: LatticeSpec) -> float:
    sites_a, sites_b = set(sub_a.sites(lat)), set(sub_b.sites(lat))
    if sites_a & sites_b:
        raise ValidationError("mutual information needs disjoint subsystems")
    c = corr.c if hasattr(corr, "c") else np.asarray(corr)
    idx_a = sub_a.majorana_indices(lat)
    idx_b = sub_b.majorana_indices(lat)
    idx_ab = np.concatenate([idx_a, idx_b])
    s = lambda idx: entropy_from_majorana_block(c[np.ix_(idx, idx)]).entropy
    return s(idx_a) + s(idx_b) - s(idx_ab)


# --------------------------------------------------------------------------
# topological entanglement entropy
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TeeResult:
    s_top: float
    lengths: tuple[int, int, int, int]
    L: int


def tee(corr, partition: TeePartition, lat: LatticeSpec) -> TeeResult:
    """S_AB + S_BC - S_B - S_ABC over the four-segment partition.

    Equal to the conditional mutual information I(A : C | B); quantized at
    ln 2 when the end segments A and C share the nonlocal Majorana pair.
    """
    segs = partition.segments(lat)
    c = corr.c if hasattr(corr, "c") else np.asarray(corr)

    def s(sites):
        idx = majorana_indices(sorted(sites))
        return entropy_from_majorana_block(c[np.ix_(idx, idx)]).entropy

    a, b, cseg = segs["A"], segs["B"], segs["C"]
    s_top = s(a + b) + s(b + cseg) - s(b) - s(a + b + cseg)
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
    """Classify entropy scaling from (L, L_A, S_A) samples.

    Fits S = a ln((L/pi) sin(pi L_A / L)) + b and a straight line in L_A;
    volume wins if the linear slope exceeds ``_VOLUME_SLOPE`` and its
    residual beats the log fit, log wins if a exceeds ``_LOG_COEFFICIENT``
    and the log fit is tighter, otherwise area.
    """
    pts = [(float(L), float(la), float(s)) for L, la, s in points]
    if len(pts) < 6:
        raise ValidationError("need at least 6 scaling points")
    L = np.array([p[0] for p in pts])
    la = np.array([p[1] for p in pts])
    s = np.array([p[2] for p in pts])
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


def _interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x, xp, fp) over each row of the leading axes of x and xp,
    with np.interp's arithmetic, for xp increasing along its last axis."""
    j = np.clip(np.count_nonzero(xp[..., None, :] <= x[..., None], axis=-1) - 1,
                0, xp.shape[-1] - 2)
    x0 = np.take_along_axis(xp, j, -1)
    slope = (fp[j + 1] - fp[j]) / (np.take_along_axis(xp, j + 1, -1) - x0)
    out = slope * (x - x0) + fp[j]
    return np.where(x < xp[..., :1], fp[0], np.where(x >= xp[..., -1:], fp[-1], out))


def _collapse_costs(curves, beta0s: np.ndarray, nus: np.ndarray):
    """Mean squared deviation of every sample from the other curves'
    piecewise-linear interpolants over the common rescaled window, for
    each (beta0, nu) of the grid beta0s x nus at once.  Returns the cost
    array and the mask of grid points where that window holds samples."""
    b0, nu = beta0s[:, None, None], nus[None, :, None]
    xs = [(np.asarray(betas) - b0) * L ** nu for L, (betas, _) in curves.items()]
    vs = [np.asarray(values) for _, values in curves.values()]
    lo = np.max([x.min(axis=-1) for x in xs], axis=0)[..., None]
    hi = np.min([x.max(axis=-1) for x in xs], axis=0)[..., None]
    total, count = np.zeros(lo.shape[:2]), np.zeros(lo.shape[:2], dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (xi, vi) in enumerate(zip(xs, vs)):
            sel = (xi >= lo) & (xi <= hi)
            for j, (xj, vj) in enumerate(zip(xs, vs)):
                if i != j:
                    total += np.sum(np.where(sel, (vi - _interp(xi, xj, vj)) ** 2, 0.0), axis=-1)
                    count += np.count_nonzero(sel, axis=-1)
        valid = (hi[..., 0] > lo[..., 0]) & (count > 0)
        return total / count, valid


def tee_collapse(curves: dict[int, tuple[np.ndarray, np.ndarray]],
                 beta0_grid=None, nu_grid=None,
                 refinements: int = 2) -> CollapseResult:
    """Grid search for (beta_J0, nu) collapsing S_top(beta_J; L) curves.

    ``curves`` maps L to (beta_J grid, S_top values), each beta_J grid
    increasing.  Each refinement evaluates the whole grid at once; ties
    break toward smaller nu, then smaller beta0.  Raises CollapseError if
    no rescaled overlap exists.
    """
    if len(curves) < 3:
        raise ValidationError("collapse needs at least 3 system sizes")
    all_betas = np.concatenate([np.asarray(b) for b, _ in curves.values()])
    if beta0_grid is None:
        beta0_grid = np.linspace(all_betas.min(), all_betas.max(), 41)
    if nu_grid is None:
        nu_grid = np.linspace(0.3, 2.0, 35)
    beta0_grid, nu_grid = np.asarray(beta0_grid, dtype=float), np.asarray(nu_grid, dtype=float)
    best = None
    for _ in range(refinements + 1):
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
        db = (beta0_grid[1] - beta0_grid[0]) if len(beta0_grid) > 1 else 0.01
        dn = (nu_grid[1] - nu_grid[0]) if len(nu_grid) > 1 else 0.05
        beta0_grid = np.linspace(b0c - db, b0c + db, 21)
        nu_grid = np.linspace(max(0.05, nuc - dn), nuc + dn, 21)
    cost, (b0, nu) = best
    return CollapseResult(b0, nu, cost)
