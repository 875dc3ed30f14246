"""Complex-time conformal quench formulas and comparison utilities.

A quench evolved by exp(-i(1 - i r) t H) with rotation r >= 0 maps to the
imaginary-time-regularized twist-field correlator with effective width
tau0 = epsilon + r t.  The replica trace is

    tr rho_A^n = (pi / 2 tau0)^(2 d_n) *
        [ (cosh(pi l / 2 tau0) + cosh(pi t / tau0))
          / (8 sinh^2(pi l / 4 tau0) cosh^2(pi t / 2 tau0)) ]^(d_n)

with d_n = (c/12)(n - 1/n); the model-dependent prefactors are set to one,
valid in the regime t, l >> tau0.  Everything is evaluated in log space, so
l / tau0 of several hundred costs nothing.  The von Neumann entropy is the
exact -d/dn derivative at n = 1, which collapses to

    S_A(t) = -(c/6) * [ 2 ln(pi / 2 tau0) + ln R(t) ]

since d_1 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_LN2 = math.log(2.0)
_T_FACTOR = 0.5     # validity: t <= _T_FACTOR * l / eta_rot
_TAU_FACTOR = 0.2   # validity: tau0 <= _TAU_FACTOR * min(t, l)
_LATE_WINDOW = 0.25  # trend comparison over the last quarter of the common grid


@dataclass(frozen=True)
class CftParams:
    c: float = 0.5
    epsilon: float = 0.185
    eta_rot: float = 0.0   # complex-time rotation (the evolution tilt)
    l: float = 10.0        # subsystem length
    n: int = 1             # replica index

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        if self.eta_rot < 0:
            raise ValidationError("eta_rot must be nonnegative")
        if self.l <= 0:
            raise ValidationError("subsystem length must be positive")
        if self.n < 1 or int(self.n) != self.n:
            raise ValidationError("replica index must be a positive integer")

    def tau0(self, t):
        return self.epsilon + self.eta_rot * np.asarray(t, dtype=float)


def _logcosh(x):
    x = np.abs(np.asarray(x, dtype=float))
    return x + np.log1p(np.exp(-2.0 * x)) - _LN2


def _logsinh(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValidationError("logsinh needs positive argument")
    return x + np.log1p(-np.exp(-2.0 * x)) - _LN2


def _log_ratio(params: CftParams, t):
    """ln R(t) of the bracketed ratio, fully in log space."""
    tau = params.tau0(t)
    a = np.logaddexp(_logcosh(np.pi * params.l / (2 * tau)),
                     _logcosh(np.pi * np.asarray(t, dtype=float) / tau))
    b = (math.log(8.0) + 2.0 * _logsinh(np.pi * params.l / (4 * tau))
         + 2.0 * _logcosh(np.pi * np.asarray(t, dtype=float) / (2 * tau)))
    return a - b


def log_tr_rho_n(params: CftParams, t):
    """ln tr rho_A^n at time(s) t."""
    d_n = params.c / 12.0 * (params.n - 1.0 / params.n)
    tau = params.tau0(t)
    return d_n * (2.0 * np.log(np.pi / (2.0 * tau)) + _log_ratio(params, t))


def tr_rho_n(params: CftParams, t):
    out = np.exp(log_tr_rho_n(params, t))
    if np.any(~np.isfinite(out)):
        raise ValidationError("tr rho_A^n overflowed despite log-space evaluation")
    return out


def entropy_exact(params: CftParams, t):
    """S_A(t) = -d/dn tr rho_A^n at n = 1, evaluated analytically."""
    return -(params.c / 6.0) * (2.0 * np.log(np.pi / (2.0 * params.tau0(t)))
                                + _log_ratio(params, t))


@dataclass(frozen=True)
class CftCurve:
    t: np.ndarray
    entropy: np.ndarray          # normalized: S(t) - S(0)
    validity: np.ndarray         # regime mask t, l >> tau0

    def peak_time(self) -> float:
        return float(self.t[int(np.argmax(self.entropy))])

    def peak_height(self) -> float:
        return float(np.max(self.entropy))


def entropy_curve(params: CftParams, t_grid) -> CftCurve:
    """Normalized entropy S(t) - S(0) over the grid with its validity mask.

    Points violate the mask when t > _T_FACTOR * l / eta_rot or when
    tau0 > _TAU_FACTOR * min(t, l).
    """
    t = np.asarray(t_grid, dtype=float)
    s = entropy_exact(params, t) - entropy_exact(params, 0.0)
    tau = params.tau0(t)
    valid = tau <= _TAU_FACTOR * np.minimum(np.maximum(t, 1e-300), params.l)
    if params.eta_rot > 0:
        valid &= t <= _T_FACTOR * params.l / params.eta_rot
    return CftCurve(t, np.asarray(s, dtype=float), valid)


@dataclass(frozen=True)
class ComparisonReport:
    peak_time_ratio: float
    peak_height_ratio: float
    late_trend_match: bool
    rms_deviation: float


def compare_to_numerics(curve: CftCurve, t_numeric, s_numeric) -> ComparisonReport:
    """Peak and trend comparison between the analytic curve and a numeric
    entropy trace on its own time grid (normalized the same way).  Raises
    ValidationError unless the grids overlap and each holds at least two
    samples in the last ``_LATE_WINDOW`` of the common grid, where the late
    trend is fitted."""
    t_numeric = np.asarray(t_numeric, dtype=float)
    s_numeric = np.asarray(s_numeric, dtype=float)
    lo = max(curve.t.min(), t_numeric.min())
    hi = min(curve.t.max(), t_numeric.max())
    if hi <= lo:
        raise ValidationError("time grids do not overlap")

    peak_t_num = float(t_numeric[int(np.argmax(s_numeric))])
    peak_t_cft = curve.peak_time()
    peak_s_num = float(np.max(s_numeric))
    peak_s_cft = curve.peak_height()

    def late_slope(ts, ss):
        sel = ts >= hi - _LATE_WINDOW * (hi - lo)
        if (count := np.count_nonzero(sel)) < 2:
            raise ValidationError(f"{count} sample(s) in the last {_LATE_WINDOW:g} of the "
                                  "common grid; the late trend needs 2")
        return np.polyfit(ts[sel], ss[sel], 1)[0]

    trend = bool(np.sign(late_slope(curve.t, curve.entropy))
                 == np.sign(late_slope(t_numeric, s_numeric)))

    grid = np.linspace(lo, hi, 200)
    sc = np.interp(grid, curve.t, curve.entropy)
    sn = np.interp(grid, t_numeric, s_numeric)
    mask = np.interp(grid, curve.t, curve.validity.astype(float)) > 0.5
    if mask.sum() == 0:
        mask = np.ones_like(grid, dtype=bool)
    rms = float(np.sqrt(np.mean((sc[mask] - sn[mask]) ** 2)))

    return ComparisonReport(
        peak_time_ratio=peak_t_num / peak_t_cft if peak_t_cft else math.inf,
        peak_height_ratio=peak_s_num / peak_s_cft if peak_s_cft else math.inf,
        late_trend_match=trend,
        rms_deviation=rms,
    )
