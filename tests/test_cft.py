import numpy as np
import pytest

from floquet_ising import cft
from floquet_ising.errors import ValidationError


def test_replica_one_is_normalized():
    pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=0.1, l=10.0, n=1)
    t = np.linspace(0.0, 30.0, 50)
    assert np.allclose(cft.tr_rho_n(pars, t), 1.0, atol=1e-12)


def test_static_limit_reduces_to_closed_form():
    # at t = 0 and eta = 0 the ratio collapses to a pure function of l/epsilon
    pars = cft.CftParams(c=0.5, epsilon=0.2, eta_rot=0.0, l=8.0, n=2)
    d2 = 0.5 / 12 * (2 - 0.5)
    x = np.pi * 8.0 / (2 * 0.2)
    expect = (np.pi / 0.4) ** (2 * d2) * (
        (np.cosh(x) + 1.0) / (8 * np.sinh(x / 2) ** 2)) ** d2
    assert cft.tr_rho_n(pars, 0.0) == pytest.approx(expect, rel=1e-10)


def test_log_space_matches_arbitrary_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=0.1, l=10.0, n=2)
    t = 5.0
    tau = mpmath.mpf("0.185") + mpmath.mpf("0.1") * t
    d_n = mpmath.mpf("0.5") / 12 * (2 - mpmath.mpf(1) / 2)
    ratio = ((mpmath.cosh(mpmath.pi * 10 / (2 * tau))
              + mpmath.cosh(mpmath.pi * t / tau))
             / (8 * mpmath.sinh(mpmath.pi * 10 / (4 * tau)) ** 2
                * mpmath.cosh(mpmath.pi * t / (2 * tau)) ** 2))
    expect = (mpmath.pi / (2 * tau)) ** (2 * d_n) * ratio ** d_n
    got = cft.tr_rho_n(pars, t)
    assert got == pytest.approx(float(expect), rel=1e-10)


def test_log_space_survives_extreme_arguments():
    pars = cft.CftParams(c=0.5, epsilon=1e-3, eta_rot=0.0, l=50.0, n=3)
    val = cft.log_tr_rho_n(pars, 10.0)
    assert np.isfinite(val)


def test_entropy_derivative_matches_finite_difference():
    pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=0.2, l=10.0)
    delta = 1e-4
    for t in (1.0, 4.0, 9.0):
        up = cft.tr_rho_n(cft.CftParams(0.5, 0.185, 0.2, 10.0, 1), t)  # n=1
        del up
        plus = np.exp(cft.log_tr_rho_n(
            cft.CftParams(0.5, 0.185, 0.2, 10.0, 1), t))
        # central difference over the replica index via direct evaluation
        def tr_at(n_val):
            d_n = 0.5 / 12 * (n_val - 1.0 / n_val)
            pars1 = cft.CftParams(0.5, 0.185, 0.2, 10.0, 1)
            base = cft.log_tr_rho_n(pars1, t)  # = 0
            del base
            # reuse the internal pieces through public API: scale by d_n
            ref = cft.log_tr_rho_n(cft.CftParams(0.5, 0.185, 0.2, 10.0, 2), t)
            d2 = 0.5 / 12 * (2 - 0.5)
            return np.exp(ref / d2 * d_n)
        fd = -(tr_at(1 + delta) - tr_at(1 - delta)) / (2 * delta)
        exact = cft.entropy_exact(pars, t)
        assert exact == pytest.approx(fd, rel=1e-6)
        assert plus == pytest.approx(1.0)


def test_curve_rises_then_decays():
    t = np.linspace(0.05, 30.0, 400)
    for eta in (0.1, 0.2, 0.3):
        pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=eta, l=10.0)
        curve = cft.entropy_curve(pars, t)
        peak = curve.peak_time()
        assert 0.2 * 10 < peak < 0.8 * 10
        late = curve.entropy[curve.t > peak + 2]
        assert late[-1] < np.max(curve.entropy)


def test_growth_slope_matches_asymptote():
    # eta = 0, epsilon << t < l/2: dS/dt ~ pi c / (6 epsilon)
    pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=0.0, l=40.0)
    t = np.linspace(4.0, 12.0, 200)
    s = cft.entropy_exact(pars, t)
    slope = np.polyfit(t, s, 1)[0]
    assert slope == pytest.approx(np.pi * 0.5 / (6 * 0.185), rel=0.02)


def test_plateau_matches_asymptote():
    pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=0.0, l=10.0)
    curve = cft.entropy_curve(pars, np.linspace(0.05, 60.0, 600))
    plateau = np.pi * 0.5 * 10.0 / (12 * 0.185)
    assert curve.entropy[-1] == pytest.approx(plateau, rel=0.15)


def test_monotone_before_peak():
    for eta in (0.0, 0.1, 0.3):
        pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=eta, l=20.0)
        t = np.linspace(2 * 0.185, 0.4 * 20.0, 200)
        s = cft.entropy_exact(pars, t)
        assert np.all(np.diff(s) > -1e-12)


def test_eta_zero_limit_pointwise():
    # the curve is Lipschitz in eta with slope ~3e2 on this window, so the
    # rotated curve converges linearly onto the unitary-quench curve
    t = np.linspace(0.5, 8.0, 40)
    base = cft.entropy_curve(cft.CftParams(0.5, 0.185, 0.0, 10.0), t).entropy
    prev = None
    for eta in (1e-6, 1e-8, 1e-11):
        dev = np.max(np.abs(
            cft.entropy_curve(cft.CftParams(0.5, 0.185, eta, 10.0), t).entropy
            - base))
        if prev is not None:
            assert dev < prev
        prev = dev
    assert prev < 1e-8


def test_validity_mask_rules():
    pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=0.1, l=10.0)
    t = np.array([0.1, 2.0, 20.0, 60.0])
    curve = cft.entropy_curve(pars, t)
    assert not curve.validity[0]   # tau0 = 0.195 > 0.2 * t
    assert curve.validity[1]       # tau0 = 0.385 < 0.4
    assert not curve.validity[2]   # tau0 = 2.185 > 0.2 * l
    assert not curve.validity[3]   # t > 0.5 l / eta = 50


def test_compare_identical_curves():
    pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=0.2, l=10.0)
    t = np.linspace(0.05, 12.0, 120)
    curve = cft.entropy_curve(pars, t)
    rep = cft.compare_to_numerics(curve, t, curve.entropy)
    assert rep.peak_time_ratio == pytest.approx(1.0)
    assert rep.peak_height_ratio == pytest.approx(1.0)
    assert rep.late_trend_match
    assert rep.rms_deviation == pytest.approx(0.0, abs=1e-12)


def test_compare_requires_overlap():
    pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=0.2, l=10.0)
    curve = cft.entropy_curve(pars, np.linspace(0.05, 5.0, 50))
    with pytest.raises(ValidationError):
        cft.compare_to_numerics(curve, np.linspace(6.0, 9.0, 10), np.zeros(10))


def test_compare_requires_two_late_samples():
    # four samples on [0.05, 15] leave one in the last quarter: no late trend
    pars = cft.CftParams(c=0.5, epsilon=0.185, eta_rot=0.2, l=10.0)
    t = np.linspace(0.05, 15.0, 4)
    curve = cft.entropy_curve(pars, t)
    with pytest.raises(ValidationError, match="late trend"):
        cft.compare_to_numerics(curve, t, curve.entropy)


def test_params_validation():
    with pytest.raises(ValidationError):
        cft.CftParams(epsilon=-0.1)
    with pytest.raises(ValidationError):
        cft.CftParams(eta_rot=-0.2)
    with pytest.raises(ValidationError):
        cft.CftParams(n=0)
