import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from floquet_ising import params as P
from floquet_ising import spectral as S
from floquet_ising.errors import MetricPoleError, NumericalBreakdown, ValidationError

RNG = np.random.default_rng(42)


def random_params(rng=RNG):
    return P.ModelParams(rng.uniform(-np.pi / 2, np.pi / 2),
                         rng.uniform(-1.2, 1.2),
                         rng.uniform(-np.pi / 2, np.pi / 2),
                         rng.uniform(-1.2, 1.2))


def bdg_oracle(J, h, k):
    """Independent 2x2 Bogoliubov block for H = J sum XX + h sum Z."""
    a = 2 * (J * np.cos(k) - h)
    b = 2j * J * np.sin(k)
    return np.array([[a, b], [-b, -a]])


# --------------------------------------------------------------------------
# kick forms
# --------------------------------------------------------------------------

def test_zero_coupling_gives_zero_form():
    p = P.ModelParams(0.0, 0.0, 0.3, 0.1)
    w1, _ = S.build_kick_forms(p, P.lattice(6, "obc"))
    assert np.all(w1.w == 0)


def test_bond_counting_open_chain():
    p = P.ModelParams(0.3, 0.0, 0.5, 0.0)
    w1, w2 = S.build_kick_forms(p, P.lattice(2, "obc"))
    assert len(w1.bonds) == 1  # single (a_2, a_3) pair
    assert len(w2.bonds) == 2
    assert np.count_nonzero(w1.w) == 2  # antisymmetric pair


def test_kick_exponential_matches_expm():
    # each kick on the identity, and the period step on it for both signs
    p = random_params()
    forms = S.build_kick_forms(p, P.lattice(5, "pbc-odd"))
    eye = np.eye(10, dtype=complex)
    for form in forms:
        assert np.allclose(form.kick(eye), scipy.linalg.expm(4 * form.w), atol=1e-12)
    for sign in (1.0, -1.0):
        dense = (scipy.linalg.expm(sign * 4 * forms.coupling_form.w)
                 @ scipy.linalg.expm(sign * 4 * forms.field_form.w))
        assert np.allclose(forms.step(eye, sign), dense, atol=1e-12)


@pytest.mark.parametrize("bc", ["pbc-even", "pbc-odd", "obc"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kick_matches_expm_every_boundary_and_sign(bc, sign):
    # pbc-even carries the wrap sign, obc leaves both end Majoranas unbonded
    rng = np.random.default_rng(7)
    p = random_params(rng)
    x = rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3))
    for form in S.build_kick_forms(p, P.lattice(5, bc)):
        dense = scipy.linalg.expm(sign * 4 * form.w)
        assert np.allclose(form.kick(np.eye(10, dtype=complex), sign), dense, atol=1e-12)
        assert np.allclose(form.kick(x, sign), dense @ x, atol=1e-12)


@pytest.mark.parametrize("bc", ["pbc-even", "pbc-odd", "obc"])
def test_kick_forms_match_bond_loop(bc):
    # reference: the forms filled one bond at a time
    p = random_params(np.random.default_rng(11))
    for form in S.build_kick_forms(p, P.lattice(7, bc)):
        w = np.zeros((14, 14), dtype=complex)
        partner, angle = np.arange(14), np.zeros(14, dtype=complex)
        for a, b, s in form.bonds:
            w[a, b], w[b, a] = w[a, b] + s, w[b, a] - s
            partner[a], partner[b] = b, a
            angle[a], angle[b] = 4 * s, -4 * s
        assert np.array_equal(form.w, w)
        assert np.array_equal(form.partner, partner)
        assert np.array_equal(form.angle, angle)


def test_kick_forms_hold_no_dense_matrix():
    # only per-Majorana columns are stored; the dense W is built on demand
    for form in S.build_kick_forms(random_params(), P.lattice(40, "obc")):
        arrays = [v for v in vars(form).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.size == form.n for a in arrays)
        assert form.w.shape == (form.n, form.n)


def test_overlapping_kick_bonds_rejected():
    bonds = ((0, 1, 0.3), (1, 2, 0.2))
    with pytest.raises(ValidationError):
        S.MajoranaQuadraticForm(4, bonds)


def test_transfer_matrix_invariants():
    p = random_params()
    lat = P.lattice(6, "pbc-even")
    tm = S.build_transfer_matrix(*S.build_kick_forms(p, lat))
    assert abs(np.linalg.det(tm.m) - 1) < 1e-8
    # complex orthogonality and reciprocal eigenvalue pairing
    assert np.allclose(tm.m.T @ tm.m, np.eye(tm.n), atol=1e-10)
    mu = np.sort_complex(tm.eigenvalues)
    inv = np.sort_complex(1.0 / tm.eigenvalues)
    assert np.allclose(mu, inv, atol=1e-8)


def test_unitary_case_orthogonal_unit_modulus():
    p = P.ModelParams(0.4, 0.0, 0.9, 0.0)
    tm = S.build_transfer_matrix(*S.build_kick_forms(p, P.lattice(6, "pbc-even")))
    assert np.allclose(np.abs(tm.eigenvalues), 1.0, atol=1e-10)
    rep = S.quasienergies_from_transfer(tm)
    assert np.max(np.abs(rep.quasienergies.imag)) < 1e-10


def test_identity_when_couplings_vanish():
    p = P.ModelParams(0.0, 0.0, 0.0, 0.0)
    tm = S.build_transfer_matrix(*S.build_kick_forms(p, P.lattice(4, "obc")))
    assert np.allclose(tm.m, np.eye(8))


# --------------------------------------------------------------------------
# momentum dispersion vs real space (the calibration)
# --------------------------------------------------------------------------

def _match_multisets(eps_a, eps_b, tol):
    from scipy.optimize import linear_sum_assignment
    dre = np.abs(S.fold_real_part(eps_a.real[:, None] - eps_b.real[None, :]))
    dim = np.abs(eps_a.imag[:, None] - eps_b.imag[None, :])
    cost = np.hypot(dre, dim)
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max()) < tol


@pytest.mark.parametrize("bc", ["pbc-even", "pbc-odd"])
def test_transfer_spectrum_matches_momentum(bc):
    lat = P.lattice(4 if bc == "pbc-even" else 6, bc)
    for _ in range(4):
        p = random_params()
        tm = S.build_transfer_matrix(*S.build_kick_forms(p, lat))
        rep = S.quasienergies_from_transfer(tm)
        ana = []
        for k in S.allowed_momenta(lat):
            pt = S.floquet_dispersion(p.J, p.h, k)
            ana.extend(pt.epsilon)
        assert _match_multisets(rep.quasienergies, np.asarray(ana), 1e-8)


@pytest.mark.parametrize("bc", ["pbc-even", "pbc-odd"])
@pytest.mark.parametrize("L", range(3, 12))
def test_momentum_grid_matches_the_transfer_spectrum_at_every_length(bc, L):
    # pbc-even momenta are the odd multiples of pi/L at odd L too
    rng = np.random.default_rng(L)
    lat = P.lattice(L, bc)
    for _ in range(3):
        p = random_params(rng)
        tm = S.build_transfer_matrix(*S.build_kick_forms(p, lat))
        eps = S._dispersion(p.J, p.h, S.allowed_momenta(lat))[1]
        assert _match_multisets(S.quasienergies_from_transfer(tm).quasienergies,
                                np.concatenate([eps, -eps]), 1e-10)


def test_odd_length_census_reads_the_antiperiodic_grid():
    # at L = 5 the real-space spectra hold two real modes, both pbc-odd
    p = P.make_params(0.5, -1.0, 0.5, -1.0)
    assert S.count_real_modes(p, 5, sectors="pbc-even").count == 0
    assert S.count_real_modes(p, 5, sectors="pbc-odd").count == 2
    assert np.allclose(S.allowed_momenta(P.lattice(5, "pbc-even")) * 5 / np.pi,
                       [-3, -1, 1, 3, 5])


@pytest.mark.parametrize("bc", ["pbc-even", "pbc-odd"])
@pytest.mark.parametrize("L", [8, 10, 12, 14])
def test_frame_map_blocks_are_the_dense_map_in_momentum(bc, L):
    # F U_q = U_q F_q with U_q[(x, a), b] = e^{iqx} delta_ab / sqrt(N), and
    # the spectrum of F_q is that of the one-site blocks at q/2, q/2 + pi
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(L)
    lat = P.lattice(L, bc)
    q = S.cell_momenta(lat)
    n = L // 2
    for _ in range(4):
        p = P.ModelParams(rng.uniform(-np.pi, np.pi), rng.uniform(-1.0, 1.0),
                          rng.uniform(-np.pi, np.pi), rng.uniform(-1.0, 1.0))
        f = S.build_kick_forms(p, lat).step(np.eye(2 * L, dtype=complex), -1.0)
        fq = S.frame_map_blocks(p, q)
        for qi, fi in zip(q, fq):
            u = np.kron(np.exp(1j * qi * np.arange(n))[:, None], np.eye(4)) / np.sqrt(n)
            assert np.linalg.norm(f @ u - u @ fi) <= 1e-13
            mu = np.concatenate([np.linalg.eigvals(np.matmul(*S.momentum_kick_blocks(p.J, p.h, k)))
                                 for k in (qi / 2, qi / 2 + np.pi)])
            cost = np.abs(np.linalg.eigvals(fi)[:, None] - mu[None, :])
            r, c = linear_sum_assignment(cost)
            assert cost[r, c].max() <= 1e-12


def test_cell_momenta_cover_the_allowed_momenta():
    for L, bc in ((8, "pbc-even"), (10, "pbc-even"), (8, "pbc-odd"), (10, "pbc-odd")):
        lat = P.lattice(L, bc)
        q = S.cell_momenta(lat)
        assert len(q) == L // 2
        k = S.fold_real_part(np.concatenate([q / 2, q / 2 + np.pi]))
        assert np.allclose(np.sort(k), np.sort(S.allowed_momenta(lat)), atol=1e-13)
    for L, bc in ((7, "pbc-even"), (8, "obc")):
        with pytest.raises(ValidationError):
            S.cell_momenta(P.lattice(L, bc))


def test_dispersion_continuous_examples():
    # J = h at k = 0: exact zero pair
    pt = S.dispersion_continuous(0.2 + 0.1j, 0.2 + 0.1j, 0.0)
    assert abs(pt.epsilon[0]) < 1e-12
    # J = 0.3, h = 0.1 at k = pi: eigenvalues +-0.8 from the 2x2 oracle
    lam = np.linalg.eigvals(bdg_oracle(0.3, 0.1, np.pi))
    assert sorted(np.round(lam.real, 10)) == [-0.8, 0.8]
    pt = S.dispersion_continuous(0.3, 0.1, np.pi)
    assert sorted(e.real for e in pt.epsilon) == pytest.approx([-0.8, 0.8])


def test_exceptional_point_coalescence():
    # cos k = (a^2-b^2)/(a^2+b^2) with J = 1+0.5i, h = 1-0.5i
    k = np.arccos(0.6)
    pt = S.dispersion_continuous(1 + 0.5j, 1 - 0.5j, k)
    assert pt.classification == S.ModeClass.EXCEPTIONAL
    # sqrt amplifies the rounding of cos(arccos(0.6)) to ~2e-8
    assert abs(pt.epsilon[0]) < 1e-7
    hk = bdg_oracle(1 + 0.5j, 1 - 0.5j, k)
    # nilpotent block; kernel vector coalesces to (-1, 1)/sqrt(2)
    assert np.linalg.norm(hk @ hk) < 1e-10
    vec = scipy.linalg.null_space(hk)[:, 0]
    vec = vec / vec[1]
    assert np.allclose(vec, [-1, 1], atol=1e-8)


def test_floquet_zero_mode_at_k0_for_equal_couplings():
    pt = S.floquet_dispersion(0.3 - 0.2j, 0.3 - 0.2j, 0.0)
    assert abs(pt.epsilon[0]) < 1e-12
    assert abs(pt.epsilon[1]) < 1e-12


def test_floquet_dispersion_real_for_real_couplings():
    for k in np.linspace(-np.pi, np.pi, 17):
        pt = S.floquet_dispersion(0.7, 0.2, k)
        assert abs(pt.epsilon[0].imag) < 1e-10


def test_dual_line_real_window_nonempty():
    J = np.pi / 4 + 0.3j * np.pi / 4
    kinds = [S.floquet_dispersion(J, J, k).classification
             for k in np.linspace(0.01, np.pi - 0.01, 101)]
    assert S.ModeClass.REAL in kinds
    assert any(c != S.ModeClass.REAL for c in kinds)


# --------------------------------------------------------------------------
# real-mode census
# --------------------------------------------------------------------------

def test_census_volume_line_extensive():
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    census = S.count_real_modes(p, 16, sectors="pbc-even")
    assert census.count >= 8  # at least L/2 of the 2L modes
    # density roughly size independent
    big = S.count_real_modes(p, 64, sectors="pbc-even")
    assert big.density > 0.5


def test_census_interior_no_real_modes():
    p = P.make_params(0.2, -0.2, 0.2, 0.1)
    census = S.count_real_modes(p, 64)
    assert census.count == 0


def test_census_log_line_isolated_zero_mode():
    p = P.make_params(0.2, 0.1, 0.2, 0.1)
    even = S.count_real_modes(p, 32, sectors="pbc-even")
    odd = S.count_real_modes(p, 32, sectors="pbc-odd")
    assert even.count == 0
    assert odd.count == 2  # the k = 0 pair only
    both = S.count_real_modes(p, 32)
    assert both.count == 2


def _census_per_momentum(p, L, bcs):
    """Reference census: one ``floquet_dispersion`` call per momentum."""
    count = total = 0
    for bc in bcs:
        eps = np.array([e for k in S.allowed_momenta(P.lattice(L, bc))
                        for e in S.floquet_dispersion(p.J, p.h, k).epsilon])
        tol = 1e-8 * max(np.max(np.abs(eps)), 1.0)
        count += int(np.sum(np.abs(eps.imag) < tol))
        total += len(eps)
    return count, total


@settings(max_examples=150)
@given(st.integers(2, 64), st.sampled_from(["free", "J=h", "unitary", "x=-4"]),
       st.floats(-np.pi, np.pi), st.floats(-1.5, 1.5),
       st.floats(-np.pi, np.pi), st.floats(-1.5, 1.5))
def test_census_equals_the_per_momentum_loop(L, line, aj, bj, ah, bh):
    # J = h puts the zero mode at k = 0 (pbc-odd); h - J = pi/2 puts the
    # double root x = -4 there; zero imaginary parts make every mode real
    if line == "J=h":
        ah, bh = aj, bj
    elif line == "unitary":
        bj = bh = 0.0
    elif line == "x=-4":
        ah, bh = aj + np.pi / 2, bj
    p = P.ModelParams(aj, bj, ah, bh)
    both = S.count_real_modes(p, L)
    assert (both.count, both.total) == _census_per_momentum(p, L, ["pbc-even", "pbc-odd"])
    for bc in ("pbc-even", "pbc-odd"):
        one = S.count_real_modes(p, L, sectors=bc)
        assert (one.count, one.total) == _census_per_momentum(p, L, [bc])
    if line == "unitary":
        assert both.count == both.total


# --------------------------------------------------------------------------
# edge modes
# --------------------------------------------------------------------------

def test_edge_mode_detection_examples():
    lat = P.lattice(40, "obc")
    kinds = lambda rep: {m.kind for m in rep.edge_modes}
    rep = S.detect_edge_modes(P.make_params(0.5, -1.0, 0.5, 0.5), lat)
    assert kinds(rep) == {"zero"}
    rep = S.detect_edge_modes(P.make_params(1.5, -1.0, 1.5, 0.5), lat)
    assert kinds(rep) == {"pi"}
    rep = S.detect_edge_modes(P.make_params(0.5, -0.1, 0.5, 0.5), lat)
    assert kinds(rep) == set()
    rep = S.detect_edge_modes(P.make_params(1.5, -0.1, 1.5, 0.5), lat)
    assert kinds(rep) == {"zero", "pi"}


def test_edge_modes_localized_and_real():
    rep = S.detect_edge_modes(P.make_params(0.3, -1.0, 0.3, 0.5),
                              P.lattice(40, "obc"))
    assert len(rep.edge_modes) == 2
    for m in rep.edge_modes:
        assert m.left_weight + m.right_weight > 0.5
        assert abs(m.energy.imag) < 1e-6
        assert np.isfinite(m.localization_length)
        assert m.localization_length < 10.0


def _sector_energies_mp(p, lat):
    """Quasienergies +-i log mu of the open chain from a 40-digit eig
    of the reflection-sector block B_+ (``build_transfer_matrix``), with
    the kick angles taken as the double values the kick forms hold."""
    mpmath = pytest.importorskip("mpmath")
    forms = S.build_kick_forms(p, lat)
    n, L = forms.coupling_form.n, lat.L
    with mpmath.workdps(40):
        def kick(form, x):
            c = [mpmath.cos(mpmath.mpc(a)) for a in form.angle]
            s = [mpmath.sin(mpmath.mpc(a)) for a in form.angle]
            return [[c[r] * x[r][j] + s[r] * x[form.partner[r]][j] for j in range(L)]
                    for r in range(n)]
        basis = [[mpmath.mpc(0)] * L for _ in range(n)]
        for m in range(L):
            basis[m][m] = mpmath.mpc(1)
            basis[n - 1 - m][m] = mpmath.mpc(0, (-1) ** m)
        b_plus = kick(forms.coupling_form, kick(forms.field_form, basis))[:L]
        mu = mpmath.eig(mpmath.matrix(b_plus), left=False, right=False)
        eps = [sign * 1j * mpmath.log(x) for x in mu for sign in (1, -1)]
    return eps


def test_edge_mode_refinement_beats_raw_eig():
    # against a 40-digit eig of B_+, the extended-precision refine puts the
    # edge energies within 1.6e-16 and the raw double eig 8.5e-14 off
    if np.finfo(np.longdouble).eps == np.finfo(float).eps:
        pytest.skip("long double is plain double here: the refine gains no digits")
    p = P.ModelParams(2.005652598123242, 0.2242496452185141,
                      2.005652598123242, -1.3839106311816078)
    lat = P.lattice(18, "obc")
    ref = _sector_energies_mp(p, lat)
    mpmath = pytest.importorskip("mpmath")

    def worst_error(refine):
        rep = S.detect_edge_modes(p, lat, refine=refine)
        assert sorted(m.kind for m in rep.edge_modes) == ["pi", "pi", "zero", "zero"]
        with mpmath.workdps(40):
            return float(max(min(abs(m.energy - e - 2 * k * mpmath.pi)
                                 for e in ref for k in (-1, 0, 1))
                             for m in rep.edge_modes))

    refined = worst_error(True)
    assert refined <= 1e-15
    assert refined < worst_error(False)


def test_refined_edge_pair_has_no_cancellation_floor():
    # the pair mu, 1/mu sits in two reflection sectors, so the projected
    # 2x2 map is diagonal; tr^2 - 4 det cancelled to |eps| ~ 1e-10 here,
    # while a 40-digit eig of the sector block gives 3.8e-16
    rep = S.detect_edge_modes(P.make_params(0.4, -1.0, 0.4, 0.5), P.lattice(96, "obc"))
    assert [m.kind for m in rep.edge_modes] == ["zero", "zero"]
    assert max(abs(m.energy) for m in rep.edge_modes) <= 1e-12


def test_edge_detection_requires_open_chain():
    with pytest.raises(ValidationError):
        S.detect_edge_modes(P.make_params(0.5, -1.0, 0.5, 0.5),
                            P.lattice(40, "pbc-even"))


def test_delocalization_warning_near_quarter():
    rep = S.detect_edge_modes(P.make_params(1.02, -1.0, 1.02, 0.5),
                              P.lattice(16, "obc"))
    if not rep.edge_modes:
        assert rep.delocalization_warning


# --------------------------------------------------------------------------
# pseudo-Hermiticity
# --------------------------------------------------------------------------

def test_metric_hermitian_identity():
    p = P.ModelParams(0.4, 0.0, 0.7, 0.0)
    cert = S.pseudo_hermiticity_certificate(p, k=1.1, continuous=True)
    assert cert.family == "hermitian"
    assert cert.residual < 1e-12
    assert cert.certified


def test_metric_conjugate_couplings_closed_form():
    # alpha = 1, beta = 0.5 at k = pi/2: off-diagonal 0.5 cot(pi/4) = 0.5
    p = P.ModelParams(1.0, 0.5, 1.0, -0.5)
    cert = S.pseudo_hermiticity_certificate(p, k=np.pi / 2)
    assert cert.eta[0, 1] == pytest.approx(0.5)
    assert cert.residual < 1e-10
    assert cert.certified


def test_metric_pole_at_k_zero():
    p = P.ModelParams(1.0, 0.5, 1.0, -0.5)
    with pytest.raises(MetricPoleError):
        S.pseudo_hermiticity_certificate(p, k=0.0)


def test_metric_sigma_x_on_dual_line():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = P.make_params(1.0, rng.uniform(-1, 1), 1.0, rng.uniform(-1, 1))
        k = rng.uniform(0.05, np.pi - 0.05)
        cert = S.pseudo_hermiticity_certificate(p, k=k)
        assert cert.family == "self-dual-line"
        assert np.allclose(cert.eta, [[0, 1], [1, 0]])
        assert cert.residual < 1e-8, (p, k)


@settings(max_examples=100)
@given(st.floats(0.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 2.0),
       st.floats(-2.0, 2.0), st.floats(0.05, np.pi - 0.05, exclude_min=True,
                                       exclude_max=True), st.booleans())
@example(0.3, -0.4, 0.3, 0.7, 0.9, False)
def test_metric_verdict_matches_the_dispersion_class(alpha_j, beta_j, alpha_h, beta_h,
                                                     k, conjugate):
    # off the named families the eigenbasis verdict certifies exactly the
    # blocks whose quasienergy pair is real or complex-conjugate; couplings
    # J = conj(h) outside the continuous limit are pseudo-Hermitian off them.
    # Left out: coalesced pairs, where the class reads |disc| < 1e-10 as
    # exceptional also for diagonalizable blocks (H = 0 at J = h = 0), and
    # pairs within 1e-6 of real or conjugate but not at rounding level, where
    # the class and the verdict gate the same small defect in different norms.
    if conjugate:
        alpha_h, beta_h = alpha_j, -beta_j
    p = P.make_params(alpha_j, beta_j, alpha_h, beta_h)
    cert = S.pseudo_hermiticity_certificate(p, k=k, continuous=False)
    point = S.dispersion_points(p.J, p.h, [k])[0]
    eps, kind = point.epsilon[0], point.classification
    gap = min(abs(eps.imag), abs(eps.real), abs(abs(eps.real) - np.pi))
    assume(cert.family == "numerical" and kind != S.ModeClass.EXCEPTIONAL
           and not 1e-13 < gap < 1e-6)
    assert cert.certified == (kind in (S.ModeClass.REAL, S.ModeClass.CONJUGATE_PAIR))


# the dual-line point where the propagator pair is -183.2 and -0.00546: both
# logs take Arg = +pi, though rounding puts the small one 2e-12 off the axis
NEGATIVE_AXIS_PAIR = (P.make_params(1.0, -1.8293061544781803, 1.0, -1.8892049685668022),
                      1.5003814002916)


def test_dual_line_certified_with_the_pair_on_the_negative_axis():
    p, k = NEGATIVE_AXIS_PAIR
    cert = S.pseudo_hermiticity_certificate(p, k=k)
    assert cert.family == "self-dual-line"
    assert cert.residual < 1e-8 and cert.certified


def test_bloch_block_eigenvalues_are_the_dispersion_pair():
    # the block at k is the one the dispersion puts at k, not at pi - k
    rng = np.random.default_rng(8)
    points = [NEGATIVE_AXIS_PAIR] + [(random_params(rng), rng.uniform(-np.pi, np.pi))
                                     for _ in range(40)]
    for p, k in points:
        hk = S.effective_hamiltonian_nambu(p.J, p.h, k)
        pair = np.array(S.dispersion_points(p.J, p.h, [k])[0].epsilon)
        assert _match_multisets(np.linalg.eigvals(hk), pair, 1e-9), (p, k)


def _log_block_reference(J, h, k):
    """i Log of the Bloch block from its eig, each Arg within 1e-10 of
    +-pi pinned to +pi."""
    e1, e2 = S.momentum_kick_blocks(J, h, k)
    v = np.array([[1.0, 1.0], [1j, -1j]])
    mu, r = np.linalg.eig(np.linalg.solve(v, e1 @ e2 @ v))
    arg = np.angle(mu)
    arg[np.abs(np.abs(arg) - np.pi) < 1e-10] = np.pi
    return r @ np.diag(1j * np.log(np.abs(mu)) - arg) @ np.linalg.inv(r)


@settings(max_examples=200)
@given(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0), st.floats(-np.pi, np.pi),
       st.floats(-1.0, 1.0), st.floats(-np.pi, np.pi))
@example(1.0 * P.PI4, -1.8293061544781803 * P.PI4, 1.0 * P.PI4, -1.8892049685668022 * P.PI4,
         1.5003814002916)
def test_closed_form_log_matches_the_eig_reference(aj, bj, ah, bh, k):
    p = P.ModelParams(aj, bj, ah, bh)
    disc = S._dispersion(p.J, p.h, [k])[0][0]
    assume(abs(disc) > 1e-6)
    ref = _log_block_reference(p.J, p.h, k)
    hk = S.effective_hamiltonian_nambu(p.J, p.h, k)
    assert np.linalg.norm(hk - ref) <= 1e-10 * np.linalg.norm(ref)


@settings(max_examples=200)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.floats(0.05, np.pi - 0.05, exclude_min=True, exclude_max=True))
def test_dual_line_certified_everywhere(beta_j, beta_h, k):
    cert = S.pseudo_hermiticity_certificate(P.make_params(1.0, beta_j, 1.0, beta_h), k=k)
    assert cert.certified, (cert.family, cert.residual)


def test_metric_exceptional_block_not_certified(monkeypatch):
    # a Jordan block: eig returns a singular eigenvector matrix
    monkeypatch.setattr(S, "effective_hamiltonian_nambu",
                        lambda J, h, k: np.array([[0, 1], [0, 0]], dtype=complex))
    cert = S.pseudo_hermiticity_certificate(P.make_params(0.3, -0.4, 0.3, 0.7), k=0.9)
    assert cert.family == "numerical"
    assert cert.residual == np.inf and not cert.certified


def test_conjugation_closure_on_protected_families():
    lat = P.lattice(12, "pbc-even")
    for p in (P.make_params(1.0, 0.4, 1.0, -0.7),   # dual line
              P.ModelParams(0.8, 0.3, 0.8, -0.3)):  # conjugate couplings
        eps = []
        for k in S.allowed_momenta(lat):
            eps.extend(S.floquet_dispersion(p.J, p.h, k).epsilon)
        assert S.spectrum_conjugation_defect(np.asarray(eps)) < 1e-8


def test_hermitian_limit_spectrum_real():
    p = P.ModelParams(0.5, 0.0, 0.8, 0.0)
    tm = S.build_transfer_matrix(*S.build_kick_forms(p, P.lattice(8, "pbc-even")))
    rep = S.quasienergies_from_transfer(tm)
    assert np.max(np.abs(rep.quasienergies.imag)) < 1e-10


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,bj,bh,expect", [
    (0.5, -1.5, 0.5, P.PhaseLabel.ZERO_MODE),
    (1.5, -0.1, 0.5, P.PhaseLabel.ZERO_PI),
    (0.2, 0.1, 0.1, P.PhaseLabel.CRITICAL_LOG),
    (0.2, -0.1, 0.1, P.PhaseLabel.CRITICAL_VOLUME),
    (0.5, -0.5, 1.5, P.PhaseLabel.TRIVIAL),
])
def test_classify_phase_examples(alpha, bj, bh, expect):
    p = P.make_params(alpha, bj, alpha, bh)
    assert S.classify_phase(p, L=40) is expect


def test_classifier_agrees_with_parameter_labels():
    # coarse grid away from the critical lines
    for alpha in (0.3, 0.7, 1.3, 1.7):
        for bj in (-1.3, -0.15, 0.15, 1.3):
            p = P.make_params(alpha, bj, alpha, 0.5)
            assert S.classify_phase(p, L=40) is P.phase_label_from_params(p), \
                (alpha, bj)


def test_imaginary_couplings_eigenvalues_off_unit_circle():
    p = P.ModelParams(0.0, 0.1, 0.0, 0.1)  # J = h = 0.1i
    tm = S.build_transfer_matrix(*S.build_kick_forms(p, P.lattice(8, "pbc-even")))
    moduli = np.abs(tm.eigenvalues)
    assert np.all(np.abs(moduli - 1.0) > 1e-6)
    mu = np.sort_complex(tm.eigenvalues)
    assert np.allclose(mu, np.sort_complex(1.0 / tm.eigenvalues), atol=1e-8)


def test_edge_scan_raises_at_an_exceptional_point(monkeypatch):
    # the scan judges each edge candidate by its own eigenvalue condition
    # kappa = 1/|l^H r|; a cutoff of 1 makes every candidate exceptional, so
    # the point needs one (the zero-mode pair here): no silent empty scan
    p = P.make_params(0.4, -1.0, 0.4, 0.5)
    lat = P.lattice(40, "obc")
    # kappa of every candidate from the full eig of the sector block
    tm = S.build_transfer_matrix(*S.build_kick_forms(p, lat))
    eps = S.quasienergies_from_eigenvalues(tm.eigenvalues)
    re = np.abs(eps.real)
    window = (np.minimum(re, np.abs(re - np.pi)) < 1e-3) & (np.abs(eps.imag) <= 1e-2)
    mu, c = np.linalg.eig(tm.b_plus)
    c = c[:, linear_sum_assignment(np.abs(tm.eigenvalues[:lat.L, None] - mu))[1]]
    v = S._sector_vectors(tm.kicks.field_form, c)
    kappa = 1.0 / np.abs(np.sum(v[:, :lat.L] * v[:, lat.L:], axis=0))
    judged = kappa[np.unique(np.flatnonzero(window) % lat.L)]
    assert judged.size
    monkeypatch.setattr(S, "_COND_CUTOFF", 1.0)
    with pytest.raises(NumericalBreakdown) as err:
        S.detect_edge_modes(p, lat)
    assert err.value.condition == pytest.approx(judged.max(), rel=1e-6)
    assert err.value.condition >= 1.0
    with pytest.raises(NumericalBreakdown):
        S.classify_phase(p, L=40, confirm_L=None)


def test_dispersion_pair_sums_to_zero():
    for k in (0.3, 2.0, np.pi):
        pt = S.floquet_dispersion(0.6 - 0.4j, 0.2 + 0.9j, k)
        assert abs(pt.epsilon[0] + pt.epsilon[1]) < 1e-10
        pt = S.dispersion_continuous(0.6 - 0.4j, 0.2 + 0.9j, k)
        assert abs(pt.epsilon[0] + pt.epsilon[1]) < 1e-10


def test_classify_phase_skips_the_edge_scan_the_census_decides(monkeypatch):
    # real modes fix the label without the open-chain scan, so it is not run
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    scanned = S.classify_phase_from_spectrum(
        S.detect_edge_modes(p, P.lattice(144, "obc"), refine=False),
        S.count_real_modes(p, 40))

    def no_scan(*args, **kwargs):
        raise AssertionError("edge scan ran")

    monkeypatch.setattr(S, "detect_edge_modes", no_scan)
    assert S.classify_phase(p, L=40) is scanned is P.PhaseLabel.CRITICAL_VOLUME
    with pytest.raises(ValidationError):
        S.classify_phase(p, L=4, confirm_L=None)


# --------------------------------------------------------------------------
# reflection sectors against the dense 2L x 2L eig
# --------------------------------------------------------------------------

def _dense_edge_kinds(p, L, tol_edge=1e-3, im_tol=1e-2, edge_fraction=0.1):
    """Kinds of localized zero and pi modes from one eig of the dense map."""
    tm = S.build_transfer_matrix(*S.build_kick_forms(p, P.lattice(L, "obc")))
    mu, vr = np.linalg.eig(tm.m)
    ne = max(1, int(edge_fraction * L))
    kinds = set()
    for eps, vec in zip(S.quasienergies_from_eigenvalues(mu), vr.T):
        re = abs(eps.real)
        kind = "zero" if re < tol_edge else "pi" if abs(re - np.pi) < tol_edge else None
        if kind is None or abs(eps.imag) > im_tol:
            continue
        w = np.abs(vec[0::2]) ** 2 + np.abs(vec[1::2]) ** 2
        w /= w.sum()
        if w[:ne].sum() + w[-ne:].sum() > 0.5:
            kinds.add(kind)
    return kinds


@settings(max_examples=60)
@given(st.integers(2, 24), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0))
def test_sector_spectrum_matches_the_dense_eig(L, bc, aj, bj, ah, bh):
    lat = P.lattice(L, bc)
    w1, w2 = S.build_kick_forms(P.ModelParams(aj, bj, ah, bh), lat)
    tm = S.build_transfer_matrix(w1, w2)
    m = tm.m
    scale = np.linalg.norm(m, 2)
    mu = np.linalg.eigvals(m)
    cost = np.abs(tm.eigenvalues[:, None] - mu[None, :])
    r, c = linear_sum_assignment(cost)
    assert cost[r, c].max() <= 1e-9 * scale
    # a form whose mirror image is not its negative has no sectors: the
    # first field bond (0, 1) is mirrored on the last one (n-2, n-1)
    bonds = list(w2.bonds)
    bonds[0] = (*bonds[0][:2], bonds[0][2] + 0.1)
    with pytest.raises(ValidationError):
        S.build_transfer_matrix(w1, S.MajoranaQuadraticForm(w2.n, tuple(bonds)))


@settings(max_examples=40)
@given(st.integers(8, 40), st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0))
def test_candidate_vectors_match_the_dense_eig(L, aj, bj, ah, bh):
    # inverse-iteration vectors of every sector eigenvalue, and their kappa,
    # against the dense 2L x 2L eig wherever that eig determines them
    tm = S.build_transfer_matrix(*S.build_kick_forms(P.ModelParams(aj, bj, ah, bh),
                                                     P.lattice(L, "obc")))
    v, kappa = S._candidate_vectors(tm, np.arange(L))
    m = tm.m
    scale = np.linalg.norm(m, 2)
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)
    assert np.linalg.norm(m @ v - v * tm.eigenvalues, axis=0).max() <= 1e-10 * scale
    mu, vl, vr = scipy.linalg.eig(m, left=True)
    vl /= np.linalg.norm(vl, axis=0)
    vr /= np.linalg.norm(vr, axis=0)
    for i, x in enumerate(tm.eigenvalues):
        d = np.abs(mu - x)
        k = d.argmin()
        if np.partition(d, 1)[1] <= 1e-6:  # another eigenvalue within 1e-6
            continue
        assert abs(np.vdot(vr[:, k], v[:, i])) >= 1 - 1e-8
        assert kappa[i % L] == pytest.approx(1 / abs(np.vdot(vl[:, k], vr[:, k])), rel=1e-6)


@pytest.mark.parametrize("L", [40, 96])
def test_edge_kinds_match_the_dense_eig_on_the_edge_grid(L):
    for alpha in (0.2, 0.4, 0.6, 1.4, 1.6, 1.8):
        for bj in (-1.0, -0.1):
            p = P.make_params(alpha, bj, alpha, 0.5)
            expected = _dense_edge_kinds(p, L)
            for refine in (True, False):
                rep = S.detect_edge_modes(p, P.lattice(L, "obc"), refine=refine)
                assert {m.kind for m in rep.edge_modes} == expected, (alpha, bj, refine)


def test_forms_without_chiral_or_mirror_symmetry_rejected():
    n = 8
    ok = S.MajoranaQuadraticForm(n, ((1, 2, 0.3), (3, 4, 0.3), (5, 6, 0.3)))
    field = S.MajoranaQuadraticForm(n, tuple((j, j + 1, 0.2) for j in range(0, n, 2)))
    S.build_transfer_matrix(ok, field)
    for bonds in (((1, 2, 0.3), (3, 4, 0.3)),                # mirror image missing
                  ((1, 2, 0.3), (3, 4, 0.3), (6, 5, 0.3)),   # mirror image same sign
                  ((0, 2, 0.3), (5, 7, -0.3))):              # equal-parity bond
        with pytest.raises(ValidationError):
            S.build_transfer_matrix(S.MajoranaQuadraticForm(n, bonds), field)
