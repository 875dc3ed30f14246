import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.linalg
from scipy.linalg import expm

from floquet_ising import ed, entanglement, gaussian, params as P, spectral
from floquet_ising.errors import (DegenerateEvolution, NumericalBreakdown,
                                  UnsupportedStateError, ValidationError)


def dense_period(psi, p, lat):
    return ed.apply_floquet_period(psi, p, lat)


# --------------------------------------------------------------------------
# initial frames
# --------------------------------------------------------------------------

def test_vacuum_frame_correlations():
    lat = P.lattice(4, "obc")
    frame = gaussian.initial_frame(P.named_state("all-up", 4), lat)
    corr = gaussian.correlation_from_frame(frame)
    assert np.allclose(corr.z_expectations(), 1.0)
    assert corr.anticommutation_defect() < 1e-12
    assert corr.purity_defect() < 1e-12
    # 2x2 on-site antisymmetric blocks +-i
    assert corr.cprime[0, 1] == pytest.approx(-1j)
    assert corr.cprime[1, 0] == pytest.approx(1j)


def test_neel_frame_alternating_z():
    lat = P.lattice(6, "obc")
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 6), lat)
    z = gaussian.correlation_from_frame(frame).z_expectations()
    assert np.allclose(z, [-1, 1, -1, 1, -1, 1])


def test_all_down_is_sitewise_flip_of_all_up():
    lat = P.lattice(3, "obc")
    up = gaussian.correlation_from_frame(
        gaussian.initial_frame(P.named_state("all-up", 3), lat)).cprime
    down = gaussian.correlation_from_frame(
        gaussian.initial_frame(P.named_state("all-down", 3), lat)).cprime
    assert np.allclose(down, -up)


def test_x_state_rejected():
    with pytest.raises(UnsupportedStateError):
        gaussian.initial_frame(P.named_state("x-down", 4), P.lattice(4, "obc"))


def test_frame_invariants_on_construction():
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 8),
                                   P.lattice(8, "pbc-even"))
    assert frame.isotropy_defect() < 1e-12
    assert frame.orthonormality_defect() < 1e-12


# --------------------------------------------------------------------------
# period map
# --------------------------------------------------------------------------

def test_identity_map_preserves_correlations():
    p = P.ModelParams(0.0, 0.0, 0.0, 0.0)
    lat = P.lattice(5, "obc")
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 5), lat)
    c0 = gaussian.correlation_from_frame(frame).c
    frame = gaussian.period_map(frame, kicks)
    assert np.allclose(gaussian.correlation_from_frame(frame).c, c0, atol=1e-12)
    assert frame.norm_log == pytest.approx(0.0, abs=1e-12)


def test_unitary_evolution_keeps_norm_log_zero():
    p = P.ModelParams(0.6, 0.0, 0.3, 0.0)
    lat = P.lattice(8, "pbc-even")
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 8), lat)
    for _ in range(40):
        frame = gaussian.period_map(frame, kicks)
    assert abs(frame.norm_log) < 1e-10


def test_pure_field_kick_leaves_product_state():
    # J = 0: a z-product state is an exact eigenstate of the field kick
    p = P.ModelParams(0.0, 0.0, 0.0, 1.2)
    lat = P.lattice(4, "obc")
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 4), lat)
    for _ in range(6):
        frame = gaussian.period_map(frame, kicks)
    z = gaussian.correlation_from_frame(frame).z_expectations()
    assert np.allclose(z, [-1, 1, -1, 1], atol=1e-10)


def test_strong_field_polarizes_down():
    # h = alpha + i beta_h with beta_h > 0 amplifies the Z = -1 amplitude;
    # a weak real coupling supplies the mixing that lets it win
    p = P.ModelParams(0.3, 0.0, 0.2, 1.2)
    lat = P.lattice(4, "obc")
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 4), lat)
    for _ in range(30):
        frame = gaussian.period_map(frame, kicks)
    z = gaussian.correlation_from_frame(frame).z_expectations()
    assert np.all(z < -0.5)  # a sign error here flips the phase diagram


def test_purity_and_invariants_long_run():
    p = P.make_params(0.5, -0.7, 0.5, 0.4)
    lat = P.lattice(64, "pbc-even")
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 64), lat)
    for _ in range(500):
        frame = gaussian.period_map(frame, kicks)
    assert frame.isotropy_defect() < 1e-10
    assert frame.orthonormality_defect() < 1e-10
    corr = gaussian.correlation_from_frame(frame)
    assert corr.purity_defect() < 1e-8
    assert corr.anticommutation_defect() < 1e-10


def test_rank_collapse_raises():
    # overwhelming damping annihilates the Neel state's surviving amplitude
    p = P.ModelParams(0.0, 0.0, 0.0, 25.0)
    lat = P.lattice(4, "obc")
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 4), lat)
    with pytest.raises(DegenerateEvolution):
        for _ in range(10):
            frame = gaussian.period_map(frame, kicks)


def test_orthonormalize_raises_when_sweeps_run_out(monkeypatch):
    # an isotropic frame knocked off isotropy by random complex noise
    rng = np.random.default_rng(3)
    p = P.ModelParams(0.4, -0.2, 0.7, 0.3)
    lat = P.lattice(6, "pbc-even")
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 6), lat)
    for _ in range(3):
        frame = gaussian.period_map(frame, spectral.build_kick_forms(p, lat))
    phi = frame.phi + 1e-4 * (rng.normal(size=(12, 6)) + 1j * rng.normal(size=(12, 6)))
    with monkeypatch.context() as m, pytest.raises(NumericalBreakdown) as err:
        m.setattr(gaussian, "_MAX_SWEEPS", 0)
        gaussian.orthonormalize(phi)
    assert err.value.condition > 1e-6
    q, _, _ = gaussian.orthonormalize(phi)
    assert np.linalg.norm(q.T @ q) < 1e-13
    assert np.linalg.norm(q.conj().T @ q - np.eye(6)) < 1e-12


# --------------------------------------------------------------------------
# oracle equivalence (small version; the full sweep runs in acceptance)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("bc_pair", [("obc", "obc"), ("pbc-even", "pbc-even")])
def test_engine_matches_dense_oracle(bc_pair):
    rng = np.random.default_rng(11)
    bc_f, bc_s = bc_pair
    L = 4
    lat_f = P.lattice(L, bc_f)
    lat_s = P.lattice(L, "pbc-even" if bc_s.startswith("pbc") else "obc")
    for _ in range(6):
        p = P.ModelParams(rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-1.2, 1.2),
                          rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-1.2, 1.2))
        kicks = spectral.build_kick_forms(p, lat_f)
        frame = gaussian.initial_frame(P.named_state("neel-fermion", L), lat_f)
        psi = ed.product_state(P.named_state("neel-fermion", L))
        for _ in range(50):
            frame = gaussian.period_map(frame, kicks)
            psi = dense_period(psi, p, lat_s)
            corr = gaussian.correlation_from_frame(frame)
            assert np.allclose(corr.z_expectations(),
                               ed.z_expectations(psi, L), atol=1e-7)
            s_frame = entanglement.subsystem_entropy(
                frame, P.SubsystemSpec(1, 2), lat_f).entropy
            s_dense = ed.reduced_entropy_oracle(psi, [1, 2], L)
            assert s_frame == pytest.approx(s_dense, abs=1e-7)


def test_full_correlation_matrix_matches_dense():
    rng = np.random.default_rng(23)
    L = 6
    state = P.named_state("neel-fermion", L)
    lat = P.lattice(L, str(P.preferred_sector(state)))
    p = P.ModelParams(0.45, -0.3, 0.2, 0.5)
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(state, lat)
    psi = ed.product_state(state)
    for _ in range(20):
        frame = gaussian.period_map(frame, kicks)
        psi = ed.apply_floquet_period(psi, p, lat)
    c_frame = gaussian.correlation_from_frame(frame).c
    c_dense = ed.majorana_correlation_dense(psi, L)
    assert np.max(np.abs(c_frame - c_dense)) < 1e-8


def test_xx_expectations_match_dense():
    L = 4
    state = P.named_state("neel-fermion", L)
    lat = P.lattice(L, "pbc-even")
    p = P.ModelParams(0.3, 0.2, 0.7, -0.4)
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(state, lat)
    psi = ed.product_state(state)
    for _ in range(15):
        frame = gaussian.period_map(frame, kicks)
        psi = ed.apply_floquet_period(psi, p, lat)
    xx_frame = gaussian.correlation_from_frame(frame).xx_expectations(lat)
    xx_dense = [ed.xx_expectation(psi, L, j, j % L + 1) for j in range(1, L + 1)]
    assert np.allclose(xx_frame, xx_dense, atol=1e-8)


# --------------------------------------------------------------------------
# stroboscopic runs
# --------------------------------------------------------------------------

def test_stroboscopic_trace_shapes_and_growth():
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    lat = P.lattice(40, "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", 40), n_periods=30)
    trace = gaussian.stroboscopic_run(p, lat, quench, P.SubsystemSpec(1, 4))
    assert len(trace.entropy) == 30
    assert np.all(trace.entropy >= -1e-12)
    assert trace.growth_rate(2) == pytest.approx(trace.entropy[1] / 4.0)
    assert np.all(trace.purity_residual < 1e-9)
    with pytest.raises(ValidationError):
        trace.growth_rate(0)


def test_purity_residual_is_the_measured_isotropy_defect():
    # recomputing ||Phi^T Phi|| on each recorded frame gives the recorded
    # value bit for bit: the trace keeps what orthonormalize measured
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    lat = P.lattice(24, "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", 24), n_periods=12)
    seen = []
    trace = gaussian.stroboscopic_run(p, lat, quench, P.SubsystemSpec(1, 6),
                                      lambda frame: seen.append(frame.isotropy_defect()))
    assert trace.purity_residual.tolist() == seen
    assert gaussian.initial_frame(quench, lat).isotropy is None


@settings(max_examples=30)
@given(st.integers(2, 16), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.tuples(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
                 st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0)),
       st.integers(1, 20), st.data())
def test_frame_invariants_every_period_random_couplings(L, bc, couplings, n_periods, data):
    la = data.draw(st.integers(1, L - 1))
    lat = P.lattice(L, bc)
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=n_periods)
    idx_a = P.SubsystemSpec(1, la).majorana_indices(lat)
    idx_rest = P.SubsystemSpec(la + 1, L - la).majorana_indices(lat)
    periods = []

    def check(frame):
        periods.append(frame.period_count)
        assert frame.isotropy == frame.isotropy_defect()
        assert frame.isotropy < 1e-13
        assert frame.orthonormality_defect() < 1e-12
        s_a, s_rest = (entanglement.entropy_from_majorana_block(
            gaussian.correlation_block(frame, idx)).entropy for idx in (idx_a, idx_rest))
        assert 0.0 <= s_a <= la * np.log(2) + 1e-12
        assert abs(s_a - s_rest) < 1e-10

    gaussian.run_to_steady_state(P.ModelParams(*couplings), lat, quench, check)
    assert periods == list(range(1, n_periods + 1))


def test_stroboscopic_rejects_k_field():
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    quench = P.QuenchConfig(P.named_state("neel-fermion", 8), n_periods=5, K=0.1)
    with pytest.raises(ValidationError):
        gaussian.stroboscopic_run(p, P.lattice(8), quench, P.SubsystemSpec(1, 2))


def test_run_to_steady_state_rejects_k_field():
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    quench = P.QuenchConfig(P.named_state("neel-fermion", 8), n_periods=5, K=0.1)
    with pytest.raises(ValidationError):
        gaussian.run_to_steady_state(p, P.lattice(8), quench)


def test_run_to_steady_state_observes_every_period():
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    lat = P.lattice(10, "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", 10), n_periods=7)
    seen = []
    frame = gaussian.run_to_steady_state(p, lat, quench, seen.append)
    assert [f.period_count for f in seen] == list(range(1, 8))
    assert seen[-1] is frame
    # the observer sees the same frames the trace is recorded from
    norms = []
    trace = gaussian.stroboscopic_run(p, lat, quench, P.SubsystemSpec(1, 3),
                                      lambda f: norms.append(f.norm_log))
    assert np.array_equal(trace.periods, np.arange(1, 8))
    assert np.array_equal(trace.norm_log, norms)
    assert norms[-1] == frame.norm_log


def _dense_frames(p, lat, quench):
    """Every frame of the dense reference: period_map looped over the kick
    forms from the initial frame."""
    kicks = spectral.build_kick_forms(p, lat)
    frame, frames = gaussian.initial_frame(quench, lat), []
    for _ in range(quench.n_periods):
        frame = gaussian.period_map(frame, kicks)
        frames.append(frame)
    return frames


def _direct_and_loop(p, lat, n_periods, state="neel-fermion"):
    """run_to_steady_state as called (direct route allowed) and the dense
    loop built explicitly, from the named initial state."""
    quench = P.QuenchConfig(P.named_state(state, lat.L), n_periods=n_periods)
    return gaussian.run_to_steady_state(p, lat, quench), _dense_frames(p, lat, quench)[-1]


def _assert_same_steady_state(direct, loop):
    c_direct, c_loop = (gaussian.correlation_from_frame(f).c for f in (direct, loop))
    assert np.max(np.abs(c_direct - c_loop)) <= 1e-10
    assert abs(direct.norm_log - loop.norm_log) <= 1e-10 * abs(loop.norm_log)
    assert direct.isotropy == direct.isotropy_defect() < 1e-13
    assert direct.period_count == loop.period_count


def _assert_equal_or_fell_back(direct, loop):
    assert loop.route == "loop"
    if direct.route in ("schur", "momentum"):
        _assert_same_steady_state(direct, loop)
    else:
        assert direct.route == "loop"
        assert np.array_equal(direct.phi, loop.phi)


_NONUNITARY_BETA = st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)


@settings(max_examples=60)
@given(st.integers(2, 24), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.tuples(st.floats(-np.pi, np.pi), _NONUNITARY_BETA,
                 st.floats(-np.pi, np.pi), _NONUNITARY_BETA),
       st.integers(1, 400), st.sampled_from(["neel-fermion", "all-up", "all-down"]))
def test_direct_steady_state_equals_loop_random_couplings(L, bc, couplings, n_periods, state):
    _assert_equal_or_fell_back(*_direct_and_loop(P.ModelParams(*couplings), P.lattice(L, bc),
                                                 n_periods, state))


@pytest.mark.parametrize("couplings, L, bc, n_periods, state", [
    # the initial frame spans an invariant pair without the growing member
    ((1.1854482579045473, -0.5888206257022658, 1.1288586067985533, -0.47657483126141276),
     2, "pbc-odd", 174, "all-up"),
    # the 0 and pi edge pairs both sit at |mu| ~ 1
    ((1.6315447150408646, 0.22045633876886986, -0.9514622862649302, -0.06916727753450067),
     14, "obc", 141, "all-down"),
    # the initial frame lies in the decaying L/L subspace: a is of rounding
    # size, yet its singular value ratio is O(1)
    ((2.8613222614987572, 0.4772190346395886, -0.10373702295586584, -0.8070067389110737),
     2, "pbc-odd", 141, "all-down"),
    # L/L coordinates |E| ~ 5e7 and 1e8: without the bound on them the L/L
    # frame is 1.0e-9 and 2.6e-9 off a 60-digit evolution, the loop 1.0e-14
    # and 8.5e-14; the pair split takes both
    ((1.336498736946278, -0.4050314463735682, 1.715984568067877, 0.3917689750388441),
     11, "obc", 319, "all-down"),
    ((-1.7056810533761728, -0.39470136260284566, -1.3424830854838075, -0.9621410710147132),
     16, "obc", 286, "all-up"),
])
def test_direct_steady_state_edge_cases_equal_loop_or_fall_back(couplings, L, bc,
                                                                n_periods, state):
    _assert_equal_or_fell_back(*_direct_and_loop(P.ModelParams(*couplings), P.lattice(L, bc),
                                                 n_periods, state))


@pytest.mark.parametrize("couplings, L, bc, n_periods", [
    # volume-law point: the |mu| spectrum has no L/L split (gap ~ 2e-16)
    ((0.2, -0.1, 0.2, 0.1), 24, "pbc-even", 300),
])
def test_direct_steady_state_falls_back_to_loop(couplings, L, bc, n_periods):
    direct, loop = _direct_and_loop(P.make_params(*couplings), P.lattice(L, bc), n_periods)
    assert loop.route == "loop"
    if direct.route == "momentum":
        _assert_same_steady_state(direct, loop)
    else:
        assert direct.route == "loop"
        assert np.array_equal(direct.phi, loop.phi)


@pytest.mark.parametrize("couplings, L, bc, n_periods", [
    ((0.0, 0.4, 0.0, 0.4), 100, "pbc-even", 900),   # criterion-8 chord fit
    ((0.2, -0.05, 0.2, -0.3), 48, "obc", 300),      # deep trivial TEE point
    # Neel has no component on the growing edge-pair member (sigma_min(a)
    # ~ 1e-14 at the L/L cut); the pair split carries the pair exactly
    ((0.2, -0.40, 0.2, -0.3), 24, "obc", 300),
    # two periods: far from the dominant subspace, yet the L/L split is exact
    ((0.0, 0.4, 0.0, 0.4), 24, "pbc-even", 2),
])
def test_direct_steady_state_taken_where_converged(couplings, L, bc, n_periods):
    direct, loop = _direct_and_loop(P.make_params(*couplings), P.lattice(L, bc), n_periods)
    assert direct.route == "schur"
    _assert_same_steady_state(direct, loop)


def _cut_split_hits(p, lat, n_periods):
    """Whether the L/L split (no middle block) certifies the n-period Neel
    frame."""
    kicks = spectral.build_kick_forms(p, lat)
    f = kicks.step(np.eye(2 * lat.L, dtype=complex), -1.0)
    t, q, _ = scipy.linalg.schur(f, output="complex", sort="ouc")
    phi0 = gaussian.initial_frame(P.named_state("neel-fermion", lat.L), lat).blocks[0]
    return gaussian._split(t, q, phi0, n_periods, 0) is not None


def test_tee_row_steady_states_all_direct():
    """The steady-final TEE row at L = 24 and 32: every point takes the
    direct route and equals the dense loop.  The row needs both splits: 7
    points miss the L/L split on overlap, which no run length cures, and
    the pair split carries them.  The L/L split needs no convergence: at
    L = 32, beta_J = -0.32 it takes the 300-period frame, still 3.8e-10
    from the dominant span."""
    misses = []
    for L in (24, 32):
        lat = P.lattice(L, "obc")
        for bj in np.linspace(-0.40, -0.20, 11):
            p = P.make_params(0.2, bj, 0.2, -0.3)
            direct, loop = _direct_and_loop(p, lat, 300)
            assert direct.route == "schur"
            _assert_same_steady_state(direct, loop)
            if not _cut_split_hits(p, lat, 300):
                misses.append("run length" if _cut_split_hits(p, lat, 3000) else "overlap")
    assert misses == ["overlap"] * 7


# --------------------------------------------------------------------------
# momentum route
# --------------------------------------------------------------------------

def _momentum_and_dense(p, lat, quench, subsystem):
    """stroboscopic_run with the frames it observed, and the dense frames."""
    frames = []
    trace = gaussian.stroboscopic_run(p, lat, quench, subsystem, frames.append)
    return trace, frames, _dense_frames(p, lat, quench)


def _assert_trace_matches_dense(trace, frames, dense, idx):
    assert [f.route for f in frames] == ["momentum"] * len(dense)
    for t, (f, d) in enumerate(zip(frames, dense)):
        assert f.period_count == d.period_count == t + 1
        assert np.max(np.abs(gaussian.correlation_from_frame(f).c
                             - gaussian.correlation_from_frame(d).c)) <= 1e-10
        block, block_d = (gaussian.correlation_block(x, idx) for x in (f, d))
        assert np.max(np.abs(block - block_d)) <= 1e-10
        s_d = entanglement.entropy_from_majorana_block(block_d).entropy
        assert abs(trace.entropy[t] - s_d) <= 1e-10
        assert abs(trace.purity_residual[t] - d.isotropy) <= 1e-10
        assert abs(trace.norm_log[t] - d.norm_log) <= 1e-10 * max(abs(d.norm_log), 1.0)
        assert f.isotropy == f.isotropy_defect() < 1e-13
        assert f.orthonormality_defect() < 1e-12


@settings(max_examples=40)
@given(st.integers(1, 10), st.sampled_from(["neel-fermion", "all-up", "all-down"]),
       st.tuples(st.floats(-np.pi, np.pi), _NONUNITARY_BETA,
                 st.floats(-np.pi, np.pi), _NONUNITARY_BETA),
       st.integers(1, 60), st.data())
def test_momentum_route_matches_dense_loop_random_couplings(cells, state, couplings,
                                                            n_periods, data):
    # |beta| >= 0.05 keeps every bond coupled.  Near a decoupled bond (J or h
    # within ~1e-6 of a multiple of pi/2) under strong damping the exact
    # trajectory starts on an unstable fixed point, and rounding alone moves
    # it: the two engines then part beyond 1e-10 (J = 1e-6 i, h = i, L = 4:
    # 8e-6 after 30 periods, the dense loop being the one off a 60-digit
    # evolution).  Subsystems of any start and length: odd lengths, odd
    # starts and wrapped blocks.
    L = 4 * cells
    sub = P.SubsystemSpec(data.draw(st.integers(1, L)), data.draw(st.integers(1, L - 1)))
    lat = P.lattice(L, "pbc-even")
    quench = P.QuenchConfig(P.named_state(state, L), n_periods=n_periods)
    trace, frames, dense = _momentum_and_dense(P.ModelParams(*couplings), lat, quench, sub)
    _assert_trace_matches_dense(trace, frames, dense, sub.majorana_indices(lat))


def test_momentum_route_pairs_each_momentum_with_its_negative():
    # isotropy pairs block q with block -q.  On the alpha = pi/4 line the
    # paired sweep fires 7 times in these 150 periods (QR alone would leave
    # ||Phi^T Phi|| = 6e-13); the route tracks the dense loop throughout
    L = 40
    lat = P.lattice(L, "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=150)
    sub = P.SubsystemSpec(L - 2, 7)
    trace, frames, dense = _momentum_and_dense(P.make_params(1.0, -0.3, 1.0, 0.5),
                                               lat, quench, sub)
    _assert_trace_matches_dense(trace, frames, dense, sub.majorana_indices(lat))
    assert np.all(trace.purity_residual < 1e-13)


@pytest.mark.parametrize("L, bc, pattern", [
    (10, "pbc-even", None),   # q = pi is its own partner
    (8, "pbc-odd", None),     # q = 0 and q = pi are their own partners
    (10, "pbc-odd", None),    # q = 0 is its own partner
    (8, "obc", None),
    (9, "pbc-even", None),
    (8, "pbc-even", (1, -1, -1, 1, 1, -1, -1, 1)),  # occupations of period 4
])
def test_momentum_route_taken_only_without_self_paired_momenta(L, bc, pattern):
    p = P.make_params(0.2, -0.2, 0.2, 0.1)
    lat = P.lattice(L, bc)
    state = P.ProductState("z", pattern) if pattern else P.named_state("neel-fermion", L)
    quench = P.QuenchConfig(state, n_periods=20)
    frames = []
    gaussian.run_to_steady_state(p, lat, quench, frames.append)
    dense = _dense_frames(p, lat, quench)
    assert {f.route for f in frames} == {"loop"}
    assert np.array_equal(frames[-1].phi, dense[-1].phi)


def test_momentum_route_raises_on_rank_loss():
    # overwhelming damping annihilates the Neel state's surviving amplitude
    p = P.ModelParams(0.0, 0.0, 0.0, 25.0)
    lat = P.lattice(8, "pbc-even")
    frame = gaussian.GaussianFrame.from_dense(
        gaussian.initial_frame(P.named_state("neel-fermion", 8), lat), lat)
    fq = spectral.frame_map_blocks(p, frame.momenta)
    with pytest.raises(DegenerateEvolution):
        gaussian.orthonormalize(fq @ frame.blocks, partner=frame.partner)
    quench = P.QuenchConfig(P.named_state("neel-fermion", 8), n_periods=10)
    with pytest.raises(DegenerateEvolution):
        gaussian.run_to_steady_state(p, lat, quench, lambda frame: None)


def test_orthonormalize_pairs_blocks_with_their_partners(monkeypatch):
    # pbc-odd blocks at L = 8: q = 0 and q = pi pair with themselves,
    # q = pi/2 with q = 3pi/2
    rng = np.random.default_rng(5)
    lat = P.lattice(8, "pbc-odd")
    frame = gaussian.GaussianFrame.from_dense(
        gaussian.initial_frame(P.named_state("neel-fermion", 8), lat), lat)
    assert frame.partner.tolist() == [0, 3, 2, 1]
    fq = spectral.frame_map_blocks(P.ModelParams(0.4, -0.2, 0.7, 0.3), frame.momenta)
    blocks, _, _ = gaussian.orthonormalize(fq @ frame.blocks, partner=frame.partner)
    noisy = blocks + 1e-4 * (rng.normal(size=blocks.shape) + 1j * rng.normal(size=blocks.shape))
    with monkeypatch.context() as m, pytest.raises(NumericalBreakdown) as err:
        m.setattr(gaussian, "_MAX_SWEEPS", 0)
        gaussian.orthonormalize(noisy, partner=frame.partner)
    assert err.value.condition > 1e-6
    q, _, defect = gaussian.orthonormalize(noisy, partner=frame.partner)
    fixed = gaussian.GaussianFrame(q, frame.momenta, frame.partner)
    assert defect == fixed.isotropy_defect() < 1e-13
    assert max(np.linalg.norm(q[j].T @ q[i]) for i, j in enumerate(frame.partner)) < 1e-13
    assert fixed.orthonormality_defect() < 1e-12
    # the real-space frame built from the blocks has the same defects
    assert np.linalg.norm(fixed.phi.T @ fixed.phi) < 1e-13
    assert np.linalg.norm(fixed.phi.conj().T @ fixed.phi - np.eye(8)) < 1e-12


@pytest.mark.parametrize("idx", [[5, 0, 3, 1], [14, 15, 0, 1, 2], [2, 7, 2, 7, 4]],
                         ids=["unsorted", "wrapping", "repeated"])
@pytest.mark.parametrize("route", ["loop", "momentum", "pbc-odd", "momentum-40"])
def test_correlation_block_is_the_restricted_dense_formula(idx, route):
    # L = 8 pbc-even Neel: the loop holds one cell, the momentum route four.
    # pbc-odd: the initial frame cut into four blocks at theta = 0, moved by
    # the block maps.  L = 40: twenty blocks, the indices spread over the
    # chain so that y - x runs over most of -(N - 1)..N - 1.
    p = P.ModelParams(0.4, -0.2, 0.7, 0.3)
    L = 40 if route == "momentum-40" else 8
    lat = P.lattice(L, "pbc-odd" if route == "pbc-odd" else "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=3)
    if route == "loop":
        frame = _dense_frames(p, lat, quench)[-1]
    elif route == "pbc-odd":
        frame = gaussian.GaussianFrame.from_dense(gaussian.initial_frame(quench, lat), lat)
        fq = spectral.frame_map_blocks(p, frame.momenta)
        blocks, _, _ = gaussian.orthonormalize(fq @ fq @ fq @ frame.blocks,
                                               partner=frame.partner)
        frame = gaussian.GaussianFrame(blocks, frame.momenta, frame.partner)
        assert frame.momenta[0] == 0.0 and frame.orthonormality_defect() < 1e-12
    else:
        frame = gaussian.run_to_steady_state(p, lat, quench, lambda f: None)
        assert (frame.route, len(frame.blocks)) == ("momentum", L // 2)
        idx = [i * L // 8 for i in idx]
    sub = frame.phi[idx]
    block = gaussian.correlation_block(frame, np.array(idx))
    assert np.max(np.abs(block - 2.0 * np.conj(sub) @ sub.T)) < 1e-14


def test_bulk_subsystem_obc_approaches_pbc():
    p = P.make_params(0.2, -0.2, 0.2, 0.1)  # area-law interior point
    la = 8
    quench_L = 80
    sub_bulk = P.SubsystemSpec(quench_L // 2 - la // 2, la)
    state = P.named_state("neel-fermion", quench_L)
    quench = P.QuenchConfig(state, n_periods=150)
    t_obc = gaussian.stroboscopic_run(p, P.lattice(quench_L, "obc"), quench, sub_bulk)
    t_pbc = gaussian.stroboscopic_run(p, P.lattice(quench_L, "pbc-even"), quench,
                                      P.SubsystemSpec(1, la))
    s1, s2 = t_obc.steady_state(), t_pbc.steady_state()
    assert abs(s1 - s2) / s2 < 0.02


# --------------------------------------------------------------------------
# continuous-time flow
# --------------------------------------------------------------------------

def test_continuous_zero_hamiltonian_is_static():
    lat = P.lattice(4, "obc")
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 4), lat)
    c0 = gaussian.correlation_from_frame(frame)
    hmat = np.zeros((8, 8), dtype=complex)
    states = map(gaussian.correlation_from_frame,
                 gaussian.evolve_continuous(frame, hmat, [0.0, 0.5, 1.0]))
    for cm in states:
        assert np.allclose(cm.c, c0.c, atol=1e-12)


def test_continuous_hermitian_preserves_purity():
    p = P.ModelParams(0.4, 0.0, 0.7, 0.0)
    lat = P.lattice(6, "pbc-even")
    hmat = gaussian.continuous_hamiltonian(p, lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 6), lat)
    c0 = gaussian.correlation_from_frame(frame)
    states = map(gaussian.correlation_from_frame,
                 gaussian.evolve_continuous(frame, hmat, np.linspace(0, 2, 5)))
    for cm in states:
        assert cm.purity_defect() < 1e-7
        assert abs(np.trace(cm.c) - np.trace(c0.c)) < 1e-8


def test_continuous_flow_matches_dense_propagator():
    # pins the sign convention: the flow tracks exp(-i H_op t)
    from scipy.linalg import expm

    L = 4
    p = P.ModelParams(0.3, -0.2, 0.5, 0.1)
    state = P.named_state("neel-fermion", L)
    lat = P.lattice(L, "pbc-even")
    hmat = gaussian.continuous_hamiltonian(p, lat)
    frame = gaussian.initial_frame(state, lat)
    t_end = 0.8
    states = [gaussian.correlation_from_frame(f)
              for f in gaussian.evolve_continuous(frame, hmat, [0.0, t_end])]

    dim = 2 ** L
    idx = np.arange(dim)
    hd = np.zeros((dim, dim), dtype=complex)
    zdiag = np.zeros(dim)
    for j in range(1, L + 1):
        zdiag += 1.0 - 2.0 * ((idx >> (j - 1)) & 1)
    hd += np.diag(p.h * zdiag)
    for j in range(1, L + 1):
        j2 = j % L + 1
        mask = (1 << (j - 1)) | (1 << (j2 - 1))
        perm = np.zeros((dim, dim))
        perm[idx, idx ^ mask] = 1.0
        hd += p.J * perm
    psi = expm(-1j * hd * t_end) @ ed.product_state(state)
    psi /= np.linalg.norm(psi)
    z_ode = states[-1].z_expectations()
    z_dense = ed.z_expectations(psi, L)
    assert np.allclose(z_ode, z_dense, atol=1e-8)


def _direct_flow(frame, hmat, t):
    """Oracle: one matrix exponential of the initial frame from t = 0."""
    phi, _, _ = gaussian.orthonormalize(expm(-4j * t * hmat) @ frame.phi)
    return gaussian.correlation_from_frame(gaussian.GaussianFrame(phi[None])).c


def test_continuous_steps_match_direct_exponential():
    L = 6
    lat = P.lattice(L, "pbc-even")
    hmat = gaussian.continuous_hamiltonian(P.ModelParams(0.4, -0.15, 0.6, 0.2), lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", L), lat)
    t_grid = [0.0, 0.1, 0.35, 0.35, 0.6, 1.4, 1.45, 3.0]
    states = [gaussian.correlation_from_frame(f)
              for f in gaussian.evolve_continuous(frame, hmat, t_grid)]
    assert len(states) == len(t_grid)
    for t, cm in zip(t_grid, states):
        assert np.linalg.norm(cm.c - _direct_flow(frame, hmat, t)) < 1e-12


def test_continuous_frames_carry_the_frame_counters():
    # a non-Hermitian flow: each step is taken like a period, so norm_log
    # adds up to the log-norm of one exponential of the initial frame
    L = 6
    lat = P.lattice(L, "pbc-even")
    hmat = gaussian.continuous_hamiltonian(P.ModelParams(0.4, -0.15, 0.6, 0.2), lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", L), lat)
    t_grid = [0.0, 0.1, 0.35, 0.35, 0.6, 1.4, 1.45, 3.0]
    frames = gaussian.evolve_continuous(frame, hmat, t_grid)
    _, log_mag, _ = gaussian.orthonormalize(expm(-4j * t_grid[-1] * hmat) @ frame.phi)
    assert abs(log_mag) > 0.1
    assert frames[-1].norm_log == pytest.approx(log_mag, rel=1e-10)
    assert frames[-1].isotropy == frames[-1].isotropy_defect()
    assert [f.period_count for f in frames] == list(range(1, len(t_grid) + 1))
    assert {f.route for f in frames} == {"continuous"}


@pytest.mark.parametrize("t_grid", [[0.0, 0.5, 0.4], [-0.1, 0.2], [], [0.1, np.nan]])
def test_continuous_rejects_bad_time_grid(t_grid):
    lat = P.lattice(4, "obc")
    hmat = gaussian.continuous_hamiltonian(P.ModelParams(0.3, 0.0, 0.5, 0.0), lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 4), lat)
    with pytest.raises(ValidationError):
        gaussian.evolve_continuous(frame, hmat, t_grid)


@settings(max_examples=25)
@given(st.integers(2, 12), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_continuous_flow_invariants_random_couplings(L, bc, couplings):
    lat = P.lattice(L, bc)
    hmat = gaussian.continuous_hamiltonian(P.ModelParams(*couplings), lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", L), lat)
    la = L // 2
    idx = P.SubsystemSpec(1, la).majorana_indices(lat)
    for cm in map(gaussian.correlation_from_frame,
                  gaussian.evolve_continuous(frame, hmat, np.linspace(0.0, 2.0, 5))):
        assert cm.anticommutation_defect() <= 1e-10
        assert cm.purity_defect() <= 1e-10
        s_a = entanglement.entropy_from_majorana_block(cm.c[np.ix_(idx, idx)]).entropy
        assert -1e-10 <= s_a <= la * np.log(2) + 1e-10


def test_area_phase_trace_rises_then_saturates():
    p = P.make_params(0.2, -0.2, 0.2, 0.1)  # area-law interior point
    lat = P.lattice(60, "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", 60), n_periods=120)
    trace = gaussian.stroboscopic_run(p, lat, quench, P.SubsystemSpec(1, 6))
    steady = trace.steady_state(tail=20)
    assert np.max(trace.entropy) >= steady - 1e-9
    assert np.max(trace.entropy[:10]) > 0.5 * steady
    drift = abs(np.mean(trace.entropy[-10:]) - np.mean(trace.entropy[-30:-20]))
    assert drift < 0.01 * max(steady, 1.0)
