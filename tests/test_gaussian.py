import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.linalg
from scipy.linalg import expm

from floquet_ising import ed, entanglement, gaussian, params as P, spectral
from floquet_ising.errors import (DegenerateEvolution, NumericalBreakdown, PurityViolation,
                                  UnsupportedStateError, ValidationError)
from oracles import (anticommutation_defect, cprime, majorana_correlation_dense,
                     purity_defect, xx_expectations)


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
    assert anticommutation_defect(corr.c) < 1e-12
    assert purity_defect(corr.c) < 1e-12
    # 2x2 on-site antisymmetric blocks +-i
    assert cprime(corr.c)[0, 1] == pytest.approx(-1j)
    assert cprime(corr.c)[1, 0] == pytest.approx(1j)


def test_neel_frame_alternating_z():
    lat = P.lattice(6, "obc")
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 6), lat)
    z = gaussian.correlation_from_frame(frame).z_expectations()
    assert np.allclose(z, [-1, 1, -1, 1, -1, 1])


def test_all_down_is_sitewise_flip_of_all_up():
    lat = P.lattice(3, "obc")
    up = cprime(gaussian.correlation_from_frame(
        gaussian.initial_frame(P.named_state("all-up", 3), lat)).c)
    down = cprime(gaussian.correlation_from_frame(
        gaussian.initial_frame(P.named_state("all-down", 3), lat)).c)
    assert np.allclose(down, -up)


def test_x_state_rejected():
    with pytest.raises(UnsupportedStateError):
        gaussian.initial_frame(P.named_state("x-down", 4), P.lattice(4, "obc"))


def test_state_of_another_length_rejected():
    with pytest.raises(ValidationError, match="state has 6 sites, lattice 8"):
        gaussian.initial_frame(P.named_state("all-up", 6), P.lattice(8, "obc"))


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
    assert purity_defect(corr.c) < 1e-8
    assert anticommutation_defect(corr.c) < 1e-10


def test_rank_collapse_raises():
    # overwhelming damping annihilates the Neel state's surviving amplitude
    p = P.ModelParams(0.0, 0.0, 0.0, 25.0)
    lat = P.lattice(4, "obc")
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 4), lat)
    with pytest.raises(DegenerateEvolution):
        for _ in range(10):
            frame = gaussian.period_map(frame, kicks)
    # the direct steady state finds the + sector's Schur form singular and
    # leaves the frame to the loop, which raises the same
    quench = P.QuenchConfig(P.named_state("neel-fermion", 4), n_periods=10)
    with pytest.raises(DegenerateEvolution):
        gaussian.run_to_steady_state(p, lat, quench)


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
    c_dense = majorana_correlation_dense(psi, L)
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
    xx_frame = xx_expectations(gaussian.correlation_from_frame(frame).c, lat)
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
    trace = gaussian.stroboscopic_run(p, lat, quench, P.SubsystemSpec(1, 6))
    seen = [frame.isotropy_defect() for frame in gaussian.period_frames(p, lat, quench)]
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

    for frame in gaussian.period_frames(P.ModelParams(*couplings), lat, quench):
        check(frame)
    assert periods == list(range(1, n_periods + 1))


def test_stroboscopic_rejects_k_field():
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    quench = P.QuenchConfig(P.named_state("neel-fermion", 8), n_periods=5, K=0.1)
    with pytest.raises(ValidationError):
        gaussian.stroboscopic_run(p, P.lattice(8), quench, P.SubsystemSpec(1, 2))
    with pytest.raises(ValidationError):  # on the call, before the first frame
        gaussian.period_frames(p, P.lattice(8), quench)


def test_run_to_steady_state_rejects_k_field():
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    quench = P.QuenchConfig(P.named_state("neel-fermion", 8), n_periods=5, K=0.1)
    with pytest.raises(ValidationError):
        gaussian.run_to_steady_state(p, P.lattice(8), quench)


def test_period_frames_yield_every_period():
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    lat = P.lattice(10, "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", 10), n_periods=7)
    seen = list(gaussian.period_frames(p, lat, quench))
    assert [f.period_count for f in seen] == list(range(1, 8))
    # the trace is recorded from the same frames
    trace = gaussian.stroboscopic_run(p, lat, quench, P.SubsystemSpec(1, 3))
    assert np.array_equal(trace.periods, np.arange(1, 8))
    assert np.array_equal(trace.norm_log, [f.norm_log for f in seen])


@settings(max_examples=40)
@given(st.integers(2, 24), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.sampled_from(["neel-fermion", "all-up", "all-down"]),
       st.tuples(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
                 st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0)),
       st.integers(1, 30), st.integers(1, 20000), st.data())
def test_trace_is_the_serial_trace_for_any_worker_count_and_chunk(L, bc, state, couplings,
                                                                  n_periods, budget, data):
    # the entropies, taken after the loop from the recorded rows, chunk by
    # chunk (a budget of 1 byte flushes every period) on one or two
    # processes, equal bit for bit the entropy of each frame's
    # block, as a serial run takes them; so do the norm and purity columns
    lat = P.lattice(L, bc)
    start = data.draw(st.integers(1, L))
    sub = P.SubsystemSpec(start, data.draw(st.integers(
        1, max(1, min(L - 1, L if lat.bc.periodic else L - start + 1)))))
    quench = P.QuenchConfig(P.named_state(state, L), n_periods=n_periods)
    p, idx = P.ModelParams(*couplings), sub.majorana_indices(lat)
    traces = []
    with unittest.mock.patch.object(gaussian, "_RECORD_BYTES", budget):
        for workers in (1, 2):
            try:
                traces.append(gaussian.stroboscopic_run(p, lat, quench, sub, workers=workers))
            except NumericalBreakdown as exc:
                traces.append(exc)
    if isinstance(traces[0], Exception):  # the same breakdown on either pool
        assert [(type(t), str(t)) for t in traces] == [(type(traces[0]), str(traces[0]))] * 2
        return
    frames = list(gaussian.period_frames(p, lat, quench))
    serial = [entanglement.entropy_from_majorana_block(
        gaussian.correlation_block(f, idx)).entropy for f in frames]
    for trace in traces:
        assert trace.entropy.tolist() == serial
        assert trace.norm_log.tolist() == [f.norm_log for f in frames]
        assert trace.purity_residual.tolist() == [f.isotropy for f in frames]
        assert trace.periods.tolist() == list(range(1, n_periods + 1))


def _raise_from_a_failing_entropy(monkeypatch, workers, bad, stop, raised, held, stacked):
    # period `bad`'s entropy fails and the frame source raises after period
    # `stop`: a serial run meets whichever comes first, and the entropy of
    # a period before the source's next frame.  The failure is injected
    # where the stacked path takes its entropies, one call per chunk of
    # periods, on the one-cell stack; the run holds the rows of `held`
    # periods and stacks `stacked` of them into one call.
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    lat = P.lattice(12, "obc")
    quench = P.QuenchConfig(P.named_state("neel-fermion", 12), n_periods=8)
    sub = P.SubsystemSpec(1, 4)
    clean = gaussian.stroboscopic_run(p, lat, quench, sub).entropy
    entropy = entanglement.entropy_from_majorana_block

    def failing(blocks):
        report = entropy(blocks)
        if clean[bad - 1] in np.atleast_1d(report.entropy):
            raise PurityViolation(f"period {bad}")
        return report

    def source():
        for frame in gaussian.period_frames(p, lat, quench):
            yield frame
            if frame.period_count == stop:
                raise RuntimeError(f"source after {stop}")

    rows, block = 8 * 12 * 16, 8 * 8 * 16  # bytes a period holds and stacks
    monkeypatch.setattr(entanglement, "entropy_from_majorana_block", failing)
    monkeypatch.setattr(gaussian, "_RECORD_BYTES", held * rows)
    monkeypatch.setattr(gaussian, "_STACK_BYTES", stacked * (rows + block))
    with pytest.raises(raised, match=f"period {bad}" if raised is PurityViolation
                       else f"source after {stop}"):
        gaussian.entropy_trace(source(), sub, lat, workers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad, stop, raised", [(3, 5, PurityViolation), (5, 5, PurityViolation),
                                               (6, 5, RuntimeError), (3, None, PurityViolation)])
def test_trace_raises_what_a_serial_run_raises_first(monkeypatch, workers, bad, stop, raised):
    # two-period chunks, one per hold of the rows
    _raise_from_a_failing_entropy(monkeypatch, workers, bad, stop, raised, 2, 2)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad, stop, raised", [(5, None, PurityViolation), (2, 6, PurityViolation),
                                               (5, 6, PurityViolation), (5, 4, RuntimeError)])
def test_trace_raises_a_failing_entropy_from_mid_chunk(monkeypatch, workers, bad, stop, raised):
    # every period held, then stacked three at a time: chunks 1-3, 4-6 and
    # 7-8, the second of them on the forked worker of a two-process pool;
    # periods 2 and 5 sit mid-chunk
    _raise_from_a_failing_entropy(monkeypatch, workers, bad, stop, raised, 8, 3)


def test_trace_takes_each_entropy_once_when_one_fails(monkeypatch):
    # four periods held, one per entropy call, the second call failing:
    # the failure leaves no rows held, so the source's frames are not
    # evaluated again on the way out, and two calls are made, not six
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    lat = P.lattice(12, "obc")
    quench = P.QuenchConfig(P.named_state("neel-fermion", 12), n_periods=8)
    calls, entropy = [], entanglement.entropy_from_majorana_block

    def failing(blocks):
        calls.append(len(blocks))
        if len(calls) == 2:
            raise PurityViolation("second call")
        return entropy(blocks)

    rows, block = 8 * 12 * 16, 8 * 8 * 16  # bytes a period holds and stacks
    monkeypatch.setattr(entanglement, "entropy_from_majorana_block", failing)
    monkeypatch.setattr(gaussian, "_RECORD_BYTES", 4 * rows)
    monkeypatch.setattr(gaussian, "_STACK_BYTES", rows + block)
    with pytest.raises(PurityViolation, match="second call"):
        gaussian.entropy_trace(gaussian.period_frames(p, lat, quench), P.SubsystemSpec(1, 4), lat)
    assert calls == [1, 1]


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
    # and 8.5e-14; the L/L split with the edge pair swapped takes both
    ((1.336498736946278, -0.4050314463735682, 1.715984568067877, 0.3917689750388441),
     11, "obc", 319, "all-down"),
    ((-1.7056810533761728, -0.39470136260284566, -1.3424830854838075, -0.9621410710147132),
     16, "obc", 286, "all-up"),
    # 0pi open chains near alpha_J = 1.5 rad, whose 0 and pi edge pairs both
    # sit at the L/L cut (gap ~1e-15): which land above it is rounding, and
    # the one- and two-Schur forms may disagree on the route; the loop rules
    ((1.5, 0.0625, 1.0, 0.0625), 14, "obc", 1, "all-down"),
    ((1.875, 0.0625, 1.0, 0.75), 28, "obc", 2, "neel-fermion"),
    ((1.875, 0.0625, 1.0, 0.75), 28, "obc", 2, "all-up"),
    ((1.875, 0.0625, 1.0, 0.75), 28, "obc", 2, "all-down"),
])
def test_direct_steady_state_edge_cases_equal_loop_or_fall_back(couplings, L, bc,
                                                                n_periods, state):
    _assert_equal_or_fell_back(*_direct_and_loop(P.ModelParams(*couplings), P.lattice(L, bc),
                                                 n_periods, state))


@pytest.mark.parametrize("couplings, L, bc, n_periods", [
    # F = 1: every one-site block has the double mode 1 and no eigenbasis
    ((0.0, 0.0, 0.0, 0.0), 24, "pbc-even", 300),
])
def test_direct_steady_state_falls_back_to_loop(couplings, L, bc, n_periods):
    direct, loop = _direct_and_loop(P.make_params(*couplings), P.lattice(L, bc), n_periods)
    assert (direct.route, loop.route) == ("momentum", "loop")
    c_direct, c_loop = (gaussian.correlation_from_frame(f).c for f in (direct, loop))
    assert np.max(np.abs(c_direct - c_loop)) <= 1e-10
    # F = 1 keeps the norm: both norm_logs are 0 up to rounding
    assert abs(direct.norm_log) <= 1e-10 and abs(loop.norm_log) <= 1e-10
    assert direct.isotropy == direct.isotropy_defect() < 1e-13


@pytest.mark.parametrize("couplings, L, bc, n_periods", [
    ((0.0, 0.4, 0.0, 0.4), 100, "pbc-even", 900),   # criterion-8 chord fit
    ((0.2, -0.05, 0.2, -0.3), 48, "obc", 300),      # deep trivial TEE point
    # Neel has no component on the growing edge-pair member (sigma_min(a)
    # ~ 1e-14 at the L/L cut); the L/L split with the pair swapped carries it
    ((0.2, -0.40, 0.2, -0.3), 24, "obc", 300),
    # two periods: far from the dominant subspace, yet the L/L split is exact
    ((0.0, 0.4, 0.0, 0.4), 24, "pbc-even", 2),
])
def test_direct_steady_state_taken_where_converged(couplings, L, bc, n_periods):
    direct, loop = _direct_and_loop(P.make_params(*couplings), P.lattice(L, bc), n_periods)
    assert direct.route == "schur"
    _assert_same_steady_state(direct, loop)


def _assert_direct_with_growing(couplings, L, bc, n_periods, growing):
    """The + sector block holds `growing` of the L growing modes of the
    frame map, and the Neel frame goes direct and equals the loop's."""
    p, lat = P.ModelParams(*couplings), P.lattice(L, bc)
    b_plus = spectral.build_kick_forms(p, lat).step(spectral.sector_basis(2 * L), -1.0)[:L]
    assert np.count_nonzero(np.abs(np.linalg.eigvals(b_plus)) > 1) == growing
    direct, loop = _direct_and_loop(p, lat, n_periods)
    assert direct.route == "schur"
    _assert_same_steady_state(direct, loop)


@pytest.mark.parametrize("couplings, L, bc, n_periods", [
    ((0.8778688504940382, 0.7546823999937643, -2.5667088121861585, -0.5323836244853325),
     22, "obc", 185),
    ((3.0722272157111794, -0.20220143216495234, 0.707107188044112, -0.0917449075633142),
     18, "pbc-odd", 161),
])
def test_direct_steady_state_with_unequal_sectors(couplings, L, bc, n_periods):
    # sector + holds 10 of the L growing modes of the frame map, so the
    # L/L cut runs across the two sector Schur forms, not between them
    _assert_direct_with_growing(couplings, L, bc, n_periods, 10)


@pytest.mark.parametrize("couplings, bc, growing", [
    ((2.453440666761767, 0.28014137795361466, 0.7008593962001455, 0.14652223051808128),
     "obc", 0),
    ((-0.36316109977612543, -0.1981231517666367, 2.6308161415258295, -0.1769248176267006),
     "pbc-odd", 2),
])
def test_direct_steady_state_with_an_empty_sector_block(couplings, bc, growing):
    # every growing mode in one sector: the + sector's top block (none
    # growing) or its bottom block (all growing) is empty
    _assert_direct_with_growing(couplings, 2, bc, 200, growing)


def _sector_blocks(kicks):
    """The frame map's two L x L reflection-sector blocks B_+ and B_-:
    F U = U B_+ and F conj(U) = conj(U) B_-, U the ``sector_basis``."""
    u = spectral.sector_basis(len(kicks.field[0]))
    return [kicks.step(x, -1.0)[:len(x) // 2] for x in (u, u.conj())]


def _two_schur_form(kicks):
    """The frame map's Schur form T = diag(T_+, T_-), Q = [U Q_+, conj(U)
    Q_-] / sqrt(2) from a Schur form of each sector block on its own: the
    reference for the one-``schur`` form of ``_dominant_frame``."""
    u = spectral.sector_basis(len(kicks.field[0]))
    (t1, q1), (t2, q2) = (scipy.linalg.schur(b, output="complex") for b in _sector_blocks(kicks))
    return (scipy.linalg.block_diag(t1, t2),
            np.hstack([u @ q1, u.conj() @ q2]) / np.sqrt(2.0))


def _reference_sylvester(a, b, c):
    """X with a X - X b = -c for upper-triangular a and b, or None: where
    they share a mode, ``ztrsyl``'s perturbed solution is kept if it solves
    the equation to 1e-12.  A mode of both sectors of the 2L x 2L form
    (mu = 1 in each) meets no coupling between the two, so a solution
    exists there."""
    if not (a.size and b.size):
        return np.zeros(c.shape, dtype=complex)
    x, scale, info = scipy.linalg.lapack.ztrsyl(a, b, -c, isgn=-1)
    x = x / scale
    if info == 0 or np.linalg.norm(a @ x - x @ b + c) <= 1e-12 * max(np.linalg.norm(c), 1.0):
        return x
    return None


def _reference_decouple(t, q, c, pick):
    """One Schur form T, Q reordered into c modes on top and the rest, with
    the Sylvester solution x that decouples the two, or None where the
    split's rule fails or the reorder or solve fails.  With ``pick`` None
    the top is the c modes of largest |mu|, a gap below them (the L/L
    split); with ``pick`` 1 (0) it is the c - 1 largest and the (c+1)-th
    (c-th), the c-th and (c+1)-th isolated by _ISOLATION_TOL in log|mu| from
    their neighbours: the L/L split with that pair swapped across the cut
    (either way where it ties, so that the cut has no gap)."""
    log_mu = np.log(np.abs(np.diag(t)))
    order = np.argsort(-log_mu, kind="stable")
    s = log_mu[order]
    if pick is None:
        if not s[c - 1] > s[c]:
            return None
    elif min(s[c - 2] - s[c - 1], s[c] - s[c + 1]) > gaussian._ISOLATION_TOL:
        order = np.append(order[:c - 1], order[c - 1 + pick])
    else:
        return None
    select = np.isin(np.arange(len(t)), order[:c])
    t, q, _, _, _, _, info = scipy.linalg.lapack.ztrsen(select, t, q, job="N")
    if info != 0:
        return None
    x = _reference_sylvester(t[:c, :c], t[c:, c:], t[:c, c:])
    return None if x is None else (t, q, x)


def _reference_split(t, q, phi0, n, pick=None):
    """The generic split of a stack of full Schur forms (here the one-cell
    frame map's 2L x 2L T = diag(T_+, T_-)) into c modes on top, c the
    frame's columns, and the rest (``_reference_decouple``'s ``pick``),
    under the same gates: the reference for ``gaussian._sector_split``."""
    c = phi0.shape[-1]
    parts = [_reference_decouple(ti, qi, c, pick) for ti, qi in zip(t, q)]
    if any(part is None for part in parts):
        return None
    t, q, x = map(np.stack, zip(*parts))
    t1, t2 = t[:, :c, :c], t[:, c:, c:]
    log_mu = np.log(np.abs(np.diagonal(t, axis1=-2, axis2=-1)))
    # the loop's rounding on a bottom mode, amplified against the top modes
    growth = n * np.maximum(0.0, log_mu[:, c:].max(-1) - log_mu[:, :c].min(-1))
    if not np.all(growth < np.log(gaussian._ROUNDING_TOL / np.finfo(float).eps)):
        return None
    hc = gaussian._hc
    y = hc(q) @ phi0
    z = np.concatenate([y[:, :c] - x @ y[:, c:], y[:, c:]], axis=1)
    qz, rz = np.linalg.qr(hc(z[:, :c]))  # z1 = rz^dag qz^dag
    sv = np.linalg.svd(rz, compute_uv=False)
    if not np.all(sv[:, -1] > gaussian._OVERLAP_TOL * np.maximum(sv[:, 0], 1.0)):
        return None
    p1, log1 = gaussian._scaled_power(
        scipy.linalg.solve_triangular(t1, np.broadcast_to(np.eye(c), t1.shape)), n)
    p2, log2 = gaussian._scaled_power(t2, n)
    zg = hc(scipy.linalg.solve_triangular(rz, hc(z[:, c:] @ qz)))  # z2 z1^-1
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(log2 + log1)[:, None, None] * (p2 @ zg @ p1)
    if not (np.all(np.isfinite(e)) and np.abs(e).max() <= 1.0):
        return None
    coords = np.concatenate([np.broadcast_to(np.eye(c), (len(t), c, c)),
                             gaussian._flush(e)], axis=1)
    coords[:, :c] += x @ coords[:, c:]
    log_scale = n * np.sum(log_mu[:, :c]) + np.sum(np.log(sv))
    return q @ gaussian._flush(coords), float(log_scale)


def _two_schur_frame(kicks, frame, n):
    """``_dominant_frame`` as it was with a second ``schur`` for B_- and the
    generic split of the 2L x 2L form: the L/L split, then the L/L split
    with the edge pair straddling it swapped, in either order where its
    two members tie."""
    t, q = _two_schur_form(kicks)
    for pick in (None, 1, 0):
        found = _reference_split(t[None], q[None], frame.blocks, n, pick)
        if found is not None:
            return gaussian._advance(frame, found[0], "schur", n, found[1])
    return None


def _cut_split_hits(p, lat, n_periods):
    """Whether the L/L split (no pair swapped) certifies the n-period Neel
    frame, from the two-``schur`` reference form."""
    t, q = _two_schur_form(spectral.build_kick_forms(p, lat))
    phi0 = gaussian.initial_frame(P.named_state("neel-fermion", lat.L), lat).blocks[0]
    return _reference_split(t[None], q[None], phi0[None], n_periods) is not None


def test_tee_row_steady_states_all_direct():
    """The steady-final TEE row at L = 24 and 32: every point takes the
    direct route and equals the dense loop.  The row needs both splits: 7
    points miss the L/L split on overlap, which no run length cures, and
    the L/L split with the edge pair swapped carries them.  The L/L split
    needs no convergence: at L = 32, beta_J = -0.32 it takes the 300-period
    frame, still 3.8e-10 from the dominant span."""
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


def _split_spy(monkeypatch):
    """The (top size, hit) of each ``_sector_split`` call."""
    calls, split = [], gaussian._sector_split

    def spy(t, t_inv, y, n, k):
        found = split(t, t_inv, y, n, k)
        calls.append((int(k), found is not None))
        return found

    monkeypatch.setattr(gaussian, "_sector_split", spy)
    return calls


def test_swapped_split_carries_the_edge_pair(monkeypatch):
    # the Neel frame has no weight on the growing edge-pair member: the L/L
    # split misses, and the same order's other top size (mu_0 and 1/mu_0
    # swapped across the cut) takes the frame, equal to the loop's
    calls = _split_spy(monkeypatch)
    p, lat = P.make_params(0.2, -0.40, 0.2, -0.3), P.lattice(24, "obc")
    direct, loop = _direct_and_loop(p, lat, 300)
    assert direct.route == "schur"
    assert [hit for _, hit in calls] == [False, True] and abs(calls[0][0] - calls[1][0]) == 1
    _assert_same_steady_state(direct, loop)


# the seed-0 TEE grid points that loop at 3000 periods: 2n |log|mu_0|| is
# past log(_ROUNDING_TOL / eps) ~ 8.4 on their swapped split
_GROWTH_GATED = [(24, -0.40), (24, -0.38), (24, -0.36), (32, -0.36), (32, -0.34),
                 (48, -0.34), (64, -0.32)]


def test_tee_grid_swapped_splits_past_the_growth_gate_loop(monkeypatch):
    # at 3000 periods the 37 other points of the grid go direct; these 7
    # take the swapped split only with the growth gate lifted
    missed = []
    for L in (24, 32, 48, 64):
        lat = P.lattice(L, "obc")
        frame = gaussian.initial_frame(P.named_state("neel-fermion", L), lat)
        for bj in np.linspace(-0.40, -0.20, 11):
            kicks = spectral.build_kick_forms(P.make_params(0.2, bj, 0.2, -0.3), lat)
            if gaussian._dominant_frame(kicks, frame, 3000) is None:
                missed.append((L, round(float(bj), 2)))
                calls = _split_spy(monkeypatch)
                monkeypatch.setattr(gaussian, "_ROUNDING_TOL", np.inf)
                assert gaussian._dominant_frame(kicks, frame, 3000) is not None
                assert [hit for _, hit in calls] == [False, True]
                monkeypatch.undo()
    assert missed == _GROWTH_GATED


@settings(max_examples=60)
@given(st.integers(2, 70), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.tuples(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
                 st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0)))
def test_sector_blocks_are_inverse_transposes(L, bc, couplings):
    # F^T F = 1, U^T U = 0 and U^dag U = 2 give B_-^T B_+ = 1, from which
    # _dominant_frame writes the - sector's Schur form
    b_plus, b_minus = _sector_blocks(spectral.build_kick_forms(P.ModelParams(*couplings),
                                                               P.lattice(L, bc)))
    assert (np.linalg.norm(b_minus.T @ b_plus - np.eye(L))
            <= 1e-12 * np.linalg.norm(b_plus) * np.linalg.norm(b_minus))


def _assert_same_as_two_schur(p, lat, n_periods, state="neel-fermion"):
    """The direct frame has the two-``schur`` reference's route and, where
    both go direct, its C and norm_log to 1e-10."""
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(P.named_state(state, lat.L), lat)
    found, ref = (fn(kicks, frame, n_periods)
                  for fn in (gaussian._dominant_frame, _two_schur_frame))
    assert (found is None) == (ref is None)
    if found is not None:
        c_found, c_ref = (gaussian.correlation_from_frame(f).c for f in (found, ref))
        assert np.max(np.abs(c_found - c_ref)) <= 1e-10
        assert abs(found.norm_log - ref.norm_log) <= 1e-10 * abs(ref.norm_log)
    return found


def test_one_schur_frames_equal_two_schur_frames_on_the_tee_grid():
    # the 44 points of the seed-0 steady-final TEE grid: all direct
    for L in (24, 32, 48, 64):
        for bj in np.linspace(-0.40, -0.20, 11):
            found = _assert_same_as_two_schur(P.make_params(0.2, bj, 0.2, -0.3),
                                              P.lattice(L, "obc"), 300)
            assert found is not None


@settings(max_examples=60)
@given(st.integers(2, 40), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.tuples(st.floats(-np.pi, np.pi), _NONUNITARY_BETA,
                 st.floats(-np.pi, np.pi), _NONUNITARY_BETA),
       st.integers(1, 400), st.sampled_from(["neel-fermion", "all-up", "all-down"]))
# mu = 1 in both sectors: the swapped split's top and bottom share it, and the
# reference's 2L x 2L Sylvester equation is singular yet solved
@example(2, "pbc-odd", (0.0, 1.0, 0.0, 1.0), 1, "neel-fermion")
# the straddling pair ties in the reference's |mu| (a cut without a gap)
@example(2, "pbc-odd", (0.8359375, 0.5, 0.5, 0.5), 1, "all-down")
@example(2, "pbc-odd", (1.0, 0.0625, 1.0, 0.0625), 1, "all-down")
def test_one_schur_frames_equal_two_schur_frames_random_couplings(L, bc, couplings,
                                                                  n_periods, state):
    _assert_same_as_two_schur(P.ModelParams(*couplings), P.lattice(L, bc), n_periods, state)


@pytest.mark.parametrize("couplings, L, bc, route", [
    ((0.2, -0.3, 0.2, -0.3), 24, "obc", "schur"),
    ((0.2, -0.05, 0.2, -0.3), 48, "obc", "schur"),
    ((0.45, -0.35, 0.3, 0.25), 10, "pbc-odd", "schur"),
    ((0.2, -0.1, 0.2, 0.1), 24, "obc", "loop"),     # volume law: no L/L split
    ((0.2, -0.3, 0.2, -0.3), 64, "obc", "schur"),   # the largest L of the TEE grid
])
def test_one_cell_direct_frame_takes_one_schur(monkeypatch, couplings, L, bc, route):
    # one L x L Schur form and one reorder of it, hit or miss: the - sector
    # is derived from the + sector, and the swapped split reuses the L/L
    # split's order; nothing larger than L x L reaches LAPACK
    calls, sizes = [], []

    def spy(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            sizes.extend((name, a.shape) for a in args if np.ndim(a) == 2)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(scipy.linalg, "schur", spy("schur", scipy.linalg.schur))
    for name in ("ztrsen", "ztrsyl", "ztrtri"):
        monkeypatch.setattr(scipy.linalg.lapack, name, spy(name, getattr(scipy.linalg.lapack, name)))
    monkeypatch.setattr(scipy.linalg, "block_diag", spy("block_diag", scipy.linalg.block_diag))
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=300)
    frame = gaussian.run_to_steady_state(P.make_params(*couplings), P.lattice(L, bc), quench)
    assert (frame.route, calls.count("schur"), calls.count("ztrsen")) == (route, 1, 1)
    assert "block_diag" not in calls
    assert max(max(shape) for _, shape in sizes) <= L
    assert ("ztrsen", (L, L)) in sizes  # the reorder of the whole + sector form


# --------------------------------------------------------------------------
# momentum route
# --------------------------------------------------------------------------

def _momentum_and_dense(p, lat, quench, subsystem):
    """stroboscopic_run, the frames of its loop, and the dense frames."""
    trace = gaussian.stroboscopic_run(p, lat, quench, subsystem)
    return trace, list(gaussian.period_frames(p, lat, quench)), _dense_frames(p, lat, quench)


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


class _Draws:
    """Fixed draws in place of ``st.data()`` in an ``@example``."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


@settings(max_examples=40)
@given(st.integers(1, 10), st.sampled_from(["neel-fermion", "all-up", "all-down"]),
       st.tuples(st.floats(-np.pi, np.pi), _NONUNITARY_BETA,
                 st.floats(-np.pi, np.pi), _NONUNITARY_BETA),
       st.integers(1, 60), st.data())
@example(6, "neel-fermion", (0.0, 0.0, 0.0, 0.5 * np.pi / 4), 60, _Draws(1, 6))
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


@pytest.mark.parametrize("beta_h, n_periods", [(0.5, 60), (0.5, 300), (0.1, 300)])
def test_field_only_momentum_loop_keeps_the_dense_loop(beta_h, n_periods):
    # J = 0: t_k = t_{k+pi} exactly, and the Neel frame has no weight on the
    # growing modes.  The cell blocks' sum/difference form leaves F_q's
    # off-diagonal blocks exactly 0; products through V_q left ~1e-16 there,
    # which those modes grew until C was 2.0 off the dense loop's
    L = 24
    lat = P.lattice(L, "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=n_periods)
    sub = P.SubsystemSpec(1, 6)
    trace, frames, dense = _momentum_and_dense(P.make_params(0.0, 0.0, 0.0, beta_h),
                                               lat, quench, sub)
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
    frames = list(gaussian.period_frames(p, lat, quench))
    dense = _dense_frames(p, lat, quench)
    assert {f.route for f in frames} == {"loop"}
    assert np.array_equal(frames[-1].phi, dense[-1].phi)


def test_momentum_route_raises_on_rank_loss():
    # overwhelming damping annihilates the Neel state's surviving amplitude
    p = P.ModelParams(0.0, 0.0, 0.0, 25.0)
    lat = P.lattice(8, "pbc-even")
    frame = gaussian.GaussianFrame.from_dense(
        gaussian.initial_frame(P.named_state("neel-fermion", 8), lat), lat)
    fq = _engine_frame_map(p, frame)
    with pytest.raises(DegenerateEvolution):
        gaussian.orthonormalize(fq @ frame.blocks, partner=frame.partner)
    quench = P.QuenchConfig(P.named_state("neel-fermion", 8), n_periods=10)
    with pytest.raises(DegenerateEvolution):
        list(gaussian.period_frames(p, lat, quench))


# --------------------------------------------------------------------------
# direct momentum frames
# --------------------------------------------------------------------------

def _mp_block_frame(f, phi, n, dps=50, budget=30):
    """F^n phi for one 4x4 block F and 4x2 block phi at ``dps`` digits,
    orthonormalized by Gram-Schmidt: the block rounded to double and the
    log-magnitude it dropped, log |det R|.  The frame is stepped by G = F^k,
    k as large as keeps |mu_max / mu_min|^k within 10^budget, so that every
    mode survives each step with dps - budget digits; no spectral split."""
    mpmath = pytest.importorskip("mpmath")
    log_mu = np.log(np.abs(np.linalg.eigvals(f)))
    k = min(n, max(1, int(budget * np.log(10) / max(np.ptp(log_mu), 1e-300))))
    with mpmath.workdps(dps):
        fm, q, log_r = mpmath.matrix(f.tolist()), mpmath.matrix(phi.tolist()), mpmath.mpf(0)
        g = fm ** k
        steps, rest = divmod(n, k)
        for m in [g] * steps + ([fm ** rest] if rest else []):
            m = m * q
            cols = []
            for j in range(m.cols):
                v = m.column(j)
                for e in cols:
                    v -= e * (e.H * v)[0]
                r = mpmath.norm(v)
                log_r += mpmath.log(r)
                cols.append(v / r)
            q = mpmath.matrix([[e[i] for e in cols] for i in range(m.rows)])
        return np.array(q.tolist(), dtype=complex), float(log_r)


def _engine_frame_map(p, frame):
    """The 4x4 blocks F_q = V_q diag(t_k, t_{k+pi}) V_q^dag that the
    momentum loop steps ``frame`` with."""
    blocks, _ = gaussian._bloch_stack(p, frame.momenta)
    return gaussian._cell_blocks(frame.momenta, blocks.period(-1.0))


def _dense_frame_map_blocks(p, lat, q):
    """U_q^dag F U_q of the dense annihilator-frame map F, the bond-by-bond
    kicks of the whole chain applied to the identity, at every momentum q:
    the momentum blocks without the one-site builder."""
    f = spectral.build_kick_forms(p, lat).step(np.eye(lat.n_majorana, dtype=complex), -1.0)
    n = lat.L // 2
    u = np.stack([np.kron(np.exp(1j * qi * np.arange(n))[:, None], np.eye(4))
                  for qi in q]) / np.sqrt(n)
    return gaussian._hc(u) @ f @ u


def _block_oracle(p, lat, quench):
    """The n-period momentum stack of ``quench`` at 50 digits, block by block."""
    frame = gaussian.GaussianFrame.from_dense(gaussian.initial_frame(quench, lat), lat)
    fq = _dense_frame_map_blocks(p, lat, frame.momenta)
    blocks, logs = zip(*(_mp_block_frame(f, phi, quench.n_periods)
                         for f, phi in zip(fq, frame.blocks)))
    return gaussian.GaussianFrame(np.stack(blocks), frame.momenta, frame.partner,
                                  quench.n_periods, float(sum(logs)))


def _assert_direct_matches_oracle(p, lat, quench):
    direct, oracle = gaussian.run_to_steady_state(p, lat, quench), _block_oracle(p, lat, quench)
    assert (direct.route, len(direct.blocks)) == ("schur", lat.L // 2)
    c_direct, c_oracle = (gaussian.correlation_from_frame(f).c for f in (direct, oracle))
    assert np.max(np.abs(c_direct - c_oracle)) <= 1e-10
    assert abs(direct.norm_log - oracle.norm_log) <= 1e-10 * abs(oracle.norm_log)
    assert direct.isotropy == direct.isotropy_defect() < 1e-13
    assert direct.period_count == quench.n_periods


@settings(max_examples=12)
@given(st.integers(1, 12), st.sampled_from(["neel-fermion", "all-up", "all-down"]),
       st.tuples(st.floats(-np.pi, np.pi), _NONUNITARY_BETA,
                 st.floats(-np.pi, np.pi), _NONUNITARY_BETA),
       st.integers(1, 3000))
def test_direct_momentum_frame_matches_block_oracle(cells, state, couplings, n_periods):
    # where a block's split misses a gate the momentum loop runs instead
    L = 4 * cells
    p, lat = P.ModelParams(*couplings), P.lattice(L, "pbc-even")
    quench = P.QuenchConfig(P.named_state(state, L), n_periods=n_periods)
    if gaussian.run_to_steady_state(p, lat, quench).route == "schur":
        _assert_direct_matches_oracle(p, lat, quench)


@pytest.mark.parametrize("eta, n_periods", [
    (0.2, 1400), (0.4, 900),   # the seed-0 chord fits of the benchmark
    (0.05, 4500),              # criterion 8's longest run
])
def test_direct_momentum_frame_matches_block_oracle_on_chord_fits(eta, n_periods):
    L = 100
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=n_periods)
    _assert_direct_matches_oracle(P.make_params(0.0, eta, 0.0, eta),
                                  P.lattice(L, "pbc-even"), quench)


def _product_frame_map(v, t):
    """F_q = V_q diag(t_k, t_{k+pi}) V_q^dag by products through V_q, as
    defined, apart from the engine's sum/difference form (``_cell_blocks``)."""
    v1, v2 = v[..., :2], v[..., 2:]
    return v1 @ t[:, 0] @ gaussian._hc(v1) + v2 @ t[:, 1] @ gaussian._hc(v2)


def _schur_reference_frame(fq, frame, n):
    """The momentum stack's direct frame from the generic L/L split
    (``_reference_split``, no pair swapped) of a ``scipy.linalg.schur``
    form of each 4x4 block: the reference for ``gaussian._bloch_frame``."""
    t, q = map(np.stack, zip(*(scipy.linalg.schur(f, output="complex") for f in fq)))
    found = _reference_split(t, q, frame.blocks, n)
    return None if found is None else gaussian._advance(frame, found[0], "schur", n, found[1])


@settings(max_examples=40)
@given(st.integers(1, 25), st.sampled_from(["neel-fermion", "all-up", "all-down"]),
       st.tuples(st.floats(-np.pi, np.pi), _NONUNITARY_BETA,
                 st.floats(-np.pi, np.pi), _NONUNITARY_BETA),
       st.integers(1, 3000))
def test_bloch_frames_equal_the_schur_split_random_couplings(cells, state, couplings,
                                                             n_periods):
    L = 4 * cells
    lat = P.lattice(L, "pbc-even")
    frame = gaussian.GaussianFrame.from_dense(
        gaussian.initial_frame(P.named_state(state, L), lat), lat)
    blocks, v = gaussian._bloch_stack(P.ModelParams(*couplings), frame.momenta)
    t = blocks.period(-1.0)
    found = gaussian._bloch_frame(t, v, frame, n_periods)
    ref = _schur_reference_frame(_product_frame_map(v, t), frame, n_periods)
    # the pivot finds a frame wherever the 4x4 Schur split does, and more
    if ref is not None:
        assert found is not None
        c_found, c_ref = (gaussian.correlation_from_frame(f).c for f in (found, ref))
        assert np.max(np.abs(c_found - c_ref)) <= 1e-12
        assert abs(found.norm_log - ref.norm_log) <= 1e-12 * abs(ref.norm_log)


def test_direct_momentum_frame_matches_block_oracle_at_a_tie_across_sub_blocks():
    # alpha = pi/4: one 4x4 block has all four modes on the unit circle,
    # and its second and third |mu| tie exactly across the two sub-blocks.
    # The generic split of the 4x4 Schur form cannot cut between them and
    # misses; the pivot frame works in the eigenbasis and needs no cut.
    # The tie is exact in the blocks of the dense map (the engine's
    # V_q diag(t_k, t_{k+pi}) V_q^dag breaks it by one rounding)
    p, lat = P.make_params(1.0, -0.3, 1.0, 0.5), P.lattice(24, "pbc-even")
    quench = P.QuenchConfig(P.named_state("all-up", 24), n_periods=300)
    _assert_direct_matches_oracle(p, lat, quench)
    frame = gaussian.GaussianFrame.from_dense(gaussian.initial_frame(quench, lat), lat)
    assert _schur_reference_frame(_dense_frame_map_blocks(p, lat, frame.momenta), frame,
                                  300) is None


@pytest.mark.parametrize("overflow", [False, True])
def test_bloch_frame_misses_quietly(overflow):
    lat = P.lattice(8, "pbc-even")
    frame = gaussian.GaussianFrame.from_dense(
        gaussian.initial_frame(P.named_state("neel-fermion", 8), lat), lat)
    # t_k = t_{k+pi} = [[1, 1], [0, 1]] on every block: defective, no
    # eigenbasis (V_q = [[1, 1], [e^{ik}, -e^{ik}]] (x) 1 / sqrt(2), k = q/2)
    v = np.stack([np.kron([[1, 1], [np.exp(0.5j * q), -np.exp(0.5j * q)]], np.eye(2))
                  for q in frame.momenta]) / np.sqrt(2.0)
    t = np.tile([[1.0, 1.0], [0.0, 1.0]], (len(v), 2, 1, 1)).astype(complex)
    if overflow:  # the one-site blocks of a period that overflowed
        t[0, 0, 0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gaussian._bloch_frame(t, v, frame, 300) is None


def _no_dense_schur(*args):
    raise AssertionError("the dense Schur form was tried on a momentum-route chain")


def test_momentum_chain_takes_no_dense_schur(monkeypatch):
    # the direct frame comes from the 2x2 Bloch blocks: no Schur form,
    # reorder or Sylvester solve of any size
    calls = []

    def spy(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for module, name in ((scipy.linalg, "schur"), (scipy.linalg.lapack, "zgees"),
                         (scipy.linalg.lapack, "ztrsen"), (scipy.linalg.lapack, "ztrsyl")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    monkeypatch.setattr(gaussian, "_dominant_frame", _no_dense_schur)
    # the second chain has 100 momentum blocks and is read only at the end
    for L, couplings, n_periods in ((40, (0.0, 0.4, 0.0, 0.4), 300),
                                    (200, (0.0, 0.2, 0.0, 0.2), 3000)):
        quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=n_periods)
        frame = gaussian.run_to_steady_state(P.make_params(*couplings),
                                             P.lattice(L, "pbc-even"), quench)
        assert (frame.route, frame.blocks.shape) == ("schur", (L // 2, 4, 2))
    assert calls == []


def _assert_momentum_fallback(p, lat, quench):
    """No direct frame: the fallback is the momentum loop itself, bit for
    bit the last of ``period_frames``."""
    direct = gaussian.run_to_steady_state(p, lat, quench)
    *_, loop = gaussian.period_frames(p, lat, quench)
    assert direct.route == loop.route == "momentum"
    assert np.array_equal(direct.blocks, loop.blocks)
    assert (direct.norm_log, direct.isotropy, direct.period_count) == \
        (loop.norm_log, loop.isotropy, loop.period_count)


@pytest.mark.parametrize("couplings, L, n_periods", [
    # most blocks hold unit-circle pairs (mu, 1/mu): |mu_r| = |mu_c|, so the
    # entries of E do not decay with n, and the pivot keeps them at most 1
    pytest.param((0.2, -0.1, 0.2, 0.1), 24, 300, id="volume-law"),
    pytest.param((0.3, 0.0, 0.7, 0.0), 24, 300, id="unitary"),
    pytest.param((0.2, -0.1, 0.2, 0.1), 200, 60, id="strobe-trace"),
    # criterion 5's volume-law points
    pytest.param((0.2, -0.1, 0.2, 0.1), 200, 260, id="criterion-5-weak"),
    pytest.param((1.0, -0.3, 1.0, 0.5), 200, 260, id="criterion-5-strong"),
])
def test_momentum_chains_take_the_pivot_frame(monkeypatch, couplings, L, n_periods):
    monkeypatch.setattr(gaussian, "_dominant_frame", _no_dense_schur)
    p, lat = P.make_params(*couplings), P.lattice(L, "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=n_periods)
    direct = gaussian.run_to_steady_state(p, lat, quench)
    *_, loop = gaussian.period_frames(p, lat, quench)
    assert (direct.route, loop.route) == ("schur", "momentum")
    c_direct, c_loop = (gaussian.correlation_from_frame(f).c for f in (direct, loop))
    assert np.max(np.abs(c_direct - c_loop)) <= 1e-12
    # the loop's norm_log sums one QR term per period: a floor of one per
    # period keeps the unitary chain's (0 up to rounding) from setting the scale
    assert abs(direct.norm_log - loop.norm_log) <= 1e-12 * max(abs(loop.norm_log), n_periods)
    assert direct.isotropy == direct.isotropy_defect() < 1e-13
    assert direct.period_count == n_periods


@pytest.mark.parametrize("couplings", [
    (0.0, 0.0, 0.0, 0.0),  # F = 1: each t has the double mode 1 and no eigenbasis
    # no coupling: the Neel frame has no component on the growing modes,
    # so the largest volume lies on a pivot minor of rounding size
    (0.0, 0.0, 0.0, 0.5),
])
def test_momentum_chain_without_a_certified_frame_falls_back_to_the_loop(monkeypatch,
                                                                        couplings):
    monkeypatch.setattr(gaussian, "_dominant_frame", _no_dense_schur)
    quench = P.QuenchConfig(P.named_state("neel-fermion", 24), n_periods=300)
    _assert_momentum_fallback(P.make_params(*couplings), P.lattice(24, "pbc-even"), quench)


@settings(max_examples=40)
@given(st.integers(2, 12), st.sampled_from(["neel-fermion", "all-up", "all-down"]),
       st.tuples(st.floats(-np.pi, np.pi), _NONUNITARY_BETA,
                 st.floats(-np.pi, np.pi), _NONUNITARY_BETA),
       st.integers(1, 400), st.sampled_from(["free", "beta_J = -beta_h", "alpha = pi/4"]))
# the volume-law point at L = 24: most blocks hold unit-circle pairs
@example(6, "neel-fermion", (0.2 * P.PI4, -0.1 * P.PI4, 0.2 * P.PI4, 0.1 * P.PI4), 300, "free")
# alpha = pi/4: a block whose second and third |mu| tie across its two sub-blocks
@example(6, "all-up", (P.PI4, -0.3 * P.PI4, P.PI4, 0.5 * P.PI4), 300, "free")
# n (log|mu_max| - log|mu_min|) ~ 3170: D^n taken factor by factor would overflow
@example(2, "neel-fermion", (0.3, 1.0, 0.5, 1.0), 400, "free")
def test_pivot_frame_equals_the_momentum_loop(cells, state, couplings, n_periods, line):
    alpha_j, beta_j, alpha_h, beta_h = couplings
    if line == "beta_J = -beta_h":  # the pseudo-Hermitian volume-law line
        beta_j = -beta_h
    elif line == "alpha = pi/4":
        alpha_j = alpha_h = P.PI4
    L = 4 * cells
    p, lat = P.ModelParams(alpha_j, beta_j, alpha_h, beta_h), P.lattice(L, "pbc-even")
    quench = P.QuenchConfig(P.named_state(state, L), n_periods=n_periods)
    direct = gaussian.run_to_steady_state(p, lat, quench)
    *_, loop = gaussian.period_frames(p, lat, quench)
    # no misses: a finite t whose (LAPACK) eigenvectors pass the kappa gate
    # goes direct
    t = gaussian._bloch_stack(p, direct.momenta)[0].period(-1.0)
    if np.isfinite(t).all() and (np.linalg.cond(np.linalg.eig(t)[1]).max()
                                 <= 1.0 / gaussian._OVERLAP_TOL):
        assert direct.route == "schur"
    if direct.route == "schur":
        c_direct, c_loop = (gaussian.correlation_from_frame(f).c for f in (direct, loop))
        assert np.max(np.abs(c_direct - c_loop)) <= 1e-10
        assert abs(direct.norm_log - loop.norm_log) <= 1e-10 * abs(loop.norm_log)
        assert direct.period_count == loop.period_count
    else:
        assert np.array_equal(direct.blocks, loop.blocks)


def test_orthonormalize_pairs_blocks_with_their_partners(monkeypatch):
    # pbc-odd blocks at L = 8: q = 0 and q = pi pair with themselves,
    # q = pi/2 with q = 3pi/2
    rng = np.random.default_rng(5)
    lat = P.lattice(8, "pbc-odd")
    frame = gaussian.GaussianFrame.from_dense(
        gaussian.initial_frame(P.named_state("neel-fermion", 8), lat), lat)
    assert frame.partner.tolist() == [0, 3, 2, 1]
    fq = _engine_frame_map(P.ModelParams(0.4, -0.2, 0.7, 0.3), frame)
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


@settings(max_examples=60)
@given(st.integers(2, 24), st.sampled_from(["pbc-even", "pbc-odd"]),
       st.floats(-20.0, 30.0), st.integers(0, 2**32 - 1))
def test_closed_form_qr_matches_lapack_on_random_stacks(cells, bc, log_scale, seed):
    # Gram-Schmidt twice on each 4x2 block of a momentum stack spans what
    # LAPACK's QR spans and drops the same log|det R|, at any scale, with
    # the pbc-odd stacks' self-paired blocks (q = 0, and q = pi at even N)
    lat = P.lattice(2 * cells, bc)
    frame = gaussian.GaussianFrame.from_dense(
        gaussian.initial_frame(P.named_state("neel-fermion", 2 * cells), lat), lat)
    rng = np.random.default_rng(seed)
    phi = np.exp(log_scale) * (rng.normal(size=(cells, 4, 2)) + 1j * rng.normal(size=(cells, 4, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        q, rd = gaussian._qr(phi, frame.partner)
    ref_q, ref_r = np.linalg.qr(phi)
    proj = lambda x: np.conj(x) @ np.swapaxes(x, -1, -2)
    assert np.max(np.abs(proj(q) - proj(ref_q))) <= 1e-14
    ref_log = np.sum(np.log(np.abs(np.diagonal(ref_r, axis1=-2, axis2=-1))))
    assert abs(np.sum(np.log(rd)) - ref_log) <= 1e-13 * abs(ref_log)
    assert gaussian._orthonormality(q) <= 1e-14 * np.sqrt(cells)
    # S of each pair by the broadcast is the matmul's
    s, defect, _ = gaussian._isotropy(q, frame.partner)
    assert np.max(np.abs(s - np.swapaxes(q[frame.partner], -1, -2) @ q)) <= 1e-15
    # random blocks are far from isotropic: no correction allowed raises
    with unittest.mock.patch.object(gaussian, "_MAX_SWEEPS", 0), \
            pytest.raises(NumericalBreakdown) as err:
        gaussian.orthonormalize(phi, frame.partner)
    assert err.value.condition == defect > 1e-3
    # a block whose columns are parallel to 1e-15 has lost rank
    bad, j = phi.copy(), rng.integers(cells)
    bad[j, :, 1] = (2 - 1j) * bad[j, :, 0] + 1e-15 * np.abs(bad[j]).max() * rng.normal(size=4)
    with pytest.raises(DegenerateEvolution):
        gaussian.orthonormalize(bad, frame.partner)


def test_closed_form_qr_of_a_zero_column_raises_on_rank_loss():
    # R_11 = 0: the rank check fires with an infinite condition, no NaN
    lat = P.lattice(8, "pbc-even")
    frame = gaussian.GaussianFrame.from_dense(
        gaussian.initial_frame(P.named_state("neel-fermion", 8), lat), lat)
    phi = frame.blocks.copy()
    phi[2, :, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, rd = gaussian._qr(phi, frame.partner)
        assert rd.min() == 0.0 and np.all(np.isfinite(rd))
        with pytest.raises(DegenerateEvolution) as err:
            gaussian.orthonormalize(phi, frame.partner)
    assert err.value.condition == np.inf


def test_momentum_stacks_call_neither_lapack_qr_nor_expm(monkeypatch):
    # at an area-law point the L = 40 pbc-even Neel loop (period_frames), its
    # direct frame, the per-period trace and the continuous flow step on
    # closed forms alone; the one-cell stack (obc) keeps LAPACK's QR and expm
    calls = []
    for mod, name in ((np.linalg, "qr"), (scipy.linalg, "expm")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _f=real, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    p, neel = P.make_params(0.2, -0.2, 0.2, 0.1), P.named_state("neel-fermion", 40)
    for bc in ("pbc-even", "obc"):
        lat = P.lattice(40, bc)
        quench = P.QuenchConfig(neel, n_periods=30)
        *_, loop = gaussian.period_frames(p, lat, quench)
        frames = [loop, gaussian.run_to_steady_state(p, lat, quench)]
        gaussian.stroboscopic_run(p, lat, quench, P.SubsystemSpec(1, 10))
        frames += gaussian.evolve_continuous(p, lat, neel, [0.5, 1.0])
        if bc == "pbc-even":
            assert [(f.route, len(f.blocks)) for f in frames] == [
                ("momentum", 20), ("schur", 20), ("continuous", 20), ("continuous", 20)]
            assert calls == []
        else:
            assert {"qr", "expm"} <= set(calls)


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
        fq = _engine_frame_map(p, frame)
        blocks, _, _ = gaussian.orthonormalize(fq @ fq @ fq @ frame.blocks,
                                               partner=frame.partner)
        frame = gaussian.GaussianFrame(blocks, frame.momenta, frame.partner)
        assert frame.momenta[0] == 0.0 and frame.orthonormality_defect() < 1e-12
    else:
        *_, frame = gaussian.period_frames(p, lat, quench)
        assert (frame.route, len(frame.blocks)) == ("momentum", L // 2)
        idx = [i * L // 8 for i in idx]
    sub = frame.phi[idx]
    block = gaussian.correlation_block(frame, np.array(idx))
    assert np.max(np.abs(block - 2.0 * np.conj(sub) @ sub.T)) < 1e-14


def _gather_block(frame, majorana_idx):
    """Momentum-stack C block read entry by entry: T(d) for every y - x of
    the indices, then one gather through a flat index into all of them."""
    n, r = frame.blocks.shape[:2]
    x, a = np.divmod(np.asarray(majorana_idx), r)
    rows, a = np.unique(a, return_inverse=True)
    k = len(rows)
    sub = frame.blocks[:, rows]
    g = np.fft.ifft(np.conj(sub) @ np.swapaxes(sub, -1, -2), axis=0).reshape(n, k * k)
    lo = x.min() - x.max()
    d = np.arange(lo, 1 - lo)
    t = g[d % n] * (2.0 * np.exp(1j * frame.momenta[0] * d))[:, None]
    return t.reshape(-1)[(x[None, :] - x[:, None] - lo) * k * k + k * a[:, None] + a[None, :]]


def _nu_through_cprime(block_c):
    """+-nu through the complex C'_A = C_A - 1, with the same two gates."""
    cp = block_c - np.eye(len(block_c))
    a = np.ascontiguousarray(cp.imag)
    defect = max(np.linalg.norm(cp.real), np.linalg.norm(a + a.T))
    if defect > 1e-8 * max(1.0, np.linalg.norm(cp)):
        raise PurityViolation(f"defect {defect:.2e}")
    nu = np.sqrt(np.clip(np.linalg.eigvalsh(a.T @ a).reshape(-1, 2).mean(axis=1), 0.0, None))
    if nu[-1] - 1.0 > 1e-6:
        raise PurityViolation(f"outside by {nu[-1] - 1.0:.2e}")
    return np.concatenate([-nu[::-1], nu])


@settings(max_examples=80)
@given(st.integers(1, 16), st.tuples(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
                                     st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0)),
       st.integers(1, 5),
       st.sampled_from(["odd-length", "even-start", "wrapped", "unsorted", "repeated"]),
       st.data())
def test_strided_block_and_real_gates_equal_the_gather_and_cprime_path(cells, couplings,
                                                                       n_periods, kind, data):
    # a momentum frame (4 | L <= 64) after 1-5 periods; the block is the
    # index gather's bit for bit, and so is nu (or both paths raise)
    L = 4 * cells
    lat = P.lattice(L, "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=n_periods)
    *_, frame = gaussian.period_frames(P.ModelParams(*couplings), lat, quench)
    assert frame.route == "momentum"
    if kind == "odd-length":
        start = data.draw(st.integers(1, L - 1))
        sub = P.SubsystemSpec(start, data.draw(st.integers(0, (L - start - 1) // 2)) * 2 + 1)
    elif kind == "even-start":
        start = data.draw(st.integers(1, L // 2)) * 2
        sub = P.SubsystemSpec(start, data.draw(st.integers(1, max(1, L - start))))
    elif kind == "wrapped":
        start = data.draw(st.integers(3, L))
        sub = P.SubsystemSpec(start, data.draw(st.integers(L - start + 2, L - 1)))
    if kind in ("unsorted", "repeated"):
        idx = data.draw(st.lists(st.integers(0, 2 * L - 1), min_size=1, max_size=2 * L,
                                 unique=kind == "unsorted"))
        idx = np.array(idx + idx[:2 - len(idx) % 2] if kind == "repeated" else idx)
    else:
        idx = sub.majorana_indices(lat)
        assert kind != "wrapped" or np.any(np.diff(idx) < 0)
    block, ref = gaussian.correlation_block(frame, idx), _gather_block(frame, idx)
    assert block.shape == ref.shape and np.array_equal(block, ref)
    if len(idx) % 2:
        return
    try:
        nu = _nu_through_cprime(ref)
    except PurityViolation:
        with pytest.raises(PurityViolation):
            entanglement._nu_spectrum(block)
    else:
        assert np.array_equal(entanglement._nu_spectrum(block), nu)
        assert np.array_equal(entanglement.entropy_from_majorana_block(block).nu, nu)


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
    # one-cell and momentum stacks alike
    for lat in (P.lattice(4, "obc"), P.lattice(8, "pbc-even")):
        state = P.named_state("neel-fermion", lat.L)
        c0 = gaussian.correlation_from_frame(gaussian.initial_frame(state, lat))
        states = map(gaussian.correlation_from_frame,
                     gaussian.evolve_continuous(P.ModelParams(0.0, 0.0, 0.0, 0.0), lat, state,
                                                [0.0, 0.5, 1.0]))
        for cm in states:
            assert np.allclose(cm.c, c0.c, atol=1e-12)


def test_continuous_hermitian_preserves_purity():
    p = P.ModelParams(0.4, 0.0, 0.7, 0.0)
    lat = P.lattice(6, "pbc-even")
    state = P.named_state("neel-fermion", 6)
    c0 = gaussian.correlation_from_frame(gaussian.initial_frame(state, lat))
    states = map(gaussian.correlation_from_frame,
                 gaussian.evolve_continuous(p, lat, state, np.linspace(0, 2, 5)))
    for cm in states:
        assert purity_defect(cm.c) < 1e-7
        assert abs(np.trace(cm.c) - np.trace(c0.c)) < 1e-8


def test_continuous_flow_matches_dense_propagator():
    # pins the sign convention: the flow tracks exp(-i H_op t)
    from scipy.linalg import expm

    L = 4
    p = P.ModelParams(0.3, -0.2, 0.5, 0.1)
    state = P.named_state("neel-fermion", L)
    lat = P.lattice(L, "pbc-even")
    t_end = 0.8
    states = [gaussian.correlation_from_frame(f)
              for f in gaussian.evolve_continuous(p, lat, state, [0.0, t_end])]

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
    p, state = P.ModelParams(0.4, -0.15, 0.6, 0.2), P.named_state("neel-fermion", L)
    hmat = gaussian.continuous_hamiltonian(p, lat)
    frame = gaussian.initial_frame(state, lat)
    t_grid = [0.0, 0.1, 0.35, 0.35, 0.6, 1.4, 1.45, 3.0]
    states = [gaussian.correlation_from_frame(f)
              for f in gaussian.evolve_continuous(p, lat, state, t_grid)]
    assert len(states) == len(t_grid)
    for t, cm in zip(t_grid, states):
        assert np.linalg.norm(cm.c - _direct_flow(frame, hmat, t)) < 1e-12


def test_continuous_frames_carry_the_frame_counters():
    # a non-Hermitian flow: each step is taken like a period, so norm_log
    # adds up to the log-norm of one exponential of the initial frame
    L = 6
    lat = P.lattice(L, "pbc-even")
    p, state = P.ModelParams(0.4, -0.15, 0.6, 0.2), P.named_state("neel-fermion", L)
    hmat = gaussian.continuous_hamiltonian(p, lat)
    frame = gaussian.initial_frame(state, lat)
    t_grid = [0.0, 0.1, 0.35, 0.35, 0.6, 1.4, 1.45, 3.0]
    frames = gaussian.evolve_continuous(p, lat, state, t_grid)
    _, log_mag, _ = gaussian.orthonormalize(expm(-4j * t_grid[-1] * hmat) @ frame.phi)
    assert abs(log_mag) > 0.1
    assert frames[-1].norm_log == pytest.approx(log_mag, rel=1e-10)
    assert frames[-1].isotropy == frames[-1].isotropy_defect()
    assert [f.period_count for f in frames] == list(range(1, len(t_grid) + 1))
    assert {f.route for f in frames} == {"continuous"}


@pytest.mark.parametrize("t_grid", [[0.0, 0.5, 0.4], [-0.1, 0.2], [], [0.1, np.nan]])
def test_continuous_rejects_bad_time_grid(t_grid):
    lat = P.lattice(4, "obc")
    with pytest.raises(ValidationError):
        gaussian.evolve_continuous(P.ModelParams(0.3, 0.0, 0.5, 0.0), lat,
                                   P.named_state("neel-fermion", 4), t_grid)


@settings(max_examples=25)
@given(st.integers(2, 12), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_continuous_flow_invariants_random_couplings(L, bc, couplings):
    lat = P.lattice(L, bc)
    la = L // 2
    idx = P.SubsystemSpec(1, la).majorana_indices(lat)
    for cm in map(gaussian.correlation_from_frame,
                  gaussian.evolve_continuous(P.ModelParams(*couplings), lat,
                                             P.named_state("neel-fermion", L),
                                             np.linspace(0.0, 2.0, 5))):
        assert anticommutation_defect(cm.c) <= 1e-10
        assert purity_defect(cm.c) <= 1e-10
        s_a = entanglement.entropy_from_majorana_block(cm.c[np.ix_(idx, idx)]).entropy
        assert -1e-10 <= s_a <= la * np.log(2) + 1e-10


@settings(max_examples=25)
@given(st.sampled_from(range(4, 41, 4)), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.sampled_from(["neel-fermion", "all-up", "all-down"]))
def test_continuous_momentum_route_matches_dense_route(L, couplings, name):
    # a period-2 state on pbc-even with 4 | L flows on L/2 Bloch blocks; the
    # same flow on the one-cell stack and one exponential from t = 0 agree
    from unittest import mock

    p, state = P.ModelParams(*couplings), P.named_state(name, L)
    lat = P.lattice(L, "pbc-even")
    t_grid = [0.0, 0.3, 0.6, 1.1, 2.0]
    frames = gaussian.evolve_continuous(p, lat, state, t_grid)
    with mock.patch.object(gaussian, "_momentum_route", return_value=False):
        dense = gaussian.evolve_continuous(p, lat, state, t_grid)
    hmat = gaussian.continuous_hamiltonian(p, lat)
    frame0 = gaussian.initial_frame(state, lat)
    for t, f, g in zip(t_grid, frames, dense):
        assert (f.route, len(f.blocks), len(g.blocks)) == ("continuous", L // 2, 1)
        c = gaussian.correlation_from_frame(f).c
        assert np.linalg.norm(c - gaussian.correlation_from_frame(g).c) <= 1e-10
        assert np.linalg.norm(c - _direct_flow(frame0, hmat, t)) <= 1e-10
        _, log_mag, _ = gaussian.orthonormalize(expm(-4j * t * hmat) @ frame0.phi)
        for ref in (g.norm_log, log_mag):
            assert abs(f.norm_log - ref) <= 1e-10 * max(abs(ref), 1.0)
    # open chains, pbc-odd, L = 2 mod 4 and states of longer period stay dense
    others = [(P.lattice(L, "obc"), state), (P.lattice(L, "pbc-odd"), state),
              (P.lattice(L + 2, "pbc-even"), P.named_state(name, L + 2)),
              (lat, P.ProductState("z", (1, 1, -1) + (1,) * (L - 3)))]
    for other, psi in others:
        f = gaussian.evolve_continuous(p, other, psi, [0.0, 0.5])[-1]
        assert (f.route, len(f.blocks)) == ("continuous", 1)


@settings(max_examples=100)
@given(st.complex_numbers(max_magnitude=2.0), st.complex_numbers(max_magnitude=2.0),
       st.floats(-np.pi, np.pi), st.floats(0.0, 2.0), st.booleans())
def test_closed_form_flow_matches_expm(J, h, k, dt, nilpotent):
    # exp(-4i dt H_k) = cos(4 dt lam) - i (sin(4 dt lam)/lam) H_k, H_k^2 =
    # lam^2, against scipy's expm; a nilpotent H_k (lam = 0: one column of
    # the coupling block kept, no field) takes the limit 4 dt of the ratio
    blocks = spectral.bloch_blocks(J, h, k)
    if nilpotent:
        blocks = spectral.BlochBlocks(J, 0.0, blocks.coupling * [[0, 0], [1, 0]])
    hk = blocks.hamiltonian()
    ref = expm(-4j * dt * hk)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = blocks.flow(dt)
    bound = 1e-13 * (1.0 + np.linalg.norm(4 * dt * hk)) * max(1.0, np.linalg.norm(ref))
    assert np.linalg.norm(u - ref) <= bound


@pytest.mark.parametrize("t", [1.0, 30.0])
def test_overflowing_closed_form_flow_raises_a_typed_error(t):
    # beta_J = 400 rad: |Im 4 t lam| passes ~710 by t = 1, where cos and sin
    # of the flow angle overflow; the momentum flow stops with
    # NumericalBreakdown (condition = |Im angle|), without a RuntimeWarning
    p, lat = P.ModelParams(0.3, 400.0, 0.2, 0.1), P.lattice(8, "pbc-even")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalBreakdown, match="flow") as err:
            gaussian.evolve_continuous(p, lat, P.named_state("neel-fermion", 8), [0.001, t])
    assert err.value.condition > 710


@pytest.mark.parametrize("bc, n_blocks", [("pbc-even", 4), ("obc", 1)])
def test_continuous_flow_runs_where_the_kicks_overflow(bc, n_blocks):
    # beta_J = 400 rad: exp(4W') overflows (the loop raises, see
    # test_overflowing_kick_raises_a_typed_error), but the flow applies no
    # kick: it reads H alone, on the momentum blocks and on the dense chain
    p, lat = P.ModelParams(0.3, 400.0, 0.2, 0.1), P.lattice(8, bc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        frames = gaussian.evolve_continuous(p, lat, P.named_state("neel-fermion", 8),
                                            [0.001, 0.002])
    for f in frames:
        c = gaussian.correlation_from_frame(f).c
        assert (f.route, len(f.blocks)) == ("continuous", n_blocks)
        assert np.all(np.isfinite(c)) and np.isfinite(f.norm_log)
        assert anticommutation_defect(c) <= 1e-10 and purity_defect(c) <= 1e-10


@pytest.mark.parametrize("L, bc, raised_in", [(20, "obc", "build_kick_forms"),
                                              (21, "obc", "build_kick_forms"),
                                              (20, "pbc-even", "period")])
@pytest.mark.parametrize("state", ["neel-fermion", "all-up"])
def test_overflowing_period_raises_a_typed_error(L, bc, raised_in, state):
    # |Im 2J| = 611.5 and |Im 2h| = 254.0: each kick's cos and sin are
    # finite, their products are not.  The direct frame and the loop's
    # first frame raise NumericalBreakdown (condition |Im 2J| + |Im 2h|)
    # without a RuntimeWarning, from the kick forms on the one-cell stack
    # and from the one-site blocks' period on the momentum stack
    p = P.ModelParams(1.838849070774832, 305.7605778031261,
                      -1.7887682043279145, 127.00018446793942)
    lat, quench = P.lattice(L, bc), P.QuenchConfig(P.named_state(state, L), n_periods=184)
    assert gaussian._momentum_route(lat, quench.initial_state) == (bc == "pbc-even")
    grow = abs((2 * p.J).imag) + abs((2 * p.h).imag)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (lambda: gaussian.run_to_steady_state(p, lat, quench),
                     lambda: next(gaussian.period_frames(p, lat, quench))):
            with pytest.raises(NumericalBreakdown, match="period") as info:
                call()
            assert info.value.condition == grow
            assert any(entry.name == raised_in for entry in info.traceback)


# open L = 8 chains below the period bound (|Im 2J| + |Im 2h| = 710.69,
# 710.17 and 640.57): the first's sector block B_+ overflows in the kick's
# sums; the second's ||B_-|| overflows, which read the - form's test as
# inf <= inf, and so do two of its |mu|; the third's modes are finite, and
# only the - form's test, scaled, tells its ||B_-|| = inf from a residual
SECTOR_OVERFLOW = [P.ModelParams(-1.3458496214483335, -287.0979243944356,
                                 -2.8027360567794943, 68.24732867549703),
                   P.ModelParams(-2.73812144456103, -96.38795213620027,
                                 1.1258307755977546, 258.6954237865665),
                   P.ModelParams(-2.3694388026468665, -9.72071664126776,
                                 0.9912399010279191, 310.5633807135359)]


@pytest.mark.parametrize("p", SECTOR_OVERFLOW)
@pytest.mark.parametrize("state", ["neel-fermion", "all-up"])
@pytest.mark.parametrize("n", [1, 3])
def test_overflowing_sector_block_raises_a_typed_error(p, state, n):
    # the Schur route misses (a non-finite B_+ or B_-, or a - form whose
    # test overflows) and the loop loses rank: DegenerateEvolution, not
    # scipy's ValueError on a non-finite B_+ nor a "schur" frame with an
    # infinite norm_log, and without a RuntimeWarning
    lat, quench = P.lattice(8, "obc"), P.QuenchConfig(P.named_state(state, 8), n_periods=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateEvolution):
            gaussian.run_to_steady_state(p, lat, quench)


# chains below the period bound whose evolution overflows: on the momentum
# stack (L = 8 pbc-even, Neel) _eig2's mode sums and the first frame's
# closed-form QR norms, and the second's cell-block sums; on the one-cell
# stack (L = 9 pbc-odd, all-up) the kicked frame is finite (max 7.0e307)
# but LAPACK's QR of it is not, and at L = 8 obc (Neel) the kick's sums
EVOLUTION_OVERFLOW = [(P.ModelParams(-2.735927239553451, 27.828990118735828,
                                     -0.7836965719262183, 327.2866915850067),
                       8, "pbc-even", "neel-fermion"),
                      (P.ModelParams(-0.35933775001215684, -258.80044357148626,
                                     2.3234119113096012, -96.14024707393412),
                       9, "pbc-odd", "all-up"),
                      (P.ModelParams(-0.8242187189141084, -299.8680593133915,
                                     0.47577593097646087, 55.37914229443349),
                       8, "pbc-even", "neel-fermion"),
                      (P.ModelParams(2.2848180721324605, 344.0723961334496,
                                     3.0234376056325463, -11.401398991606193),
                       8, "obc", "neel-fermion")]


@pytest.mark.parametrize("p, L, bc, state", EVOLUTION_OVERFLOW)
def test_overflowing_evolution_raises_a_typed_error(p, L, bc, state):
    # the direct frame and the loop's first frame raise the rank test's
    # DegenerateEvolution (condition inf), without a RuntimeWarning and not
    # an isotropy defect of nan
    lat, quench = P.lattice(L, bc), P.QuenchConfig(P.named_state(state, L), n_periods=3)
    assert gaussian._momentum_route(lat, quench.initial_state) == (bc == "pbc-even")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (lambda: gaussian.run_to_steady_state(p, lat, quench),
                     lambda: next(gaussian.period_frames(p, lat, quench))):
            with pytest.raises(DegenerateEvolution) as info:
                call()
            assert info.value.condition == np.inf


def test_overflowing_momentum_period_raises_the_period_error():
    # |Im 2J| + |Im 2h| = 710.71: the one-site kicks' largest cos and sin
    # have a finite product, but the 2x2 product of the kicks overflows.
    # The one-site blocks' period raises the period's NumericalBreakdown
    # (condition |Im 2J| + |Im 2h|), without a RuntimeWarning
    p = P.ModelParams(-2.930568260297326, -0.9731442361691163,
                      1.4429677267223928, 354.3835019956585)
    lat, quench = P.lattice(8, "pbc-even"), P.QuenchConfig(P.named_state("neel-fermion", 8), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (lambda: gaussian.run_to_steady_state(p, lat, quench),
                     lambda: next(gaussian.period_frames(p, lat, quench))):
            with pytest.raises(NumericalBreakdown, match="period") as info:
                call()
            assert info.value.condition == abs((2 * p.J).imag) + abs((2 * p.h).imag)
            assert any(entry.name == "period" for entry in info.traceback)


def test_overflowing_one_cell_flow_raises_a_typed_error():
    # L = 9 obc: expm of the dense H and its product with the frame overflow;
    # orthonormalize raises DegenerateEvolution, without a RuntimeWarning
    p = P.ModelParams(-0.9068905370906599, -7.074336470433705,
                      -0.11540657818450839, -163.63690236446857)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateEvolution):
            gaussian.evolve_continuous(p, P.lattice(9, "obc"), P.named_state("neel-fermion", 9),
                                       np.linspace(0, 11.30214909110676, 5))


def test_momentum_chain_builds_no_chain_kicks(monkeypatch):
    # the L = 40 pbc-even Neel direct frame, loop and continuous flow read
    # the one-site Bloch blocks alone: no build_kick_forms call
    calls, build = [], spectral.build_kick_forms
    spy = lambda *a, **k: calls.append(1) or build(*a, **k)
    monkeypatch.setattr(spectral, "build_kick_forms", spy)
    monkeypatch.setattr(gaussian, "build_kick_forms", spy)
    p, lat = P.make_params(0.2, -0.1, 0.2, 0.1), P.lattice(40, "pbc-even")
    neel = P.named_state("neel-fermion", 40)
    quench = P.QuenchConfig(neel, n_periods=50)
    f = gaussian.run_to_steady_state(p, lat, quench)
    frames = list(gaussian.period_frames(p, lat, quench))
    c = gaussian.evolve_continuous(p, lat, neel, [0.5, 1.0])
    assert (f.route, frames[-1].route, len(f.blocks), len(c[-1].blocks), len(calls)) == \
        ("schur", "momentum", 20, 20, 0)


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
