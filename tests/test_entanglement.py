import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
import scipy.linalg
import scipy.special

from floquet_ising import ed, entanglement as E, gaussian, params as P, spectral
from floquet_ising.errors import CollapseError, PurityViolation, ValidationError
from oracles import cprime

LN2 = np.log(2.0)


def evolved_state(L, p, n_periods, bc=None):
    state = P.named_state("neel-fermion", L)
    lat = P.lattice(L, bc or str(P.preferred_sector(state)))
    kicks = spectral.build_kick_forms(p, lat)
    frame = gaussian.initial_frame(state, lat)
    psi = ed.product_state(state)
    for _ in range(n_periods):
        frame = gaussian.period_map(frame, kicks)
        psi = ed.apply_floquet_period(psi, p, lat)
    return frame, psi, lat


def test_product_state_zero_entropy():
    lat = P.lattice(6, "obc")
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 6), lat)
    for start, length in [(1, 1), (2, 3), (1, 6)]:
        rep = E.subsystem_entropy(frame, P.SubsystemSpec(start, length), lat)
        assert rep.entropy == pytest.approx(0.0, abs=1e-11)


def test_maximally_entangled_modes():
    # nu spectrum all zero: every mode maximally entangled, S = L_A ln 2
    block = np.eye(6, dtype=complex)  # C = 1 means C' = 0
    rep = E.entropy_from_majorana_block(block)
    assert rep.entropy == pytest.approx(3 * LN2, abs=1e-12)


def test_entropy_matches_dense_partial_trace():
    p = P.ModelParams(0.45, -0.35, 0.3, 0.25)
    frame, psi, lat = evolved_state(6, p, 25)
    for start, length in [(1, 3), (2, 2), (1, 5)]:
        s_g = E.subsystem_entropy(frame, P.SubsystemSpec(start, length), lat)
        sites = P.SubsystemSpec(start, length).sites(lat)
        s_d = ed.reduced_entropy_oracle(psi, sites, 6)
        assert s_g.entropy == pytest.approx(s_d, abs=1e-9)


def test_trace_form_equals_eigenvalue_form():
    # matrix-function evaluation of the same entropy
    p = P.ModelParams(0.5, -0.2, 0.4, 0.3)
    frame, _, lat = evolved_state(6, p, 12)
    corr = gaussian.correlation_from_frame(frame)
    sub = P.SubsystemSpec(1, 3)
    idx = sub.majorana_indices(lat)
    cp = cprime(corr.c)[np.ix_(idx, idx)]
    one = np.eye(cp.shape[0])
    m_plus = (one + cp) / 2
    m_minus = (one - cp) / 2
    trace_form = -0.5 * np.trace(
        m_plus @ scipy.linalg.logm(m_plus) + m_minus @ scipy.linalg.logm(m_minus)).real
    eig_form = E.subsystem_entropy(frame, sub, lat).entropy
    assert trace_form == pytest.approx(eig_form, abs=1e-10)


def test_nu_spectrum_symmetric():
    p = P.ModelParams(0.5, -0.2, 0.4, 0.3)
    frame, _, lat = evolved_state(6, p, 12)
    nu = E.subsystem_entropy(frame, P.SubsystemSpec(1, 3), lat).nu
    assert np.allclose(np.sort(nu), -np.sort(-nu)[::-1], atol=1e-8)


def test_entropy_bound_and_purity_guard():
    rep = E.entropy_from_majorana_block(np.eye(4, dtype=complex))
    assert rep.entropy <= 2 * LN2 + 1e-9
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 2.5  # eigenvalue of C' outside [-1, 1]
    with pytest.raises(PurityViolation):
        E.entropy_from_majorana_block(bad)


def test_purity_guard_rejects_a_real_symmetric_part():
    # C' = iA + S is Hermitian with |nu| < 1, but S shifts nu at first order:
    # C' of a Gaussian state is i times a real antisymmetric matrix
    a = np.array([[0.0, 0.5], [-0.5, 0.0]])
    s = np.array([[0.0, 0.1], [0.1, 0.0]])
    bad = np.eye(2) + 1j * a + s
    assert np.allclose(bad, bad.conj().T)
    assert np.max(np.abs(np.linalg.eigvalsh(bad - np.eye(2)))) < 1.0
    with pytest.raises(PurityViolation, match=r"not i\*\(real antisymmetric\)"):
        E.entropy_from_majorana_block(bad)
    # i times a real antisymmetric A passes that gate; the nu-range gate
    # still rejects |nu| > 1
    with pytest.raises(PurityViolation, match="outside"):
        E.entropy_from_majorana_block(np.eye(2) + 3.0j * a)


def test_odd_majorana_block_rejected():
    with pytest.raises(ValidationError):
        E.entropy_from_majorana_block(np.eye(3, dtype=complex))


def _reference_nu(block_c: np.ndarray) -> np.ndarray:
    """nu from the complex-Hermitian eigenproblem of C'_A."""
    return np.linalg.eigvalsh(block_c - np.eye(len(block_c)))


def _reference_renyi(nu: np.ndarray, n: int) -> float:
    p = (1.0 + np.clip(nu, -1.0, 1.0)) / 2.0
    if n == 1:
        return float(-0.5 * np.sum(scipy.special.xlogy(p, p) + scipy.special.xlogy(1 - p, 1 - p)))
    return float(np.sum(np.log(p ** n + (1 - p) ** n)) / (2.0 * (1.0 - n)))


@settings(max_examples=40)
@given(st.integers(2, 24), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.tuples(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
                 st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0)),
       st.integers(1, 30), st.data())
def test_real_nu_spectrum_matches_complex_hermitian_reference(L, bc, couplings,
                                                              n_periods, data):
    # subsystems of any start and length, wrapped on periodic chains
    lat = P.lattice(L, bc)
    start = data.draw(st.integers(1, L))
    top = L - 1 if lat.bc.periodic else L - start + 1
    sub = P.SubsystemSpec(start, data.draw(st.integers(1, top)))
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=n_periods)
    *_, frame = gaussian.period_frames(P.ModelParams(*couplings), lat, quench)
    idx = sub.majorana_indices(lat)
    ref = _reference_nu(gaussian.correlation_from_frame(frame).c[np.ix_(idx, idx)])
    rep = E.subsystem_entropy(frame, sub, lat)
    assert np.all(np.diff(rep.nu) >= 0)
    assert np.array_equal(rep.nu, -rep.nu[::-1])
    # nu is only sqrt(eps)-accurate near 0 and every functional is even in nu
    assert np.max(np.abs(np.sort(rep.nu ** 2) - np.sort(ref ** 2))) < 1e-12
    assert abs(rep.entropy - _reference_renyi(ref, 1)) < 1e-10
    assert abs(E.renyi_entropy(frame, sub, lat, 2) - _reference_renyi(ref, 2)) < 1e-10


def test_pure_state_complementarity():
    p = P.ModelParams(0.45, -0.35, 0.3, 0.25)
    frame, _, lat = evolved_state(8, p, 20)
    s_a = E.subsystem_entropy(frame, P.SubsystemSpec(1, 3), lat).entropy
    s_b = E.subsystem_entropy(frame, P.SubsystemSpec(4, 5), lat).entropy
    assert s_a == pytest.approx(s_b, abs=1e-8)


@settings(max_examples=60)
@given(st.sampled_from(["one-cell", "momentum"]), st.integers(1, 6),
       st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.tuples(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
                 st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0)),
       st.integers(1, 60), st.data())
def test_complement_has_the_same_entropy(stack, cells, bc, couplings, n_periods, data):
    # S(X) = S(complement of X) in a pure state, which tee uses for S_ABC;
    # the momentum stack is a Neel state on a pbc-even chain of 4 | L
    if stack == "momentum":
        L, bc, state = 4 * cells, "pbc-even", "neel-fermion"
    else:
        L = data.draw(st.integers(2, 24))
        state = data.draw(st.sampled_from(["neel-fermion", "all-up", "all-down"]))
    lat = P.lattice(L, bc)
    assume(gaussian._momentum_route(lat, P.named_state(state, L)) == (stack == "momentum"))
    quench = P.QuenchConfig(P.named_state(state, L), n_periods=n_periods)
    frame = gaussian.run_to_steady_state(P.ModelParams(*couplings), lat, quench)
    inside = data.draw(st.sets(st.integers(1, L), min_size=1, max_size=L - 1))
    outside = set(range(1, L + 1)) - inside
    s_in, s_out = (E._entropy(frame, P.majorana_indices(sorted(x))).entropy
                   for x in (inside, outside))
    assert s_in == pytest.approx(s_out, abs=1e-10)


def _outcome(call):
    """call(), or the (type, message) of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=40)
@given(st.sampled_from(["pbc-even", "obc"]), st.sampled_from(["run", "gathered"]),
       st.integers(1, 40),
       st.tuples(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
                 st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0)),
       st.sampled_from(["periods", "continuous"]), st.data())
def test_stacked_entropies_are_the_block_by_block_ones(bc, shape, size, couplings, source,
                                                       data):
    # one stacked call of the block builder and of the kernel gives each
    # frame's block, nu and entropy bit for bit as the lone call does, and
    # so does entropy_trace, on the frames of the stroboscopic loop and of
    # the continuous flow, each on the momentum stack (pbc-even Neel,
    # 4 | L) and the one-cell stack, for
    # a contiguous run of indices and a non-cell-aligned one (an odd site
    # count from an even start, wrapped on the periodic chain, where the
    # block gathers from the Toeplitz view); and a stack with bad blocks
    # raises what a block-by-block loop raises first
    L = 16
    lat = P.lattice(L, bc)
    params, neel = P.ModelParams(*couplings), P.named_state("neel-fermion", L)
    if source == "periods":
        frames = list(gaussian.period_frames(params, lat, P.QuenchConfig(neel, n_periods=size)))
    else:
        frames = gaussian.evolve_continuous(params, lat, neel, 0.1 * np.arange(1, size + 1))
    # one stack for the whole run: the momentum stack's, or the one-cell
    # stack where the pivot misses and on the open chain
    n_blocks = {len(f.blocks) for f in frames}
    assert n_blocks in ({L // 2}, {1}) and (bc == "pbc-even" or n_blocks == {1})
    if shape == "run":
        start = data.draw(st.integers(1, L - 1))
        sub = P.SubsystemSpec(start, data.draw(st.integers(1, L - start)))
    else:
        start = 2 * data.draw(st.integers(L // 4, L // 2 - 1))
        lo, hi = (L - start + 2, L - 1) if bc == "pbc-even" else (1, L - start + 1)
        sub = P.SubsystemSpec(start, 2 * data.draw(st.integers(lo // 2, (hi - 1) // 2)) + 1)
    idx = sub.majorana_indices(lat)
    assert shape == "run" or bc == "obc" or np.any(np.diff(idx) < 0)  # wrapped: gathered
    rows, block = gaussian._block_plan(frames[0], idx)
    blocks = block(np.stack([f.blocks[:, rows] for f in frames]))
    lone = [gaussian.correlation_block(f, idx) for f in frames]
    assert np.array_equal(blocks, lone)
    stacked, loop = E.entropy_from_majorana_block(blocks), [
        E.entropy_from_majorana_block(b) for b in lone]
    assert stacked.entropy.tolist() == [r.entropy for r in loop]
    assert np.array_equal(stacked.nu, [r.nu for r in loop])
    assert gaussian.entropy_trace(frames, sub, lat).entropy.tolist() == stacked.entropy.tolist()
    with unittest.mock.patch.object(gaussian, "_STACK_BYTES", 1):  # one frame a call
        assert gaussian.entropy_trace(frames, sub, lat).entropy.tolist() == \
            stacked.entropy.tolist()
    for _ in range(data.draw(st.integers(1, 2))):
        _spoil(blocks[data.draw(st.integers(0, size - 1))],
               data.draw(st.sampled_from(["real", "nu", "eig"])))
    _assert_stack_fails_like_a_loop(blocks)


def _spoil(block, kind):
    """Make ``block`` fail the first gate (a real symmetric part), the
    second (|nu| > 1) or the eigensolver (a non-finite entry)."""
    if kind == "real":
        block[0, 1] += 1e-3
        block[1, 0] += 1e-3
    elif kind == "nu":  # |A_01| >= 2, so the largest |nu| is too
        block[0, 1] += 3j
        block[1, 0] -= 3j
    else:
        block[0, 1] = complex(0.0, np.nan)


def _assert_stack_fails_like_a_loop(blocks):
    eigvalsh = np.linalg.eigvalsh

    def strict_eigvalsh(a):  # the LAPACK driver returns NaN here instead of failing
        if not np.all(np.isfinite(a)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    with unittest.mock.patch.object(np.linalg, "eigvalsh", strict_eigvalsh):
        expected = _outcome(lambda: [E.entropy_from_majorana_block(b) for b in blocks])
        assert isinstance(expected, tuple)  # the loop fails
        assert _outcome(lambda: E.entropy_from_majorana_block(blocks)) == expected


@pytest.mark.parametrize("first", ["real", "nu", "eig"])
@pytest.mark.parametrize("second", ["real", "nu", "eig"])
def test_a_stack_raises_the_first_failure_of_a_loop(first, second):
    # every order of two bad blocks in a stack of five blocks 1 + i A, A
    # real antisymmetric with |nu| < 1, each its own
    r = np.random.default_rng(7).uniform(-0.05, 0.05, (5, 4, 4))
    blocks = np.eye(4) + 1j * (r - np.swapaxes(r, -1, -2))
    _spoil(blocks[1], first)
    _spoil(blocks[3], second)
    _assert_stack_fails_like_a_loop(blocks)


@pytest.mark.parametrize("part", ["real", "imag"])
def test_a_nan_entry_fails_the_purity_gate(part):
    # NaN compares false, so a gate written "defect > bound" let a NaN block
    # through to a NaN (or, from Re, a finite) entropy; it raises now, on a
    # lone block and in a stack at the NaN block, in the loop's order
    r = np.random.default_rng(7).uniform(-0.05, 0.05, (5, 4, 4))
    blocks = np.eye(4) + 1j * (r - np.swapaxes(r, -1, -2))
    nan = complex(np.nan, 0.0) if part == "real" else complex(0.0, np.nan)
    bad = blocks[2].copy()
    bad[0, 1] += nan
    with pytest.raises(PurityViolation, match=r"not i\*\(real antisymmetric\): defect nan"):
        E.entropy_from_majorana_block(bad)
    for other in (4, 0):  # a |nu| > 1 block after, then before it
        stack = blocks.copy()
        stack[2] = bad
        _spoil(stack[other], "nu")
        expected = _outcome(lambda: [E.entropy_from_majorana_block(b) for b in stack])
        assert ("defect nan" in expected[1]) == (other > 2)
        assert _outcome(lambda: E.entropy_from_majorana_block(stack)) == expected


def test_a_non_finite_spectrum_is_outside_the_unit_interval(monkeypatch):
    # a block that passes the gates but whose A^T A has no finite spectrum
    # (the LAPACK driver returns NaN rather than failing) raises instead of
    # giving a NaN entropy; in a stack, at that block
    r = np.random.default_rng(7).uniform(-0.05, 0.05, (3, 4, 4))
    blocks = np.eye(4) + 1j * (r - np.swapaxes(r, -1, -2))
    eigvalsh = np.linalg.eigvalsh

    def nan_eigvalsh(a):
        w = eigvalsh(a)
        w[-1, 0] = np.nan  # the last block of the stack
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", nan_eigvalsh)
    for block in (blocks[0], blocks):
        with pytest.raises(PurityViolation, match="outside \\[-1, 1\\] by inf"):
            E.entropy_from_majorana_block(block)


@pytest.mark.parametrize("part", ["imag", "real"])
def test_an_overflowing_block_raises_only_the_purity_violation(part):
    # entries beyond ~1e154 overflow the gates' norms and A^T A: the typed
    # PurityViolation is the only signal (no RuntimeWarning, no LinAlgError
    # from LAPACK), on a lone block and in a stack at that block.  A huge
    # antisymmetric A is |nu| > 1; a huge real part fails the first gate
    r = np.random.default_rng(0).standard_normal((4, 4))
    if part == "imag":
        bad, match = np.eye(4) + 1j * 1e160 * (r - r.T), "outside \\[-1, 1\\] by inf"
    else:
        bad, match = np.eye(4) + 1e160 * (r + r.T) + 0j, "not i\\*\\(real antisymmetric\\): defect inf"
    stack = np.stack([np.eye(4) + 0j, bad, np.eye(4) + 0j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in (bad, stack):
            with pytest.raises(PurityViolation, match=match):
                E.entropy_from_majorana_block(block)


def test_subadditivity():
    p = P.ModelParams(0.45, -0.35, 0.3, 0.25)
    frame, _, lat = evolved_state(8, p, 20)
    a, b = P.SubsystemSpec(1, 2), P.SubsystemSpec(3, 3)
    s_a = E.subsystem_entropy(frame, a, lat).entropy
    s_b = E.subsystem_entropy(frame, b, lat).entropy
    s_ab = E.subsystem_entropy(frame, P.SubsystemSpec(1, 5), lat).entropy
    assert s_ab <= s_a + s_b + 1e-9


# --------------------------------------------------------------------------
# Renyi
# --------------------------------------------------------------------------

def test_renyi_product_state_zero():
    lat = P.lattice(4, "obc")
    frame = gaussian.initial_frame(P.named_state("all-up", 4), lat)
    for n in (1, 2, 3):
        assert E.renyi_entropy(frame, P.SubsystemSpec(1, 2), lat, n) == \
            pytest.approx(0.0, abs=1e-11)


def test_renyi_two_equal_weights():
    # a single nu = 0 mode: two equal Schmidt weights, S2 = ln 2; the frame
    # pairs a Majorana of site 1 with one of site 2, so C_A = 1 on site 1
    lat = P.lattice(2, "obc")
    frame = gaussian.GaussianFrame(
        np.array([[[1, 0], [0, 1], [0, 1j], [1j, 0]]]) / np.sqrt(2))
    assert E.renyi_entropy(frame, P.SubsystemSpec(1, 1), lat, 2) == \
        pytest.approx(LN2, abs=1e-12)


def test_renyi_matches_dense_trace_rho_squared():
    p = P.ModelParams(0.45, -0.35, 0.3, 0.25)
    frame, psi, lat = evolved_state(6, p, 25)
    s2 = E.renyi_entropy(frame, P.SubsystemSpec(1, 3), lat, 2)
    t = psi.reshape(8, 8)  # sites 1..3 are the low bits
    rho = t.T @ t.conj()
    s2_dense = -np.log(np.real(np.trace(rho @ rho)))
    assert s2 == pytest.approx(s2_dense, abs=1e-9)


def test_renyi_validates_order():
    lat = P.lattice(4, "obc")
    frame = gaussian.initial_frame(P.named_state("all-up", 4), lat)
    with pytest.raises(ValidationError):
        E.renyi_entropy(frame, P.SubsystemSpec(1, 2), lat, 0)


# --------------------------------------------------------------------------
# mutual information
# --------------------------------------------------------------------------

def test_mutual_information_product_zero():
    lat = P.lattice(6, "obc")
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 6), lat)
    mi = E.mutual_information(frame, P.SubsystemSpec(1, 2),
                              P.SubsystemSpec(4, 2), lat)
    assert mi == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_pure_bipartition():
    p = P.ModelParams(0.45, -0.35, 0.3, 0.25)
    frame, _, lat = evolved_state(6, p, 20)
    a, b = P.SubsystemSpec(1, 3), P.SubsystemSpec(4, 3)
    s_a = E.subsystem_entropy(frame, a, lat).entropy
    mi = E.mutual_information(frame, a, b, lat)
    assert mi == pytest.approx(2 * s_a, abs=1e-8)
    assert mi >= -1e-9


def test_mutual_information_requires_disjoint():
    lat = P.lattice(6, "obc")
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 6), lat)
    with pytest.raises(ValidationError):
        E.mutual_information(frame, P.SubsystemSpec(1, 3),
                             P.SubsystemSpec(3, 2), lat)


# --------------------------------------------------------------------------
# TEE
# --------------------------------------------------------------------------

def test_tee_product_state_zero():
    lat = P.lattice(16, "obc")
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 16), lat)
    res = E.tee(frame, P.TeePartition.quarters(16), lat)
    assert res.s_top == pytest.approx(0.0, abs=1e-10)


def steady_frame(alpha, bj, bh, L, n_periods=300):
    p = P.make_params(alpha, bj, alpha, bh)
    lat = P.lattice(L, "obc")
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=n_periods)
    return gaussian.run_to_steady_state(p, lat, quench), lat


def test_tee_deep_zero_mode_phase():
    frame, lat = steady_frame(0.2, -1.2, -0.3, 32)
    res = E.tee(frame, P.TeePartition.quarters(32), lat)
    assert abs(res.s_top - LN2) < 0.05 * LN2


def test_tee_trivial_phase():
    frame, lat = steady_frame(0.2, -0.05, -0.3, 32)
    res = E.tee(frame, P.TeePartition.quarters(32), lat)
    assert abs(res.s_top) < 0.05


@settings(max_examples=20)
@given(st.floats(0.1, 0.3), st.floats(-1.5, 0.0), st.floats(-0.5, -0.1),
       st.integers(8, 20).map(lambda n: 2 * n + 1))
@example(0.2, -1.2, -0.3, 32)
@example(0.2, -0.05, -0.3, 32)
@example(0.2, -0.3, -0.3, 32)
def test_tee_reflection_symmetry(alpha, bj, bh, L):
    # the mirror image (c, d, b, a) of the partition (a, b, d, c) has the
    # same S_top: by the chain's reflection symmetry, and for a pure state
    # also by S_X = S_complement.  On odd chains the Neel state is itself
    # mirror symmetric, so every period's state is, converged or not.
    frame, lat = steady_frame(alpha, bj, bh, L)
    a, b, c = (round(f * L / 32) for f in (5, 9, 7))  # (5, 9, 11, 7) at L = 32
    s = E.tee(frame, P.TeePartition((a, b, L - a - b - c, c)), lat).s_top
    mirror = E.tee(frame, P.TeePartition((c, L - a - b - c, b, a)), lat).s_top
    assert s == pytest.approx(mirror, abs=1e-9)


def test_tee_partition_validation():
    lat = P.lattice(16, "obc")
    frame = gaussian.initial_frame(P.named_state("neel-fermion", 16), lat)
    with pytest.raises(ValidationError):
        E.tee(frame, P.TeePartition((4, 4, 4, 5)), lat)


# --------------------------------------------------------------------------
# scaling fits
# --------------------------------------------------------------------------

def synth_points(fn, Ls=(60, 100, 140, 200), ratio=10):
    return [(L, L // ratio, fn(L, L // ratio)) for L in Ls] + \
           [(L, L // ratio + 2, fn(L, L // ratio + 2)) for L in Ls]


def test_fit_scaling_recovers_ising_coefficient():
    a_true, b_true = 1.0 / 6.0, 0.4
    pts = synth_points(lambda L, la: a_true * E.chord_abscissa(L, la) + b_true)
    fit = E.fit_scaling(pts)
    assert fit.law == "log"
    assert fit.a == pytest.approx(a_true, abs=1e-9)
    assert fit.b == pytest.approx(b_true, abs=1e-9)


def test_fit_scaling_volume():
    pts = synth_points(lambda L, la: 0.35 * la + 0.1)
    fit = E.fit_scaling(pts)
    assert fit.law == "volume"
    assert fit.slope == pytest.approx(0.35, abs=1e-9)


def test_fit_scaling_area():
    pts = synth_points(lambda L, la: 0.73)
    fit = E.fit_scaling(pts)
    assert fit.law == "area"


def test_fit_scaling_validation():
    with pytest.raises(ValidationError):
        E.fit_scaling([(100, 10, 1.0)] * 5)
    with pytest.raises(ValidationError):
        E.fit_scaling([(100, 10, 1.0)] * 7)  # degenerate abscissa


@pytest.mark.parametrize("bad", [(100, 0, 1.0), (100, 120, 1.0), (100, 100, 1.0)],
                         ids=["empty", "longer-than-chain", "whole-chain"])
def test_fit_scaling_rejects_subsystems_outside_the_chain(bad):
    # L_A = 0 and L_A > L reached np.log in chord_abscissa (a RuntimeWarning,
    # then an SVD that did not converge); L_A = L fitted log(L/pi sin pi)
    pts = synth_points(lambda L, la: 0.73)
    with pytest.raises(ValidationError):
        E.fit_scaling(pts[:-1] + [bad])


# --------------------------------------------------------------------------
# collapse
# --------------------------------------------------------------------------

def _synthetic_curves(beta0=-0.3, nu=1.0, sizes=(32, 48, 64, 96), n=41):
    f = lambda x: 0.5 * (1 + np.tanh(-x / 20.0)) * LN2
    curves = {}
    for L in sizes:
        betas = np.linspace(-0.55, -0.05, n)
        curves[L] = (betas, f((betas - beta0) * L ** nu))
    return curves


def test_collapse_recovers_synthetic_parameters():
    res = E.tee_collapse(_synthetic_curves())
    assert res.beta_J0 == pytest.approx(-0.3, abs=1e-3)
    assert res.nu == pytest.approx(1.0, abs=1e-3)


def test_collapse_shuffled_labels_worse():
    curves = _synthetic_curves()
    good = E.tee_collapse(curves)
    sizes = sorted(curves)
    shuffled = {sizes[i]: curves[sizes[(i + 1) % len(sizes)]]
                for i in range(len(sizes))}
    bad = E.tee_collapse(shuffled)
    assert bad.collapse_residual > 10 * max(good.collapse_residual, 1e-12)


def test_collapse_needs_three_sizes():
    curves = _synthetic_curves(sizes=(32, 48))
    with pytest.raises(ValidationError):
        E.tee_collapse(curves)


def test_collapse_disjoint_windows_error():
    curves = {
        32: (np.linspace(-0.5, -0.4, 5), np.zeros(5)),
        48: (np.linspace(-0.2, -0.1, 5), np.zeros(5)),
        64: (np.linspace(0.3, 0.4, 5), np.zeros(5)),
    }
    with pytest.raises(CollapseError):
        E.tee_collapse(curves)


def _collapse_cost_loop(curves, beta0, nu):
    """Reference collapse cost at one (beta0, nu), sample by sample with
    np.interp; None where the rescaled curves share no window."""
    rescaled = [((np.asarray(b) - beta0) * L ** nu, np.asarray(v)) for L, (b, v) in curves.items()]
    lo = max(x.min() for x, _ in rescaled)
    hi = min(x.max() for x, _ in rescaled)
    if hi <= lo:
        return None
    total, count = 0.0, 0
    for i, (xi, vi) in enumerate(rescaled):
        sel = (xi >= lo) & (xi <= hi)
        for j, (xj, vj) in enumerate(rescaled):
            if i != j and np.any(sel):
                total += float(np.sum((vi[sel] - np.interp(xi[sel], xj, vj)) ** 2))
                count += int(sel.sum())
    return total / count if count else None


def _tee_collapse_loop(curves, refinements=2):
    """Reference grid search: one cost per grid point, scanned beta0-major,
    ties toward smaller nu."""
    betas = np.concatenate([np.asarray(b) for b, _ in curves.values()])
    b0s, nus = np.linspace(betas.min(), betas.max(), 41), np.linspace(0.3, 2.0, 35)
    best = None
    for _ in range(refinements + 1):
        for b0 in b0s:
            for nu in nus:
                cost = _collapse_cost_loop(curves, float(b0), float(nu))
                if cost is not None and (best is None or (cost, nu) < (best[0], best[2])):
                    best = (cost, float(b0), float(nu))
        db, dn = b0s[1] - b0s[0], nus[1] - nus[0]
        b0s = np.linspace(best[1] - db, best[1] + db, 21)
        nus = np.linspace(max(0.05, best[2] - dn), best[2] + dn, 21)
    return best


def _noisy_curves(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(sorted(rng.choice([8, 12, 16, 24, 32, 48, 64], size=rng.integers(3, 5),
                                    replace=False)))
    curves = _synthetic_curves(rng.uniform(-0.5, -0.1), rng.uniform(0.5, 1.5), sizes,
                               int(rng.integers(5, 30)))
    return {L: (b, v + rng.uniform(0, 0.05) * rng.standard_normal(len(v)))
            for L, (b, v) in curves.items()}


@pytest.mark.parametrize("seed", range(6))
def test_collapse_costs_equal_the_per_point_loop(seed):
    curves = _noisy_curves(seed)
    b0s, nus = np.linspace(-0.6, 0.0, 13), np.linspace(0.3, 2.0, 9)
    cost, valid = E._collapse_costs(curves, b0s, nus)
    for ib, b0 in enumerate(b0s):
        for inu, nu in enumerate(nus):
            ref = _collapse_cost_loop(curves, float(b0), float(nu))
            assert valid[ib, inu] == (ref is not None)
            if ref is not None:
                assert cost[ib, inu] == pytest.approx(ref, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("seed", range(3))
def test_collapse_equals_the_per_point_search(seed):
    curves = _noisy_curves(seed)
    res, (cost, b0, nu) = E.tee_collapse(curves), _tee_collapse_loop(curves)
    assert (res.beta_J0, res.nu) == (b0, nu)
    assert res.collapse_residual == pytest.approx(cost, rel=1e-12)


def test_collapse_ties_break_toward_smaller_nu():
    flat = {L: (np.linspace(-0.4, -0.2, 11), np.zeros(11)) for L in (24, 32, 48)}
    res = E.tee_collapse(flat)
    assert res.collapse_residual == 0.0
    assert (res.beta_J0, res.nu) == _tee_collapse_loop(flat)[1:]


def test_mutual_information_matches_dense_at_volume_point():
    p = P.make_params(0.2, -0.1, 0.2, 0.1)  # volume-law line
    frame, psi, lat = evolved_state(8, p, 30)
    a, b = P.SubsystemSpec(1, 4), P.SubsystemSpec(5, 4)
    mi = E.mutual_information(frame, a, b, lat)
    s_a = ed.reduced_entropy_oracle(psi, [1, 2, 3, 4], 8)
    s_b = ed.reduced_entropy_oracle(psi, [5, 6, 7, 8], 8)
    mi_dense = s_a + s_b  # the union is the pure whole
    assert mi > 0.1
    assert mi == pytest.approx(mi_dense, abs=1e-8)
