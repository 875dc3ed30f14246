import numpy as np
import pytest

from floquet_ising import ed, params as P
from floquet_ising.errors import CapacityError
from oracles import majorana_correlation_dense

LN2 = np.log(2.0)


def global_spin_flip(psi: np.ndarray, L: int) -> np.ndarray:
    """Apply prod_j Z_j (flips the X polarization of every site)."""
    idx = np.arange(2 ** L)
    parity = (-1.0) ** np.array([bin(int(i)).count("1") for i in idx])
    return psi * parity


def test_identity_period():
    p = P.ModelParams(0.0, 0.0, 0.0, 0.0)
    lat = P.lattice(4, "obc")
    psi = ed.product_state(P.named_state("neel-fermion", 4))
    out = ed.apply_floquet_period(psi, p, lat)
    assert np.allclose(out, psi)


def test_two_level_field_polarizes_down():
    # L = 2 minimal chain, h with positive imaginary part amplifies Z = -1;
    # a real coupling provides mixing
    p = P.ModelParams(0.4, 0.0, 0.0, 1.0)
    lat = P.lattice(2, "obc")
    psi = ed.product_state(P.ProductState("z", (1, 1)))
    for _ in range(40):
        psi = ed.apply_floquet_period(psi, p, lat)
    assert np.all(ed.z_expectations(psi, 2) < -0.5)


def test_unitary_norm_conserved_before_renormalization():
    p = P.ModelParams(0.7, 0.0, 0.4, 0.0)
    lat = P.lattice(6, "pbc-even")
    rng = np.random.default_rng(0)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi /= np.linalg.norm(psi)
    idx = np.arange(64)
    # replicate the gate product without the final normalization
    zsum = np.zeros(64)
    for j in range(1, 7):
        zsum += 1.0 - 2.0 * ((idx >> (j - 1)) & 1)
    raw = psi * np.exp(1j * p.h * zsum)
    for j in range(1, 7):
        j2 = j % 6 + 1
        mask = (1 << (j - 1)) | (1 << (j2 - 1))
        raw = np.cos(p.J) * raw + 1j * np.sin(p.J) * raw[idx ^ mask]
    assert np.linalg.norm(raw) == pytest.approx(1.0, abs=1e-12)


def test_capacity_bound():
    p = P.ModelParams(0.1, 0.0, 0.1, 0.0)
    with pytest.raises(CapacityError):
        ed.apply_floquet_period(np.zeros(2 ** 15), p, P.lattice(15, "obc"))


def test_sx_of_z_product_is_zero():
    psi = ed.product_state(P.named_state("all-up", 5))
    assert np.allclose(ed.sx_expectations(psi, 5), 0.0, atol=1e-12)


def test_sx_of_x_product_is_half():
    psi = ed.product_state(P.named_state("x-up", 5))
    assert np.allclose(ed.sx_expectations(psi, 5), 0.5, atol=1e-12)
    psi = ed.product_state(P.named_state("x-down", 5))
    assert np.allclose(ed.sx_expectations(psi, 5), -0.5, atol=1e-12)


def test_ghz_overlaps():
    L = 6
    dim = 2 ** L
    plus = np.ones(dim, dtype=complex) / np.sqrt(dim)
    signs = (-1.0) ** np.array([bin(i).count("1") for i in range(dim)])
    minus = (signs / np.sqrt(dim)).astype(complex)
    ghz = (plus + minus) / np.sqrt(2.0)
    assert ed.ghz_overlap(ghz) == pytest.approx(1.0, abs=1e-12)
    assert ed.ghz_overlap(plus) == pytest.approx(0.5, abs=1e-12)


def test_reduced_entropy_product_and_bell():
    psi = ed.product_state(P.named_state("neel-fermion", 4))
    assert ed.reduced_entropy_oracle(psi, [1, 2], 4) == pytest.approx(0.0, abs=1e-12)
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
    assert ed.reduced_entropy_oracle(bell, [1], 2) == pytest.approx(LN2, abs=1e-12)


def test_majorana_correlation_anticommutation():
    rng = np.random.default_rng(7)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    c = majorana_correlation_dense(psi, 4)
    assert np.linalg.norm(c + c.T - 2 * np.eye(8)) < 1e-10
    assert np.linalg.norm(c - c.conj().T) < 1e-10


def test_majorana_correlation_vacuum():
    psi = ed.product_state(P.named_state("all-up", 3))
    c = majorana_correlation_dense(psi, 3)
    z = [(1j * c[2 * j, 2 * j + 1]).real for j in range(3)]
    assert np.allclose(z, 1.0)


def test_z2_spin_flip_symmetry():
    # prod Z_j commutes with the period map at K = 0
    p = P.make_params(1.5, -1.5, 1.5, 0.5)
    lat = P.lattice(8, "obc")
    rng = np.random.default_rng(3)
    pattern = tuple(int(s) for s in rng.choice([-1, 1], 8))
    psi = ed.product_state(P.ProductState("x", pattern))
    a = psi.copy()
    b = global_spin_flip(psi.copy(), 8)
    for _ in range(7):
        a = ed.apply_floquet_period(a, p, lat)
        b = ed.apply_floquet_period(b, p, lat)
    flipped = global_spin_flip(a, 8)
    phase = flipped[np.argmax(np.abs(flipped))] / b[np.argmax(np.abs(flipped))]
    assert np.allclose(flipped, phase * b, atol=1e-10)


def test_k_field_breaks_z2():
    p = P.make_params(1.5, -1.5, 1.5, 0.5)
    lat = P.lattice(6, "obc")
    psi = ed.product_state(P.named_state("x-down", 6))
    a = ed.apply_floquet_period(psi.copy(), p, lat, K=0.15)
    b = global_spin_flip(
        ed.apply_floquet_period(global_spin_flip(psi.copy(), 6), p, lat, K=0.15), 6)
    assert not np.allclose(np.abs(a), np.abs(b), atol=1e-6)


def test_quench_experiment_trace():
    p = P.make_params(0.5, -0.5, 0.5, 1.5)  # trivial phase: fast collapse
    lat = P.lattice(8, "obc")
    quench = P.QuenchConfig(P.named_state("random-x", 8, seed=1), n_periods=60)
    trace = ed.quench_experiment(p, lat, quench)
    assert trace.sx.shape == (60, 8)
    assert np.max(np.abs(trace.sx[9])) < 0.05
    assert np.all(np.abs(trace.sx) <= 0.5 + 1e-9)
    assert np.all(np.abs(trace.sx_edge_corr) <= 0.25 + 1e-9)


def test_zero_pi_phase_edge_bulk_distinction():
    # with a weak longitudinal field the bulk X-polarization collapses while
    # the edge keeps a visibly larger amplitude for a long time; at
    # K = 0.2 pi/4 the long-time contrast saturates near 0.07, so the 0.1
    # threshold is asserted at K = 0.1 pi/4
    p = P.make_params(1.5, -0.1, 1.5, 0.5)
    lat = P.lattice(12, "obc")
    q = P.QuenchConfig(P.named_state("x-down", 12), n_periods=120,
                       K=0.1 * np.pi / 4)
    trace = ed.quench_experiment(p, lat, q)
    diff = np.abs(trace.sx[:, 0]) - np.mean(np.abs(trace.sx[:, 3:9]), axis=1)
    assert int(np.sum(diff > 0.1)) >= 50
    q2 = P.QuenchConfig(P.named_state("x-down", 12), n_periods=120,
                        K=0.2 * np.pi / 4)
    trace2 = ed.quench_experiment(p, lat, q2)
    diff2 = np.abs(trace2.sx[:, 0]) - np.mean(np.abs(trace2.sx[:, 3:9]), axis=1)
    assert int(np.sum(diff2 > 0.05)) >= 50


def test_pi_phase_alternation_short():
    p = P.make_params(1.5, -1.5, 1.5, 0.5)
    lat = P.lattice(8, "obc")
    quench = P.QuenchConfig(P.named_state("x-down", 8), n_periods=40)
    trace = ed.quench_experiment(p, lat, quench)
    s1 = trace.sx[:, 0]
    signs = np.sign(s1[10:])
    assert np.all(signs == signs[0] * (-1.0) ** np.arange(len(signs)))
    assert np.min(np.abs(s1[10:])) > 0.2
