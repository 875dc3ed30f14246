import cmath
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from floquet_ising import gaussian as G
from floquet_ising import params as P
from floquet_ising import spectral as S
from floquet_ising import sweep
from floquet_ising.errors import MetricPoleError, NumericalBreakdown, ValidationError
from oracles import decay_length_fit

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


def kick_oracle(J, h, k):
    """Independent Majorana-basis 2x2 blocks of exp(4W'), exp(4W'') at
    momentum k, the operator convention of the dispersion."""
    e1 = np.array([[np.cos(2 * J), -np.sin(2 * J) * np.exp(1j * k)],
                   [np.sin(2 * J) * np.exp(-1j * k), np.cos(2 * J)]])
    e2 = np.array([[np.cos(2 * h), np.sin(2 * h)], [-np.sin(2 * h), np.cos(2 * h)]])
    return e1, e2


def metric_residual(eta, hk):
    """||eta H eta^-1 - H^dag|| / ||H||, written out here."""
    return np.linalg.norm(eta @ hk @ np.linalg.inv(eta) - hk.conj().T) / np.linalg.norm(hk)


# --------------------------------------------------------------------------
# kick forms
# --------------------------------------------------------------------------

def _dense_ws(p, lat):
    """The dense n x n matrices W' and W'' of the chain's bonds
    (``_chain_bonds``): W_pq = s = -W_qp."""
    ws = []
    for bonds in _chain_bonds(p, lat):
        ws.append(np.zeros((lat.n_majorana,) * 2, dtype=complex))
        for i, j, s in bonds:
            ws[-1][i, j], ws[-1][j, i] = s, -s
    return ws


def _dense_m(p, lat):
    """The dense 2L x 2L one-period map M of the chain."""
    return S.build_kick_forms(p, lat).step(np.eye(lat.n_majorana, dtype=complex))


def test_zero_coupling_gives_zero_form():
    p, lat = P.ModelParams(0.0, 0.0, 0.3, 0.1), P.lattice(6, "obc")
    w1, _ = S.build_kick_forms(p, lat)
    assert np.all(_dense_ws(p, lat)[0] == 0)
    assert np.array_equal(S._rotate(np.eye(12, dtype=complex), *w1, 1.0), np.eye(12))


def test_bond_counting_open_chain():
    p, lat = P.ModelParams(0.3, 0.0, 0.5, 0.0), P.lattice(2, "obc")
    w1, w2 = S.build_kick_forms(p, lat)
    assert np.count_nonzero(w1[0] != np.arange(4)) == 2  # single (a_2, a_3) pair
    assert np.count_nonzero(w2[0] != np.arange(4)) == 4
    assert np.count_nonzero(_dense_ws(p, lat)[0]) == 2  # antisymmetric pair


def test_kick_exponential_matches_expm():
    # each kick on the identity, and the period step on it for both signs
    p, lat = random_params(), P.lattice(5, "pbc-odd")
    forms, (w1, w2) = S.build_kick_forms(p, lat), _dense_ws(p, lat)
    eye = np.eye(10, dtype=complex)
    for form, w in zip(forms, (w1, w2)):
        assert np.allclose(S._rotate(eye, *form, 1.0), scipy.linalg.expm(4 * w), atol=1e-12)
    for sign in (1.0, -1.0):
        dense = scipy.linalg.expm(sign * 4 * w1) @ scipy.linalg.expm(sign * 4 * w2)
        assert np.allclose(forms.step(eye, sign), dense, atol=1e-12)


@pytest.mark.parametrize("bc", ["pbc-even", "pbc-odd", "obc"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kick_matches_expm_every_boundary_and_sign(bc, sign):
    # pbc-even carries the wrap sign, obc leaves both end Majoranas unbonded
    rng = np.random.default_rng(7)
    p, lat = random_params(rng), P.lattice(5, bc)
    x = rng.normal(size=(10, 3)) + 1j * rng.normal(size=(10, 3))
    for form, w in zip(S.build_kick_forms(p, lat), _dense_ws(p, lat)):
        dense = scipy.linalg.expm(sign * 4 * w)
        assert np.allclose(S._rotate(np.eye(10, dtype=complex), *form, sign), dense, atol=1e-12)
        assert np.allclose(S._rotate(x, *form, sign), dense @ x, atol=1e-12)


def _chain_bonds(p, lat):
    """The (p, q, w) bonds of W' and W'' from the chain's definition, one
    at a time, in 0-based indices: coupling bonds (a_{2j}, a_{2j+1}) with
    J/2 and field bonds (a_{2j-1}, a_{2j}) with h/2, a_1 the first
    Majorana; a periodic chain's wraparound bond (a_{2L}, a_1) is stored as
    (0, n-1) with the sector sign reversed."""
    n = lat.n_majorana
    coupling = [(2 * j - 1, 2 * j, p.J / 2.0) for j in range(1, lat.L)]
    if lat.bc.periodic:
        coupling.append((0, n - 1, -lat.bc.wrap_sign * p.J / 2.0))
    return coupling, [(2 * j, 2 * j + 1, p.h / 2.0) for j in range(lat.L)]


@pytest.mark.parametrize("bc", ["pbc-even", "pbc-odd", "obc"])
def test_kick_forms_match_bond_loop(bc):
    # reference: the forms filled one bond at a time; each form's cos and
    # sin are those of the loop's angles bit for bit
    p, lat = random_params(np.random.default_rng(11)), P.lattice(7, bc)
    for form, dense_w, bonds in zip(S.build_kick_forms(p, lat), _dense_ws(p, lat),
                                    _chain_bonds(p, lat)):
        w = np.zeros((14, 14), dtype=complex)
        partner, angle = np.arange(14), np.zeros(14, dtype=complex)
        for a, b, s in bonds:
            w[a, b], w[b, a] = w[a, b] + s, w[b, a] - s
            partner[a], partner[b] = b, a
            angle[a], angle[b] = 4 * s, -4 * s
        assert np.array_equal(dense_w, w)
        assert np.array_equal(form[0], partner)
        for got, want in zip(form[1:], S._kick_cos_sin(angle)):
            assert np.array_equal(_bits(got), _bits(want[:, None]))


def _or_zero(lo, hi):
    return st.sampled_from([0.0, -0.0]) | st.floats(lo, hi)


@settings(max_examples=60)
@given(st.integers(2, 40), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       _or_zero(-np.pi, np.pi), _or_zero(-1.0, 1.0), _or_zero(-np.pi, np.pi), _or_zero(-1.0, 1.0))
@example(2, "pbc-even", -0.0, 0.0, 0.0, -0.0)
def test_continuous_hamiltonian_is_the_bond_sum_bit_for_bit(L, bc, aj, bj, ah, bh):
    # H from the kicks' plans equals i (W' + W'') of the chain's bonds filled
    # one at a time (``_chain_bonds``), signed zeros too
    p, lat = P.ModelParams(aj, bj, ah, bh), P.lattice(L, bc)
    w1, w2 = _dense_ws(p, lat)
    assert np.array_equal(_bits(G.continuous_hamiltonian(p, lat)), _bits(1j * (w1 + w2)))


def test_kick_forms_hold_no_dense_matrix():
    # each kick is a (partner, cos, sin) triple of per-Majorana columns
    kicks = S.build_kick_forms(random_params(), P.lattice(40, "obc"))
    assert kicks._fields == ("coupling", "field")
    for partner, cos, sin in kicks:
        assert partner.shape == (80,) and cos.shape == sin.shape == (80, 1)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def _bond_loop_outcome(p, lat):
    """Each kick's (partner, cos, sin) filled one bond at a time from the
    chain's bonds (``_chain_bonds``), or the (NumericalBreakdown, condition)
    of an overflowing kick (its largest |Im angle|) or period (|Im 2J| +
    |Im 2h|, where the product of the kicks' largest |cos| or |sin| is not
    finite), coupling kick first."""
    kicks, n = [], lat.n_majorana
    for bonds in _chain_bonds(p, lat):
        partner, angle = np.arange(n), np.zeros(n, dtype=complex)
        for a, b, s in bonds:
            partner[a], partner[b] = b, a
            angle[a], angle[b] = 4 * s, -4 * s
        with np.errstate(all="ignore"):
            cos, sin = np.cos(angle)[:, None], np.sin(angle)[:, None]
        if not (np.isfinite(cos).all() and np.isfinite(sin).all()):
            return NumericalBreakdown, float(np.abs(angle.imag).max())
        kicks.append((partner, cos, sin))
    with np.errstate(over="ignore"):
        largest = [np.abs(np.concatenate(kick[1:])).max() for kick in kicks]
        period = largest[0] * largest[1]
    if not np.isfinite(period):
        return NumericalBreakdown, abs((2 * p.J).imag) + abs((2 * p.h).imag)
    return kicks


@settings(max_examples=80)
@given(st.integers(2, 40), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.sampled_from([1.0, 10.0, 100.0, 500.0]))
@example(8, "obc", 0.3, 0.9, 0.2, 0.8, 500.0)  # both kicks overflow: the coupling's error
@example(9, "pbc-even", 0.3, 0.6, 0.2, 0.3, 500.0)  # finite kicks, overflowing period
def test_kick_form_from_its_bonds_is_the_built_form_bit_for_bit(L, bc, aj, bj, ah, bh, scale):
    # the forms filled one bond at a time give build_kick_forms's partner,
    # cos and sin (gathered from the kick scalars) bit for bit; where a
    # kick or the period overflows (beta scaled up to 500) both raise
    # NumericalBreakdown with the same condition
    params, lat = P.ModelParams(aj, scale * bj, ah, scale * bh), P.lattice(L, bc)
    want = _bond_loop_outcome(params, lat)
    try:
        got = S.build_kick_forms(params, lat)
    except NumericalBreakdown as exc:
        got = NumericalBreakdown, exc.condition
    if not isinstance(want, list):
        assert got == want
        return
    assert isinstance(got, S.KickForms)
    for form, ref in zip(got, want):
        for name, a, b in zip(("partner", "cos", "sin"), ref, form):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(_bits(a), _bits(b)), name


def test_transfer_matrix_invariants():
    p = random_params()
    lat = P.lattice(6, "pbc-even")
    tm = S.build_transfer_matrix(p, lat)
    m = _dense_m(p, lat)
    assert abs(np.linalg.det(m) - 1) < 1e-8
    # complex orthogonality and reciprocal eigenvalue pairing
    assert np.allclose(m.T @ m, np.eye(tm.n), atol=1e-10)
    mu = np.sort_complex(tm.eigenvalues)
    inv = np.sort_complex(1.0 / tm.eigenvalues)
    assert np.allclose(mu, inv, atol=1e-8)


def test_unitary_case_orthogonal_unit_modulus():
    p = P.ModelParams(0.4, 0.0, 0.9, 0.0)
    tm = S.build_transfer_matrix(p, P.lattice(6, "pbc-even"))
    assert np.allclose(np.abs(tm.eigenvalues), 1.0, atol=1e-10)
    rep = S.quasienergies_from_transfer(tm)
    assert np.max(np.abs(rep.quasienergies.imag)) < 1e-10


def test_identity_when_couplings_vanish():
    p = P.ModelParams(0.0, 0.0, 0.0, 0.0)
    assert np.allclose(_dense_m(p, P.lattice(4, "obc")), np.eye(8))


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
        tm = S.build_transfer_matrix(p, lat)
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
        tm = S.build_transfer_matrix(p, lat)
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


def _cell_stack(lat):
    """U_q (N x 2L x 4), U_q[(x, a), b] = e^{iqx} delta_ab / sqrt(N), and
    V_q (N x 4 x 4) = [[1, 1], [e^{ik}, -e^{ik}]] (x) 1 / sqrt(2), k = q/2,
    at every two-site momentum q of ``lat``, built here from their formulas."""
    q, n = S.cell_momenta(lat), lat.L // 2
    u = np.stack([np.kron(np.exp(1j * qi * np.arange(n))[:, None], np.eye(4)) for qi in q])
    v = np.stack([np.kron([[1, 1], [np.exp(0.5j * qi), -np.exp(0.5j * qi)]], np.eye(2))
                  for qi in q])
    return q, u / np.sqrt(n), v / np.sqrt(2)


def _engine_cell_blocks(p, q):
    """The momentum stack's 4x4 blocks F_q and H_q as the engine forms them."""
    from floquet_ising import gaussian

    blocks, _ = gaussian._bloch_stack(p, q)
    return (gaussian._cell_blocks(q, blocks.period(-1.0)),
            gaussian._cell_blocks(q, blocks.hamiltonian()))


def _one_site_pairs(m, u, v):
    """V_q^dag U_q^dag M U_q V_q of a dense M at every q, and its diagonal
    2x2 blocks, the one-site pair at k = q/2 and k + pi."""
    g = np.swapaxes((u @ v).conj(), -1, -2) @ m @ (u @ v)
    return g, np.stack([g[:, :2, :2], g[:, 2:, 2:]], axis=1)


@pytest.mark.parametrize("bc", ["pbc-even", "pbc-odd"])
@pytest.mark.parametrize("L", [8, 10, 12, 14])
def test_frame_map_blocks_are_the_dense_map_in_momentum(bc, L):
    # F U_q = U_q F_q for the engine's F_q = V_q diag(t_k, t_{k+pi}) V_q^dag,
    # and the spectrum of F_q is that of the builder's period blocks at
    # q/2, q/2 + pi (the +k operator blocks: the spectrum is even in k)
    rng = np.random.default_rng(L)
    lat = P.lattice(L, bc)
    q, u, _ = _cell_stack(lat)
    for _ in range(4):
        p = P.ModelParams(rng.uniform(-np.pi, np.pi), rng.uniform(-1.0, 1.0),
                          rng.uniform(-np.pi, np.pi), rng.uniform(-1.0, 1.0))
        f = S.build_kick_forms(p, lat).step(np.eye(2 * L, dtype=complex), -1.0)
        fq = _engine_cell_blocks(p, q)[0]
        t = S.bloch_blocks(p.J, p.h, q[:, None] / 2 + [0, np.pi]).period()
        for ui, fi, ti in zip(u, fq, t):
            assert np.linalg.norm(f @ ui - ui @ fi) <= 1e-13
            mu = np.linalg.eigvals(ti).ravel()
            cost = np.abs(np.linalg.eigvals(fi)[:, None] - mu[None, :])
            r, c = linear_sum_assignment(cost)
            assert cost[r, c].max() <= 1e-12


@settings(max_examples=40)
@given(st.integers(1, 40), st.sampled_from(["pbc-even", "pbc-odd"]),
       st.tuples(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
                 st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0)))
@example(cells=13, bc="pbc-odd", couplings=(0.0, 1.0, 0.0, 1.0))
def test_frame_map_blocks_are_one_site_blocks_in_the_bloch_basis(cells, bc, couplings):
    # the dense frame map in the one-site Bloch basis U_q V_q is
    # diag(t_k, t_{k+pi}), each t the builder's period block
    # exp(-4W'_{-k}) exp(-4W''_{-k}) of determinant 1: the identity the
    # direct momentum frame (gaussian._bloch_frame) is built on.  The
    # determinant is the builder's: t read off the dense map carries
    # rounding of order eps ||t||^2, ~1e-12 where ||t|| nears 27
    p, lat = P.ModelParams(*couplings), P.lattice(2 * cells, bc)
    q, u, v = _cell_stack(lat)
    f = S.build_kick_forms(p, lat).step(np.eye(4 * cells, dtype=complex), -1.0)
    g, t = _one_site_pairs(f, u, v)
    bound = 1e-13 * np.linalg.norm(g, axis=(1, 2))
    assert np.all(np.linalg.norm(g[:, :2, 2:], axis=(1, 2)) <= bound)
    assert np.all(np.linalg.norm(g[:, 2:, :2], axis=(1, 2)) <= bound)
    built = S.bloch_blocks(p.J, p.h, -(q[:, None] / 2 + [0, np.pi])).period(-1.0)
    assert np.all(np.linalg.norm(t - built, axis=(2, 3)) <= bound[:, None])
    assert np.max(np.abs(np.linalg.det(built) - 1)) <= 1e-12


@settings(max_examples=40)
@given(st.integers(1, 40), st.sampled_from(["pbc-even", "pbc-odd"]),
       st.tuples(st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
                 st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0)))
def test_hamiltonian_blocks_are_one_site_blocks_in_the_bloch_basis(cells, bc, couplings):
    # the same basis takes the dense continuous-limit H = i (W' + W'') to
    # diag(h_k, h_{k+pi}), each h the builder's traceless i(W'_{-k} + W''_{-k})
    from floquet_ising import gaussian

    p, lat = P.ModelParams(*couplings), P.lattice(2 * cells, bc)
    q, u, v = _cell_stack(lat)
    g, h = _one_site_pairs(gaussian.continuous_hamiltonian(p, lat), u, v)
    bound = 1e-13 * np.linalg.norm(g, axis=(1, 2))
    assert np.all(np.linalg.norm(g[:, :2, 2:], axis=(1, 2)) <= bound)
    assert np.all(np.linalg.norm(g[:, 2:, :2], axis=(1, 2)) <= bound)
    built = S.bloch_blocks(p.J, p.h, -(q[:, None] / 2 + [0, np.pi])).hamiltonian()
    assert np.all(np.linalg.norm(h - built, axis=(2, 3)) <= bound[:, None])
    assert np.all(np.trace(built, axis1=-2, axis2=-1) == 0)


@pytest.mark.parametrize("bc", ["pbc-even", "pbc-odd"])
@pytest.mark.parametrize("L", [8, 10, 12, 14])
def test_hamiltonian_blocks_are_the_dense_hamiltonian_in_momentum(bc, L):
    # H U_q = U_q H_q for the continuous-limit H = i (W' + W'') and the
    # engine's H_q = V_q diag(h_k, h_{k+pi}) V_q^dag
    from floquet_ising import gaussian

    rng = np.random.default_rng(L)
    lat = P.lattice(L, bc)
    q, u, _ = _cell_stack(lat)
    for _ in range(4):
        p = P.ModelParams(*rng.uniform(-1.0, 1.0, 4))
        h = gaussian.continuous_hamiltonian(p, lat)
        for ui, hi in zip(u, _engine_cell_blocks(p, q)[1]):
            assert np.linalg.norm(h @ ui - ui @ hi) <= 1e-13


@settings(max_examples=100)
@given(st.floats(-np.pi, np.pi), st.floats(-1.5, 1.5), st.floats(-np.pi, np.pi),
       st.floats(-1.5, 1.5), st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=8))
def test_bloch_blocks_period_trace_is_the_dispersion(aj, bj, ah, bh, k):
    # tr/2 of the period block exp(4W'_k) exp(4W''_k) is x/4 = cosh(w_k) =
    # cos(eps_k) of _dispersion, its determinant is 1, and the
    # continuous-limit blocks are traceless, at every momentum of the array
    p = P.ModelParams(aj, bj, ah, bh)
    blocks = S.bloch_blocks(p.J, p.h, k)
    t = blocks.period()
    x4 = np.cos(S._dispersion(p.J, p.h, k)[1])
    scale = np.maximum(np.linalg.norm(t, axis=(1, 2)) ** 2, 1.0)
    assert np.all(np.abs(np.trace(t, axis1=1, axis2=2) / 2 - x4) <= 1e-12 * scale)
    assert np.all(np.abs(np.linalg.det(t) - 1) <= 1e-12 * scale)
    assert np.all(np.trace(blocks.hamiltonian(), axis1=1, axis2=2) == 0)


def test_open_chain_has_no_momenta():
    with pytest.raises(ValidationError, match="periodic chains"):
        S.allowed_momenta(P.lattice(8, "obc"))


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


# alpha_J = pi/4 - 0.35 / cosh(18), beta_h = 9: the pbc-even modes' x/4 is
# ~0.7 with a small imaginary part, the pbc-odd sector's |x| ~ 4 sinh(18)
_SPLIT_THRESHOLDS = (0.7853981527364624, 0.0, 5e-8, 9.0)


@settings(max_examples=150)
@given(st.integers(2, 64), st.sampled_from(["free", "J=h", "unitary", "x=-4"]),
       st.floats(-np.pi, np.pi), st.floats(-1.5, 1.5),
       st.floats(-np.pi, np.pi), st.floats(-1.5, 1.5))
@example(2, "free", *_SPLIT_THRESHOLDS)  # sectors whose max |eps| differ 20-fold
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


def test_a_shared_real_mode_threshold_would_change_the_census():
    # the example above discriminates: at L = 2 the pbc-even modes have
    # |Im eps| 9.7e-8, not real by their own sector's threshold (1e-8) but
    # real by one shared with pbc-odd, whose max |eps| is 20 times larger
    p = P.ModelParams(*_SPLIT_THRESHOLDS)
    eps = [S._dispersion(p.J, p.h, S.allowed_momenta(P.lattice(2, bc)))[1]
           for bc in ("pbc-even", "pbc-odd")]
    assert int(np.sum(S._real(np.concatenate(eps)))) == 2


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
    the kick angles +-4s taken from the chain's bonds as doubles."""
    mpmath = pytest.importorskip("mpmath")
    forms = S.build_kick_forms(p, lat)
    n, L = lat.n_majorana, lat.L
    angles = []
    for bonds in _chain_bonds(p, lat):
        angles.append(np.zeros(n, dtype=complex))
        for a, b, s in bonds:
            angles[-1][a], angles[-1][b] = 4 * s, -4 * s
    with mpmath.workdps(40):
        def kick(form, angle, x):
            c = [mpmath.cos(mpmath.mpc(a)) for a in angle]
            s = [mpmath.sin(mpmath.mpc(a)) for a in angle]
            return [[c[r] * x[r][j] + s[r] * x[form[0][r]][j] for j in range(L)]
                    for r in range(n)]
        basis = [[mpmath.mpc(0)] * L for _ in range(n)]
        for m in range(L):
            basis[m][m] = mpmath.mpc(1)
            basis[n - 1 - m][m] = mpmath.mpc(0, (-1) ** m)
        b_plus = kick(forms.coupling, angles[0], kick(forms.field, angles[1], basis))[:L]
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


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is plain double here: the refine gains no digits")
@settings(max_examples=4)
@given(st.integers(8, 24), st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0))
@example(18, 2.005652598123242, 0.2242496452185141, 2.005652598123242, -1.3839106311816078)
@example(10, 0.9844053153699868, 0.0, 0.0, 0.1875)  # refined 2e-26 farther, both 4e-17 off
def test_refined_edge_energies_match_the_40_digit_eig(L, aj, bj, ah, bh):
    # each refined record (the two-sided Rayleigh quotient in extended
    # precision) lies within 1e-15 of a 40-digit eig of B_+ and no farther
    # from it than the unrefined record, up to the rounding of a double
    # energy: the fold rounds Re eps + pi in [0, 2 pi], so two energies of
    # one mode at that floor differ in error by up to a unit of spacing(2 pi)
    # (up to 4.3e-16 seen on pi modes); kinds, end weights and decay lengths
    # are the unrefined scan's
    p, lat = P.ModelParams(aj, bj, ah, bh), P.lattice(L, "obc")
    try:
        refined = S.detect_edge_modes(p, lat).edge_modes
        raw = S.detect_edge_modes(p, lat, refine=False).edge_modes
    except NumericalBreakdown:
        return
    same = lambda m: (m.kind, m.left_weight, m.right_weight, m.localization_length)
    assert [same(m) for m in refined] == [same(m) for m in raw]
    if not refined:
        return
    ref = _sector_energies_mp(p, lat)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        error = lambda e: float(min(abs(e - x - 2 * k * mpmath.pi)
                                    for x in ref for k in (-1, 0, 1)))
        for m, r in zip(refined, raw):
            assert error(m.energy) <= min(1e-15, error(r.energy) + np.spacing(2 * np.pi)), (m, r)


def _edge_columns(p, lat):
    """The scan's own candidate vectors: the site weights and the kind of
    each column that ``detect_edge_modes`` makes an edge record of."""
    tm = S.build_transfer_matrix(p, lat)
    mu, c, _ = S._edge_candidates(tm)
    weights = S._site_weights(S._candidate_vectors(tm, c)[0])
    kinds = S._edge_kinds(S.quasienergies_from_eigenvalues(S._pairs(mu)))
    ne = max(1, int(S._EDGE_FRACTION * lat.L))
    edge = (kinds != "") & (weights[:ne].sum(axis=0) + weights[-ne:].sum(axis=0) > 0.5)
    return weights[:, edge], kinds[edge]


@given(st.integers(8, 160), st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0))
@example(144, 1.5 * np.pi / 4, -0.1 * np.pi / 4, 1.5 * np.pi / 4, 0.5 * np.pi / 4)  # 0pi
@example(40, 0.3 * np.pi / 4, -np.pi / 4, 0.3 * np.pi / 4, 0.5 * np.pi / 4)
@example(40, np.pi / 2, 0.0, 0.5, 0.2)  # |tan J| ~ 1e16: xi_0 ~ 0.03, a mode on one site
def test_edge_records_decay_by_the_closed_form(L, aj, bj, ah, bh):
    # each record's decay length is -1/ln r of its kind, r_0 = |tan h /
    # tan J| and r_pi = 1/|tan J tan h| (inf where r >= 1); where that is
    # 0.15 to L/12 sites it is the slope of the mode's own tail over the
    # weights above the rounding floor, within 1e-3
    p, lat = P.ModelParams(aj, bj, ah, bh), P.lattice(L, "obc")
    try:
        rep = S.detect_edge_modes(p, lat, refine=False)
    except NumericalBreakdown:
        return
    tan_j, tan_h = abs(np.tan(p.J)), abs(np.tan(p.h))
    with np.errstate(all="ignore"):
        ratio = {"zero": np.divide(tan_h, tan_j), "pi": np.divide(1.0, tan_j * tan_h)}
        xi = {k: -1.0 / np.log(r) if r < 1 else np.inf for k, r in ratio.items()}
    for m in rep.edge_modes:
        assert m.localization_length == pytest.approx(xi[m.kind], rel=1e-12, abs=1e-300)
    weights, kinds = _edge_columns(p, lat)
    assert sorted(kinds) == sorted(m.kind for m in rep.edge_modes)
    for w, kind in zip(weights.T, kinds):
        if 0.15 <= xi[kind] <= L / 12:
            assert decay_length_fit(w) == pytest.approx(xi[kind], rel=1e-3)


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
    # alpha = 1, beta = 0.5 at k = pi/2: off-diagonal -0.5 cot(pi/4) = -0.5,
    # the metric of the continuous block at +k, the Floquet block's momentum
    p = P.ModelParams(1.0, 0.5, 1.0, -0.5)
    cert = S.pseudo_hermiticity_certificate(p, k=np.pi / 2)
    assert cert.eta[0, 1] == pytest.approx(-0.5)
    assert metric_residual(cert.eta, bdg_oracle(p.J, p.h, -np.pi / 2)) < 1e-10
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


def test_continuous_certificate_judges_the_continuous_block():
    # off the Hermitian and conjugate families continuous=True judges the
    # continuous block, whose pair +-(1.349 - 1.073i) is not the Floquet
    # pair +-(1.165 - 1.272i): its metric is that block's, not the Floquet one's
    p, k = P.ModelParams(0.4, 0.3, 0.9, -0.5), 1.1
    cont, floq = (S.pseudo_hermiticity_certificate(p, k=k, continuous=c) for c in (True, False))
    assert cont.family == floq.family == "numerical"
    assert np.linalg.norm(cont.eta - floq.eta) > 0.1
    # the oracle's block at -k is the continuous block at +k
    assert cont.residual == pytest.approx(metric_residual(cont.eta, bdg_oracle(p.J, p.h, -k)),
                                          rel=1e-9)
    # on the dual line the sigma_x family is the Floquet block's: the
    # continuous block there is not pseudo-Hermitian
    p = P.make_params(1.0, 0.4, 1.0, -0.7)
    assert S.pseudo_hermiticity_certificate(p, k=1.0).family == "self-dual-line"
    cont = S.pseudo_hermiticity_certificate(p, k=1.0, continuous=True)
    assert cont.family == "numerical" and not cont.certified
    assert S.dispersion_continuous(p.J, p.h, 1.0).classification == S.ModeClass.GROW_DECAY


@pytest.mark.parametrize("k", [0.4, 1.1, -2.3])
def test_certificate_reads_both_blocks_at_one_momentum(k):
    # the Floquet block at small couplings is the continuous block at the
    # same k (eps H_k + O(eps^2)): the continuous certificate's metric,
    # cot(k/2) or eigenbasis, leaves the residual it reports on that limit
    # too, not only on the block's mirror at -k
    eps = 1e-6
    for p, family in ((P.ModelParams(0.7, 0.2, 0.7, -0.2), "conjugate-couplings"),
                      (P.ModelParams(0.7, 0.2, 0.4, -0.3), "numerical")):
        limit = S.effective_hamiltonian_nambu(eps * p.J, eps * p.h, k) / eps
        cert = S.pseudo_hermiticity_certificate(p, k=k, continuous=True)
        assert cert.family == family
        assert abs(metric_residual(cert.eta, limit) - cert.residual) <= 1e-5
        assert metric_residual(cert.eta, bdg_oracle(p.J, p.h, -k)) == pytest.approx(
            cert.residual, rel=1e-6, abs=1e-14)


@settings(max_examples=100)
@given(st.floats(0.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(0.05, np.pi - 0.05))
@example(0.0, 0.5, 0.3, 0.0, np.pi / 2)
@example(0.0, 0.0, 2.0, 1.0, 1.0)
def test_continuous_metric_verdict_matches_the_continuous_class(alpha_j, beta_j, alpha_h,
                                                               beta_h, k):
    # the eigenbasis verdict on the continuous block certifies exactly the
    # blocks whose continuous pair is real or complex-conjugate (at
    # (0, 0.5, 0.3, 0), k = pi/2 the pair is +-0.8i; at (0, 0, 2, 1), k = 1
    # it is +-(pi + i pi/2), not closed under conjugation without the
    # Floquet zone); the same exclusions as for the Floquet verdict
    p = P.make_params(alpha_j, beta_j, alpha_h, beta_h)
    cert = S.pseudo_hermiticity_certificate(p, k=k, continuous=True)
    point = S.dispersion_continuous(p.J, p.h, k)
    eps, kind = point.epsilon[0], point.classification
    gap = min(abs(eps.imag), abs(eps.real))
    assume(cert.family == "numerical" and kind != S.ModeClass.EXCEPTIONAL
           and not 1e-13 < gap < 1e-6)
    assert cert.certified == (kind in (S.ModeClass.REAL, S.ModeClass.CONJUGATE_PAIR))


@pytest.mark.parametrize("k", [0.4, 1.1, 2.9])
@pytest.mark.parametrize("beta", [0.3, -0.7])
def test_conjugate_couplings_at_zero_alpha_take_the_eigenbasis_verdict(beta, k):
    # J = conj(h) = i beta: the cot(k/2) metric (beta_J / alpha_J) does not
    # exist, and the continuous pair +-i lambda is a conjugate pair
    p = P.ModelParams(0.0, beta, 0.0, -beta)
    cert = S.pseudo_hermiticity_certificate(p, k=k)
    assert cert.family == "numerical" and cert.certified and cert.residual <= 1e-12
    lam = np.linalg.eigvals(bdg_oracle(p.J, p.h, -k))
    assert np.max(np.abs(lam.real)) <= 1e-12
    assert metric_residual(cert.eta, bdg_oracle(p.J, p.h, -k)) <= 1e-12


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
    e1, e2 = kick_oracle(J, h, k)
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
    tm = S.build_transfer_matrix(p, P.lattice(8, "pbc-even"))
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


def test_few_isolated_real_modes_past_the_log_count_are_ambiguous():
    # 6 of 160 real modes at L = 40: more than the isolated few of the
    # log-law label and a density short of the volume law's 0.1, so the
    # census calls it ambiguous where the couplings alone say volume law
    p = P.make_params(1.9, -0.95, 1.9, 0.95)
    assert S.count_real_modes(p, 40) == S.RealModeCensus(6, 160)
    assert S.classify_phase(p, L=40) is P.PhaseLabel.AMBIGUOUS
    assert P.phase_label_from_params(p) is P.PhaseLabel.CRITICAL_VOLUME
    # its two neighbouring boundaries: 4 modes, and a density of 0.1
    assert S.classify_phase_from_spectrum(None, S.RealModeCensus(4, 160)) \
        is P.PhaseLabel.CRITICAL_LOG
    assert S.classify_phase_from_spectrum(None, S.RealModeCensus(16, 160)) \
        is P.PhaseLabel.CRITICAL_VOLUME


def test_imaginary_couplings_eigenvalues_off_unit_circle():
    p = P.ModelParams(0.0, 0.1, 0.0, 0.1)  # J = h = 0.1i
    tm = S.build_transfer_matrix(p, P.lattice(8, "pbc-even"))
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
    tm = S.build_transfer_matrix(p, lat)
    eps = S.quasienergies_from_eigenvalues(tm.eigenvalues)
    re = np.abs(eps.real)
    window = (np.minimum(re, np.abs(re - np.pi)) < 1e-3) & (np.abs(eps.imag) <= 1e-2)
    mu, c = np.linalg.eig(tm.b_plus)
    c = c[:, linear_sum_assignment(np.abs(tm.eigenvalues[:lat.L, None] - mu))[1]]
    v = S._sector_vectors(tm.field_kick, c)
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


def test_overflowing_kick_raises_a_typed_error(tmp_path):
    # beta_J = 400 rad: cos and sin of the coupling bond angle 2J overflow,
    # so every route stops at the kick with NumericalBreakdown (condition
    # = |Im angle|) and without a RuntimeWarning, and a spectrum sweep point
    # there is an expected error, not a crash
    from floquet_ising import gaussian

    p = P.ModelParams(0.3, 400.0, 0.2, 0.1)
    quench = P.QuenchConfig(P.named_state("neel-fermion", 8), n_periods=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bc in ("pbc-even", "obc"):
            with pytest.raises(NumericalBreakdown, match="kick") as info:
                gaussian.run_to_steady_state(p, P.lattice(8, bc), quench)
            assert info.value.condition == 800.0
        with pytest.raises(NumericalBreakdown, match="kick"):
            S.detect_edge_modes(p, P.lattice(40, "obc"))
        spec = sweep.SweepSpec(({"beta_J": 400.0},),
                               {"alpha_J": 0.3, "alpha_h": 0.2, "beta_h": 0.1, "L": 40,
                                "bc": "obc", "units": "rad"}, "spectrum")
        manifest = sweep.run_sweep(spec, tmp_path)
    assert [pt["status"] for pt in manifest.points] == ["error"]
    assert manifest.points[0]["error"].startswith("NumericalBreakdown: kick")


def test_underflowed_sector_eigenvalue_raises_a_typed_error():
    # the dense B_+ of this open chain has an eigenvalue that underflows to
    # an exact 0, whose partner 1/mu has no double: the dense spectrum
    # raises NumericalBreakdown instead of a log of zero (a RuntimeWarning),
    # and so does the edge scan, whose discs fall back to that spectrum
    p = P.ModelParams(-2.4220124821642286, -19.753644251286456, 1e-72, -0.6662632025551591)
    lat = P.lattice(30, "obc")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalBreakdown, match="underflowed"):
            S.detect_edge_modes(p, lat)
        with pytest.raises(NumericalBreakdown, match="underflowed"):
            S.SpectrumReport(S.build_transfer_matrix(p, lat)).quasienergies


# open L = 8 chains whose dense sector block has an eigenvalue above 1/tiny
# (~4.5e307), whose partner 1/mu underflows
EIGENVALUE_OVERFLOW = [P.ModelParams(0.02596044813829268, -354.51482246801424,
                                     0.38326965777509603, -0.2963382005925762),
                       P.ModelParams(-1.9935769188785868, 353.0578730084591,
                                     2.3882269310642954, -1.803637509051307)]


@pytest.mark.parametrize("p", EIGENVALUE_OVERFLOW)
def test_overflowed_sector_eigenvalue_raises_a_typed_error(p):
    # the edge scan's discs fall back to the dense spectrum, which raises
    # NumericalBreakdown, not a RuntimeWarning from 1/mu nor a "singular-lu"
    # report with no records after log(0); a spectrum sweep point records it
    lat, match = P.lattice(8, "obc"), r"outside \[tiny, 1/tiny\]"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalBreakdown, match=match):
            S.detect_edge_modes(p, lat)
        with pytest.raises(NumericalBreakdown, match=match):
            S.SpectrumReport(S.build_transfer_matrix(p, lat)).quasienergies


def test_spectrum_point_whose_sector_eigenvalue_overflows_is_an_error(tmp_path):
    p = EIGENVALUE_OVERFLOW[0]
    spec = sweep.SweepSpec(({"beta_J": p.beta_J},),
                           {"alpha_J": p.alpha_J, "alpha_h": p.alpha_h, "beta_h": p.beta_h,
                            "L": 8, "bc": "obc", "units": "rad"}, "spectrum")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        manifest = sweep.run_sweep(spec, tmp_path)
    assert [pt["status"] for pt in manifest.points] == ["error"]
    assert "outside [tiny, 1/tiny]" in manifest.points[0]["error"]


@pytest.mark.parametrize("bc", ["obc", "pbc-even", "pbc-odd"])
@pytest.mark.parametrize("beta_j, beta_h", [(400.0, 0.1), (0.1, 400.0), (380.0, 400.0),
                                            (400.0, 380.0)])
def test_transfer_matrix_overflows_as_the_kick_forms_do(bc, beta_j, beta_h):
    # the closed-form blocks take their scalars as the forms take their
    # angles: the same NumericalBreakdown, condition and message, the
    # coupling kick's first where both overflow
    p, lat = P.ModelParams(0.3, beta_j, 0.2, beta_h), P.lattice(8, bc)
    errors = []
    for build in (S.build_kick_forms, S.build_transfer_matrix):
        with pytest.raises(NumericalBreakdown) as info:
            build(p, lat)
        errors.append((str(info.value), info.value.condition))
    assert errors[0] == errors[1]
    assert errors[0][1] == (2 * beta_j if beta_j > 1 else 2 * beta_h)


# each kick of this chain is finite (|Im 2J| = 611.5, |Im 2h| = 254.0), but
# the products of the two kicks' cos and sin are not
PERIOD_OVERFLOW = P.ModelParams(1.838849070774832, 305.7605778031261,
                                -1.7887682043279145, 127.00018446793942)


@pytest.mark.parametrize("L", [20, 21])
def test_overflowing_period_raises_a_typed_error_in_the_edge_scan(L):
    # the kick forms, the closed-form band and the edge scan raise the one
    # period NumericalBreakdown (condition |Im 2J| + |Im 2h|), without a
    # RuntimeWarning
    p, lat = PERIOD_OVERFLOW, P.lattice(L, "obc")
    grow = abs((2 * p.J).imag) + abs((2 * p.h).imag)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (S.build_kick_forms, S.build_transfer_matrix, S.detect_edge_modes):
            with pytest.raises(NumericalBreakdown, match="period") as info:
                call(p, lat)
            assert info.value.condition == grow


# below the period bound (|Im 2J| + |Im 2h| = 710.72 < 711.18), but the
# kicks' sums overflow: the band at L = 8, 12 and 40, the tol sum at L = 11
BAND_OVERFLOW = P.ModelParams(-1.0520392066147748, 318.9693860337629,
                              0.5221918847479463, 36.39289428703189)


@pytest.mark.parametrize("L", [8, 11, 12, 40])
def test_overflowing_sector_band_raises_a_typed_error(L):
    # the transfer matrix and the edge scan raise NumericalBreakdown
    # (condition |Im 2J| + |Im 2h|) before any scan, without a RuntimeWarning
    # and not from the dense eigenvalue solve of an inf band
    p, lat = BAND_OVERFLOW, P.lattice(L, "obc")
    grow = abs((2 * p.J).imag) + abs((2 * p.h).imag)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (S.build_transfer_matrix, S.detect_edge_modes):
            with pytest.raises(NumericalBreakdown, match="sector band overflows") as info:
                call(p, lat)
            assert info.value.condition == grow


def test_spectrum_point_whose_sector_band_overflows_is_an_error(tmp_path):
    # the same chain as a spectrum sweep point, whose edge scan runs first:
    # an "error" with the band's message, not a "crash" on a RuntimeWarning
    p = BAND_OVERFLOW
    spec = sweep.SweepSpec(({"beta_J": p.beta_J},),
                           {"alpha_J": p.alpha_J, "alpha_h": p.alpha_h, "beta_h": p.beta_h,
                            "L": 8, "bc": "obc", "units": "rad"}, "spectrum")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        manifest = sweep.run_sweep(spec, tmp_path)
    assert [pt["status"] for pt in manifest.points] == ["error"]
    assert "sector band overflows" in manifest.points[0]["error"]


@pytest.mark.parametrize("bc", ["obc", "pbc-even", "pbc-odd"])
def test_period_just_under_the_overflow_bound_is_finite(bc):
    # |Im 2J| + |Im 2h| = 708, below the bound (~711.2, where cos 2J cos 2h
    # passes the largest double): the kicks, the band, the pencil and the
    # one-site period are built, finite, without a RuntimeWarning
    p, lat = P.ModelParams(0.3, 200.0, 0.2, 154.0), P.lattice(9, bc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m = S.build_kick_forms(p, lat).step(np.eye(lat.n_majorana, dtype=complex))
        tm = S.build_transfer_matrix(p, lat)
        t = S.bloch_blocks(p.J, p.h, [0.0, 1.0]).period()
    assert all(np.isfinite(a).all() for a in (m, tm.band, tm.pencil, t))


def test_overflowing_dispersion_raises_a_typed_error():
    # the same point in the momentum census: cos(2h +- 2J) overflows, so
    # the census and the dispersion raise NumericalBreakdown (condition =
    # the larger |Im(2h +- 2J)|) without a RuntimeWarning, not a census of
    # NaN quasienergies
    p = P.ModelParams(0.3, 400.0, 0.2, 0.1)
    grow = max(abs((2 * p.h - 2 * p.J).imag), abs((2 * p.h + 2 * p.J).imag))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (lambda: S.count_real_modes(p, 40),
                     lambda: S.count_real_modes(p, 8, sectors="pbc-even"),
                     lambda: S.dispersion_points(p.J, p.h, [0.0, 1.0]),
                     lambda: S.classify_phase(p)):
            with pytest.raises(NumericalBreakdown, match="dispersion") as info:
                call()
            assert info.value.condition == grow


def _plain_x(J, h, k):
    """x = 4 cosh(w_k) at each momentum, as ``_dispersion`` writes it."""
    k = np.asarray(k, dtype=float)
    with np.errstate(all="ignore"):
        return (2 * (1 + np.cos(k)) * np.cos(2 * h - 2 * J)
                + 2 * (1 - np.cos(k)) * np.cos(2 * h + 2 * J))


def _plain_dispersion(J, h, k):
    """disc and eps from exp(w) = x/4 + sqrt((x/4)^2 - 1), as written, and
    the momenta where that sum does not cancel: |x/4 + root| >= |x/4 - root|."""
    x = _plain_x(J, h, k)
    with np.errstate(all="ignore"):
        disc = (x / 4.0) ** 2 - 1.0
        root = np.sqrt(np.asarray(disc, dtype=complex))
        ew = x / 4.0 + root
        eps = 1j * np.log(ew)
    eps.real = S.fold_real_part(eps.real)
    return disc, eps, np.abs(ew) >= np.abs(x / 4.0 - root)


# the couplings (radians) of a chain whose x/4 + sqrt((x/4)^2 - 1) cancels
# at three of its eight pbc-even momenta: every mode grows or decays
_CANCELLING = (-1.4109692722406648, -17.349799876587074, 0.7238668295285406, 1.6959445579560963)


@settings(max_examples=60)
@given(st.floats(-np.pi, np.pi), st.floats(-180.0, 180.0), st.floats(-np.pi, np.pi),
       st.floats(-1.2, 1.2), st.integers(2, 40), st.sampled_from(["pbc-even", "pbc-odd"]))
def test_dispersion_is_the_plain_form_wherever_its_square_is_finite(a_j, b_j, a_h, b_h, L, bc):
    # bit for bit where the sum does not cancel; where it does, _dispersion
    # takes the reciprocal of the other root (the 400-digit test below)
    p = P.ModelParams(a_j, b_j, a_h, b_h)
    k = S.allowed_momenta(P.lattice(L, bc))
    ref_disc, ref_eps, kept = _plain_dispersion(p.J, p.h, k)
    assume(np.all(np.isfinite(ref_disc)))
    disc, eps = S._dispersion(p.J, p.h, k)
    np.testing.assert_array_equal(disc, ref_disc)
    np.testing.assert_array_equal(eps[kept], ref_eps[kept])


@settings(max_examples=60)
@given(st.floats(-np.pi, np.pi), st.floats(-180.0, 180.0), st.floats(-np.pi, np.pi),
       st.floats(-1.2, 1.2), st.integers(2, 40), st.sampled_from(["pbc-even", "pbc-odd"]))
@example(*_CANCELLING, 8, "pbc-even")
@example(*_CANCELLING, 8, "pbc-odd")
def test_dispersion_is_the_principal_branch_at_400_digits(a_j, b_j, a_h, b_h, L, bc):
    # every momentum of the draws above, cancelling sums included: eps =
    # i Log(q + sqrt(q^2 - 1)), q = x/4, on the principal branches, from the
    # same double x at 400 digits (enough to resolve the -1 beside q^2 for
    # |q| up to ~1e154).  The rounding of q^2 - 1 moves the root by
    # ~eps |q|^2 / |root|, and eps by that over the larger of |q +- root|:
    # a slack that matters only near a degenerate root (q^2 = 1).  On the
    # root's branch cut (disc real and negative) the signed zero of Im disc
    # picks the root, so there either member of the pair +-eps is taken.
    mpmath = pytest.importorskip("mpmath")
    p = P.ModelParams(a_j, b_j, a_h, b_h)
    k = S.allowed_momenta(P.lattice(L, bc))
    disc, eps = S._dispersion(p.J, p.h, k)
    assume(np.all(np.isfinite(disc)))
    with mpmath.workdps(400):
        for x, d, e in zip(_plain_x(p.J, p.h, k), disc, eps):
            q = mpmath.mpc(x) / 4
            r = mpmath.sqrt(q * q - 1)
            ref = complex(1j * mpmath.log(q + r))
            slack = float(abs(q) ** 2 / (abs(r) * max(abs(q + r), abs(q - r)))) if r else 0.0
            signs = (1, -1) if d.imag == 0 and d.real < 0 else (1,)
            err = min(abs(sign * e - ref - 2 * np.pi * n) for sign in signs for n in (-1, 0, 1))
            assert err <= 1e-14 * (max(abs(ref), 1.0) + slack), (x, e, ref)


def test_census_where_the_dispersion_sum_cancels_holds_no_real_mode():
    # the plain sum gave eps = 0 at k = +-pi/8 and pi - 3.47i at k = 7pi/8,
    # four spurious real modes; every mode has |Im eps| above 30
    p = P.ModelParams(*_CANCELLING)
    assert S.count_real_modes(p, 8) == S.RealModeCensus(0, 32)
    for bc in ("pbc-even", "pbc-odd"):
        eps = S._dispersion(p.J, p.h, S.allowed_momenta(P.lattice(8, bc)))[1]
        assert np.abs(eps.imag).min() > 30


@pytest.mark.parametrize("beta_j", [180.0, 200.0, 250.0, -300.0, 350.0])
def test_dispersion_where_its_square_overflows_is_the_arccosh(beta_j):
    # cos(2h +- 2J) is finite but (x/4)^2 is not: eps = +-i arccosh(x/4),
    # checked at 50 digits, finite and without a RuntimeWarning
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    p = P.ModelParams(0.3, beta_j, 0.2, 0.1)
    k = S.allowed_momenta(P.lattice(16, "pbc-even"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        disc, eps = S._dispersion(p.J, p.h, k)
    assert not np.any(np.isfinite(disc)) and np.all(np.isfinite(eps))
    J, h = mpmath.mpc(p.J), mpmath.mpc(p.h)
    for q, e in zip(k, eps):
        x = 2 * (1 + mpmath.cos(q)) * mpmath.cos(2 * h - 2 * J) \
            + 2 * (1 - mpmath.cos(q)) * mpmath.cos(2 * h + 2 * J)
        ref = complex(1j * mpmath.acosh(x / 4))
        err = min(abs(sign * e - ref - 2 * np.pi * n) for sign in (1, -1) for n in (-1, 0, 1))
        assert err < 1e-14 * abs(ref)


def test_census_is_finite_where_the_squared_dispersion_overflows():
    # beta_J = 200: |Im(2h +- 2J)| ~ 400, past where (x/4)^2 overflows; every
    # mode grows or decays, so the census holds no real mode
    p = P.ModelParams(0.3, 200.0, 0.2, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        census = S.count_real_modes(p, 40)
        pts = S.dispersion_points(p.J, p.h, S.allowed_momenta(P.lattice(40, "pbc-even")))
    assert (census.count, census.total) == (0, 160)
    eps = np.array([pt.epsilon[0] for pt in pts])
    assert np.all(np.isfinite(eps)) and np.all(np.abs(eps.imag) > 390)
    assert {pt.classification for pt in pts} == {"grow-decay"}


def test_dispersion_raises_where_x_overflows_with_finite_cosines():
    # |Im(2h + 2J)| = 710.47: both cosines are finite, but x = 2(1 + cos k)
    # cos(2h - 2J) + 2(1 - cos k) cos(2h + 2J) is not, so the census and the
    # dispersion raise the dispersion's NumericalBreakdown, not NaN eps
    p = P.ModelParams(-0.3052789553627213, -355.0812829961607,
                      -0.7892514452888029, -0.1549948369818952)
    assert all(cmath.isfinite(cmath.cos(2 * p.h + s * 2 * p.J)) for s in (1, -1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (lambda: S.count_real_modes(p, 8),
                     lambda: S.dispersion_points(p.J, p.h, [0.0, 1.0])):
            with pytest.raises(NumericalBreakdown, match="dispersion overflows"):
                call()


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
    mu, vr = np.linalg.eig(_dense_m(p, P.lattice(L, "obc")))
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
    p, lat = P.ModelParams(aj, bj, ah, bh), P.lattice(L, bc)
    tm = S.build_transfer_matrix(p, lat)
    m = _dense_m(p, lat)
    scale = np.linalg.norm(m, 2)
    mu = np.linalg.eigvals(m)
    cost = np.abs(tm.eigenvalues[:, None] - mu[None, :])
    r, c = linear_sum_assignment(cost)
    assert cost[r, c].max() <= 1e-9 * scale


@settings(max_examples=60)
@given(st.integers(2, 40), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0))
def test_kick_forms_are_odd_under_the_chiral_sign_and_the_mirror(L, bc, aj, bj, ah, bh):
    # the invariant the sector split rests on, for odd and even L: with
    # Gamma = diag((-1)^m) and the mirror P: m -> 2L-1-m, both kicks have
    # Gamma W Gamma = -W (bonds join Majoranas of opposite parity) and
    # P W P = -W (the mirror image of each bond is a bond of opposite angle)
    for w in _dense_ws(P.ModelParams(aj, bj, ah, bh), P.lattice(L, bc)):
        gamma = (-1.0) ** np.arange(2 * L)
        assert np.array_equal(gamma[:, None] * w * gamma, -w)
        assert np.array_equal(w[::-1, ::-1], -w)


@settings(max_examples=60)
@given(st.integers(2, 24), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.sampled_from([1.0, -1.0]), st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0))
def test_period_map_keeps_both_sectors(L, bc, sign, aj, bj, ah, bh):
    # the invariant the sector blocks rest on: U and conj(U) span invariant
    # subspaces of exp(s 4W') exp(s 4W''), for either kick sign, so their
    # images are fixed by the top L rows; U^dag U = 2
    kicks = S.build_kick_forms(P.ModelParams(aj, bj, ah, bh), P.lattice(L, bc))
    u = S.sector_basis(2 * L)
    assert u.shape == (2 * L, L)
    assert np.array_equal(u.conj().T @ u, 2 * np.eye(L))
    for x in (u, u.conj()):
        image = kicks.step(x, sign)
        assert np.linalg.norm(image - x @ image[:L]) <= 1e-13 * np.linalg.norm(image)


@settings(max_examples=60)
@given(st.integers(4, 60), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
def test_banded_transfer_block_is_the_dense_kick_bit_for_bit(L, bc, aj, bj, ah, bh, seed):
    # the closed-form band, the dense block formed from it, the scan's
    # shift and the index-written sector vectors equal the dense kick of
    # the whole sector basis and its products exactly
    p, lat = P.ModelParams(aj, bj, ah, bh), P.lattice(L, bc)
    tm = S.build_transfer_matrix(p, lat)
    dense = S.build_kick_forms(p, lat).step(S.sector_basis(2 * L))[:L]
    assert tm.band.shape == (7, L) and tm.band.flags.f_contiguous
    assert not tm.band[:2].any()
    assert np.array_equal(tm.b_plus.view(np.uint64), dense.view(np.uint64))  # signed zeros too
    assert tm.tol == L * np.finfo(float).eps * np.linalg.norm(dense, 1)
    x = np.random.default_rng(seed).standard_normal((L, 3, 2)) @ [1, 1j]
    v_plus = S._sector_vectors(tm.field_kick, x)[:, :3]
    assert np.array_equal(v_plus.view(np.uint64),
                          (S.sector_basis(2 * L) @ x / np.sqrt(2.0)).view(np.uint64))
    # the banded product within the rounding bound of a five-term sum
    bound = 12 * np.finfo(float).eps * (np.abs(dense) @ np.abs(x))
    assert np.all(np.abs(S._band_matvec(tm.band, x) - dense @ x) <= bound)


@settings(max_examples=60)
@given(st.integers(2, 60), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0))
def test_pencil_diagonals_are_the_dense_sector_kicks_bit_for_bit(L, bc, aj, bj, ah, bh):
    # the three closed-form diagonals of K2_+ (field kick) and K1_+^-1
    # (coupling kick, sign -1) equal the dense kicks of the whole sector
    # basis exactly; both blocks are tridiagonal, and the two corners
    # outside the matrix are zero
    p, lat = P.ModelParams(aj, bj, ah, bh), P.lattice(L, bc)
    tm = S.build_transfer_matrix(p, lat)
    kicks, pencil = S.build_kick_forms(p, lat), tm.pencil
    assert pencil.shape == (2, 3, L)
    i, j = np.indices((L, L))
    inside = np.abs(i - j) <= 1
    for band, (form, sign) in zip(pencil, ((kicks.field, 1.0), (kicks.coupling, -1.0))):
        dense = S._rotate(S.sector_basis(2 * L), *form, sign)[:L]
        assert not dense[~inside].any()
        got = band[1 + i[inside] - j[inside], j[inside]]
        assert np.array_equal(got.view(np.uint64), dense[inside].view(np.uint64))
        assert band[0, 0] == 0 and band[2, -1] == 0


@settings(max_examples=60)
@given(st.integers(2, 60), st.sampled_from(["pbc-even", "pbc-odd", "obc"]),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
def test_chiral_partner_vectors_are_the_field_kick_bit_for_bit(L, bc, aj, bj, ah, bh, seed):
    # v_- = Gamma K2 v_+ from the field kick's two cos and sin (no kick
    # form) equals Gamma times the built field kick of v_+, normalized,
    # bit for bit
    p, lat = P.ModelParams(aj, bj, ah, bh), P.lattice(L, bc)
    tm = S.build_transfer_matrix(p, lat)
    x = np.random.default_rng(seed).standard_normal((L, 3, 2)) @ [1, 1j]
    v = S._sector_vectors(tm.field_kick, x)
    field = S.build_kick_forms(p, lat).field
    ref = (-1.0) ** np.arange(2 * L)[:, None] * S._rotate(v[:, :3], *field, 1.0)
    ref /= np.linalg.norm(ref, axis=0)
    assert np.array_equal(v[:, 3:].view(np.uint64), ref.view(np.uint64))


@settings(max_examples=60)
@given(st.integers(8, 160), st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0))
@example(8, 0.3, -0.2, 1.1, 0.4)
@example(9, 0.3, -0.2, 1.1, 0.4)
@example(144, 1.2, 0.1, 1.2, 0.4)
@example(145, 1.2, 0.1, 1.2, 0.4)
@example(8, -1.0, 0.0, 0.0, 0.0)  # a signed zero differs between columns 1 and 3
def test_pencil_repeats_with_period_two_between_its_end_columns(L, aj, bj, ah, bh):
    # the closed-form determinant reads the pencil's columns 0 .. 3, L-2
    # and L-1 only: every column 1 .. L-2 of both diagonals equals the one
    # two before it (from column 3 on) exactly, on odd and even L; the
    # bits agree too but for the sign of a zero entry (at alpha_J = -1 a
    # zero of K1_+^-1 is -0 in column 3 and +0 in column 1), which no
    # product's value sees
    pencil = S.build_transfer_matrix(P.ModelParams(aj, bj, ah, bh), P.lattice(L, "obc")).pencil
    middle = pencil[:, :, 1:L - 1]
    later, earlier = middle[:, :, 2:], middle[:, :, :-2]
    assert np.array_equal(later, earlier)
    nonzero = later != 0
    assert np.array_equal(later[nonzero].view(np.uint64), earlier[nonzero].view(np.uint64))


@settings(max_examples=40)
@given(st.integers(8, 40), st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0))
def test_candidate_vectors_match_the_dense_eig(L, aj, bj, ah, bh):
    # the Rayleigh-quotient vectors of every sector eigenvalue, the
    # iteration run from each dense one as the dense fallback runs it, and
    # their kappa, against the dense 2L x 2L eig wherever that eig
    # determines them
    p, lat = P.ModelParams(aj, bj, ah, bh), P.lattice(L, "obc")
    tm = S.build_transfer_matrix(p, lat)
    c = np.column_stack([S._rayleigh_pair(tm.band, tm.tol, mu)[1] for mu in tm.eigenvalues[:L]])
    v, kappa = S._candidate_vectors(tm, c)
    m = _dense_m(p, lat)
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


# --------------------------------------------------------------------------
# windowed edge scan against the dense one
# --------------------------------------------------------------------------

def _dense_scan(p, lat, refine=False):
    """``detect_edge_modes`` on the dense eigenvalues of B_+: the discs
    fall back (reason "reference") before they count.  ``mock.patch`` and
    not the ``monkeypatch`` fixture, which hypothesis rejects under ``given``."""
    with mock.patch.object(S, "_window_centres",
                           side_effect=S._DenseFallback("reference")):
        return S.detect_edge_modes(p, lat, refine=refine)


def _scan_outcome(scan, p, lat, **kw):
    """Edge kinds of one scan, or NumericalBreakdown where it raises."""
    try:
        return {m.kind for m in scan(p, lat, **kw).edge_modes}
    except NumericalBreakdown:
        return NumericalBreakdown


@settings(max_examples=100)
@given(st.integers(8, 160), st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0), st.booleans())
@example(8, 0.0, 1.0, 0.0, 2.6882178748695584e-261, False)  # B_+ - 1 all but singular
def test_windowed_scan_matches_the_dense_scan(L, aj, bj, ah, bh, same_alpha):
    p = P.ModelParams(aj, bj, aj if same_alpha else ah, bh)
    lat = P.lattice(L, "obc")
    assert (_scan_outcome(S.detect_edge_modes, p, lat, refine=False)
            == _scan_outcome(_dense_scan, p, lat))


# the phase-diagram benchmark's grid: alpha_J = alpha_h, beta_h = 0.5 (pi/4 units)
_GRID_ALPHAS, _GRID_BETAS = np.linspace(0.0, 2.0, 11), np.linspace(-2.0, 2.0, 11)


def _reference_det_phases(tm, z):
    """arg det(B_+ - z) mod 2 pi at each z from one banded LU of B_+ - z
    each (``zgbtrf`` on the LAPACK band, the scan's phases before the
    tridiagonal pencil): the arguments of U's diagonal plus pi per row
    swap (the wrapper's pivots are 0-based), nan where B_+ - z is singular."""
    ab = tm.band
    rows = np.arange(ab.shape[1])
    diag, swaps = np.empty((len(z), len(rows)), dtype=complex), np.empty(len(z))
    for i, zi in enumerate(z):
        a = ab.copy(order="F")
        a[4] -= zi
        lu, piv, info = scipy.linalg.lapack.zgbtrf(a, 2, 2, overwrite_ab=1)
        diag[i], swaps[i] = lu[4], np.count_nonzero(piv != rows) if info == 0 else np.nan
    return np.angle(diag).sum(axis=1) + np.pi * swaps


def _disc_outcomes(tm, det_phases=S._det_phases):
    """The disc counts around +1 and -1 with the given phases, each the
    fallback reason where its count falls back, both discs started from
    one call as ``_window_centres`` starts them."""
    out = []
    theta = 2 * np.pi * np.arange(S._DISC_POINTS) / S._DISC_POINTS
    with mock.patch.object(S, "_det_phases", det_phases):
        start = np.split(det_phases(tm, np.concatenate(
            [z0 + S._DISC_RADIUS * np.exp(1j * theta) for z0 in (1.0, -1.0)])), 2)
        for z0, phase in zip((1.0, -1.0), start):
            try:
                out.append(S._disc_count(tm, z0, theta, phase))
            except S._DenseFallback as exc:
                out.append(str(exc))
    return out


def _phase_steps(tm, det_phases, z0):
    """Wrapped phase steps between the starting contour points of a disc."""
    z = z0 + S._DISC_RADIUS * np.exp(2j * np.pi * np.arange(S._DISC_POINTS) / S._DISC_POINTS)
    phase = det_phases(tm, z)
    return np.angle(np.exp(1j * (np.roll(phase, -1) - phase)))


@settings(max_examples=100)
@given(st.integers(8, 160), st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0),
       st.floats(-np.pi, np.pi), st.floats(-1.0, 1.0))
@example(8, 0.0, 1.0, 0.0, 2.6882178748695584e-261)  # B_+ - 1 all but singular
@example(8, 0.3, -0.2, 1.1, 0.4)   # the shortest chains, even and odd: m = 2 and 3
@example(9, 0.3, -0.2, 1.1, 0.4)
@example(145, 1.2, 0.1, 1.2, 0.4)  # the phase-diagram length, odd
@example(21, 0.0, 0.2, 0.0, -0.1900986863519098)  # z = 1.02 on the rho = 1 branch
@example(28, 0.0, 0.0, 0.0, 0.0)  # B_+ = 1: every starting step is pi/4, up to rounding
def test_pencil_phase_steps_equal_the_band_lu(L, aj, bj, ah, bh):
    # det(B_+ - z) = det K1_+ det(K2_+ - z K1_+^-1): the pencil's closed-form
    # determinant steps the phase as the banded LU of B_+ - z does, and
    # counts alike.  In the last example J and h are imaginary, so at the
    # real contour point z = 1.02 the period map M of the closed form is
    # real with tr^2 = 4 det exactly (a bulk band edge: r+ = r-)
    tm = S.build_transfer_matrix(P.ModelParams(aj, bj, ah, bh), P.lattice(L, "obc"))
    outcomes = _disc_outcomes(tm)
    assert outcomes == _disc_outcomes(tm, _reference_det_phases)
    for z0, outcome in zip((1.0, -1.0), outcomes):
        if outcome == "singular-lu":
            continue
        step = _phase_steps(tm, S._det_phases, z0) - _phase_steps(tm, _reference_det_phases, z0)
        assert np.abs(np.angle(np.exp(1j * step))).max() <= 1e-10


def test_windowed_scan_labels_every_cell_of_the_phase_grid():
    # every cell at confirm_L = 144, those next to the boundary lines
    # alpha = 1 and |beta_J| = beta_h included: the same edge kinds and
    # labels as the dense scan, and the discs decide nearly every cell
    lat = P.lattice(144, "obc")
    no_real_modes = S.RealModeCensus(0, 80)
    fallbacks = []
    for a in _GRID_ALPHAS:
        for bj in _GRID_BETAS:
            p = P.make_params(a, bj, a, 0.5)
            rep = S.detect_edge_modes(p, lat, refine=False)
            dense = _dense_scan(p, lat)
            assert {m.kind for m in rep.edge_modes} == {m.kind for m in dense.edge_modes}, (a, bj)
            assert (S.classify_phase_from_spectrum(rep, no_real_modes)
                    is S.classify_phase_from_spectrum(dense, no_real_modes))
            assert dense.fallback == "reference"
            fallbacks.append(rep.fallback)
    assert sum(f is not None for f in fallbacks) <= 2


def test_pencil_disc_counts_equal_the_band_lu_on_the_phase_grid():
    # every cell at L = 144: the same counts and fallback reasons as the
    # banded LU of B_+ - z, in both discs
    lat = P.lattice(144, "obc")
    for a in _GRID_ALPHAS:
        for bj in _GRID_BETAS:
            tm = S.build_transfer_matrix(P.make_params(a, bj, a, 0.5), lat)
            assert _disc_outcomes(tm) == _disc_outcomes(tm, _reference_det_phases), (a, bj)


def test_windowed_scan_forms_no_dense_block(monkeypatch):
    # the 0pi point of the grid at L = 144: the discs decide it from the
    # band alone, so neither the dense B_+ nor the sector basis is formed,
    # and their phases come from the pencil's closed form, with no LAPACK
    # LU at all (no zgttrf, no zgbtrf), in the scan and in classify_phase;
    # the dense scan forms B_+ for its eigenvalues
    p, lat = P.make_params(1.5, -0.1, 1.5, 0.5), P.lattice(144, "obc")
    tm = S.build_transfer_matrix(p, lat)
    assert tm.band.shape == (7, 144) and "b_plus" not in vars(tm)
    calls, basis = [], S.sector_basis
    monkeypatch.setattr(S, "sector_basis", lambda n: calls.append(n) or basis(n))
    lu = {"zgbtrf": [], "zgttrf": []}
    for name, seen in lu.items():
        fn = getattr(scipy.linalg.lapack, name)
        monkeypatch.setattr(scipy.linalg.lapack, name,
                            lambda *a, seen=seen, fn=fn, **k: seen.append(1) or fn(*a, **k))
    rep = S.detect_edge_modes(p, lat, refine=False)
    assert rep.fallback is None and {m.kind for m in rep.edge_modes} == {"zero", "pi"}
    assert "b_plus" not in vars(rep.transfer) and "eigenvalues" not in vars(rep.transfer)
    assert S.classify_phase(p) is P.PhaseLabel.ZERO_PI
    assert calls == [] and lu == {"zgbtrf": [], "zgttrf": []}
    dense = _dense_scan(p, lat)
    assert "b_plus" in vars(dense.transfer)
    assert {m.kind for m in dense.edge_modes} == {m.kind for m in rep.edge_modes}


def _solve_callers(monkeypatch):
    """The name of the function that makes each ``_solve_shifted`` call."""
    callers, solve = [], S._solve_shifted
    monkeypatch.setattr(S, "_solve_shifted", lambda *a: callers.append(
        sys._getframe(1).f_code.co_name) or solve(*a))
    return callers


def test_edge_scan_solves_only_inside_the_rayleigh_iteration(monkeypatch):
    # the 0pi point of the grid at L = 144: each candidate's vector is the
    # one its Rayleigh-quotient iteration converged to, so every banded
    # solve of the scan is a step of that iteration, and every record's
    # decay length is the closed form of its kind
    p = P.make_params(1.5, -0.1, 1.5, 0.5)
    callers = _solve_callers(monkeypatch)
    rep = S.detect_edge_modes(p, P.lattice(144, "obc"))
    assert rep.fallback is None
    assert [m.kind for m in rep.edge_modes] == ["zero", "zero", "pi", "pi"]
    assert 2 <= len(callers) <= 2 * S._RQI_STEPS and set(callers) == {"_rayleigh_pair"}
    xi = S._decay_lengths(p)
    assert [m.localization_length for m in rep.edge_modes] == [xi[m.kind] for m in rep.edge_modes]


def test_dense_fallback_takes_its_pairs_from_the_same_iteration(monkeypatch):
    # the 0pi point with its contours left unresolved: the dense
    # eigenvalues in the edge window are refined by the same iteration, and
    # one that does not converge raises NumericalBreakdown
    p, lat = P.make_params(1.5, -0.1, 1.5, 0.5), P.lattice(40, "obc")
    monkeypatch.setattr(S, "_DISC_STEP", 0.0)
    callers = _solve_callers(monkeypatch)
    rep = S.detect_edge_modes(p, lat)
    assert rep.fallback == "contour" and len(rep.edge_modes) == 4
    assert len(callers) >= 4 and set(callers) == {"_rayleigh_pair"}
    monkeypatch.setattr(S, "_RQI_STEPS", 0)
    with pytest.raises(NumericalBreakdown, match="Rayleigh-quotient"):
        S.detect_edge_modes(p, lat)


@pytest.mark.parametrize("bj", [_GRID_BETAS[4], _GRID_BETAS[6]])
def test_windowed_scan_misses_the_slow_decay_zero_mode_like_the_dense_one(bj):
    # alpha = 1.2, beta_J = +-0.4: the zero mode decays by only 0.975 per
    # site, so the L = 144 dense scan misses it and labels the cell pi;
    # the windowed scan must miss it too
    p = P.make_params(_GRID_ALPHAS[6], bj, _GRID_ALPHAS[6], 0.5)
    lat = P.lattice(144, "obc")
    assert _scan_outcome(_dense_scan, p, lat) == {"pi"}
    rep = S.detect_edge_modes(p, lat, refine=False)
    assert {m.kind for m in rep.edge_modes} == {"pi"} and rep.fallback is None
    assert S.classify_phase(p) is P.PhaseLabel.PI_MODE


_RAYLEIGH_PAIR = S._rayleigh_pair


def _singular_from_the_disc_centres(band, tol, centre):
    """``_rayleigh_pair`` whose every solve is singular when it starts at a
    disc centre z0 = +-1 (a float; the dense path starts at its complex
    eigenvalues): the discs' iterations miss, the dense path's do not."""
    if type(centre) is not float:
        return _RAYLEIGH_PAIR(band, tol, centre)
    with mock.patch.object(S, "_solve_shifted", side_effect=np.linalg.LinAlgError):
        return _RAYLEIGH_PAIR(band, tol, centre)


@pytest.mark.parametrize("reason, patch, point", [
    ("disc-count", {}, (0.05, 0.0, 0.05, 0.0)),      # weak unitary kicks: 3 eigenvalues
    ("singular-lu", {"_DISC_RADIUS": 0.0}, (0.0, 0.0, 0.0, 0.0)),  # B_+ - 1 = 0
    ("contour", {"_DISC_STEP": 0.0}, (1.5, -0.1, 1.5, 0.5)),        # never resolved
    ("iteration", {"_rayleigh_pair": _singular_from_the_disc_centres},
     (1.5, -0.1, 1.5, 0.5)),                                        # never converged
])
def test_windowed_scan_falls_back_to_the_dense_labels(monkeypatch, reason, patch, point):
    # each fallback, forced through the disc constants or the iteration (read
    # at call time), gives the dense scan's edge modes and labels, the
    # reason in ``fallback``
    p = P.make_params(*point)
    lat = P.lattice(40, "obc")
    no_real_modes = S.RealModeCensus(0, 80)
    dense = _dense_scan(p, lat)
    for name, value in patch.items():
        monkeypatch.setattr(S, name, value)
    rep = S.detect_edge_modes(p, lat, refine=False)
    assert (rep.fallback, dense.fallback) == (reason, "reference")
    assert "b_plus" in vars(rep.transfer) and "b_plus" in vars(dense.transfer)
    assert rep.edge_modes == dense.edge_modes
    assert (S.classify_phase_from_spectrum(rep, no_real_modes)
            is S.classify_phase_from_spectrum(dense, no_real_modes))
    if point[3]:  # the 0pi point: classify_phase itself takes the dense labels
        assert S.classify_phase(p, L=40, confirm_L=None) is P.PhaseLabel.ZERO_PI


def test_length_plans_are_read_only():
    # the per-length plans are shared by every scan of that length: an
    # in-place write to any of their arrays raises
    L = 40
    S.count_real_modes(P.make_params(1.5, -0.1, 1.5, 0.5), L)
    S.detect_edge_modes(P.make_params(1.5, -0.1, 1.5, 0.5), P.lattice(L, "obc"))
    arrays = [*S._sector_plan(L, P.BoundaryCondition.OBC), *S._chain_plan(L),
              *S._coupling_plan(8, P.BoundaryCondition.OBC),
              S._census_momenta(L, P.BoundaryCondition.PBC_EVEN),
              S._census_momenta(L, P.BoundaryCondition.PBC_ODD)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]
        with pytest.raises(ValueError, match="read-only"):
            a *= 1
    # what callers receive to write in is their own
    assert S.sector_basis(2 * L).flags.writeable
    assert S.allowed_momenta(P.lattice(L, "pbc-even")).flags.writeable


@pytest.mark.parametrize("reason, name, value", [
    ("contour", "_DISC_STEP", 0.0),
    ("iteration", "_rayleigh_pair", _singular_from_the_disc_centres)])
def test_forced_fallback_reads_the_disc_constants_after_the_plan_is_warm(
        monkeypatch, reason, name, value):
    # the plans hold no disc constant: with the plans of this length warm,
    # a constant (or the iteration) patched afterwards still forces its
    # fallback, and the patched scan builds no plan of its own
    p, lat = P.make_params(1.5, -0.1, 1.5, 0.5), P.lattice(40, "obc")
    warm = S.detect_edge_modes(p, lat, refine=False)
    assert warm.fallback is None
    misses = S._sector_plan.cache_info().misses, S._chain_plan.cache_info().misses
    monkeypatch.setattr(S, name, value)
    rep = S.detect_edge_modes(p, lat, refine=False)
    assert rep.fallback == reason and rep.edge_modes == _dense_scan(p, lat).edge_modes
    assert (S._sector_plan.cache_info().misses, S._chain_plan.cache_info().misses) == misses


def test_second_classify_phase_of_a_length_builds_no_plan(monkeypatch):
    # two classify_phase calls that both run the L = 144 edge scan: the
    # second finds its template chain and gather indices in the per-length
    # plan (no new _sector_plan cache miss)
    scans, detect = [], S.detect_edge_modes
    monkeypatch.setattr(S, "detect_edge_modes",
                        lambda *a, **k: scans.append(1) or detect(*a, **k))
    S.classify_phase(P.make_params(1.5, -0.1, 1.5, 0.5))
    misses = S._sector_plan.cache_info().misses
    label = S.classify_phase(P.make_params(1.4, -0.1, 1.4, 0.5))
    assert (len(scans), S._sector_plan.cache_info().misses, label) == \
        (2, misses, P.PhaseLabel.ZERO_PI)


def test_edge_scan_builds_no_kick_form_refined_or_not(monkeypatch):
    # the 0pi point at L = 144: classify_phase takes both discs' starting
    # phases from one _det_phases call and builds no kick form; nor does
    # the refine of its two edge pairs, which reads the long-double band
    calls = {"build_kick_forms": [], "_det_phases": []}
    for name, seen in calls.items():
        monkeypatch.setattr(S, name, lambda *a, seen=seen, fn=getattr(S, name), **k:
                            seen.append(1) or fn(*a, **k))
    p = P.make_params(1.5, -0.1, 1.5, 0.5)
    assert S.classify_phase(p) is P.PhaseLabel.ZERO_PI
    assert (len(calls["build_kick_forms"]), len(calls["_det_phases"])) == (0, 1)
    rep = S.detect_edge_modes(p, P.lattice(144, "obc"), refine=True)
    assert [m.kind for m in rep.edge_modes] == ["zero", "zero", "pi", "pi"]
    assert len(calls["build_kick_forms"]) == 0


def test_spectrum_sweep_task_solves_no_dense_spectrum(monkeypatch):
    # the seven spectrum points of the phase-diagram benchmark: the task
    # writes only edge records, so the discs decide every point and
    # np.linalg.eigvals never runs; the records are the refined dense scan's
    calls, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
    cfgs = [{"alpha": float(a), "beta_J": -1.0, "beta_h": 0.5, "L": 96, "bc": "obc"}
            for a in np.linspace(0.1, 1.9, 7)]
    rows = [sweep.task_spectrum(cfg) for cfg in cfgs]
    assert calls == []
    for cfg, point_rows in zip(cfgs, rows):
        p, lat, _ = P.model_from_config(cfg)
        dense = _dense_scan(p, lat, refine=True)
        phase = S.classify_phase_from_spectrum(dense, S.count_real_modes(p, lat.L))
        expected = sorted((m.kind, abs(m.energy)) for m in dense.edge_modes)
        got = sorted((r["kind"], r["abs_eps"]) for r in point_rows if r["mode_index"] >= 0)
        assert {r["phase"] for r in point_rows} == {str(phase)}, cfg
        assert [k for k, _ in got] == [k for k, _ in expected], cfg
        assert np.allclose([e for _, e in got], [e for _, e in expected], rtol=0, atol=1e-14)
