import math

import numpy as np
import pytest

from floquet_ising import params as P
from floquet_ising.errors import UnsupportedPlaneError, ValidationError

PI4 = math.pi / 4


def test_pi4_units_conversion():
    p = P.make_params(0.2, -0.1, 0.2, 0.1, units="pi4")
    assert p.J == pytest.approx(complex(0.05 * math.pi, -0.025 * math.pi))
    assert p.h == pytest.approx(complex(0.05 * math.pi, 0.025 * math.pi))


def test_self_dual_point_in_pi4_units():
    p = P.make_params(1, 0, 1, 0, units="pi4")
    assert p.J == pytest.approx(PI4)
    assert p.h == pytest.approx(PI4)


def test_unit_roundtrip_machine_precision():
    vals = [0.3, -1.7, 0.123456789, 2.0]
    p = P.make_params(*vals, units="pi4")
    back = p.in_pi4_units()
    assert np.allclose(back, vals, rtol=1e-15, atol=0)


def test_nonfinite_rejected():
    with pytest.raises(ValidationError):
        P.make_params(float("nan"), 0, 0, 0)
    with pytest.raises(ValidationError):
        P.make_params(0, float("inf"), 0, 0, units="rad")


@pytest.mark.parametrize("alpha,bj,bh,expect", [
    (0.5, -0.5, 1.5, P.PhaseLabel.TRIVIAL),      # Fig 7(a1) row
    (1.5, -1.5, 0.5, P.PhaseLabel.PI_MODE),      # Fig 7(c1) row
    (0.5, -1.5, 0.5, P.PhaseLabel.ZERO_MODE),    # Fig 7(b1) row
    (1.5, -0.1, 0.5, P.PhaseLabel.ZERO_PI),      # Fig 7(d1) row
    (0.2, -0.1, 0.1, P.PhaseLabel.CRITICAL_VOLUME),
    (0.2, 0.1, 0.1, P.PhaseLabel.CRITICAL_LOG),
    (1.0, -0.3, 0.5, P.PhaseLabel.CRITICAL_VOLUME),
])
def test_phase_labels(alpha, bj, bh, expect):
    p = P.make_params(alpha, bj, alpha, bh)
    assert P.phase_label_from_params(p) is expect


def test_phase_label_beta_h_sign_symmetric():
    # classification uses |beta_J| vs |beta_h|; beta_h < 0 is allowed
    p = P.make_params(0.2, -1.2, 0.2, -0.3)
    assert P.phase_label_from_params(p) is P.PhaseLabel.ZERO_MODE


def test_phase_label_alpha_zero_log():
    # on the alpha = 0 axis the beta_J = -beta_h line degrades to log
    p = P.make_params(0.0, -0.3, 0.0, 0.3)
    assert P.phase_label_from_params(p) is P.PhaseLabel.CRITICAL_LOG


def test_phase_label_requires_equal_alpha():
    p = P.make_params(0.3, 0.1, 0.5, 0.1)
    with pytest.raises(UnsupportedPlaneError):
        P.phase_label_from_params(p)


def test_critical_tie_breaking():
    eps = 1e-13  # inside the tie-break band
    p = P.make_params(0.2, 0.1 + eps / PI4, 0.2, 0.1)
    assert P.phase_label_from_params(p) is P.PhaseLabel.CRITICAL_LOG


def test_lattice_validation():
    with pytest.raises(ValidationError):
        P.lattice(1)
    assert P.lattice(4, "obc").bc is P.BoundaryCondition.OBC


def test_subsystem_sites_and_wraparound():
    lat = P.lattice(8, "pbc-even")
    sub = P.SubsystemSpec(start=7, length=4)
    assert sub.sites(lat) == [7, 8, 1, 2]
    with pytest.raises(ValidationError):
        P.SubsystemSpec(start=7, length=4).sites(P.lattice(8, "obc"))


@pytest.mark.parametrize("bc", ["pbc-even", "pbc-odd", "obc"])
def test_subsystem_starting_beyond_the_chain_is_rejected(bc):
    # a start past site L is bad input on every chain: a periodic chain does
    # not wrap it, and an open one names the start, not the wrap
    with pytest.raises(ValidationError, match="from site 11 does not fit the chain of 8 sites"):
        P.SubsystemSpec(11, 3).sites(P.lattice(8, bc))
    assert P.SubsystemSpec(8, 1).sites(P.lattice(8, bc)) == [8]


def test_majorana_indices_of_sites():
    assert P.majorana_indices([3, 1]).tolist() == [4, 5, 0, 1]
    spec = P.SubsystemSpec(5, 4)  # wraps: sites 5, 6, 1, 2
    assert spec.majorana_indices(P.lattice(6)).tolist() == [8, 9, 10, 11, 0, 1, 2, 3]


def test_tee_partition_segments():
    part = P.TeePartition.quarters(16)
    segs = part.segments(P.lattice(16, "obc"))
    assert segs["A"] == [1, 2, 3, 4]
    assert segs["B"] == [5, 6, 7, 8]
    assert segs["D"] == [9, 10, 11, 12]
    assert segs["C"] == [13, 14, 15, 16]
    with pytest.raises(ValidationError):
        P.TeePartition((4, 4, 4, 4)).segments(P.lattice(20, "obc"))


def test_named_states():
    neel = P.named_state("neel-fermion", 4)
    assert neel.occupations() == [1, 0, 1, 0]
    assert neel.fermion_parity() == 1
    assert P.named_state("neel-fermion", 6).fermion_parity() == -1
    assert P.named_state("all-up", 3).pattern == (1, 1, 1)
    anti = P.named_state("antiferro-x", 4)
    assert anti.basis == "x"
    r1 = P.named_state("random-x", 8, seed=5)
    r2 = P.named_state("random-x", 8, seed=5)
    assert r1.pattern == r2.pattern


def test_preferred_sector():
    even = P.named_state("neel-fermion", 4)
    odd = P.named_state("neel-fermion", 6)
    assert P.preferred_sector(even) is P.BoundaryCondition.PBC_EVEN
    assert P.preferred_sector(odd) is P.BoundaryCondition.PBC_ODD


def test_config_roundtrip():
    text = """
    # quench setup
    alpha_J = 0.2
    beta_J = -0.1
    alpha_h = 0.2
    beta_h = 0.1
    units = pi4
    L = 40
    bc = pbc-even
    n_periods = 50
    initial_state = neel-fermion
    """
    cfg = P.parse_config(text)
    p, lat, quench = P.model_from_config(cfg)
    assert lat.L == 40
    assert quench.n_periods == 50
    assert p.alpha_J == pytest.approx(0.2 * PI4)


def test_config_errors():
    with pytest.raises(ValidationError):
        P.parse_config("no equals sign here")
    with pytest.raises(ValidationError):
        P.parse_config("L = not_an_int")
    with pytest.raises(ValidationError):
        P.model_from_config({"alpha_J": 0.1})


def test_config_keys_nothing_reads_still_parse():
    cfg = P.parse_config("alpha_J = 0.2\nalpha_h = 0.2\nL = 8\n"
                         "tee_lengths = 8,16\nt_max = 15\nn_times = 60\n")
    assert cfg["tee_lengths"] == "8,16" and cfg["t_max"] == "15" and cfg["n_times"] == "60"
    p, lat, quench = P.model_from_config(cfg)
    assert lat.L == 8 and quench.n_periods == 200


@pytest.mark.parametrize("cfg", [{"alpha": 0.3, "beta_J": -0.1},
                                 {"alpha_J": 0.3, "alpha_h": 0.3, "beta_J": -0.1}])
def test_alpha_sets_both_alphas(cfg):
    assert P.params_from_config(cfg) == P.make_params(0.3, -0.1, 0.3, 0.0)


@pytest.mark.parametrize("cfg", [{"alpha": 0.3, "alpha_J": 0.3},
                                 {"beta_J": -0.1, "beta_h": 0.1}])
def test_alphas_missing_or_given_twice_rejected(cfg):
    with pytest.raises(ValidationError):
        P.params_from_config(cfg)


@pytest.mark.parametrize("cfg, L, expect", [
    ({}, 15, (1, 2)), ({}, 120, (1, 12)),
    ({"subsystem_start": 5, "subsystem_length": 3}, 120, (5, 3))])
def test_subsystem_from_config(cfg, L, expect):
    assert P.subsystem_from_config(cfg, L) == P.SubsystemSpec(*expect)
