import ast
import csv
import hashlib
import inspect
import json
import multiprocessing
import os
import shlex
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from floquet_ising import cli, entanglement as E, gaussian, params as P, spectral, sweep
from floquet_ising.errors import ValidationError, WorkerError


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------------------
# sweep machinery
# --------------------------------------------------------------------------

def _axis_spec(axes, fixed, task, workers=1):
    """The spec of ``sweep --axis name:start:stop:count`` for each of ``axes``."""
    specs = [":".join(map(str, axis)) for axis in axes]
    return sweep.SweepSpec(sweep.axis_grid(specs, fixed), fixed, task, workers)


def test_sweep_spec_validation():
    with pytest.raises(ValidationError):
        sweep.SweepSpec(({"alpha": 0.0},), {}, "no-such-task")
    with pytest.raises(ValidationError):
        sweep.SweepSpec(({"alpha": 0.0},), {}, "spectrum", workers=0)
    with pytest.raises(ValidationError, match="at least one --axis"):
        sweep.axis_grid([], {})
    with pytest.raises(ValidationError, match="expected name:start:stop:count"):
        sweep.axis_grid(["alpha:0:1"], {})
    with pytest.raises(ValidationError, match="distinct"):
        sweep.axis_grid(["alpha:0:1:2", "alpha:0:1:2"], {})
    with pytest.raises(ValidationError, match="also be fixed"):
        sweep.axis_grid(["alpha:0:1:2"], {"alpha": 1.0})
    with pytest.raises(ValidationError, match="not a numeric config key"):
        sweep.axis_grid(["bc:0:1:2"], {})
    with pytest.raises(ValidationError, match="count must be >= 1"):
        sweep.axis_grid(["alpha:0:1:0"], {})


def test_grid_enumeration_row_major():
    pts = sweep.axis_grid(["alpha:0.0:1.0:2", "beta_J:0.0:2.0:3"], {"beta_h": 0.5})
    assert len(pts) == 6
    assert pts[0] == {"alpha": 0.0, "beta_J": 0.0}
    assert pts[1]["beta_J"] == 1.0
    assert pts[3]["alpha"] == 1.0 and pts[3]["beta_J"] == 0.0


SPEC_ARGS = dict(
    axes=(("alpha", 0.4, 1.6, 2), ("beta_J", -1.0, -0.2, 2)),
    fixed={"beta_h": 0.5, "L": 16},
    task="spectrum",
)


def test_sweep_deterministic_reruns(tmp_path):
    spec = _axis_spec(workers=1, **SPEC_ARGS)
    m1 = sweep.run_sweep(spec, tmp_path / "r1")
    m2 = sweep.run_sweep(spec, tmp_path / "r2")
    b1 = (tmp_path / "r1" / "spectrum_sweep.csv").read_bytes()
    b2 = (tmp_path / "r2" / "spectrum_sweep.csv").read_bytes()
    assert b1 == b2
    assert m1.outputs == m2.outputs
    assert all(p["status"] == "ok" for p in m1.points)


def test_sweep_worker_count_independent(tmp_path):
    blobs = []
    for workers in (1, 4, 8):
        spec = _axis_spec(workers=workers, **SPEC_ARGS)
        out = tmp_path / f"w{workers}"
        sweep.run_sweep(spec, out)
        blobs.append((out / "spectrum_sweep.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@settings(max_examples=8)
@given(st.sampled_from(["alpha", "beta_J", "beta_h"]),
       st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       st.integers(1, 4), st.integers(4, 12))
def test_sweep_bytes_do_not_depend_on_workers(axis, values, count, L):
    # a spectrum sweep of at most four points, in-process and on a pool of
    # two forked workers: the same CSV bytes and the same per-point record
    fixed = dict(zip(("alpha", "beta_J", "beta_h"), values), L=L)
    start, stop = fixed.pop(axis), values[3]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 2):
            spec = _axis_spec(((axis, start, stop, count),), fixed, "spectrum", workers)
            out = Path(tmp) / f"w{workers}"
            manifest = sweep.run_sweep(spec, out)
            csv_path = out / "spectrum_sweep.csv"
            runs.append((csv_path.read_bytes() if csv_path.exists() else None,
                         manifest.points))
    assert runs[0] == runs[1]


def test_manifest_records_the_pool_and_what_its_default_is_worked_out_from(tmp_path,
                                                                           monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "x")
    code = cli.main(["--out-dir", str(tmp_path), "sweep", "--task", "spectrum",
                     "--axis", "alpha:0.4:1.6:2", "--axis", "beta_J:-1.0:-0.2:2"])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["spec"]["workers"] == sweep.default_workers()
    assert manifest["parallel"] == {
        "pool_workers": min(sweep.default_workers(), 4), "cpus": sweep._cpus(),
        "blas_thread_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                            "MKL_NUM_THREADS": "x"}}
    assert not multiprocessing.active_children()


def test_sweep_fail_soft(tmp_path):
    spec = _axis_spec((("L", 4, 16, 2),), {"alpha": 0.5, "beta_J": -1.0,
                                           "beta_h": 0.5}, "spectrum")
    manifest = sweep.run_sweep(spec, tmp_path)
    statuses = [p["status"] for p in manifest.points]
    assert statuses.count("error") == 1
    assert statuses.count("ok") == 1
    assert len(manifest.points) == 2
    rows = read_rows(tmp_path / "spectrum_sweep.csv")
    assert {r["grid_index"] for r in rows} == {"1"}


@pytest.mark.parametrize("exc, status, rc", [(TypeError, "crash", 1),
                                             (ValidationError, "error", 0)])
def test_sweep_tells_crashes_from_errors(tmp_path, monkeypatch, exc, status, rc):
    def task(cfg):
        if cfg["alpha"] > 1.0:
            raise exc("bad point")
        return [{"x": 1.0}]

    monkeypatch.setitem(sweep.TASKS, "spectrum", task)
    code = cli.main(["--out-dir", str(tmp_path), "sweep", "--task", "spectrum",
                     "--axis", "alpha:0.5:1.5:2"])
    assert code == rc
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [p["status"] for p in manifest["points"]] == ["ok", status]
    assert "bad point" in manifest["points"][1]["error"]


def test_single_point_sweep_matches_direct(tmp_path):
    fixed = {"beta_h": 0.1, "L": 16, "n_periods": 10, "subsystem_length": 4,
             "alpha_J": 0.2, "alpha_h": 0.2}
    spec = _axis_spec((("beta_J", -0.1, -0.1, 1),), fixed, "evolve")
    sweep.run_sweep(spec, tmp_path)
    rows = read_rows(tmp_path / "evolve_sweep.csv")
    p = P.make_params(0.2, -0.1, 0.2, 0.1)
    quench = P.QuenchConfig(P.named_state("neel-fermion", 16), n_periods=10)
    trace = gaussian.stroboscopic_run(p, P.lattice(16), quench,
                                      P.SubsystemSpec(1, 4))
    got = [float(r["S_A"]) for r in rows]
    assert np.allclose(got, trace.entropy, atol=1e-12)


def test_steady_entropy_sweep_matches_the_run(tmp_path):
    # two points: each row holds the run's steady S_A, its density S_A / L_A
    # and the growth rate S(2) / 4 at horizon L_A / 2 = 2, as the CSV prints them
    fixed = {"alpha_J": 0.2, "alpha_h": 0.2, "beta_h": 0.1, "L": 16, "n_periods": 40,
             "subsystem_length": 4}
    spec = _axis_spec((("beta_J", -0.3, -0.1, 2),), fixed, "steady-entropy")
    manifest = sweep.run_sweep(spec, tmp_path)
    assert [p["status"] for p in manifest.points] == ["ok", "ok"]
    rows = read_rows(tmp_path / "steady-entropy_sweep.csv")
    quench = P.QuenchConfig(P.named_state("neel-fermion", 16), n_periods=40)
    for row, bj in zip(rows, (-0.3, -0.1)):
        trace = gaussian.stroboscopic_run(P.make_params(0.2, bj, 0.2, 0.1), P.lattice(16),
                                          quench, P.SubsystemSpec(1, 4))
        s_a = trace.steady_state()
        assert (row["L"], row["L_A"]) == ("16", "4")
        assert row["S_A"] == sweep._fmt(s_a)
        assert row["density"] == sweep._fmt(s_a / 4)
        assert row["growth_rate"] == sweep._fmt(trace.entropy[1] / 4)
        density = float(row["density"])
        assert abs(density - float(row["S_A"]) / float(row["L_A"])) <= 1e-11 * density
    assert len(rows) == 2


@pytest.mark.parametrize("task", ["evolve", "steady-entropy", "tee", "spectrum"])
def test_sweep_tasks_reject_k_field(tmp_path, task):
    fixed = {"alpha_J": 0.2, "alpha_h": 0.2, "beta_h": 0.1, "L": 16,
             "n_periods": 4, "subsystem_length": 4, "K": 0.1}
    spec = _axis_spec((("beta_J", -0.1, -0.1, 1),), fixed, task)
    manifest = sweep.run_sweep(spec, tmp_path)
    assert [p["status"] for p in manifest.points] == ["error"]
    assert "longitudinal K field" in manifest.points[0]["error"]


@pytest.mark.parametrize("bc", ["open", "pbc"])
def test_unknown_bc_is_a_validation_error(tmp_path, bc):
    cfgfile = tmp_path / "bc.cfg"
    cfgfile.write_text(f"alpha = 0.2\nbeta_J = -0.1\nbeta_h = 0.1\nL = 8\n"
                       f"n_periods = 4\nbc = {bc}\n")
    assert cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), "evolve"]) == 2
    spec = _axis_spec((("beta_J", -0.1, -0.1, 1),),
                      {"alpha": 0.2, "beta_h": 0.1, "L": 8, "n_periods": 4, "bc": bc},
                      "evolve")
    manifest = sweep.run_sweep(spec, tmp_path)
    assert [p["status"] for p in manifest.points] == ["error"]
    assert "pbc-even, pbc-odd, obc" in manifest.points[0]["error"]


def test_sweep_axis_of_an_int_key_takes_whole_numbers():
    fixed = {"alpha": 0.5, "beta_J": -1.0, "beta_h": 0.5}
    with pytest.raises(ValidationError, match="whole numbers"):
        sweep.axis_grid(["L:8:9:3"], fixed)


def test_manifest_contents(tmp_path):
    spec = _axis_spec((("alpha", 0.5, 0.5, 1),),
                      {"beta_J": -1.0, "beta_h": 0.5, "L": 16, "seed": 7},
                      "spectrum")
    manifest = sweep.run_sweep(spec, tmp_path)
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["seed"] == 7
    assert data["version"]
    assert "spectrum_sweep.csv" in data["outputs"]
    assert manifest.points[0]["status"] == "ok"


@pytest.mark.parametrize("flags, seed", [([], 5), (["--seed", "7"], 7)])
def test_sweep_manifest_records_the_seed_its_points_used(tmp_path, flags, seed):
    # a seed set only in the config file reaches the points and the manifest;
    # --seed overrides it in both
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("alpha = 0.5\nbeta_h = 0.5\nL = 16\nseed = 5\n")
    assert cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), *flags,
                     "sweep", "--task", "spectrum", "--axis", "beta_J:-1.0:-1.0:1"]) == 0
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["seed"] == data["spec"]["fixed"]["seed"] == seed
    assert [p["status"] for p in data["points"]] == ["ok"]


# --------------------------------------------------------------------------
# figure bundles
# --------------------------------------------------------------------------

def test_emit_fig2(tmp_path):
    spec = _axis_spec((("alpha", 0.4, 1.6, 3),),
                      {"beta_J": -1.0, "beta_h": 0.5, "L": 16},
                      "spectrum")
    sweep.run_sweep(spec, tmp_path)
    out = sweep.emit_plot_data("fig2", [tmp_path / "spectrum_sweep.csv"],
                              tmp_path / "plots")
    rows = read_rows(out)
    assert set(rows[0].keys()) == {"alpha", "mode_index", "abs_eps"}


def test_emit_fig3(tmp_path):
    fixed = {"beta_h": 0.1, "L": 16, "n_periods": 6, "subsystem_length": 4,
             "alpha_J": 0.2, "alpha_h": 0.2}
    spec = _axis_spec((("beta_J", -0.2, 0.1, 2),), fixed, "evolve")
    sweep.run_sweep(spec, tmp_path)
    out = sweep.emit_plot_data("fig3", [tmp_path / "evolve_sweep.csv"],
                              tmp_path / "plots")
    rows = read_rows(out)
    assert set(rows[0].keys()) == {"period", "S_A", "series"}
    assert len({r["series"] for r in rows}) == 2


def test_emit_fig6_and_missing_column(tmp_path):
    rows = []
    rng = np.random.default_rng(0)
    for L in (32, 48, 64):
        for bj in np.linspace(-0.5, -0.1, 9):
            s = 0.69 / (1 + np.exp((bj + 0.3) * L / 4.0))
            rows.append({"L": L, "beta_J": bj, "S_top": s})
    src = tmp_path / "tee.csv"
    sweep.write_csv(src, rows, ["L", "beta_J", "S_top"])
    out = sweep.emit_plot_data("fig6", [src], tmp_path / "plots")
    data = read_rows(out)
    assert set(data[0].keys()) == {"beta_J", "S_top", "L", "x_collapsed"}

    bad = tmp_path / "bad.csv"
    sweep.write_csv(bad, [{"L": 1, "beta_J": 2}], ["L", "beta_J"])
    with pytest.raises(ValidationError, match="S_top"):
        sweep.emit_plot_data("fig6", [bad], tmp_path / "plots")
    with pytest.raises(ValidationError):
        sweep.emit_plot_data("fig99", [src], tmp_path / "plots")


@pytest.mark.parametrize("figure, header, row, column", [
    ("fig2", "alpha,mode_index,abs_eps", "0.4,x,1.5", "mode_index"),
    ("fig6", "L,beta_J,S_top", "8,x,0.3", "beta_J"),
])
def test_emit_non_numeric_cell_is_a_validation_error(tmp_path, capsys, figure, header,
                                                     row, column):
    src = tmp_path / "raw.csv"
    src.write_text(f"{header}\n{row}\n")
    with pytest.raises(ValidationError, match=f"raw.csv: column {column}: 'x'"):
        sweep.emit_plot_data(figure, [src], tmp_path / "plots")
    assert cli.main(["--out-dir", str(tmp_path / "cli"), "emit-plots", "--figure", figure,
                     "--inputs", str(src)]) == 2
    assert f"column {column}" in capsys.readouterr().err


# Small fixed inputs and the bundles that emit_plot_data wrote from them
# before its reader was shared by the three figures.  fig2 drops the
# no-mode row, fig3 renames beta_J to series, and fig6 rewrites beta_J
# at 12 digits and reads the L = 12 curve, given in falling beta_J, sorted.
_BUNDLE_CASES = {
    "fig2": ("grid_index,alpha,beta_J,mode_index,kind,re_eps,im_eps,abs_eps,loc_len,"
             "phase,n_real_modes\n"
             "0,0.4,-1,-1,none,0,0,0,0,trivial,0\n"
             "1,1.0,-1,0,0,1.5e-09,-2.25e-10,1.51677e-09,3.42,0,2\n"
             "1,1.0,-1,1,0,-1.5e-09,2.25e-10,1.51677e-09,3.42,0,2\n"
             "2,1.6,-1,0,pi,3.14159265359,0.0012,3.14159288278,5.5,pi,0\n",
             "alpha,mode_index,abs_eps\n1.0,0,1.51677e-09\n1.0,1,1.51677e-09\n"
             "1.6,0,3.14159288278\n"),
    "fig3": ("grid_index,beta_J,period,S_A,norm_log,purity_residual\n"
             "0,-0.2,1,0.125,-0.5,1e-16\n0,-0.2,2,0.25,-1.0,2e-16\n"
             "1,0.1,1,0.0625,0.25,0\n1,0.1,2,0.03125,0.5,3e-17\n",
             "period,S_A,series\n1,0.125,-0.2\n2,0.25,-0.2\n1,0.0625,0.1\n"
             "2,0.03125,0.1\n"),
    "fig6": ("L,beta_J,S_top\n"
             "8,-0.5,0.680784\n8,-0.4,0.600437\n8,-0.3,0.345\n8,-0.2,0.0895633\n"
             "8,-0.1,0.00921559\n"
             "12,-0.1,0.00170945\n12,-0.2,0.0325286\n12,-0.3,0.345\n"
             "12,-0.4,0.657497\n12,-0.5,0.688291\n"
             "16,-0.5,0.689874\n16,-0.4,0.677338\n16,-0.30000000000000004,0.345\n"
             "16,-0.2,0.0126622\n16,-0.1,0.000232\n",
             "beta_J,S_top,L,x_collapsed\n"
             "-0.5,0.680784,8,-0.558090852577\n-0.4,0.600437,8,-0.279045426289\n"
             "-0.3,0.345,8,0\n-0.2,0.0895633,8,0.279045426289\n"
             "-0.1,0.00921559,8,0.558090852577\n"
             "-0.1,0.00170945,12,0.681719851291\n-0.2,0.0325286,12,0.340859925645\n"
             "-0.3,0.345,12,0\n-0.4,0.657497,12,-0.340859925645\n"
             "-0.5,0.688291,12,-0.681719851291\n"
             "-0.5,0.689874,16,-0.785711676211\n-0.4,0.677338,16,-0.392855838105\n"
             "-0.3,0.345,16,-2.18078798411e-16\n-0.2,0.0126622,16,0.392855838105\n"
             "-0.1,0.000232,16,0.785711676211\n"),
}


@pytest.mark.parametrize("figure", sorted(_BUNDLE_CASES))
def test_emit_bundle_bytes(tmp_path, figure):
    raw, bundle = _BUNDLE_CASES[figure]
    src = tmp_path / "raw.csv"
    src.write_text(raw)
    out = sweep.emit_plot_data(figure, [src], tmp_path / "plots")
    assert out.read_text() == bundle


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def test_cli_spectrum_reads_both_alphas_from_config(tmp_path):
    cfgfile = tmp_path / "spec.cfg"
    cfgfile.write_text("alpha_J = 0.2\nbeta_J = -0.5\nalpha_h = 1.4\nbeta_h = 0.5\n")
    rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), "spectrum"])
    assert rc == 0
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    p = P.make_params(0.2, -0.5, 1.4, 0.5)
    assert summary["phase"] == str(spectral.classify_phase(p)) == "critical-log"


def test_cli_spectrum_exits_3_where_the_dispersion_overflows(tmp_path, capsys):
    # beta_J = 500 pi/4: cos(2h +- 2J) overflows in the census, which is a
    # numerical breakdown (exit 3) and writes no NaN rows
    rc = cli.main(["--out-dir", str(tmp_path), "spectrum", "--alpha", "0.3",
                   "--beta-j", "500", "--beta-h", "0.1", "--L", "8", "--bc", "pbc-even"])
    assert rc == 3
    assert "dispersion overflows" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_cli_spectrum_exits_3_where_a_sector_eigenvalue_underflows(tmp_path, capsys):
    # an open chain whose dense sector eigenvalue underflows to 0: a
    # numerical breakdown (exit 3), not nan and -inf rows labelled trivial
    cfg = tmp_path / "underflow.cfg"
    cfg.write_text("units = rad\nalpha_J = -2.4220124821642286\nbeta_J = -19.753644251286456\n"
                   "alpha_h = 1e-72\nbeta_h = -0.6662632025551591\nL = 30\nbc = obc\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "spectrum"])
    assert rc == 3
    assert "underflowed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "spectrum.csv").exists()


_PERIOD_OVERFLOW = {"units": "rad", "alpha_J": 1.838849070774832, "beta_J": 305.7605778031261,
                    "alpha_h": -1.7887682043279145, "beta_h": 127.00018446793942,
                    "L": 21, "bc": "obc", "n_periods": 184}


@pytest.mark.parametrize("command, message", [
    ("evolve", "period exp(4W') exp(4W'') overflows"),
    ("spectrum", "dispersion overflows")])  # the command's census runs before its edge scan
def test_cli_exits_3_where_the_period_overflows(tmp_path, capsys, command, message):
    # each kick of this chain is finite but their products are not: a
    # numerical breakdown (exit 3) with no output, not a RuntimeWarning
    cfg = tmp_path / "period.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in _PERIOD_OVERFLOW.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), command])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("task", ["steady-entropy", "tee"])
def test_sweep_point_whose_period_overflows_is_an_error(tmp_path, task):
    # the same chain as a sweep point: an "error" with the period's message,
    # not a "crash" on an overflow RuntimeWarning
    fixed = {k: v for k, v in _PERIOD_OVERFLOW.items() if k != "beta_J"}
    beta_j = _PERIOD_OVERFLOW["beta_J"]
    spec = _axis_spec((("beta_J", beta_j, beta_j, 1),), {**fixed, "subsystem_length": 4}, task)
    manifest = sweep.run_sweep(spec, tmp_path)
    assert [p["status"] for p in manifest.points] == ["error"]
    assert "period exp(4W') exp(4W'') overflows" in manifest.points[0]["error"]


# chains below the period bound whose band or evolution overflows
# (tests/test_spectral.py, BAND_OVERFLOW; tests/test_gaussian.py,
# EVOLUTION_OVERFLOW), with the command that meets them
_BELOW_BOUND_OVERFLOW = [
    ("spectrum", (-1.0520392066147748, 318.9693860337629, 0.5221918847479463, 36.39289428703189),
     {"L": 8, "bc": "obc"}),
    ("evolve", (-2.735927239553451, 27.828990118735828, -0.7836965719262183, 327.2866915850067),
     {"L": 8, "bc": "pbc-even", "initial_state": "neel-fermion"}),
    ("evolve", (-0.35933775001215684, -258.80044357148626, 2.3234119113096012, -96.14024707393412),
     {"L": 9, "bc": "pbc-odd", "initial_state": "all-up"})]


@pytest.mark.parametrize("command, couplings, chain", _BELOW_BOUND_OVERFLOW)
def test_cli_exits_3_where_an_overflow_below_the_period_bound_is_met(tmp_path, capsys, command,
                                                                     couplings, chain):
    # a numerical breakdown (exit 3) with no output, not a RuntimeWarning
    cfg = tmp_path / "overflow.cfg"
    fixed = {"units": "rad", **dict(zip(("alpha_J", "beta_J", "alpha_h", "beta_h"), couplings)),
             **chain, "n_periods": 3, "subsystem_length": 4}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in fixed.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"), command])
    assert rc == 3
    assert "numerical breakdown" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


# open L = 8 chains below the period bound whose sector blocks overflow
# (tests/test_gaussian.py, SECTOR_OVERFLOW)
_SECTOR_OVERFLOW = [(-1.3458496214483335, -287.0979243944356,
                     -2.8027360567794943, 68.24732867549703),
                    (-2.73812144456103, -96.38795213620027,
                     1.1258307755977546, 258.6954237865665)]


@pytest.mark.parametrize("couplings", _SECTOR_OVERFLOW)
def test_tee_point_whose_sector_block_overflows_is_an_error(tmp_path, couplings):
    # a tee point on either chain: an "error" from the loop's lost rank,
    # not a "crash" on scipy's non-finite input nor an "ok" read from an
    # overflowed Schur frame
    fixed = {"units": "rad", **dict(zip(("alpha_J", "beta_J", "alpha_h", "beta_h"), couplings)),
             "L": 8, "bc": "obc"}
    manifest = sweep.run_sweep(_axis_spec((("n_periods", 3, 3, 1),), fixed, "tee"), tmp_path)
    assert [p["status"] for p in manifest.points] == ["error"]
    assert "DegenerateEvolution" in manifest.points[0]["error"]


def test_cli_spectrum_is_finite_where_the_squared_dispersion_overflows(tmp_path):
    # beta_J = 250 pi/4: cos(2h +- 2J) is finite but (x/4)^2 is not; the
    # rows hold finite +-eps pairs and exit 0, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["--out-dir", str(tmp_path), "spectrum", "--alpha", "0.3",
                       "--beta-j", "250", "--beta-h", "0.1", "--L", "8", "--bc", "pbc-even"])
    assert rc == 0
    rows = read_rows(tmp_path / "spectrum.csv")
    eps = np.array([complex(float(r["re_eps"]), float(r["im_eps"])) for r in rows])
    assert len(eps) == 16 and np.all(np.isfinite(eps))
    assert np.array_equal(eps[1::2], -eps[::2]) and np.all(np.abs(eps.imag) > 390)
    assert {r["classification"] for r in rows} == {"grow-decay"}


@pytest.mark.parametrize("task, csv_name, column, n_rows", [
    ("evolve", "evolve.csv", "S_A", 3), ("spin-quench", "spin_quench.csv", "Sx", 3 * 12)])
def test_cli_and_sweep_share_task_defaults(tmp_path, task, csv_name, column, n_rows):
    # no L, bc or initial_state: both paths fill in the task's defaults
    fixed = {"alpha_J": 1.5, "alpha_h": 1.5, "beta_h": 0.5, "n_periods": 3}
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in fixed.items())
                       + "beta_J = -1.5\n")
    rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path / "cli"), task])
    assert rc == 0
    spec = _axis_spec((("beta_J", -1.5, -1.5, 1),), fixed, task)
    sweep.run_sweep(spec, tmp_path / "sweep")
    sweep_csv = tmp_path / "sweep" / f"{task}_sweep.csv"
    got = [r[column] for r in read_rows(sweep_csv)]
    assert len(got) == n_rows
    assert got == [r[column] for r in read_rows(tmp_path / "cli" / csv_name)]


def test_cli_tee_collapse_does_not_depend_on_the_grid_order(tmp_path):
    # the same beta_J grid given falling and rising: the collapse reads each
    # curve sorted, so the fit agrees to within the rounding of the two
    # linspace grids
    fits = []
    for grid in ("-0.20,-0.40,5", "-0.40,-0.20,5"):
        cfgfile = tmp_path / "tee.cfg"
        cfgfile.write_text("alpha = 0.2\nbeta_h = -0.3\nn_periods = 300\n"
                           f"tee_sizes = 16,24,32\ntee_beta_j = {grid}\n")
        out = tmp_path / grid
        assert cli.main(["--config", str(cfgfile), "--out-dir", str(out), "tee"]) == 0
        fits.append(json.loads((out / "tee_collapse.json").read_text()))
    for key in ("beta_J0", "nu", "residual"):
        assert fits[0][key] == pytest.approx(fits[1][key], rel=0, abs=1e-12)
    assert fits[1]["residual"] < 1e-3


@pytest.mark.parametrize("K, rc, workers", [(0.0, 0, "1"), (0.1, 2, "1"), (0.0, 0, "2"),
                                           (0.1, 2, "2")],
                         ids=["0.0-0", "0.1-2", "0.0-0-workers2", "0.1-2-workers2"])
def test_cli_tee_rejects_k_field(tmp_path, K, rc, workers):
    # under --workers 2 the points raise here and in a forked worker alike
    cfgfile = tmp_path / "tee.cfg"
    cfgfile.write_text("alpha_J = 0.2\nalpha_h = 0.2\nbeta_h = -0.3\nn_periods = 40\n"
                       f"tee_sizes = 8,12,16\ntee_beta_j = -0.4,-0.2,5\nK = {K}\n")
    assert cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path),
                     "--workers", workers, "tee"]) == rc


@pytest.mark.parametrize("grid, rc, message", [
    ("tee_sizes = 8,12,16\ntee_beta_j = -0.4,500,2\n", 3, "|Im| = 785.4 "),
    ("tee_sizes = 8,12,16\ntee_beta_j = -0.4,1000,3\n", 3, "|Im| = 785.1 "),
    ("tee_sizes = 8,12,16\ntee_beta_j = 500,1000,2\n", 3, "|Im| = 785.4 "),
    ("tee_sizes = 8,3,12\ntee_beta_j = -0.4,-0.2,1\n", 2, "3 sites cannot be quartered"),
], ids=["breakdown-in-worker", "breakdown-in-worker-first", "breakdown-here",
        "validation-in-worker"])
def test_cli_tee_point_error_keeps_its_exit_code_and_message_in_the_pool(tmp_path, capsys,
                                                                         grid, rc, message):
    # beta_J >= ~460 (pi/4 units) overflows the kicks, each beta_J with its own
    # message; a 3-site chain cannot be quartered.  Under --workers 2 the even
    # points run here and the odd ones in a forked worker; either way the first
    # failing point's error gives the serial loop's exit code and message
    cfgfile = tmp_path / "tee.cfg"
    cfgfile.write_text("alpha_J = 0.2\nalpha_h = 0.2\nbeta_h = -0.3\nn_periods = 40\n" + grid)
    # the manifest records every point, the first failing one as an error
    # with that message, and no output
    errs, points = [], []
    for workers in ("1", "2"):
        assert cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path / workers),
                         "--workers", workers, "tee"]) == rc
        errs.append(capsys.readouterr().err)
        assert not (tmp_path / workers / "tee.csv").exists()
        manifest = json.loads((tmp_path / workers / "manifest.json").read_text())
        assert manifest["outputs"] == {}
        points.append(manifest["points"])
    assert errs[0] == errs[1] and message in errs[0]
    assert points[0] == points[1]
    failed = next(p for p in points[0] if p["status"] != "ok")
    assert failed["status"] == "error" and message in failed["error"]
    assert not multiprocessing.active_children()


def test_cli_tee_and_scaling_outputs_do_not_depend_on_workers(tmp_path):
    # byte-identical outputs in and out of the pool, and no worker outlives the call
    tee_cfg = tmp_path / "tee.cfg"
    tee_cfg.write_text("alpha_J = 0.2\nalpha_h = 0.2\nbeta_h = -0.3\nn_periods = 40\n"
                       "tee_sizes = 8,12,16\ntee_beta_j = -0.4,-0.2,5\n")
    sc_cfg = tmp_path / "sc.cfg"
    sc_cfg.write_text(SCALING_CFG + "scaling_sizes = 16,20,24,28,32,40\nscaling_ratio = 4\n")
    # each manifest records every point ok and the digest of each file written
    for cfg, cmd, names, n_points in ((tee_cfg, "tee", ("tee.csv", "tee_collapse.json"), 15),
                                      (sc_cfg, "scaling", ("scaling.csv", "scaling_fit.json"), 6)):
        manifests = []
        for workers in ("1", "2"):
            out = tmp_path / cmd / workers
            assert cli.main(["--config", str(cfg), "--out-dir", str(out),
                             "--workers", workers, cmd]) == 0
            assert not multiprocessing.active_children()
            manifests.append(json.loads((out / "manifest.json").read_text()))
            assert manifests[-1]["outputs"] == {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
        for name in names:
            assert ((tmp_path / cmd / "1" / name).read_bytes()
                    == (tmp_path / cmd / "2" / name).read_bytes())
        assert manifests[0]["points"] == manifests[1]["points"]
        assert [p["status"] for p in manifests[0]["points"]] == ["ok"] * n_points
        assert [m["parallel"]["pool_workers"] for m in manifests] == [1, 2]


@pytest.mark.parametrize("env, cpus, workers", [
    ({}, 2, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2), ({"OPENBLAS_NUM_THREADS": "2"}, 4, 2),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1), ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 1),
    ({"OMP_NUM_THREADS": "1"}, 3, 3), ({"MKL_NUM_THREADS": "4"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 2, 1),
], ids=["unset", "1-on-2", "2-on-4", "zero", "not-a-number", "omp", "more-threads-than-cpus",
        "openblas-read-first"])
def test_default_workers_is_the_blas_thread_budget(monkeypatch, env, cpus, workers):
    for name in sweep.BLAS_THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert sweep.default_workers() == workers
    monkeypatch.setattr(sweep, "_CAN_FORK", False)
    assert sweep.default_workers() == 1


def _dies_at_three(x):
    if x == 3:
        os._exit(7)
    return x


class _UnpicklableError(Exception):
    def __init__(self, a, b):  # pickled as (message,), which does not rebuild it
        super().__init__(f"point {a} failed with {b}")


def _unpicklable_at_three(x):
    if x == 3:
        raise _UnpicklableError(3, "no pickle")
    return x


@pytest.mark.parametrize("workers", [2, 4])
def test_map_points_names_the_exit_code_of_a_worker_that_dies(workers):
    # point 3 belongs to a forked worker's share for either pool size
    with pytest.raises(WorkerError, match="code 7") as info:
        sweep.map_points(_dies_at_three, list(range(8)), workers)
    assert info.value.exitcode == 7
    assert not multiprocessing.active_children()


def test_map_points_raises_an_unpicklable_point_error_with_its_message():
    with pytest.raises(WorkerError, match="_UnpicklableError: point 3 failed with no pickle"):
        sweep.map_points(_unpicklable_at_three, list(range(8)), 2)
    assert not multiprocessing.active_children()
    # this process's own points raise it as it is
    with pytest.raises(_UnpicklableError):
        sweep.map_points(_unpicklable_at_three, list(range(8)), 3)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_points_raises_the_first_failure_in_point_order(workers):
    def fn(x):
        if x in (4, 5, 7):
            raise ValueError(f"point {x}")
        return x * x

    assert sweep.map_points(lambda x: x * x, list(range(10)), workers) == [
        x * x for x in range(10)]
    with pytest.raises(ValueError, match="point 4"):
        sweep.map_points(fn, list(range(10)), workers)
    assert not multiprocessing.active_children()


def test_cli_tee_reports_the_route_of_every_point(tmp_path):
    cfgfile = tmp_path / "tee.cfg"
    cfgfile.write_text("alpha_J = 0.2\nalpha_h = 0.2\nbeta_h = -0.3\nn_periods = 40\n"
                       "tee_sizes = 8,12,16\ntee_beta_j = -0.4,-0.2,5\n")
    assert cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), "tee"]) == 0
    routes = [gaussian.run_to_steady_state(
                  P.make_params(0.2, bj, 0.2, -0.3), P.lattice(L, "obc"),
                  P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=40)).route
              for L in (8, 12, 16) for bj in np.linspace(-0.4, -0.2, 5)]
    fit = json.loads((tmp_path / "tee_collapse.json").read_text())
    assert fit["routes"] == {"schur": routes.count("schur"), "loop": routes.count("loop")}
    assert sum(fit["routes"].values()) == 15


def _config_keys_read(module):
    """String keys read by ``cfg.get``, ``_required(cfg, ...)`` or ``cfg[...]``."""
    keys = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Call) and node.args:
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "get" \
                    and isinstance(f.value, ast.Name) and f.value.id == "cfg":
                arg = node.args[0]
            elif isinstance(f, ast.Name) and f.id == "_required":
                arg = node.args[1]
            else:
                continue
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                and node.value.id == "cfg":
            arg = node.slice
        else:
            continue
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            keys.add(arg.value)
    return keys


@pytest.mark.parametrize("module", [P, sweep, cli], ids=lambda m: m.__name__)
def test_every_config_key_read_is_typed(module):
    keys = _config_keys_read(module)
    assert keys  # the walk finds the readers
    assert keys <= set(P._CONFIG_KEYS), keys - set(P._CONFIG_KEYS)


def test_cli_spectrum(tmp_path):
    rc = cli.main(["--out-dir", str(tmp_path), "spectrum", "--alpha", "0.5",
                   "--beta-j", "-1.0", "--beta-h", "0.5", "--L", "40",
                   "--bc", "obc"])
    assert rc == 0
    rows = read_rows(tmp_path / "spectrum.csv")
    assert list(rows[0].keys()) == ["k_or_index", "re_eps", "im_eps",
                                    "classification"]
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["phase"] == "0"
    assert {m["kind"] for m in summary["edge_modes"]} == {"zero"}


@pytest.mark.parametrize("K, rc", [(0.0, 0), (0.5, 2)])
def test_cli_spectrum_rejects_k_field(tmp_path, K, rc):
    cfgfile = tmp_path / "k.cfg"
    cfgfile.write_text(f"alpha = 0.5\nbeta_J = -1.0\nbeta_h = 0.5\nK = {K}\n")
    assert cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), "spectrum"]) == rc


def test_cli_spectrum_exits_3_at_an_exceptional_point(tmp_path, monkeypatch):
    monkeypatch.setattr(spectral, "_COND_CUTOFF", 1.0)
    rc = cli.main(["--out-dir", str(tmp_path), "spectrum", "--alpha", "0.5",
                   "--beta-j", "-1.0", "--beta-h", "0.5", "--L", "40", "--bc", "obc"])
    assert rc == 3


def test_cli_and_sweep_count_the_same_real_modes(tmp_path):
    # on an open chain both report the two-sector momentum census that the
    # phase label reads, not the open-chain eigenvalues
    rc = cli.main(["--out-dir", str(tmp_path), "spectrum", "--alpha", "0.2",
                   "--beta-j", "-0.1", "--beta-h", "0.1", "--L", "40", "--bc", "obc"])
    assert rc == 0
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    spec = _axis_spec((("beta_J", -0.1, -0.1, 1),),
                      {"alpha": 0.2, "beta_h": 0.1, "L": 40, "bc": "obc"}, "spectrum")
    sweep.run_sweep(spec, tmp_path / "sweep")
    row = read_rows(tmp_path / "sweep" / "spectrum_sweep.csv")[0]
    assert summary["phase"] == row["phase"] == "critical-volume"
    assert summary["n_real_modes"] == int(row["n_real_modes"]) == 110


def _spectrum_kinds(tmp_path, *flags):
    """Row classes of spectrum.csv and n_real_modes of one spectrum run."""
    assert cli.main(["--out-dir", str(tmp_path), "spectrum", *flags]) == 0
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    rows = read_rows(tmp_path / "spectrum.csv")
    return Counter(r["classification"] for r in rows), summary["n_real_modes"]


def test_periodic_spectrum_rows_are_classified_like_the_census(tmp_path):
    # 2e-9 off beta_J = -beta_h: Im eps ~ 3e-9 is real by the census rule
    kinds, n_real = _spectrum_kinds(tmp_path, "--alpha", "0.5", "--beta-j", "-0.5",
                                    "--beta-h", "0.500000002", "--L", "40",
                                    "--bc", "pbc-even")
    assert kinds["real"] + kinds["exceptional"] == n_real == 36


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.floats(0.0, 2.0), st.floats(-2.0, 2.0), st.floats(-1e-7, 1e-7),
       st.sampled_from([1.0, -1.0]), st.integers(8, 64),
       st.sampled_from(["pbc-even", "pbc-odd"]))
def test_periodic_census_counts_exactly_the_real_rows(tmp_path, alpha, beta_h, delta,
                                                      sign, L, bc):
    # within 1e-7 of |beta_J| = |beta_h|: every real row is counted and no
    # conjugate-pair or grow-decay row is (an exceptional row may be either)
    kinds, n_real = _spectrum_kinds(tmp_path, f"--alpha={alpha!r}",
                                    f"--beta-j={sign * beta_h + delta!r}",
                                    f"--beta-h={beta_h!r}", f"--L={L}", f"--bc={bc}")
    assert kinds["real"] <= n_real <= kinds["real"] + kinds["exceptional"]


@pytest.mark.parametrize("argv, cfg, message", [
    (["sweep", "--task", "spectrum", "--axis", "beta_J:0:2"], "", "--axis"),
    (["sweep", "--task", "spectrum", "--axis", "beta_J:0:2:x"], "", "--axis"),
    # beta_j is the CLI flag spelling, not a config key
    (["sweep", "--task", "spectrum", "--axis", "beta_j:0:1:3"], "", "axis beta_j"),
    (["tee"], "tee_sizes = 8,x\n", "config line 4"),
    # a repeated size would run its points twice and merge their curves
    (["tee"], "tee_sizes = 8,8,12,16\n", "tee_sizes repeats a size"),
    (["tee"], "tee_beta_j = -0.4,-0.2\n", "config line 4"),
    (["tee"], "tee_beta_j = -0.4,-0.2,0\n", "config line 4"),
    (["tee"], "tee_beta_j = -0.4,-0.2,-1\n", "config line 4"),
    (["scaling"], "scaling_sizes = 20,x\n", "config line 4"),
    # grids the fit or the collapse would reject after every point ran
    (["tee"], "tee_sizes = 16,24\n", "collapse needs at least 3 system sizes"),
    (["scaling"], "scaling_sizes = 20,25,30,40,50\n", "need at least 6 scaling points"),
    (["scaling"], "scaling_ratio = 1\n", "every scaling point needs 0 < L_A < L"),
], ids=["axis-fields", "axis-count", "axis-name", "tee-sizes", "tee-sizes-repeated", "tee-beta-j",
        "tee-beta-j-zero", "tee-beta-j-negative", "scaling-sizes", "tee-two-sizes",
        "scaling-five-sizes", "scaling-ratio-one"])
def test_cli_malformed_list_inputs_exit_2(tmp_path, capsys, argv, cfg, message):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("alpha = 0.2\nbeta_h = -0.3\nn_periods = 10\n" + cfg)
    assert cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), *argv]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()  # rejected before any point ran


def _readme_commands():
    """The argument lists of every ``floquet-ising ...`` line of the README."""
    text = (Path(__file__).parents[1] / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(ln)[1:] for ln in text.splitlines()
            if ln.startswith("floquet-ising ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: floquet-ising {shlex.join(argv)}")


def test_cached_parser_leaks_no_state_between_main_calls(tmp_path):
    # the parser is built once per process; each main() call parses into a
    # fresh namespace, so flags and subcommand options of one call (global
    # --seed, --workers, --config; cft-compare's --eta and --out) do not
    # reach the next, whose outputs equal those of the same call made first
    assert cli.build_parser() is cli.build_parser()
    cft = ["cft-compare", "--l", "4", "--t-max", "8", "--n-times", "24"]
    spectrum = ["spectrum", "--alpha", "0.5", "--beta-j", "-1.0", "--beta-h", "0.5",
                "--L", "8", "--bc", "obc"]
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("alpha = 0.3\nL = 6\n")
    argvs = [["--out-dir", str(tmp_path / "a"), *cft],
             ["--out-dir", str(tmp_path / "a"), *spectrum],
             ["--seed", "7", "--workers", "1", "--config", str(cfg), "--out-dir",
              str(tmp_path / "b"), *cft, "--eta", "0.3", "--out", "other.csv"],
             ["--seed", "3", "--out-dir", str(tmp_path / "b"), *spectrum, "--units", "rad"],
             ["--out-dir", str(tmp_path / "c"), *cft],
             ["--out-dir", str(tmp_path / "c"), *spectrum]]
    for argv in argvs:
        assert vars(cli.build_parser().parse_args(argv)) == \
            vars(cli.build_parser.__wrapped__().parse_args(argv))
        assert cli.main(argv) == 0
    assert sorted(p.name for p in (tmp_path / "c").iterdir()) == [
        "cft_compare.csv", "spectrum.csv", "spectrum_summary.json"]
    for name in ("cft_compare.csv", "spectrum.csv", "spectrum_summary.json"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
    assert (tmp_path / "b" / "other.csv").read_bytes() != (
        tmp_path / "a" / "cft_compare.csv").read_bytes()


@pytest.mark.parametrize("bc, n_real", [("pbc-even", 0), ("pbc-odd", 2)])
def test_cli_spectrum_counts_the_listed_sector(tmp_path, bc, n_real):
    # the J = h line: the k = 0 zero mode lives in the periodic sector only
    rc = cli.main(["--out-dir", str(tmp_path), "spectrum", "--alpha", "0.2",
                   "--beta-j", "0.1", "--beta-h", "0.1", "--L", "40", "--bc", bc])
    assert rc == 0
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["n_real_modes"] == n_real


def test_cli_evolve_with_dump(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("alpha_J = 0.2\nbeta_J = -0.1\nalpha_h = 0.2\n"
                       "beta_h = 0.1\nL = 12\nn_periods = 4\n"
                       "subsystem_length = 3\n")
    dump = tmp_path / "corr"
    rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path),
                   "evolve", "--dump-correlations", str(dump)])
    assert rc == 0
    rows = read_rows(tmp_path / "evolve.csv")
    assert len(rows) == 4
    assert float(rows[-1]["purity_residual"]) < 1e-8
    sidecar = json.loads((dump / "correlations.json").read_text())
    assert sidecar["shape"] == [24, 24]
    blob = np.fromfile(dump / sidecar["files"][0], dtype="<c16")
    c = blob.reshape(24, 24)
    assert np.linalg.norm(c + c.T - 2 * np.eye(24)) < 1e-8


def test_cli_evolve_dump_rejects_k_field(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("alpha_J = 0.2\nbeta_J = -0.1\nalpha_h = 0.2\n"
                       "beta_h = 0.1\nL = 12\nn_periods = 4\nK = 0.1\n")
    for extra in ([], ["--dump-correlations", str(tmp_path / "corr")]):
        rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path),
                       "evolve", *extra])
        assert rc == 2
        assert not (tmp_path / "manifest.json").exists()  # written only by a complete run


def test_cli_evolve_csv_same_with_and_without_dump(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("alpha_J = 0.2\nbeta_J = -0.1\nalpha_h = 0.2\n"
                       "beta_h = 0.1\nL = 12\nn_periods = 4\n"
                       "subsystem_length = 3\n")
    outs = []
    for name, extra in (("plain", []),
                        ("dump", ["--dump-correlations", str(tmp_path / "corr")])):
        rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path / name),
                       "evolve", *extra])
        assert rc == 0
        outs.append((tmp_path / name / "evolve.csv").read_bytes())
    assert outs[0] == outs[1]


SCALING_CFG = ("alpha_J = 0.2\nbeta_J = -0.1\nalpha_h = 0.2\nbeta_h = 0.1\n"
               "L = 8\nn_periods = 2\n")


def test_cli_evolve_dump_on_the_momentum_route_matches_the_dense_loop(tmp_path):
    text = ("alpha_J = 0.2\nbeta_J = -0.2\nalpha_h = 0.2\nbeta_h = 0.1\n"
            "L = 16\nn_periods = 6\nsubsystem_start = 14\nsubsystem_length = 5\n")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    dump = tmp_path / "corr"
    rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path),
                   "evolve", "--dump-correlations", str(dump)])
    assert rc == 0
    params, lat, quench = P.model_from_config(P.parse_config(text))
    assert next(gaussian.period_frames(params, lat, quench)).route == "schur"
    kicks = spectral.build_kick_forms(params, lat)
    frame = gaussian.initial_frame(quench, lat)
    files = json.loads((dump / "correlations.json").read_text())["files"]
    assert len(files) == 6
    # the manifest hashes the sidecar and the CSV, not the dumps
    outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
    assert outputs == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in (dump / "correlations.json", tmp_path / "evolve.csv")}
    for name in files:
        frame = gaussian.period_map(frame, kicks)
        c = np.fromfile(dump / name, dtype="<c16").reshape(32, 32)
        assert np.max(np.abs(c - gaussian.correlation_from_frame(frame).c)) <= 1e-10


def test_cli_evolve_at_the_strobe_benchmark_size(tmp_path):
    # the evolve command of the strobe-trace benchmark: an L = 200 pbc-even
    # Neel run on the momentum frame, whose S_A is finite and within
    # [0, 100 ln 2], and whose last S_A, read from the strided Toeplitz
    # block, is the entropy of the same rows and columns of the dense C
    text = ("alpha_J = 0.2\nbeta_J = -0.1\nalpha_h = 0.2\nbeta_h = 0.1\nL = 200\n"
            "bc = pbc-even\nn_periods = 5\ninitial_state = neel-fermion\n"
            "subsystem_length = 100\n")
    cfgfile = tmp_path / "strobe.cfg"
    cfgfile.write_text(text)
    assert cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), "evolve"]) == 0
    rows = read_rows(tmp_path / "evolve.csv")
    # the manifest of a one-point evolve sweep, on the pool its entropies may use
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["points"] == [{"index": 0, "status": "ok"}]
    assert (manifest["spec"]["task"], manifest["spec"]["points"]) == ("evolve", [{}])
    assert manifest["spec"]["fixed"] == {**sweep.DEFAULTS["evolve"], **P.parse_config(text)}
    assert manifest["seed"] is None
    assert manifest["parallel"]["pool_workers"] == sweep.pool_size(sweep.default_workers(), 5)
    assert manifest["outputs"] == {
        "evolve.csv": hashlib.sha256((tmp_path / "evolve.csv").read_bytes()).hexdigest()}
    s, pur = (np.array([float(r[c]) for r in rows]) for c in ("S_A", "purity_residual"))
    assert len(s) == 5 and np.all(np.isfinite(s))
    assert s.min() >= 0 and s.max() <= 100 * np.log(2) and pur.max() < 1e-8
    params, lat, quench = P.model_from_config(P.parse_config(text))
    *_, frame = gaussian.period_frames(params, lat, quench)
    idx = P.SubsystemSpec(1, 100).majorana_indices(lat)
    ref = E.entropy_from_majorana_block(
        gaussian.correlation_from_frame(frame).c[np.ix_(idx, idx)]).entropy
    assert frame.route == "schur" and abs(s[-1] - ref) < 1e-10


def test_cli_scaling_default_sizes_fit(tmp_path):
    cfgfile = tmp_path / "sc.cfg"
    cfgfile.write_text(SCALING_CFG)
    rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), "scaling"])
    assert rc == 0
    rows = read_rows(tmp_path / "scaling.csv")
    assert [int(r["L"]) for r in rows] == [60, 80, 100, 140, 180, 200]
    assert [int(r["L_A"]) for r in rows] == [6, 8, 10, 14, 18, 20]


def test_cli_scaling_ratio_from_config(tmp_path):
    cfgfile = tmp_path / "sc.cfg"
    cfgfile.write_text(SCALING_CFG + "scaling_ratio = 5\n"
                       "scaling_sizes = 20,25,30,40,50,60\n")
    rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), "scaling"])
    assert rc == 0
    rows = read_rows(tmp_path / "scaling.csv")
    assert [int(r["L_A"]) for r in rows] == [int(r["L"]) // 5 for r in rows]
    assert len(rows) == 6


@pytest.mark.parametrize("ratio", [0, -3, 1])
def test_cli_scaling_ratio_below_one_rejected(tmp_path, monkeypatch, ratio):
    # bad input (exit 2), caught before any evolution runs; ratio 1 gives
    # L_A = L, which the fit rejects
    def no_run(*args, **kwargs):
        raise AssertionError("evolution ran")

    monkeypatch.setattr(gaussian, "stroboscopic_run", no_run)
    cfgfile = tmp_path / "sc.cfg"
    cfgfile.write_text(SCALING_CFG + f"scaling_ratio = {ratio}\n")
    rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), "scaling"])
    assert rc == 2
    assert not (tmp_path / "scaling.csv").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_cli_scaling_needs_no_L(tmp_path):
    cfgfile = tmp_path / "sc.cfg"
    cfgfile.write_text(SCALING_CFG.replace("L = 8\n", ""))
    rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), "scaling"])
    assert rc == 0
    assert len(read_rows(tmp_path / "scaling.csv")) == 6


def test_cli_scaling_rejects_k_field(tmp_path):
    cfgfile = tmp_path / "sc.cfg"
    cfgfile.write_text(SCALING_CFG + "K = 0.1\n")
    rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path), "scaling"])
    assert rc == 2


def test_cli_validation_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("alpha_J = 0.2\n")  # missing everything else
    rc = cli.main(["--config", str(cfgfile), "evolve"])
    assert rc == 2


def test_cli_spin_quench(tmp_path):
    cfgfile = tmp_path / "sq.cfg"
    cfgfile.write_text("alpha_J = 1.5\nbeta_J = -1.5\nalpha_h = 1.5\n"
                       "beta_h = 0.5\nL = 6\nbc = obc\nn_periods = 5\n"
                       "initial_state = x-down\n")
    rc = cli.main(["--config", str(cfgfile), "--out-dir", str(tmp_path),
                   "spin-quench"])
    assert rc == 0
    rows = read_rows(tmp_path / "spin_quench.csv")
    assert len(rows) == 5 * 6
    summary = read_rows(tmp_path / "spin_quench_summary.csv")
    assert list(summary[0].keys()) == ["period", "SxSx_edge", "ghz_overlap"]


def test_cli_cft_compare(tmp_path):
    rc = cli.main(["--out-dir", str(tmp_path), "cft-compare", "--l", "4",
                   "--eta", "0.2", "--t-max", "4", "--n-times", "10",
                   "--rtol", "1e-6"])
    assert rc == 0
    rows = read_rows(tmp_path / "cft_compare.csv")
    assert list(rows[0].keys()) == ["t", "S_cft", "S_numeric", "valid"]


def test_cli_cft_compare_too_few_times_exits_2(tmp_path, capsys):
    rc = cli.main(["--out-dir", str(tmp_path), "cft-compare", "--l", "4",
                   "--t-max", "8", "--n-times", "4"])
    assert rc == 2
    assert "late trend" in capsys.readouterr().err
    assert not (tmp_path / "cft_compare.csv").exists()


def test_cli_sweep_and_emit(tmp_path):
    rc = cli.main(["--out-dir", str(tmp_path), "sweep", "--task", "spectrum",
                   "--axis", "alpha:0.4:1.6:2",
                   "--axis", "beta_J:-1.0:-0.2:2"]
                  )
    assert rc == 0
    assert (tmp_path / "manifest.json").exists()
    rc = cli.main(["--out-dir", str(tmp_path / "plots"), "emit-plots",
                   "--figure", "fig2", "--inputs",
                   str(tmp_path / "spectrum_sweep.csv")])
    assert rc == 0
