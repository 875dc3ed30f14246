"""The four benchmark workloads: inputs from a seed, one pass, checks.

A pass is the fixed list of operations that produces one figure's data.
Operations run one at a time in a closed loop; each is timed on its own and
checked after its clock stops.  An operation is one CLI call, one
``classify_phase`` point, one chord fit or one sweep point; it fails when it
raises, exits nonzero or fails its check.

Seed 0 runs the nominal coupling points and is compared against numbers
recorded from the seed commit (``reference.json``).  Any other seed jitters
the couplings, and the phase-grid offset, inside their own phase region, so
every physics check still applies.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import speed
from floquet_ising import cli, entanglement, gaussian, spectral
from floquet_ising import params as P

WORKLOADS = ("strobe-trace", "steady-final", "phase-diagram", "continuous-cft")

LN2 = math.log(2.0)
REF_RTOL, REF_ATOL = 1e-6, 1e-9


# --------------------------------------------------------------------------
# operation log
# --------------------------------------------------------------------------

class Op:
    def __init__(self, name: str, points: int):
        self.name = name
        self.points = points
        self.failed_points = 0
        self.errors: list[str] = []
        self.value = None
        self.raw_latency = 0.0
        self.latency = 0.0  # at the reference speed (see speed.py)

    @property
    def ok(self) -> bool:
        return self.failed_points == 0


class OpLog:
    """Closed loop with one operation in flight, timed one by one.

    Each operation is timed raw and at the reference speed by a
    ``speed.Stopwatch``; ``stopwatch.sample`` turns its probes during an
    operation off (for traced passes, whose spans must not hold probes).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[Op] = []
        self.stopwatch = speed.Stopwatch()

    def call(self, name, fn, *args, points: int = 1) -> Op:
        op = Op(name, points)
        self.ops.append(op)
        if self.tracer is not None:
            self.tracer.op = len(self.ops) - 1
        sw = self.stopwatch
        try:
            with sw:
                op.value = fn(*args)
        except Exception as exc:  # any failure of the program counts
            self.fail(op, f"{type(exc).__name__}: {exc}")
        op.raw_latency, op.latency = sw.raw, sw.scaled
        return op

    @staticmethod
    def fail(op: Op, msg: str, points: int | None = None) -> None:
        op.errors.append(msg)
        op.failed_points = min(op.points, op.failed_points + (points or op.points))

    @property
    def attempted(self) -> int:
        return sum(op.points for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.failed_points for op in self.ops)


def _cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"floquet-ising {argv[-1]} exited with {code}")


def _read_csv(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [r[k] for r in rows] for k in rows[0]}


def _col(table, key) -> np.ndarray:
    return np.array([float(v) for v in table[key]])


def _write_cfg(path: Path, **kv) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


def _jitter(rng, seed: int, width: float) -> float:
    return 0.0 if seed == 0 else float(rng.uniform(-width, width))


# --------------------------------------------------------------------------
# strobe-trace: large-L per-period loop, entropy every period
# --------------------------------------------------------------------------

def _strobe_inputs(seed, tiny, wd):
    rng = np.random.default_rng(seed)
    L, la, n = (24, 12, 20) if tiny else (200, 100, 60)
    bj_vol = -0.1 + _jitter(rng, seed, 0.02)
    points = {  # both in pi/4 units; volume: beta_h = -beta_J; area: |beta_J| > |beta_h|
        "volume": (0.2 + _jitter(rng, seed, 0.03), bj_vol, -bj_vol),
        "area": (0.2 + _jitter(rng, seed, 0.03), -0.2 + _jitter(rng, seed, 0.02),
                 0.1 + _jitter(rng, seed, 0.02)),
    }
    cfgs = {}
    for name, (a, bj, bh) in points.items():
        cfgs[name] = _write_cfg(wd / f"evolve-{name}.cfg", alpha_J=a, beta_J=bj,
                                alpha_h=a, beta_h=bh, L=L, bc="pbc-even",
                                n_periods=n, initial_state="neel-fermion",
                                subsystem_length=la)
    return {"L_A": la, "cfgs": cfgs}


def _strobe_pass(inp, log: OpLog, wd: Path):
    outputs, steady = {}, {}
    for name, cfg in inp["cfgs"].items():
        out = wd / f"evolve-{name}"
        op = log.call(f"evolve-{name}", _cli,
                      ["--config", cfg, "--out-dir", str(out), "evolve"])
        if not op.ok:
            continue
        table = _read_csv(out / "evolve.csv")
        s, pur = _col(table, "S_A"), _col(table, "purity_residual")
        if not (np.all(np.isfinite(s)) and s.min() >= 0.0
                and s.max() <= inp["L_A"] * LN2):
            log.fail(op, "entropy outside [0, L_A ln 2]")
        if not pur.max() < 1e-8:
            log.fail(op, f"purity residual {pur.max():.2e} >= 1e-8")
        tail = max(10, len(s) // 4)
        steady[name] = float(np.mean(s[-tail:]))
        outputs[f"steady_{name}"] = (steady[name], op)
    if len(steady) == 2 and not steady["volume"] > steady["area"]:
        log.fail(op, "volume-law steady entropy not above area-law")
    return outputs


# --------------------------------------------------------------------------
# steady-final: many small-L long runs read only at the end
# --------------------------------------------------------------------------

def _steady_inputs(seed, tiny, wd):
    rng = np.random.default_rng(seed)
    shift = _jitter(rng, seed, 0.02)
    beta_h = -0.3 + shift
    if tiny:
        sizes, n_beta, n_tee, L, fits = "8,12,16", 5, 40, 24, ((0.2, 120), (0.4, 80))
        las = list(range(2, 13, 2))
    else:
        sizes, n_beta, n_tee, L, fits = "24,32,48,64", 11, 300, 100, ((0.2, 1400), (0.4, 900))
        las = list(range(10, 51, 5))
    alpha = 0.2 + _jitter(rng, seed, 0.02)
    cfg = _write_cfg(wd / "tee.cfg", alpha_J=alpha, alpha_h=alpha, beta_h=beta_h,
                     n_periods=n_tee, tee_sizes=sizes,
                     tee_beta_j=f"{-0.40 + shift},{-0.20 + shift},{n_beta}")
    chord = [(eta + _jitter(rng, seed, 0.02), n) for eta, n in fits]
    return {"cfg": cfg, "beta_h": beta_h, "L": L, "las": las, "chord": chord}


def _chord_fit(eta, n_periods, L, las):
    """Steady-state chord-length fit at J = h = i eta pi/4 (criterion-8 shape)."""
    p = P.make_params(0.0, eta, 0.0, eta)
    lat = P.lattice(L, "pbc-even")
    quench = P.QuenchConfig(P.named_state("neel-fermion", L), n_periods=n_periods)
    frame = gaussian.run_to_steady_state(p, lat, quench)
    pts = []
    for la in las:
        block = gaussian.correlation_block(
            frame, P.SubsystemSpec(1, la).majorana_indices(lat))
        pts.append((L, la, entanglement.entropy_from_majorana_block(block).entropy))
    return entanglement.fit_scaling(pts).a


def _steady_pass(inp, log: OpLog, wd: Path):
    outputs = {}
    out = wd / "tee"
    op = log.call("tee", _cli, ["--config", inp["cfg"], "--out-dir", str(out), "tee"])
    if op.ok:
        fit = json.loads((out / "tee_collapse.json").read_text())
        if not abs(fit["beta_J0"] - inp["beta_h"]) < 0.1:
            log.fail(op, f"TEE crossing beta_J0 = {fit['beta_J0']:.3f} not within "
                         f"0.1 of beta_h = {inp['beta_h']:.3f}")
        if not 0.8 <= fit["nu"] <= 1.2:
            log.fail(op, f"TEE collapse nu = {fit['nu']:.3f} outside [0.8, 1.2]")
        outputs["tee_beta_J0"] = (fit["beta_J0"], op)
        outputs["tee_nu"] = (fit["nu"], op)
    a_vals = []
    for eta, n in inp["chord"]:
        op = log.call("chord-fit", _chord_fit, eta, n, inp["L"], inp["las"])
        if op.ok:
            a_vals.append(op.value)
            outputs[f"chord_a_{len(a_vals)}"] = (op.value, op)
    if len(a_vals) == 2 and not a_vals[0] > a_vals[1]:
        log.fail(op, "chord coefficient a(eta) not decreasing in eta")
    return outputs


# --------------------------------------------------------------------------
# phase-diagram: open-chain eig work, one classify_phase call per point
# --------------------------------------------------------------------------

def _phase_inputs(seed, tiny, wd):
    rng = np.random.default_rng(seed)
    n, beta_h = (3, 0.5) if tiny else (11, 0.5)
    alphas = np.linspace(0.0, 2.0, n)
    betas = np.linspace(-2.0, 2.0, n)
    da, db = alphas[1] - alphas[0], betas[1] - betas[0]
    off_a, off_b = _jitter(rng, seed, 0.25 * da), _jitter(rng, seed, 0.25 * db)
    points = []
    for a in alphas + off_a:
        for bj in betas + off_b:
            p = P.make_params(float(a), float(bj), float(a), beta_h)
            # labels are checked beyond one cell of the boundary lines
            # alpha = 1 (pi/4) and |beta_J| = beta_h
            checked = abs(a - 1.0) > da and abs(abs(bj) - beta_h) > db
            points.append((p, str(P.phase_label_from_params(p)) if checked else None))
    sweep_n, sweep_L = (2, 16) if tiny else (7, 96)
    cfg = _write_cfg(wd / "sweep.cfg", beta_J=-1.0, beta_h=beta_h, L=sweep_L)
    axis = f"alpha:{0.1 + off_a}:{1.9 + off_a}:{sweep_n}"
    return {"points": points, "classify_L": (8, 16) if tiny else (40, 144),
            "sweep_cfg": cfg, "sweep_axis": axis, "sweep_n": sweep_n}


def _phase_pass(inp, log: OpLog, wd: Path):
    L, confirm_L = inp["classify_L"]
    outputs = {}
    for p, expected in inp["points"]:
        op = log.call("classify", lambda p: spectral.classify_phase(
            p, L=L, confirm_L=confirm_L), p)
        label = str(op.value) if op.ok else None
        outputs[f"label_{len(outputs):03d}"] = (label, op)
        if op.ok and expected is not None and label != expected:
            log.fail(op, f"label {label} != {expected} at {p.in_pi4_units()}")
    out = wd / "sweep"
    op = log.call("sweep", _cli, ["--config", inp["sweep_cfg"], "--out-dir", str(out),
                                  "--workers", "1", "sweep", "--task", "spectrum",
                                  "--axis", inp["sweep_axis"]],
                  points=inp["sweep_n"])
    if op.ok:
        points = json.loads((out / "manifest.json").read_text())["points"]
        bad = sum(1 for pt in points if pt["status"] != "ok")
        if len(points) != inp["sweep_n"]:
            log.fail(op, f"manifest lists {len(points)} of {inp['sweep_n']} points")
        elif bad:
            log.fail(op, f"{bad} sweep points failed", points=bad)
        table = _read_csv(out / "spectrum_sweep.csv")
        outputs["sweep_phase"] = (table["phase"], op)
        outputs["sweep_abs_eps"] = ([float(v) for v in table["abs_eps"]], op)
    return outputs


# --------------------------------------------------------------------------
# continuous-cft: the continuous-time correlation flow
# --------------------------------------------------------------------------

def _cft_inputs(seed, tiny, wd):
    rng = np.random.default_rng(seed)
    eta = 0.2 + _jitter(rng, seed, 0.02)
    extra = ["--l", "4", "--t-max", "8", "--n-times", "24"] if tiny else []
    return {"argv": ["cft-compare", "--eta", repr(eta), "--rtol", "1e-7", *extra]}


def _cft_pass(inp, log: OpLog, wd: Path):
    out = wd / "cft"
    op = log.call("cft-compare", _cli, ["--out-dir", str(out), *inp["argv"]])
    if not op.ok:
        return {}
    table = _read_csv(out / "cft_compare.csv")
    t, s_cft, s_num = _col(table, "t"), _col(table, "S_cft"), _col(table, "S_numeric")
    peak = t[int(np.argmax(s_cft))]
    ratio = t[int(np.argmax(s_num))] / peak
    if not abs(ratio - 1.0) < 0.30:
        log.fail(op, f"peak-time ratio {ratio:.3f} not within 30%")
    late = t > peak + 2.0
    if late.sum() < 2:
        log.fail(op, "no post-peak window")
    else:
        slopes = [np.polyfit(t[late], s[late], 1)[0] for s in (s_cft, s_num)]
        if not max(slopes) < 0:
            log.fail(op, f"post-peak slopes {slopes} not both negative")
    return {"peak_time_ratio": (float(ratio), op),
            "peak_numeric": (float(s_num.max()), op)}


# --------------------------------------------------------------------------

_INPUTS = {"strobe-trace": _strobe_inputs, "steady-final": _steady_inputs,
           "phase-diagram": _phase_inputs, "continuous-cft": _cft_inputs}
_PASSES = {"strobe-trace": _strobe_pass, "steady-final": _steady_pass,
           "phase-diagram": _phase_pass, "continuous-cft": _cft_pass}


def make_inputs(workload: str, seed: int, tiny: bool, wd: Path) -> dict:
    """Generate the workload's inputs (configs are written under ``wd``)."""
    wd.mkdir(parents=True, exist_ok=True)
    return _INPUTS[workload](seed, tiny, wd)


def run_pass(workload: str, inp: dict, log: OpLog, wd: Path,
             reference: dict | None) -> tuple[float, float, dict]:
    """Run one pass; returns its wall time (sum of operation latencies) at
    the reference speed and as measured, and its outputs.  With a
    reference, every output must match it."""
    first = len(log.ops)
    outputs = _PASSES[workload](inp, log, wd)
    for key, expected in (reference or {}).items():
        if key not in outputs:
            continue  # the producing operation already failed
        value, op = outputs[key]
        if not _matches(value, expected):
            log.fail(op, f"{key} differs from the reference")
    ops = log.ops[first:]
    return (sum(op.latency for op in ops), sum(op.raw_latency for op in ops),
            {k: v for k, (v, _) in outputs.items()})


def _matches(value, expected) -> bool:
    if isinstance(expected, list):
        return (isinstance(value, list) and len(value) == len(expected)
                and all(_matches(v, e) for v, e in zip(value, expected)))
    if isinstance(expected, str) or expected is None:
        return value == expected
    return math.isclose(value, expected, rel_tol=REF_RTOL, abs_tol=REF_ATOL)
