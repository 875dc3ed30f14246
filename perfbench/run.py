"""Benchmark of the floquet-ising toolkit: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in a fresh Python process whose BLAS is
pinned to one thread by environment variables set on that process only, as
a closed loop with one operation in flight.  Before it, a few set-up-only
processes measure the set-up time.  With ``--trace 0`` the last line of
output carries the end-to-end metrics; with ``--trace 1`` the per-layer
metrics from a traced run.  Workloads, metrics, units and bounds are listed
in ``BENCHMARK.json``; ``--tiny`` shrinks every input for the smoke test.
Outputs and span dumps go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# untraced seconds per pass on the reference machine (2-core Xeon, OpenBLAS
# 0.3.31, one thread); a run makes round(seconds / this) passes, at least one
NOMINAL_PASS_S = {"strobe-trace": 4.5, "steady-final": 15.0,
                  "phase-diagram": 20.5, "continuous-cft": 10.5}
SETUP_PROBES = 4       # set-up-only processes; the workload process adds one
DEADLINE_S = 170.0     # whole run, set-up probes included


def _percentile(values, q):
    """Linear-interpolated percentile (the 'inclusive' method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def _spawn(args, passes, wd, result, setup_only, deadline):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(passes),
           "--trace", str(args.trace), "--work-dir", str(wd), "--result", str(result)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"workload {args.workload} ran past the time limit")
    if code != 0:
        raise SystemExit(f"workload process exited with {code}")
    return json.loads(result.read_text())


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (smoke test only)")
    args = ap.parse_args()

    if not (ROOT / "src" / "floquet_ising" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    passes = 1 if args.tiny else max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))

    out = ROOT / ".perfbench_out"
    wd = out / args.workload
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    setup_runs = [_spawn(args, passes, wd, wd / f"setup-{i}.json", True, deadline)
                  for i in range(SETUP_PROBES)]
    res = _spawn(args, passes, wd, wd / "worker.json", False, deadline)
    setup_runs.append(res)
    setups = [p["setup_s"] for p in setup_runs]

    attempted, failed = res["attempted"], res["failed"]
    lat_ms = [1e3 * x for x in res["latencies"]]
    summary = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(res["pass_walls"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "point_p50_ms": (_percentile(lat_ms, 50), "ms"),
        "point_p90_ms": (_percentile(lat_ms, 90), "ms"),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()}
    correct = failed == 0 and not res["problems"]

    print(f"workload {args.workload}  seed {args.seed}  passes {len(res['pass_walls'])}"
          f"  operations {attempted}  latency samples {len(lat_ms)}  trace {args.trace}")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed} of {attempted} failed)")
    raw_setup = statistics.median(p["setup_raw_s"] for p in setup_runs)
    print(f"  as measured: setup {raw_setup:.4g} s, pass"
          f" {statistics.median(res['raw_pass_walls']):.4g} s; times below are"
          f" scaled to the reference speed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for msg in res["problems"] + res["errors"]:
        print(f"  problem: {msg}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "correct": correct, "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "metrics": metrics,
              "setup_samples_s": setups, "pass_walls_s": res["pass_walls"],
              "raw_setup_samples_s": [p["setup_raw_s"] for p in setup_runs],
              "raw_pass_walls_s": res["raw_pass_walls"],
              "latencies_s": res["latencies"], "raw_latencies_s": res["raw_latencies"],
              "outputs": res["outputs"], "environment": res["environment"],
              "wrappers_left": res["wrappers_left"], "problems": res["problems"],
              "errors": res["errors"]}
    (out / f"result-{args.workload}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": res["environment"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
