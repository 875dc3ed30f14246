"""One workload in one fresh Python process (started by ``run.py``).

Imports the package, generates the inputs, then runs the workload's passes
and writes a JSON result file.  In traced mode passes alternate untraced and
traced; the per-layer metrics come from the traced ones, and the ratio of
the two pass medians gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
import speed
import workloads

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    wd = Path(args.work_dir)
    inp = workloads.make_inputs(args.workload, args.seed, args.tiny, wd)
    setup_raw_s = time.time() - args.spawned_at
    probe = statistics.median(speed.probe() for _ in range(3))
    result = {"setup_s": setup_raw_s * speed.REF_S / probe, "setup_raw_s": setup_raw_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    env = environment(root)
    problems = [f"{k}={v!r} (want '1')" for k, v in env["blas_thread_env"].items()
                if v != "1"]
    reference = None
    if args.seed == 0 and not args.tiny:
        ref_all = json.loads((Path(__file__).parent / "reference.json").read_text())
        reference = ref_all["workloads"][args.workload]

    tracer = spans.Tracer() if args.trace else None
    log = workloads.OpLog(tracer)
    n = max(2, args.passes) if args.trace else args.passes
    walls = {False: [], True: []}
    raw_walls = []
    outputs = None
    for i in range(n):
        traced = bool(args.trace and i % 2)
        log.stopwatch.sample = not traced
        if traced:
            tracer.install()
        try:
            wall, raw_wall, outputs = workloads.run_pass(args.workload, inp, log, wd,
                                                         reference)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        if not traced:
            raw_walls.append(raw_wall)

    leftover = spans.leftover_wrappers()
    if leftover:
        problems.append(f"wrappers left installed: {leftover}")
    result.update({
        "environment": env,
        "problems": problems,
        "attempted": log.attempted,
        "failed": log.failed,
        "errors": [f"{op.name}: {e}" for op in log.ops for e in op.errors][:20],
        "pass_walls": walls[False],
        "raw_pass_walls": raw_walls,
        "latencies": [op.latency for op in log.ops],
        "raw_latencies": [op.raw_latency for op in log.ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
        "wrappers_left": leftover,
    })
    if tracer is not None:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        result["per_layer"] = spans.layer_metrics(tracer.spans, len(walls[True]),
                                                  overhead)
        result["n_spans"] = len(tracer.spans)
        spans.dump(tracer.spans, [op.name for op in log.ops],
                   wd.parent / f"spans-{args.workload}.json")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
