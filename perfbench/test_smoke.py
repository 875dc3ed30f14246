"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload through ``run.py --tiny`` untraced and traced, and
checks that the printed metric names are exactly those of BENCHMARK.json
and that the traced run left no wrapper installed.  The tiny inputs sit
outside the regime of some physics checks, so ``correct`` is not asserted
here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_declared_metrics(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        record = json.loads((ROOT / ".perfbench_out" / f"result-{workload}.json").read_text())
        assert record["wrappers_left"] == []


def test_tracer_restores_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import numpy as np
        import spans
        from floquet_ising import gaussian, spectral
        from floquet_ising import params as P

        before = (gaussian.build_transfer_matrix, spectral.build_transfer_matrix,
                  np.linalg.qr, gaussian.GaussianFrame.isotropy_defect)
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert spans.leftover_wrappers()
            lat = P.lattice(8, "pbc-even")
            quench = P.QuenchConfig(P.named_state("neel-fermion", 8), n_periods=3)
            gaussian.stroboscopic_run(P.make_params(0.2, -0.1, 0.2, 0.1), lat, quench,
                                      P.SubsystemSpec(1, 4))
        finally:
            tracer.uninstall()
        assert spans.leftover_wrappers() == []
        assert before == (gaussian.build_transfer_matrix, spectral.build_transfer_matrix,
                          np.linalg.qr, gaussian.GaussianFrame.isotropy_defect)
        names = {s[spans.NAME] for s in tracer.spans}
        # gaussian calls build_transfer_matrix through its by-name import
        assert {"gaussian.stroboscopic_run", "spectral.build_transfer_matrix",
                "gaussian.period_map", "numpy.linalg.qr"} <= names
        m = spans.layer_metrics(tracer.spans, 1, 0.0)
        assert m["gaussian.periods"] == 3
        assert m["spectral.unused_eig_s"] > 0
    finally:
        del sys.path[:2]


def test_stopwatch_scales_and_restores_alarm():
    sys.path[:0] = [str(HERE)]
    try:
        import signal
        import time

        import speed

        before = signal.getsignal(signal.SIGALRM)
        sw = speed.Stopwatch()
        with sw:  # long enough for two probes during the call
            t_end = time.perf_counter() + 2.5 * speed.INTERVAL_S
            while time.perf_counter() < t_end:
                pass
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert 0 < sw.raw <= 2.5 * speed.INTERVAL_S + 0.05
        assert sw.scaled > 0
    finally:
        del sys.path[:1]
