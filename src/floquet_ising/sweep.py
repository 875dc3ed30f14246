"""Parameter sweeps, result persistence and plot-data emission.

A sweep evaluates one task over the Cartesian grid of its axes.  Grid
points are independent: ``map_points`` deals them out to this process and
forked worker processes, one share each, and gathers the results in grid
order, so reruns and different worker counts produce byte-identical
CSVs.  The ``tee`` and ``scaling`` commands map their grids the same way,
and ``gaussian.stroboscopic_run`` (the ``evolve`` command) its per-period
entropies.  Failures of single points are recorded in the manifest and
do not abort the sweep; the manifest tells expected failures (``error``)
apart from crashes.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalBreakdown, ValidationError, WorkerError
from .params import (_CONFIG_KEYS, TeePartition, model_from_config,
                     subsystem_from_config, swept_value)
from . import ed, entanglement, gaussian, spectral

TASKS = {}
DEFAULTS = {}
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


def _task(name, **defaults):
    """Register a sweep task with the config defaults that its CLI command
    of the same name shares."""
    def deco(fn):
        TASKS[name], DEFAULTS[name] = fn, defaults
        return fn
    return deco


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple          # ((name, start, stop, count), ...)
    fixed: dict
    task: str
    workers: int = 1

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r}; "
                                  f"available: {sorted(TASKS)}")
        names = [a[0] for a in self.axes]
        if len(set(names)) != len(names):
            raise ValidationError("sweep axes must be distinct")
        if set(names) & set(self.fixed):
            raise ValidationError("axis parameters may not also be fixed")
        for name, start, stop, count in self.axes:
            if _CONFIG_KEYS.get(name) not in (float, int):
                raise ValidationError(f"axis {name}: not a numeric config key")
            if count < 1:
                raise ValidationError(f"axis {name}: count must be >= 1")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")

    def grid(self):
        """Yield (index, config) over the grid in row-major order."""
        names = [a[0] for a in self.axes]
        values = [np.linspace(start, stop, count) for _, start, stop, count in self.axes]
        for flat, point in enumerate(itertools.product(*values)):
            yield flat, {**self.fixed,
                         **{k: swept_value(k, float(v)) for k, v in zip(names, point)}}


# --------------------------------------------------------------------------
# tasks: each maps a point config, defaults filled in, to a list of row dicts
# --------------------------------------------------------------------------

def trace_rows(trace: gaussian.EntropyTrace) -> list[dict]:
    return [{"period": int(p), "S_A": s, "norm_log": nl, "purity_residual": pr}
            for p, s, nl, pr in zip(trace.periods, trace.entropy,
                                    trace.norm_log, trace.purity_residual)]


def spin_rows(trace: ed.ObservableTrace) -> list[dict]:
    n_periods, L = trace.sx.shape
    return [{"period": t + 1, "site": j + 1, "Sx": trace.sx[t, j]}
            for t in range(n_periods) for j in range(L)]


@_task("spectrum", L=40, bc="obc")
def task_spectrum(cfg):
    params, lat, quench = model_from_config(cfg)
    quench.require_free_fermion()
    # both raise NumericalBreakdown on overflow; the scan runs first, so a kick's is reported
    obc = spectral.detect_edge_modes(params, lat)
    census = spectral.count_real_modes(params, lat.L)
    label = spectral.classify_phase_from_spectrum(obc, census)
    point = {"phase": str(label), "n_real_modes": census.count}
    rows = [{"mode_index": i, "kind": rec.kind, "re_eps": rec.energy.real,
             "im_eps": rec.energy.imag, "abs_eps": abs(rec.energy),
             "loc_len": rec.localization_length, **point}
            for i, rec in enumerate(obc.edge_modes)]
    return rows or [{"mode_index": -1, "kind": "none", "re_eps": 0.0, "im_eps": 0.0,
                     "abs_eps": 0.0, "loc_len": 0.0, **point}]


@_task("evolve", L=100)
def task_evolve(cfg):
    params, lat, quench = model_from_config(cfg)
    return trace_rows(gaussian.stroboscopic_run(params, lat, quench,
                                                subsystem_from_config(cfg, lat.L)))


@_task("steady-entropy", L=120, n_periods=300)
def task_steady_entropy(cfg):
    """Steady-state density and early growth rate of one parameter point."""
    params, lat, quench = model_from_config(cfg)
    sub = subsystem_from_config(cfg, lat.L)
    trace = gaussian.stroboscopic_run(params, lat, quench, sub)
    return [{"L": lat.L, "L_A": sub.length,
             "S_A": trace.steady_state(),
             "density": trace.steady_state() / sub.length,
             "growth_rate": trace.growth_rate(max(1, sub.length // 2))}]


@_task("tee", L=48, n_periods=300)
def task_tee(cfg):
    """S_top of the four-quarter partition, and the route the steady-state
    frame took; the chain is always open."""
    params, lat, quench = model_from_config({**cfg, "bc": "obc"})
    frame = gaussian.run_to_steady_state(params, lat, quench)
    result = entanglement.tee(frame, TeePartition.quarters(lat.L), lat)
    return [{"L": lat.L, "beta_J": cfg.get("beta_J", 0.0), "S_top": result.s_top,
             "route": frame.route}]


@_task("spin-quench", L=12, bc="obc", initial_state="x-down", n_periods=100)
def task_spin_quench(cfg):
    return spin_rows(ed.quench_experiment(*model_from_config(cfg)))


def run_point(task_name: str, cfg: dict):
    return TASKS[task_name]({**DEFAULTS[task_name], **cfg})


def _fail_soft(task_name: str, cfg: dict):
    """Run one sweep point.  Bad input and numerical breakdowns are an
    ``error``; any other exception is a ``crash``, recorded with its
    traceback."""
    try:
        return "ok", run_point(task_name, cfg), None
    except (ValidationError, NumericalBreakdown) as exc:
        return "error", [], f"{type(exc).__name__}: {exc}"
    except Exception:
        return "crash", [], traceback.format_exc()


# --------------------------------------------------------------------------
# the worker pool
# --------------------------------------------------------------------------

def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def default_workers() -> int:
    """Worker processes that fit the BLAS thread budget: the CPUs this
    process may use over the BLAS thread count, read from the first of
    ``BLAS_THREAD_ENV`` that is set.  1 where none is set (BLAS then takes
    every core), where that value is not a positive integer, or where
    processes cannot be forked."""
    threads = next((os.environ[k] for k in BLAS_THREAD_ENV if k in os.environ), "")
    if not (_CAN_FORK and threads.isdigit() and int(threads) > 0):
        return 1
    return max(1, _cpus() // int(threads))


def pool_size(workers: int, n_points: int) -> int:
    """Processes, this one included, that ``map_points`` runs ``n_points``
    points on."""
    return max(1, min(workers, n_points)) if _CAN_FORK else 1


def _share(fn, points: list):
    """``fn`` over ``points`` up to the first failure: (results, the
    failing point's exception or None)."""
    results = []
    for p in points:
        try:
            results.append(fn(p))
        except Exception as exc:
            return results, exc
    return results, None


def _send_share(fn, points: list, conn):
    """A forked worker's ``_share``, sent through ``conn``.  An exception
    that does not survive the pipe is sent as a ``WorkerError`` with its
    message."""
    results, exc = _share(fn, points)
    if exc is not None:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = WorkerError(f"{type(exc).__name__}: {exc}")
    conn.send((results, exc))
    conn.close()


def map_points(fn, points: list, workers: int = 1) -> list:
    """``[fn(p) for p in points]``, in order, on n = ``pool_size(workers,
    len(points))`` processes: forked worker r takes points r, r + n, ...,
    this one takes 0, n, 2n, ...; each stops at its first failure and
    the workers send their results back through a pipe and are joined.
    They inherit the imported modules, warm caches, ``fn`` and the points
    (none of which need pickle); only results and exceptions cross the
    pipe.  The first failing point's exception is raised, as in the serial
    loop, after every worker is joined; a worker that dies raises a
    ``WorkerError`` naming its exit code.  This process works rather than
    waits because each page it first writes after a fork takes a
    copy-on-write fault: its own points take those faults here, not the
    next call."""
    n = pool_size(workers, len(points))
    if n == 1:
        return [fn(p) for p in points]
    ctx = multiprocessing.get_context("fork")
    pool, complete = [], False
    try:
        for r in range(1, n):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_share, args=(fn, points[r::n], send))
            proc.start()
            send.close()
            pool.append((proc, recv))
        shares = [_share(fn, points[::n])]
        for proc, recv in pool:
            try:
                shares.append(recv.recv())
            except EOFError:
                proc.join()
                raise WorkerError(f"pool worker exited with code {proc.exitcode} "
                                  "before sending its results", proc.exitcode) from None
        complete = True
    finally:
        for proc, recv in pool:
            if not complete:  # interrupted: their results are not wanted
                proc.terminate()
            proc.join()
            recv.close()
    results = []
    for i in range(len(points)):
        done, exc = shares[i % n]
        if i // n == len(done):
            raise exc
        results.append(done[i // n])
    return results


# --------------------------------------------------------------------------
# manifest and CSV output
# --------------------------------------------------------------------------

@dataclass
class RunManifest:
    version: str
    spec: dict
    seed: int | None
    parallel: dict
    wallclock_s: float
    points: list
    outputs: dict

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


def write_csv(path: Path, rows: list[dict], fieldnames=None):
    if not rows:
        raise ValidationError("no rows to write")
    fieldnames = fieldnames or list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def run_sweep(spec: SweepSpec, out_dir) -> RunManifest:
    """Execute the sweep, writing <task>_sweep.csv and manifest.json.  The
    points take their seed from ``spec.fixed``, as the manifest records it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    cfgs = [cfg for _, cfg in spec.grid()]
    results = map_points(partial(_fail_soft, spec.task), cfgs, spec.workers)

    axis_names = [a[0] for a in spec.axes]
    rows, points = [], []
    for (idx, cfg), (status, point_rows, err) in zip(spec.grid(), results):
        points.append({"index": idx, "status": status,
                       **({"error": err} if err else {})})
        for row in point_rows:
            rows.append({"grid_index": idx,
                         **{n: cfg[n] for n in axis_names}, **row})

    csv_path = out_dir / f"{spec.task}_sweep.csv"
    if rows:
        write_csv(csv_path, rows)
    outputs = {csv_path.name: hashlib.sha256(csv_path.read_bytes()).hexdigest()} if rows else {}
    manifest = RunManifest(
        version=__version__,
        spec={"axes": [list(a) for a in spec.axes], "fixed": spec.fixed,
              "task": spec.task, "workers": spec.workers},
        seed=spec.fixed.get("seed"),
        # what the default --workers is worked out from, and the pool it gave
        parallel={"pool_workers": pool_size(spec.workers, len(cfgs)), "cpus": _cpus(),
                  "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV}},
        wallclock_s=time.time() - t0,
        points=points,
        outputs=outputs,
    )
    (out_dir / "manifest.json").write_text(manifest.to_json())
    return manifest


# --------------------------------------------------------------------------
# figure bundles
# --------------------------------------------------------------------------

def _collapsed_rows(rows: list[dict]) -> list[dict]:
    """fig6: each row with its beta_J rescaled by the fitted collapse."""
    pts = [(int(float(r["L"])), float(r["beta_J"]), r["S_top"]) for r in rows]
    curves = {}
    for L, bj, s in pts:
        curves.setdefault(L, []).append((bj, float(s)))
    fit = entanglement.tee_collapse({L: np.array(c).T for L, c in curves.items()})
    return [{"beta_J": bj, "S_top": s, "L": L, "x_collapsed": (bj - fit.beta_J0) * L ** fit.nu}
            for L, bj, s in pts]


# figure -> (bundle file, columns each input holds, the parse of each column
# the row rule reads as a number, columns written, row rule)
_FIGURES = {
    "fig2": ("fig2_edge_spectrum.csv", ["alpha", "mode_index", "abs_eps"],
             {"mode_index": int}, ["alpha", "mode_index", "abs_eps"],
             lambda rows: [r for r in rows if int(r["mode_index"]) >= 0]),
    "fig3": ("fig3_entropy_evolution.csv", ["period", "S_A", "beta_J"], {},
             ["period", "S_A", "series"],
             lambda rows: [{**r, "series": r["beta_J"]} for r in rows]),
    "fig6": ("fig6_tee_collapse.csv", ["L", "beta_J", "S_top"],
             {"L": lambda v: int(float(v)), "beta_J": float, "S_top": float},
             ["beta_J", "S_top", "L", "x_collapsed"], _collapsed_rows),
}


def emit_plot_data(figure: str, inputs: list, out_dir) -> Path:
    """Write a tidy per-figure CSV from raw sweep/run outputs (no rendering)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [Path(p) for p in inputs]
    for p in paths:
        if not p.exists():
            raise ValidationError(f"input file not found: {p}")
    if figure not in _FIGURES:
        raise ValidationError(f"unknown figure id {figure!r}; "
                              f"supported: {', '.join(_FIGURES)}")
    name, required, numeric, written, rule = _FIGURES[figure]
    rows = []
    for p in paths:
        with open(p, newline="") as fh:
            part = list(csv.DictReader(fh))
        if missing := [c for c in required if part and c not in part[0]]:
            raise ValidationError(f"{p}: missing column(s) {', '.join(missing)}")
        for (column, parse), r in itertools.product(numeric.items(), part):
            try:
                parse(r[column])
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"{p}: column {column}: {r[column]!r} is not "
                                      "a number") from None
        rows.extend(part)
    out = out_dir / name
    write_csv(out, rule(rows), written)
    return out
