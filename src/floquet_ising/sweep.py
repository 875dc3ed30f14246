"""Parameter sweeps, result persistence and plot-data emission.

Every command that runs a grid of points is a sweep: ``run_sweep`` runs
one task at each point config of a ``SweepSpec`` (built by ``axis_grid``
for ``sweep --axis``, ``tee_grid`` or ``scaling_grid``), each over the
fixed config.  Points are independent: ``map_points`` deals them out to
this process and forked worker processes, one share each, and gathers the
results in grid order, so reruns and different worker counts produce
byte-identical outputs; it maps ``gaussian.entropy_trace``'s entropies
too.  A failing point does not abort the sweep: manifest.json
(``write_manifest``, which ``evolve`` writes too) records every point's
status, telling expected failures (``error``) from crashes, with the
seed, the pool, the BLAS thread variables and the digest of every output.
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
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalBreakdown, ValidationError, WorkerError
from .params import (_CONFIG_KEYS, TeePartition, model_from_config,
                     subsystem_from_config, swept_value)
from . import ed, entanglement, gaussian, spectral
from .entanglement import _MIN_COLLAPSE_SIZES, _MIN_SCALING_POINTS

TASKS = {}
DEFAULTS = {}
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


def _task(name, **defaults):
    """Register a sweep task with the config defaults its CLI command shares."""
    def deco(fn):
        TASKS[name], DEFAULTS[name] = fn, defaults
        return fn
    return deco


@dataclass(frozen=True)
class SweepSpec:
    points: tuple        # (point config, ...), each over fixed: its keys take precedence
    fixed: dict
    task: str
    workers: int = 1

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r}; available: {sorted(TASKS)}")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")


def axis_grid(axes: list[str], fixed: dict) -> tuple:
    """The points of ``sweep --axis name:start:stop:count ...``: the
    Cartesian grid of the axes, row-major (the last axis fastest)."""
    if not axes:
        raise ValidationError("sweep needs at least one --axis name:start:stop:count")
    values = {}
    for spec in axes:
        try:
            name, start, stop, count = spec.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as exc:
            raise ValidationError(f"--axis {spec!r}: expected name:start:stop:count") from exc
        if name in values:
            raise ValidationError("sweep axes must be distinct")
        if name in fixed:
            raise ValidationError("axis parameters may not also be fixed")
        if _CONFIG_KEYS.get(name) not in (float, int):
            raise ValidationError(f"axis {name}: not a numeric config key")
        if count < 1:
            raise ValidationError(f"axis {name}: count must be >= 1")
        values[name] = np.linspace(start, stop, count)
    return tuple({k: swept_value(k, float(v)) for k, v in zip(values, point)}
                 for point in itertools.product(*values.values()))


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


def tee_grid(cfg: dict) -> tuple:
    """The ``tee`` command's points: the ``tee_beta_j`` grid at each ``tee_sizes`` L."""
    betas = np.linspace(*cfg.get("tee_beta_j", (-0.55, -0.05, 11)))
    if len(set(sizes := cfg.get("tee_sizes", [32, 48, 64]))) != len(sizes):
        raise ValidationError(f"tee_sizes repeats a size: {sizes}")  # one curve per L
    if len(sizes) < _MIN_COLLAPSE_SIZES:
        raise ValidationError(f"collapse needs at least {_MIN_COLLAPSE_SIZES} system sizes")
    return tuple({"L": L, "beta_J": float(bj)} for L in sizes for bj in betas)


@_task("scaling")
def task_scaling(cfg):
    """The steady S_A of one chain length of the scaling fit."""
    params, lat, quench = model_from_config(cfg)
    sub = subsystem_from_config(cfg, lat.L)
    return [{"L": lat.L, "L_A": sub.length,
             "S_A": gaussian.stroboscopic_run(params, lat, quench, sub).steady_state()}]


def scaling_grid(cfg: dict) -> tuple:
    """The ``scaling`` command's points: each of the ``scaling_sizes`` with
    the block of its first max(2, L // ``scaling_ratio``) sites."""
    if (ratio := cfg.get("scaling_ratio", 10)) < 1:
        raise ValidationError(f"scaling_ratio must be >= 1, got {ratio}")
    if len(sizes := cfg.get("scaling_sizes", [60, 80, 100, 140, 180, 200])) < _MIN_SCALING_POINTS:
        raise ValidationError(f"need at least {_MIN_SCALING_POINTS} scaling points")
    if any(max(2, L // ratio) >= L for L in sizes):
        raise ValidationError("every scaling point needs 0 < L_A < L")
    return tuple({"L": L, "subsystem_start": 1, "subsystem_length": max(2, L // ratio)}
                 for L in sizes)


@_task("spin-quench", L=12, bc="obc", initial_state="x-down", n_periods=100)
def task_spin_quench(cfg):
    return spin_rows(ed.quench_experiment(*model_from_config(cfg)))


def run_point(task_name: str, cfg: dict):
    return TASKS[task_name]({**DEFAULTS[task_name], **cfg})


def _fail_soft(task_name: str, cfg: dict):
    """Run one sweep point: (status, rows, error text, ``_portable``
    exception).  Bad input and numerical breakdowns are an ``error``; any
    other exception is a ``crash``, recorded with its traceback."""
    try:
        return "ok", run_point(task_name, cfg), None, None
    except (ValidationError, NumericalBreakdown) as exc:
        return "error", [], f"{type(exc).__name__}: {exc}", _portable(exc)
    except Exception as exc:
        return "crash", [], traceback.format_exc(), _portable(exc)


def ok_rows(results: list) -> list[dict]:
    """The rows of ``_fail_soft`` results in grid order, or the first
    failing point's exception raised."""
    if failed := [exc for *_, exc in results if exc is not None]:
        raise failed[0]
    return [row for _, rows, _, _ in results for row in rows]


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


def _portable(exc: Exception | None) -> Exception | None:
    """``exc``, or a ``WorkerError`` with its message if it does not survive pickling."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return WorkerError(f"{type(exc).__name__}: {exc}")


def _send_share(fn, points: list, conn):
    """A forked worker's ``_share``, sent through ``conn``, its exception ``_portable``."""
    results, exc = _share(fn, points)
    conn.send((results, _portable(exc)))
    conn.close()


def map_points(fn, points: list, workers: int = 1) -> list:
    """``[fn(p) for p in points]``, in order, on n = ``pool_size(workers,
    len(points))`` processes: forked worker r takes points r, r + n, ...
    and this one 0, n, 2n, ..., each up to its first failure.  The workers
    inherit the modules, warm caches, ``fn`` and the points; only results
    and exceptions cross their pipes.  The first failing point's exception
    is raised, as in the serial loop, once every worker is joined; a worker
    that dies raises a ``WorkerError`` naming its exit code.  This process
    works rather than waits, so the copy-on-write faults of the pages it
    first writes after a fork fall here, not on the next call."""
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


def write_csv(path: Path, rows: list[dict], fieldnames=None) -> Path:
    if not rows:
        raise ValidationError("no rows to write")
    fieldnames = fieldnames or list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})
    return path


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return int(v) if isinstance(v, np.integer) else v


def _sweep_csv(spec: SweepSpec, out_dir: Path, results: list) -> list[Path]:
    """<task>_sweep.csv: the rows of every point that ran, each after its
    grid index and its point's keys; no file where none ran."""
    rows = [{"grid_index": i, **point, **row}
            for i, (point, (_, point_rows, _, _)) in enumerate(zip(spec.points, results))
            for row in point_rows]
    return [write_csv(out_dir / f"{spec.task}_sweep.csv", rows)] if rows else []


def run_sweep(spec: SweepSpec, out_dir, write=None) -> RunManifest:
    """Run every point of ``spec`` fail-soft, ``write`` the outputs from their
    ``_fail_soft`` results in grid order (``_sweep_csv`` by default) and
    manifest.json, with the digest of each path ``write`` returns (none where
    it raises).  The points take their seed from ``spec.fixed``, as recorded."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0, written = time.time(), []
    results = map_points(partial(_fail_soft, spec.task),
                         [{**spec.fixed, **point} for point in spec.points], spec.workers)
    try:
        written = (write or partial(_sweep_csv, spec, out_dir))(results)
    finally:
        manifest = write_manifest(spec, out_dir, t0, [(s, err) for s, _, err, _ in results],
                                  written, pool_size(spec.workers, len(spec.points)))
    return manifest


def write_manifest(spec: SweepSpec, out_dir: Path, t0, statuses, written, pool) -> RunManifest:
    """manifest.json in ``out_dir``: ``spec``, its pool, time, statuses and output digests."""
    manifest = RunManifest(
        version=__version__, spec=asdict(spec), seed=spec.fixed.get("seed"),
        # what the default --workers is worked out from, and the pool it gave
        parallel={"pool_workers": pool, "cpus": _cpus(),
                  "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV}},
        wallclock_s=time.time() - t0,
        points=[{"index": i, "status": status, **({"error": err} if err else {})}
                for i, (status, err) in enumerate(statuses)],
        outputs={p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written})
    (out_dir / "manifest.json").write_text(json.dumps(vars(manifest), indent=2, sort_keys=True))
    return manifest


# --------------------------------------------------------------------------
# figure bundles
# --------------------------------------------------------------------------

def tee_fit(rows: list[dict]) -> entanglement.CollapseResult:
    """The collapse of ``L``, ``beta_J``, ``S_top`` rows (numbers or their
    CSV text), one curve per L."""
    curves = {}
    for r in rows:
        curves.setdefault(int(float(r["L"])), []).append((float(r["beta_J"]), float(r["S_top"])))
    return entanglement.tee_collapse({L: np.array(c).T for L, c in curves.items()})


def _collapsed_rows(rows: list[dict]) -> list[dict]:
    """fig6: each row with its beta_J rescaled by the fitted collapse."""
    fit = tee_fit(rows)
    pts = [(int(float(r["L"])), float(r["beta_J"]), r["S_top"]) for r in rows]
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
    if missing := [p for p in paths if not p.exists()]:
        raise ValidationError(f"input file not found: {missing[0]}")
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
    return write_csv(out_dir / name, rule(rows), written)
