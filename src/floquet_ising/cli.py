"""Command-line interface.

Exit codes: 0 success, 1 a sweep point crashed, 2 validation error,
3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, cft, ed, entanglement, gaussian, spectral, sweep
from .errors import NumericalBreakdown, ValidationError
from .params import (SubsystemSpec, lattice, make_params, model_from_config,
                     named_state, parse_config, subsystem_from_config)


def _load_config(args, task=None) -> dict:
    """The config file written over the defaults of sweep task ``task``."""
    cfg = dict(sweep.DEFAULTS.get(task, {}))
    if getattr(args, "config", None):
        cfg.update(parse_config(Path(args.config).read_text()))
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


def _workers(args) -> int:
    """``--workers``, or the BLAS thread budget where it is not given."""
    workers = sweep.default_workers() if args.workers is None else args.workers
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    return workers


def _out_dir(args) -> Path:
    d = Path(getattr(args, "out_dir", None) or ".")
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write(args, command, rows, columns, summary_name, summary) -> list[Path]:
    """``rows``' ``columns`` to ``--out`` (default <command>.csv) and
    ``summary`` to ``summary_name`` in the output directory."""
    out = _out_dir(args)
    paths = [sweep.write_csv(out / (args.out or f"{command}.csv"), rows, columns),
             out / summary_name]
    paths[1].write_text(json.dumps(summary, indent=2))
    print(f"wrote {paths[0]} and {summary_name}")
    return paths


# --------------------------------------------------------------------------

def cmd_spectrum(args):
    cfg = _load_config(args, "spectrum")
    if args.alpha is not None:  # --alpha sets both alphas
        cfg = {k: v for k, v in cfg.items() if k not in ("alpha_J", "alpha_h")}
    flags = {"alpha": args.alpha, "beta_J": args.beta_j, "beta_h": args.beta_h,
             "L": args.L, "bc": args.bc, "units": args.units}
    cfg.update((k, v) for k, v in flags.items() if v is not None)
    params, lat, quench = model_from_config(cfg)
    quench.require_free_fermion()
    # the census the phase label reads: the listed sector, or both on an open chain
    census = spectral.count_real_modes(params, lat.L,
                                       sectors=str(lat.bc) if lat.bc.periodic else "both")

    if lat.bc.periodic:
        # the census's grid, eps and real-mode scale
        pts = spectral.dispersion_points(params.J, params.h, spectral.allowed_momenta(lat))
        modes = [(pt.k, eps, pt.classification) for pt in pts for eps in pt.epsilon]
        edge_modes, label = [], None
    else:
        report = spectral.detect_edge_modes(params, lat)
        eps = report.quasienergies
        modes = list(zip(range(len(eps)), eps, spectral.classify_modes(eps)))
        edge_modes = report.edge_modes
        label = spectral.classify_phase_from_spectrum(report, census)
    rows = [{"k_or_index": k, "re_eps": eps.real, "im_eps": eps.imag, "classification": cls}
            for k, eps, cls in modes]

    _write(args, "spectrum", rows, ["k_or_index", "re_eps", "im_eps", "classification"],
           "spectrum_summary.json", {
               "n_real_modes": census.count,
               "edge_modes": [{"kind": m.kind, "re": m.energy.real,
                               "im": m.energy.imag, "loc_len": m.localization_length}
                              for m in edge_modes],
               "phase": str(label) if label is not None else None})
    return 0


def cmd_evolve(args):
    t0, cfg, workers = time.time(), _load_config(args, "evolve"), _workers(args)
    params, lat, quench = model_from_config(cfg)
    sub, frames = subsystem_from_config(cfg, lat.L), gaussian.period_frames(params, lat, quench)
    dump = Path(args.dump_correlations) if args.dump_correlations else None
    name = "correlations_{:05d}.bin".format

    def dumped(frames):  # each frame's C written as it passes
        dump.mkdir(parents=True, exist_ok=True)
        for period, frame in enumerate(frames, 1):
            gaussian.correlation_from_frame(frame).c.astype("<c16").tofile(dump / name(period))
            yield frame

    trace = gaussian.entropy_trace(dumped(frames) if dump else frames, sub, lat, workers)
    written = [sweep.write_csv(_out_dir(args) / (args.out or "evolve.csv"),
                               sweep.trace_rows(trace))]
    if dump:
        sidecar = {"dtype": "complex128", "byte_order": "little-endian", "layout": "row-major",
                   "shape": [2 * lat.L, 2 * lat.L], "files": [name(p) for p in trace.periods]}
        written.append(dump / "correlations.json")
        written[-1].write_text(json.dumps(sidecar, indent=2))
    sweep.write_manifest(sweep.SweepSpec(({},), cfg, "evolve", workers), _out_dir(args), t0,
                         [("ok", None)], written, sweep.pool_size(workers, quench.n_periods))
    print(f"wrote {written[0]}")
    return 0


def _grid_command(args, task, grid, columns, summary_name, summary):
    """``task`` at the points ``grid`` builds from the config (``sweep.run_sweep``): ``_write``
    the rows and ``summary(rows)`` where every point ran, else raise the first failure."""
    cfg = _load_config(args, task)
    spec = sweep.SweepSpec(grid(cfg), cfg, task, _workers(args))

    def write(results):
        rows = sweep.ok_rows(results)
        return _write(args, task, rows, columns, summary_name, summary(rows))

    sweep.run_sweep(spec, _out_dir(args), write)
    return 0


def cmd_scaling(args):
    def summary(rows):
        fit = entanglement.fit_scaling([(r["L"], r["L_A"], r["S_A"]) for r in rows])
        return {"a": fit.a, "b": fit.b, "residual": fit.residual, "law": fit.law}
    return _grid_command(args, "scaling", sweep.scaling_grid, ["L", "L_A", "S_A"],
                         "scaling_fit.json", summary)


def cmd_tee(args):
    def summary(rows):
        fit = sweep.tee_fit(rows)
        return {"beta_J0": fit.beta_J0, "nu": fit.nu, "residual": fit.collapse_residual,
                "routes": {r: sum(row["route"] == r for row in rows) for r in ("schur", "loop")}}
    return _grid_command(args, "tee", sweep.tee_grid, ["L", "beta_J", "S_top"],
                         "tee_collapse.json", summary)


def cmd_spin_quench(args):
    trace = ed.quench_experiment(*model_from_config(_load_config(args, "spin-quench")))
    out = _out_dir(args)
    csv_path = out / (args.out or "spin_quench.csv")
    sweep.write_csv(csv_path, sweep.spin_rows(trace), ["period", "site", "Sx"])
    summary = [{"period": t + 1, "SxSx_edge": trace.sx_edge_corr[t],
                "ghz_overlap": trace.ghz[t]} for t in range(trace.n_periods)]
    sweep.write_csv(out / "spin_quench_summary.csv", summary,
                    ["period", "SxSx_edge", "ghz_overlap"])
    print(f"wrote {csv_path} and spin_quench_summary.csv")
    return 0


def cmd_cft_compare(args):
    pars = cft.CftParams(c=args.c, epsilon=args.epsilon, eta_rot=args.eta, l=args.l)
    t_grid = np.linspace(0.05, args.t_max, args.n_times)
    curve = cft.entropy_curve(pars, t_grid)

    la = int(round(args.l))
    L = 10 * la
    lat = lattice(L, "pbc-even")
    params = make_params(args.amplitude, -args.amplitude * args.eta,
                         args.amplitude, -args.amplitude * args.eta, units="rad")
    frames = gaussian.evolve_continuous(params, lat, named_state("neel-fermion", L), t_grid)
    s_num = gaussian.entropy_trace(frames, SubsystemSpec(1, la), lat).entropy
    s_num -= s_num[0]
    report = cft.compare_to_numerics(curve, t_grid, s_num)

    rows = [{"t": float(t), "S_cft": float(sc), "S_numeric": float(sn), "valid": int(v)}
            for t, sc, sn, v in zip(t_grid, curve.entropy, s_num, curve.validity)]
    csv_path = _out_dir(args) / (args.out or "cft_compare.csv")
    sweep.write_csv(csv_path, rows, ["t", "S_cft", "S_numeric", "valid"])
    print(f"wrote {csv_path}; peak-time ratio "
          f"{report.peak_time_ratio:.3f}, rms {report.rms_deviation:.4f}")
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    spec = sweep.SweepSpec(sweep.axis_grid(args.axis or [], cfg), cfg, args.task, _workers(args))
    manifest = sweep.run_sweep(spec, _out_dir(args))
    n_err = sum(1 for p in manifest.points if p["status"] != "ok")
    print(f"sweep complete: {len(manifest.points)} points, {n_err} failures")
    return 1 if any(p["status"] == "crash" for p in manifest.points) else 0


def cmd_emit_plots(args):
    out = sweep.emit_plot_data(args.figure, args.inputs, _out_dir(args))
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------

@cache  # once per process: each parse_args fills a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="floquet-ising",
        description="Nonunitary Floquet transverse-field Ising toolkit")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out-dir", help="output directory (default: cwd)")
    p.add_argument("--workers", type=int, default=None,
                   help="processes for the points of tee, scaling and sweep and "
                        "the per-period entropies of evolve "
                        "(default: usable CPUs over the BLAS thread count, "
                        "1 where no BLAS thread variable is set)")
    p.add_argument("--seed", type=int, default=None)
    sub = p.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output CSV file name in --out-dir")

    def command(name, func, help_text, *parents):
        cmd = sub.add_parser(name, help=help_text, parents=list(parents))
        cmd.set_defaults(func=func)
        return cmd

    sp = command("spectrum", cmd_spectrum, "quasienergy spectrum and phase label", out)
    for flag, kind in (("--alpha", float), ("--beta-j", float), ("--beta-h", float),
                       ("--L", int)):
        sp.add_argument(flag, type=kind)
    sp.add_argument("--bc", choices=["pbc-even", "pbc-odd", "obc"])
    sp.add_argument("--units", choices=["pi4", "rad"])
    ev = command("evolve", cmd_evolve, "stroboscopic Gaussian evolution", out)
    ev.add_argument("--dump-correlations", metavar="DIR")
    command("scaling", cmd_scaling, "steady-state entropy scaling fit", out)
    command("tee", cmd_tee, "topological entanglement entropy sweep", out)
    command("spin-quench", cmd_spin_quench, "dense spin-language quench", out)

    cc = command("cft-compare", cmd_cft_compare, "complex-time CFT vs numerics", out)
    for flag, kind, default in (("--c", float, 0.5), ("--epsilon", float, 0.185),
                                ("--eta", float, 0.1), ("--l", float, 10.0),
                                ("--t-max", float, 15.0), ("--n-times", int, 60)):
        cc.add_argument(flag, type=kind, default=default)
    cc.add_argument("--amplitude", type=float, default=0.5,
                    help="coupling scale; 0.5 gives unit front velocity")
    cc.add_argument("--rtol", type=float, default=1e-9,
                    help="ignored: the continuous flow is exact")

    sw = command("sweep", cmd_sweep, "parameter sweep of any task")
    sw.add_argument("--task", required=True, choices=sorted(sweep.TASKS))
    sw.add_argument("--axis", action="append", metavar="name:start:stop:count")
    ep = command("emit-plots", cmd_emit_plots, "tidy per-figure CSV bundles")
    ep.add_argument("--figure", required=True)
    ep.add_argument("--inputs", nargs="+", required=True)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
