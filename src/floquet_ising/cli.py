"""Command-line interface.

Exit codes: 0 success, 1 a sweep point crashed, 2 validation error,
3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
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

    out = _out_dir(args)
    csv_path = out / (args.out or "spectrum.csv")
    sweep.write_csv(csv_path, rows, ["k_or_index", "re_eps", "im_eps",
                                     "classification"])
    summary = {
        "n_real_modes": census.count,
        "edge_modes": [{"kind": m.kind, "re": m.energy.real,
                        "im": m.energy.imag, "loc_len": m.localization_length}
                       for m in edge_modes],
        "phase": str(label) if label is not None else None,
    }
    (out / "spectrum_summary.json").write_text(json.dumps(summary, indent=2))
    print(f"wrote {csv_path} and spectrum_summary.json")
    return 0


def cmd_evolve(args):
    cfg = _load_config(args, "evolve")
    params, lat, quench = model_from_config(cfg)
    dump_dir = Path(args.dump_correlations) if args.dump_correlations else None
    files = []

    def dump(frame):
        fname = f"correlations_{frame.period_count:05d}.bin"
        gaussian.correlation_from_frame(frame).c.astype("<c16").tofile(dump_dir / fname)
        files.append(fname)

    if dump_dir:
        dump_dir.mkdir(parents=True, exist_ok=True)
    trace = gaussian.stroboscopic_run(params, lat, quench, subsystem_from_config(cfg, lat.L),
                                      dump if dump_dir else None, _workers(args))
    if dump_dir:
        sidecar = {"dtype": "complex128", "byte_order": "little-endian",
                   "layout": "row-major", "shape": [2 * lat.L, 2 * lat.L],
                   "files": files}
        (dump_dir / "correlations.json").write_text(json.dumps(sidecar, indent=2))
    csv_path = _out_dir(args) / (args.out or "evolve.csv")
    sweep.write_csv(csv_path, sweep.trace_rows(trace),
                    ["period", "S_A", "norm_log", "purity_residual"])
    print(f"wrote {csv_path}")
    return 0


def _steady_entropy(cfg) -> float:
    """The steady S_A of one chain length of the scaling fit."""
    sub = subsystem_from_config(cfg, cfg["L"])
    return gaussian.stroboscopic_run(*model_from_config(cfg), sub).steady_state()


def cmd_scaling(args):
    cfg = _load_config(args)
    if (ratio := cfg.get("scaling_ratio", 10)) < 1:
        raise ValidationError(f"scaling_ratio must be >= 1, got {ratio}")
    sizes = cfg.get("scaling_sizes", [60, 80, 100, 140, 180, 200])
    blocks = [max(2, L // ratio) for L in sizes]
    s_a = sweep.map_points(_steady_entropy, [
        {**cfg, "L": L, "subsystem_start": 1, "subsystem_length": la}
        for L, la in zip(sizes, blocks)], _workers(args))
    points = list(zip(sizes, blocks, s_a))
    fit = entanglement.fit_scaling(points)
    out = _out_dir(args)
    csv_path = out / (args.out or "scaling.csv")
    sweep.write_csv(csv_path, [{"L": L, "L_A": la, "S_A": s}
                               for L, la, s in points], ["L", "L_A", "S_A"])
    (out / "scaling_fit.json").write_text(json.dumps(
        {"a": fit.a, "b": fit.b, "residual": fit.residual, "law": fit.law},
        indent=2))
    print(f"wrote {csv_path} and scaling_fit.json (law={fit.law})")
    return 0


def cmd_tee(args):
    cfg = _load_config(args, "tee")
    betas = np.linspace(*cfg.get("tee_beta_j", (-0.55, -0.05, 11)))
    sizes = cfg.get("tee_sizes", [32, 48, 64])
    rows = [point[0] for point in sweep.map_points(sweep.task_tee, [
        dict(cfg, L=L, beta_J=float(bj)) for L in sizes for bj in betas], _workers(args))]
    s_top = np.array([r["S_top"] for r in rows]).reshape(len(sizes), len(betas))
    fit = entanglement.tee_collapse({L: (betas, s) for L, s in zip(sizes, s_top)})
    routes = {route: sum(r["route"] == route for r in rows) for route in ("schur", "loop")}
    out = _out_dir(args)
    csv_path = out / (args.out or "tee.csv")
    sweep.write_csv(csv_path, rows, ["L", "beta_J", "S_top"])
    (out / "tee_collapse.json").write_text(json.dumps(
        {"beta_J0": fit.beta_J0, "nu": fit.nu, "residual": fit.collapse_residual,
         "routes": routes}, indent=2))
    print(f"wrote {csv_path} and tee_collapse.json")
    return 0


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
    pars = cft.CftParams(c=args.c, epsilon=args.epsilon, eta_rot=args.eta,
                         l=args.l)
    t_grid = np.linspace(0.05, args.t_max, args.n_times)
    curve = cft.entropy_curve(pars, t_grid)

    la = int(round(args.l))
    L = 10 * la
    lat = lattice(L, "pbc-even")
    params = make_params(args.amplitude, -args.amplitude * args.eta,
                         args.amplitude, -args.amplitude * args.eta,
                         units="rad")
    frames = gaussian.evolve_continuous(params, lat, named_state("neel-fermion", L), t_grid)
    s_num = entanglement.subsystem_entropies(frames, SubsystemSpec(1, la), lat)
    s_num -= s_num[0]
    report = cft.compare_to_numerics(curve, t_grid, s_num)

    rows = [{"t": float(t), "S_cft": float(sc), "S_numeric": float(sn),
             "valid": int(v)}
            for t, sc, sn, v in zip(t_grid, curve.entropy, s_num, curve.validity)]
    csv_path = _out_dir(args) / (args.out or "cft_compare.csv")
    sweep.write_csv(csv_path, rows, ["t", "S_cft", "S_numeric", "valid"])
    print(f"wrote {csv_path}; peak-time ratio "
          f"{report.peak_time_ratio:.3f}, rms {report.rms_deviation:.4f}")
    return 0


def _axis(spec: str) -> tuple[str, float, float, int]:
    """One sweep axis from ``name:start:stop:count``."""
    try:
        name, start, stop, count = spec.split(":")
        return name, float(start), float(stop), int(count)
    except ValueError as exc:
        raise ValidationError(f"--axis {spec!r}: expected name:start:stop:count") from exc


def cmd_sweep(args):
    cfg = _load_config(args)
    axes = [_axis(spec) for spec in args.axis or []]
    if not axes:
        raise ValidationError("sweep needs at least one --axis name:start:stop:count")
    spec = sweep.SweepSpec(tuple(axes), cfg, args.task, workers=_workers(args))
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

    sp = sub.add_parser("spectrum", help="quasienergy spectrum and phase label")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta-j", type=float)
    sp.add_argument("--beta-h", type=float)
    sp.add_argument("--L", type=int)
    sp.add_argument("--bc", choices=["pbc-even", "pbc-odd", "obc"])
    sp.add_argument("--units", choices=["pi4", "rad"])
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_spectrum)

    ev = sub.add_parser("evolve", help="stroboscopic Gaussian evolution")
    ev.add_argument("--out")
    ev.add_argument("--dump-correlations", metavar="DIR")
    ev.set_defaults(func=cmd_evolve)

    sc = sub.add_parser("scaling", help="steady-state entropy scaling fit")
    sc.add_argument("--out")
    sc.set_defaults(func=cmd_scaling)

    te = sub.add_parser("tee", help="topological entanglement entropy sweep")
    te.add_argument("--out")
    te.set_defaults(func=cmd_tee)

    sq = sub.add_parser("spin-quench", help="dense spin-language quench")
    sq.add_argument("--out")
    sq.set_defaults(func=cmd_spin_quench)

    cc = sub.add_parser("cft-compare", help="complex-time CFT vs numerics")
    cc.add_argument("--c", type=float, default=0.5)
    cc.add_argument("--epsilon", type=float, default=0.185)
    cc.add_argument("--eta", type=float, default=0.1)
    cc.add_argument("--l", type=float, default=10.0)
    cc.add_argument("--t-max", type=float, default=15.0)
    cc.add_argument("--n-times", type=int, default=60)
    cc.add_argument("--amplitude", type=float, default=0.5,
                    help="coupling scale; 0.5 gives unit front velocity")
    cc.add_argument("--rtol", type=float, default=1e-9,
                    help="ignored: the continuous flow is exact")
    cc.add_argument("--out")
    cc.set_defaults(func=cmd_cft_compare)

    sw = sub.add_parser("sweep", help="parameter sweep of any task")
    sw.add_argument("--task", required=True, choices=sorted(sweep.TASKS))
    sw.add_argument("--axis", action="append",
                    metavar="name:start:stop:count")
    sw.set_defaults(func=cmd_sweep)

    ep = sub.add_parser("emit-plots", help="tidy per-figure CSV bundles")
    ep.add_argument("--figure", required=True)
    ep.add_argument("--inputs", nargs="+", required=True)
    ep.set_defaults(func=cmd_emit_plots)

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
