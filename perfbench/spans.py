"""Span tracer for the traced benchmark mode.

The tracer wraps, from outside the package, every public module-level
function of the measured layers plus the numpy/scipy kernel entry points,
and records one span per call in memory: name, layer, parent, start, end,
the benchmark operation in flight and a few call attributes.  Nothing under
``src/`` is modified; every patched binding is restored by ``uninstall``.

Repo spans nest: a repo span opened inside another names it as parent.
Kernel spans (numpy/scipy calls) never become parents; their time is
charged to the nearest enclosing repo span, so a repo span's self time is
its duration minus that of its child repo spans, kernels included.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("spectral", "gaussian", "entanglement", "cft", "sweep", "cli")

# (module, attribute) of the numerical kernels charged to their caller
KERNELS = (("numpy.linalg", "qr"), ("numpy.linalg", "eig"),
           ("numpy.linalg", "eigvalsh"), ("numpy.linalg", "svd"),
           ("scipy.linalg", "eig"), ("scipy.linalg", "schur"),
           ("scipy.integrate", "solve_ivp"))

# methods wrapped in addition to the module-level functions
METHODS = (("gaussian", "GaussianFrame", "isotropy_defect"),
           ("gaussian", "GaussianFrame", "orthonormality_defect"))

_MARK = "__perfbench_span_wrapper__"

# span record fields
NAME, LAYER, PARENT, START, END, OP, ATTRS = range(7)


def _lattice_size(args, kwargs):
    lat = args[1] if len(args) > 1 else kwargs["lat"]
    return {"L": lat.L}


def _frame_size(args, kwargs):
    frame = args[0] if args else kwargs["frame"]
    return {"L": frame.phi.shape[1]}


# call attributes read at span start, keyed by span name
_ATTRS = {"spectral.detect_edge_modes": _lattice_size,
          "gaussian.period_map": _frame_size}


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` bracket a traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, layer, kernel=False):
        spans, stack = self.spans, self._stack
        attrs_of = _ATTRS.get(name)
        nfev = name.endswith("solve_ivp")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, stack[-1] if stack else -1, perf_counter(),
                   0.0, self.op, attrs_of(args, kwargs) if attrs_of else None]
            spans.append(rec)
            if not kernel:
                stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ATTRS] = dict(rec[ATTRS] or {}, error=True)
                raise
            finally:
                rec[END] = perf_counter()
                if not kernel:
                    stack.pop()
            if nfev:
                rec[ATTRS] = {"nfev": int(out.nfev)}
            return out

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / uninstall -----------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"floquet_ising.{layer}")
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrappers[val] = self._wrap(val, f"{layer}.{attr}", layer)
        # rebind every module-level name that holds a wrapped function, so
        # names imported by value (gaussian's spectral imports, the package
        # re-exports) are traced too
        for modname, mod in list(sys.modules.items()):
            if modname == "floquet_ising" or modname.startswith("floquet_ising."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        self._patch(mod, attr, wrappers[val])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"floquet_ising.{layer}"), cls_name)
            self._patch(cls, meth, self._wrap(getattr(cls, meth),
                                              f"{layer}.{cls_name}.{meth}", layer))
        for modname, attr in KERNELS:
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self._wrap(getattr(mod, attr),
                                              f"{modname}.{attr}", None, kernel=True))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        self.op = None


def leftover_wrappers() -> list[str]:
    """Every binding that still holds a tracer wrapper (empty when clean)."""
    owners = [m for n, m in sys.modules.items()
              if n == "floquet_ising" or n.startswith("floquet_ising.")]
    owners += [importlib.import_module(m) for m in {k[0] for k in KERNELS}]
    for layer, cls_name, _ in METHODS:
        owners.append(getattr(importlib.import_module(f"floquet_ising.{layer}"),
                              cls_name))
    found = []
    for owner in owners:
        for attr, val in list(vars(owner).items()):
            if getattr(val, _MARK, False):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def layer_metrics(spans: list[list], n_passes: int,
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the recorded spans."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[LAYER] is not None and s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    def parent(s):
        return spans[s[PARENT]] if s[PARENT] >= 0 else None

    def parent_layer(s):
        p = parent(s)
        return p[LAYER] if p else None

    def count(name):
        return sum(1 for s in spans if s[NAME] == name)

    def total(pred, times):
        return sum(times[i] for i, s in enumerate(spans) if pred(s))

    def self_of(name):
        return total(lambda s: s[NAME] == name, self_t)

    def kernel_s(kernels, layer):
        return total(lambda s: s[NAME] in kernels and parent_layer(s) == layer, dur)

    def kernel_n(kernels, layer):
        return sum(1 for s in spans if s[NAME] in kernels and parent_layer(s) == layer)

    qr = {"numpy.linalg.qr"}
    eig = {"numpy.linalg.eig", "scipy.linalg.eig"}
    qr_calls = kernel_n(qr, "gaussian")

    # edge scans inside classify_phase below its largest size are overridden
    scans: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        p = parent(s)
        if s[NAME] == "spectral.detect_edge_modes" and p and p[NAME] == "spectral.classify_phase":
            scans.setdefault(s[PARENT], []).append(i)
    discarded = 0.0
    for idx in scans.values():
        top = max(spans[i][ATTRS]["L"] for i in idx)
        discarded += sum(dur[i] for i in idx if spans[i][ATTRS]["L"] < top)

    m = {
        "gaussian.periods": count("gaussian.period_map"),
        "gaussian.period_map.self_s": self_of("gaussian.period_map"),
        "gaussian.orthonormalize.self_s": self_of("gaussian.orthonormalize"),
        "gaussian.qr_calls": qr_calls,
        "gaussian.qr_s": kernel_s(qr, "gaussian"),
        "gaussian.isotropy_sweeps": qr_calls - count("gaussian.orthonormalize"),
        "gaussian.kick_gflop_computed": sum(
            32.0 * s[ATTRS]["L"] ** 3 for s in spans
            if s[NAME] == "gaussian.period_map") / 1e9,
        "gaussian.purity_check_s": total(lambda s: s[NAME] in (
            "gaussian.GaussianFrame.isotropy_defect",
            "gaussian.GaussianFrame.orthonormality_defect"), dur),
        "gaussian.correlation_block.self_s": self_of("gaussian.correlation_block"),
        "entanglement.entropy_calls": count("entanglement.entropy_from_majorana_block"),
        "entanglement.eigvalsh_s": kernel_s({"numpy.linalg.eigvalsh"}, "entanglement"),
        "entanglement.self_s": total(lambda s: s[LAYER] == "entanglement", self_t),
        "entanglement.tee_collapse.self_s": self_of("entanglement.tee_collapse"),
        "entanglement.fit_scaling.self_s": self_of("entanglement.fit_scaling"),
        "spectral.classify_phase.calls": count("spectral.classify_phase"),
        "spectral.detect_edge_modes.calls": count("spectral.detect_edge_modes"),
        "spectral.detect_edge_modes.self_s": self_of("spectral.detect_edge_modes"),
        "spectral.build_transfer_matrix.calls": count("spectral.build_transfer_matrix"),
        "spectral.build_transfer_matrix.self_s": self_of("spectral.build_transfer_matrix"),
        "spectral.eig_s": kernel_s(eig, "spectral"),
        "spectral.cond_svd_s": total(
            lambda s: s[NAME] == "numpy.linalg.svd" and parent(s) is not None
            and parent(s)[NAME] == "spectral.build_transfer_matrix", dur),
        "spectral.schur_fallbacks": kernel_n({"scipy.linalg.schur"}, "spectral"),
        "spectral.count_real_modes.self_s": self_of("spectral.count_real_modes"),
        "spectral.build_kick_forms.self_s": self_of("spectral.build_kick_forms"),
        "spectral.discarded_scan_s": discarded,
        # transfer-matrix builds under an evolution caller: their eigendata
        # is never read
        "spectral.unused_eig_s": total(
            lambda s: s[NAME] == "spectral.build_transfer_matrix"
            and parent_layer(s) in ("gaussian", "cli"), dur),
        "gaussian.evolve_continuous.self_s": self_of("gaussian.evolve_continuous"),
        "gaussian.ode_rhs_evals": sum(s[ATTRS]["nfev"] for s in spans
                                      if s[NAME] == "scipy.integrate.solve_ivp"
                                      and s[ATTRS] and "nfev" in s[ATTRS]),
        "cft.self_s": total(lambda s: s[LAYER] == "cft", self_t),
        "sweep.self_s": total(lambda s: s[LAYER] == "sweep", self_t),
        "sweep.points": count("sweep.run_point"),
        "sweep.points_failed": sum(1 for s in spans if s[NAME] == "sweep.run_point"
                                   and s[ATTRS] and s[ATTRS].get("error")),
        "cli.calls": count("cli.main"),
        "cli.self_s": total(lambda s: s[LAYER] == "cli", self_t),
        "spectral.self_s": total(lambda s: s[LAYER] == "spectral", self_t),
        "gaussian.self_s": total(lambda s: s[LAYER] == "gaussian", self_t),
    }
    out = {k: v / n_passes for k, v in m.items()}
    out["trace.overhead_frac"] = overhead_frac
    return out


def dump(spans: list[list], ops: list[str], path) -> None:
    """Write the spans as JSON: one row per span, fields as in ``columns``;
    a span's ``op`` indexes ``ops``, the benchmark operation it served."""
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "layer", "parent", "start", "end",
                               "op", "attrs"], "ops": ops, "spans": spans}, fh)
