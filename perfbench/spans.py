"""Spans around the program's public names, recorded from outside the program.

``Tracer.install`` replaces every public module-level function of the
``heavychain`` package and its seven modules with a wrapper that records a
span (name, layer, start, end, parent).  Names one module imports from
another are wrapped where they are looked up, so ``heavychain.cli.spectrum``
and ``heavychain.resolvent_bvp.weighted_norm`` are spans of the layers that
define them (``spectral`` and ``operator``).  Spans stay in memory until
``layer_metrics`` reduces them; ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field

PACKAGE = "heavychain"
MODULES = ("model", "operator", "discretization", "spectral", "simulation",
           "resolvent_bvp", "cli")

# Functions reported with an inclusive time of their own ("<layer>.<fn>_s").
TIMED = {
    "discretization": ("assemble_generator", "dissipativity_check",
                       "norm_ratio_interval", "sample_states"),
    "spectral": ("spectrum", "resolvent_norm_discrete",
                 "resolvent_apply_discrete"),
    "simulation": ("simulate", "energies"),
    "resolvent_bvp": ("fundamental_pair", "solve_resolvent_bvp",
                      "injectivity_check", "kernel_decay_study"),
}
CLI_RUNS = ("check", "spectrum", "simulate", "sweep", "bvp", "kernel")
# Names of the scipy singular-value routines the spectral layer may import;
# wrapped as probes to count singular values computed against values used.
SVD_PROBES = ("svdvals", "svds")


@dataclass
class Span:
    name: str  # "<layer>.<function>", or "cli.run.<subcommand>"
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children.

    Calls are sequential within one thread, so children of one span never
    overlap and their durations can simply be subtracted.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _footprint(mat) -> tuple:
    """(bytes, nonzero entries, stored entries) of a dense or sparse matrix."""
    import numpy as np

    if hasattr(mat, "nnz"):  # scipy.sparse: only the stored entries count
        nbytes = sum(getattr(mat, a).nbytes
                     for a in ("data", "indices", "indptr", "row", "col",
                               "offsets")
                     if hasattr(mat, a))
        return nbytes, int(np.count_nonzero(mat.data)), int(mat.data.size)
    return mat.nbytes, int(np.count_nonzero(mat)), int(mat.size)


def _observe(name: str, result, info: dict) -> None:
    """Counts read off a call's result, recorded on its span."""
    if name == "discretization.assemble_generator":
        nbytes = nonzero = stored = 0
        for attr in ("A", "M_nat", "M_H"):
            mat = getattr(result, attr, None)
            if mat is not None:
                b, z, e = _footprint(mat)
                nbytes, nonzero, stored = nbytes + b, nonzero + z, stored + e
        info.update(matrix_bytes=nbytes, nonzero=nonzero, stored=stored)
    elif name == "spectral.svd":
        info["singular_values"] = int(getattr(result, "size", 0))
    elif name == "simulation.simulate":
        info["steps"] = int(round(float(result.times[-1]) / result.dt))
    elif name == "resolvent_bvp.fundamental_pair":
        info["points"] = len(result.x)
    elif name == "resolvent_bvp.solve_resolvent_bvp":
        info["method"] = result.method


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (module, attribute, original)

    # --------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_cli_run = name == "cli.run"

        def traced(*args, **kwargs):
            span_name = f"cli.run.{args[0]}" if is_cli_run and args else name
            span = Span(span_name, layer, clock(),
                        parent=stack[-1] if stack else None)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            _observe(name, result, span.info)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers = {}  # one wrapper per original, shared by every alias
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if mod.__name__ == f"{PACKAGE}.spectral" and attr in SVD_PROBES:
                    name, layer = "spectral.svd", "spectral"
                elif (inspect.isfunction(obj)
                      and obj.__module__.startswith(PACKAGE + ".")):
                    layer = obj.__module__.rsplit(".", 1)[1]
                    name = f"{layer}.{obj.__name__}"
                else:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, name, layer)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def saved(self) -> list:
        """(module, attribute, original) of every replaced name."""
        return list(self._saved)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


# ------------------------------------------------------------ reduction


def _outermost(spans: list, name: str) -> list:
    """Spans of one name that are not nested inside a span of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass (times in seconds)."""
    selfs = self_times(spans)
    busy = {}
    for s, st in zip(spans, selfs):
        busy[s.layer] = busy.get(s.layer, 0.0) + st
    count = {}
    for s in spans:
        count[s.name] = count.get(s.name, 0) + 1

    def total(name):
        return sum(s.duration for s in _outermost(spans, name))

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    out = {f"{layer}.busy_s": busy.get(layer, 0.0) for layer in MODULES}
    out["cli.self_s"] = out.pop("cli.busy_s")
    for sub in CLI_RUNS:
        out[f"cli.run.{sub}_s"] = total(f"cli.run.{sub}")
    out["model.check_admissibility.calls"] = count.get(
        "model.check_admissibility", 0)
    out["operator.calls"] = sum(c for n, c in count.items()
                                if n.startswith("operator."))
    for layer, names in TIMED.items():
        for fn in names:
            out[f"{layer}.{fn}_s"] = total(f"{layer}.{fn}")

    gen = "discretization.assemble_generator"
    out["discretization.matrix_bytes"] = info_sum(gen, "matrix_bytes")
    stored = info_sum(gen, "stored")
    out["discretization.nnz_fraction"] = (info_sum(gen, "nonzero") / stored
                                          if stored else 0.0)

    norm_calls = count.get("spectral.resolvent_norm_discrete", 0)
    out["spectral.resolvent_norm_discrete.calls"] = norm_calls
    computed = info_sum("spectral.svd", "singular_values")
    out["spectral.singular_values_used_ratio"] = (norm_calls / computed
                                                  if computed else 1.0)

    steps = info_sum("simulation.simulate", "steps")
    out["simulation.steps"] = steps
    out["simulation.step_us"] = (1e6 * out["simulation.simulate_s"] / steps
                                 if steps else 0.0)

    pairs = count.get("resolvent_bvp.fundamental_pair", 0)
    solves = [s.info.get("method") for s in spans
              if s.name == "resolvent_bvp.solve_resolvent_bvp"]
    pipeline = solves.count("pipeline")
    out["resolvent_bvp.fundamental_pair.calls"] = pairs
    out["resolvent_bvp.fundamental_pair.points"] = info_sum(
        "resolvent_bvp.fundamental_pair", "points")
    out["resolvent_bvp.pipeline_solves"] = pipeline
    out["resolvent_bvp.collocation_solves"] = solves.count("collocation")
    out["resolvent_bvp.solves_per_pair"] = pipeline / pairs if pairs else 0.0
    return out


# Counts that must repeat exactly from pass to pass and run to run.
COUNTS = (
    "discretization.matrix_bytes",
    "discretization.nnz_fraction",
    "spectral.singular_values_used_ratio",
    "spectral.resolvent_norm_discrete.calls",
    "simulation.steps",
    "resolvent_bvp.fundamental_pair.calls",
    "resolvent_bvp.fundamental_pair.points",
    "resolvent_bvp.pipeline_solves",
    "resolvent_bvp.collocation_solves",
    "model.check_admissibility.calls",
    "operator.calls",
)
