"""Child process of the benchmark: one set-up measurement or one run of passes.

    python3 perfbench/worker.py setup  --inputs FILE --work DIR
    python3 perfbench/worker.py passes --inputs FILE --work DIR --seconds S --trace 0|1

Both modes print one JSON object as the last line of standard output.
``run.py`` starts these with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count set; they are not meant to be run alone.
"""

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# Benchmark modules only: none of them imports numpy, scipy or heavychain
# at module level, so a set-up measurement starts from a clean slate.
import spans
import stages
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics the traced run adds to spans.layer_metrics and stages.
TRACE_EXTRA = ("process.cpu_s", "process.blas_threads", "trace.passes",
               "trace.solve_s", "trace.untraced_solve_s", "trace.overhead_s",
               "trace.layers_self_s", "trace.accounted_ratio")


def per_layer_names() -> list:
    """Every metric a traced run prints, in order."""
    return [*spans.layer_metrics([]), *TRACE_EXTRA, *stages.metric_names()]


def _import_program():
    for mod in spans.MODULES:
        importlib.import_module(f"{spans.PACKAGE}.{mod}")
    src = ROOT / "src"
    where = Path(sys.modules[spans.PACKAGE].__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"{spans.PACKAGE} imported from {where}, not from {src}")


def cmd_setup(args) -> dict:
    """Fresh-interpreter cost: import every module and build the models."""
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    _import_program()
    workloads.build_models(inputs, Path(args.work))
    return {"setup_s": time.perf_counter() - t0}


# ------------------------------------------------------------------ passes


class Runner:
    """Runs and verifies passes; tallies attempted and failed checks."""

    def __init__(self, state: dict, reference: dict):
        self.state = state
        self.reference = reference
        self.workload = state["inputs"]["workload"]
        self.attempted = 0
        self.failures = []
        self.index = 0
        self.cpu = []  # CPU seconds of each pass, all threads

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)

    def one_pass(self) -> float:
        clock = time.perf_counter
        self.index += 1
        c0, t0 = _cpu_seconds(), clock()
        try:
            outputs = workloads.run_pass(self.state, self.index)
        except Exception:  # noqa: BLE001 - an unexpected raise is a failed check
            elapsed = clock() - t0
            self.fail(f"pass {self.index} raised:\n{traceback.format_exc()}")
            return elapsed
        elapsed = clock() - t0
        self.cpu.append(_cpu_seconds() - c0)
        q, items = workloads.quantities(self.state, outputs)
        results = workloads.check(self.workload, q, self.reference)
        results += [(name, ok, "") for name, ok in items]
        for name, ok, why in results:
            self.attempted += 1
            if not ok:
                self.failures.append(f"pass {self.index}: {name}: {why}")
        out_root = outputs.get("out_root")
        if out_root is not None:
            shutil.rmtree(out_root, ignore_errors=True)
        return elapsed

    def loop(self, budget: float, after=None) -> list:
        """Whole passes while the next one is expected to fit; at least one."""
        clock = time.perf_counter
        start = clock()
        times = []
        while True:
            times.append(self.one_pass())
            if after:
                after()
            if clock() - start + times[-1] > budget:
                return times


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _code_digest() -> str:
    h = hashlib.sha256()
    for d in (ROOT / "src" / spans.PACKAGE, Path(__file__).resolve().parent):
        for p in sorted(d.glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _check_counts(runner: Runner, per_pass: list, work_root: Path) -> None:
    """Counts repeat exactly across traced passes and across runs.

    The first traced run of a workload in a checkout stores its counts,
    keyed by a digest of the code; later runs of the same code compare.
    """
    counts = [{k: m[k] for k in spans.COUNTS} for m in per_pass]
    for k, c in enumerate(counts[1:], start=2):
        if c != counts[0]:
            runner.fail(f"counts of traced pass {k} differ: {c} vs {counts[0]}")
            return
    runner.attempted += 1
    path = work_root / f"counts-{runner.workload}-{_code_digest()}.json"
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored != counts[0]:
            runner.failures.append(
                f"counts differ from an earlier run: {counts[0]} vs {stored}")
    else:
        path.write_text(json.dumps(counts[0], sort_keys=True), encoding="utf-8")


def _traced_section(runner: Runner, budget: float, untraced: list,
                    work_root: Path) -> dict:
    tracer = spans.Tracer()
    per_pass = []
    # the spans of the last traced pass stay in the checkout for inspection
    spans_file = work_root / f"spans-{runner.workload}.json"

    def after():
        per_pass.append(spans.layer_metrics(tracer.spans))
        spans_file.write_text(json.dumps([dataclasses.asdict(s)
                                          for s in tracer.spans]),
                              encoding="utf-8")
        tracer.reset()

    tracer.install()
    saved = tracer.saved()
    first_traced = len(runner.cpu)
    try:
        traced = runner.loop(budget, after=after)
    finally:
        tracer.uninstall()
    stale = [f"{mod.__name__}.{attr}" for mod, attr, obj in saved
             if getattr(mod, attr) is not obj]
    if stale:
        runner.fail(f"names not restored after tracing: {stale}")
    else:
        runner.attempted += 1
    _check_counts(runner, per_pass, work_root)

    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    solve = statistics.median(traced)
    base = statistics.median(untraced)
    layers = metrics["cli.self_s"] + sum(
        v for k, v in metrics.items() if k.endswith(".busy_s"))
    metrics.update({
        "process.cpu_s": statistics.median(runner.cpu[first_traced:] or [0.0]),
        "process.blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "trace.passes": len(traced),
        "trace.solve_s": solve,
        "trace.untraced_solve_s": base,
        "trace.overhead_s": solve - base,
        "trace.layers_self_s": layers,
        "trace.accounted_ratio": layers / solve,
    })
    return metrics


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # noqa: BLE001 - informational only
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def cmd_passes(args) -> dict:
    _import_program()
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    work = Path(args.work)
    state = workloads.prepare(inputs, work)
    runner = Runner(state, workloads.load_reference())
    budget = args.seconds / 2.0 if args.trace else float(args.seconds)
    untraced = runner.loop(budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_layer = None
    if args.trace:
        per_layer = _traced_section(runner, budget, untraced, work.parent)
        per_layer.update(stages.run(workloads.reference_model()))
    return {
        "passes": untraced,
        "peak_rss_mb": peak_rss_mb,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "per_layer": per_layer,
        "machine": machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "passes"))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.mode == "setup" else cmd_passes(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
