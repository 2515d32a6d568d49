"""heavychain benchmark: three analysis workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload cli-default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  For each workload it measures set-up in
fresh interpreters, then runs timed passes in one worker process (see
``worker.py``), checks every pass against ``reference.json`` and prints the
metrics with their units.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 1`` the metrics are the per-layer ones (see README.md).

This file uses the standard library only; the program under test is
imported by the worker processes from the checkout's ``src`` directory.
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
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_REPEATS = 7
# every run ends within this many seconds, or its worker is stopped
RUN_DEADLINE = 175.0

END_TO_END = ("solve_s", "setup_s", "peak_rss_mb")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_fraction", "solves_per_pair")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv: list, env: dict, deadline: float) -> dict:
    """Run worker.py to completion; its last stdout line is a JSON object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + argv[0])
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv[0]} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {argv[0]} exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs_path = work / "inputs.json"
        inputs_path.write_text(json.dumps(make_inputs(workload, seed)),
                               encoding="utf-8")
        common = ["--inputs", str(inputs_path), "--work", str(work)]
        env = child_env()
        setups = [run_worker(["setup", *common], env, deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        res = run_worker(["passes", *common, "--seconds", str(seconds),
                          "--trace", str(int(trace))], env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res["setup"] = setups
    res["end_to_end"] = {
        "solve_s": statistics.median(res["passes"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return res


def report(workload: str, res: dict) -> None:
    e2e = res["end_to_end"]
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"{workload}: solve_s = {e2e['solve_s']:.4f} s "
          f"(median of {len(res['passes'])} passes), "
          f"setup_s = {e2e['setup_s']:.4f} s "
          f"(median of {len(res['setup'])} interpreters), "
          f"peak_rss_mb = {e2e['peak_rss_mb']:.1f} MiB, "
          f"failed_ratio = {res['failed']}/{res['attempted']} = {ratio:.4g}")
    if res["per_layer"]:
        for name, val in res["per_layer"].items():
            print(f"  {name} = {val:.6g} {unit_of(name)}")
    for line in res["failures"]:
        print(f"{workload}: FAILED {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heavychain" / "__init__.py").is_file():
        print(f"error: no heavychain sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_DEADLINE * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("machine: " + json.dumps(next(iter(results.values()))["machine"]))

    metrics = {}
    for name, res in results.items():
        values = res["per_layer"] if args.trace else res["end_to_end"]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, val in values.items():
            metrics[prefix + key] = {"value": val, "unit": unit_of(key)}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
