"""Record reference.json: the outputs each workload's checks compare against.

    python3 perfbench/record_reference.py [--seeds 8] [--workload NAME ...]

Run it on a commit whose outputs are trusted (it was first run on the
program as first imported, version 0.1.0).  For every quantity in
``workloads.SPECS`` it runs one pass per seed and stores the median with
the lowest and highest value seen; quantities checked for equality must agree across all seeds.  Bounds
of the "le"/"lt" kind are fixed in the specs and are only reported here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
threads = str(len(os.sched_getaffinity(0)))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = threads

import workloads  # noqa: E402


def record(workload: str, seeds: list) -> dict:
    per_seed = []
    for seed in seeds:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            state = workloads.prepare(workloads.make_inputs(workload, seed), tmp)
            q, items = workloads.quantities(state, workloads.run_pass(state, 0))
        bad = [name for name, ok in items if not ok]
        if bad:
            raise SystemExit(f"{workload} seed {seed}: item checks fail: {bad}")
        per_seed.append(q)
        print(f"{workload} seed {seed}: {q}", file=sys.stderr)
    out = {}
    for name, spec in workloads.SPECS[workload].items():
        values = [q[name] for q in per_seed]
        if spec[0] == "eq":
            if any(v != values[0] for v in values):
                raise SystemExit(f"{workload}.{name} differs across seeds: {values}")
            out[name] = {"value": values[0]}
        elif spec[0] == "band":
            out[name] = {"value": statistics.median(values),
                         "lo": min(values), "hi": max(values)}
        else:
            print(f"{workload}.{name}: max seen {max(values)!r}, "
                  f"limit {spec[1]!r}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=8)
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    path = workloads.REFERENCE_FILE
    ref = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in args.workload or workloads.WORKLOADS:
        ref[workload] = record(workload, list(range(args.seeds)))
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
