"""Measure a baseline: many seeds per workload, with each metric's spread.

Usage (from the repository root):

    python3 perfbench/baseline.py --first-seed 101 --runs 10 --out perfbench/BASELINE.json

For each workload in BENCHMARK.json this runs ``perfbench/run.py`` once per
seed with ``--trace 0``, one after another, then once with ``--trace 1`` on
the first seed.  For every end-to-end metric it records the values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``.  It also records the report figures and output hash
of every run, and the provenance of the last one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / ".work" / "results"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    saved = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    print(f"{workload} seed {seed} trace {trace}: correct={line['correct']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()
                     if not trace), flush=True)
    return {"line": line, "saved": saved}


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    baseline = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        traced = _run(workload, seeds[0], seconds, 1)
        metrics = {m["name"]: _spread([r["line"]["metrics"][m["name"]]["value"]
                                       for r in runs])
                   for m in spec["end_to_end"]}
        baseline["workloads"][workload] = {
            "end_to_end": metrics,
            "all_correct": all(r["line"]["correct"] for r in runs),
            "runs": [{"seed": s, "output_sha256": r["saved"]["output_sha256"],
                      "figures": r["saved"]["figures"]} for s, r in zip(seeds, runs)],
            "traced_seed": seeds[0],
            "per_layer": traced["saved"]["layers"],
        }
        baseline["provenance"] = runs[-1]["saved"]["provenance"]
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
