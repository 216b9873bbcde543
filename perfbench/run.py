"""coexsim benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload loop-radar --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's public functions and prints the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy of
the result, with provenance, is written under ``perfbench/.work/results``.

The benchmark runs the library from ``src/`` of the tree it sits in and
exits with code 2 if that tree has no ``src/coexsim``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the workloads are single-caller closed loops, and more
# threads than the work needs only add run-to-run spread.  This must happen
# before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

# Python randomises string hashing per process, and that alone moves
# loop-quiet's time by several percent from one process to the next.  So the
# command re-executes itself once with a fixed hash seed; exec replaces this
# process, so no second process runs.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
E2E = (
    ("setup_s", "s"),
    ("wall_s_per_sim_s", "s/s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
)
# The same stages without the host-speed scaling, and the fastest and median
# reference times, printed for the record.
UNSCALED = (("setup_s_unscaled", "s"), ("wall_s_per_sim_s_unscaled", "s/s"),
            ("reference_min_ms", "ms"), ("reference_p50_ms", "ms"))
# Workload-specific figures printed in the report lines (not gated).
REPORT = {
    "loop-radar": (("mean_bler_pct", "%"), ("evacuation_delay_windows", "windows"),
                   ("restore_delay_windows", "windows"), ("mode2_windows", "count")),
    "loop-quiet": (("mean_bler_pct", "%"), ("iq_requests", "count")),
    "offline": (("kpm_items_per_s", "1/s"), ("train_s", "s"),
                ("det_eval_windows_per_s", "1/s"), ("spec_items_per_s", "1/s"),
                ("loc_eval_items_per_s", "1/s"), ("det_accuracy", "frac"),
                ("det_worst_sinr_accuracy", "frac"),
                ("loc_recall", "frac"), ("loc_mean_iou", "frac"),
                ("loc_truth_boxes", "count"), ("mean_bler_pct", "%")),
}
# Quality figures that must repeat exactly for a seed: their mean over the
# acceptance operations, or else over the first cycle of input configs.
FIXED = ("mean_bler_pct", "evacuation_delay_windows", "restore_delay_windows",
         "mode2_windows", "iq_requests", "det_accuracy", "det_worst_sinr_accuracy",
         "loc_recall", "loc_mean_iou", "loc_truth_boxes")


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "machine": platform.machine(),
        "file_cache": "warm: the page cache is not dropped; disk is not measured",
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes=None, work: Path = WORK) -> dict:
    """Set up, measure for ``seconds``, check; returns the full result."""
    from layers import TARGETS, layer_metrics
    from reference import Reference
    from tracer import Tracer
    from workloads import WORKLOADS, Sizes

    sizes = sizes or Sizes()
    wl = WORKLOADS[workload_name](workload_name, seed, sizes, work / workload_name)
    # The reference computation is timed after each timed stage, when due,
    # and outside every stage's time (reference.py).
    reference = Reference()
    wl.between_stages = reference.measure_if_due

    # Set-ups are spaced through the run, not run back to back, so that they
    # meet the host in the same states as the operations.  Set-up rebuilds
    # the same inputs from the same seed, so operations see no difference.
    setups = [wl.setup()]
    n_configs = wl.n_configs
    timed = []               # untraced OpResults, in order
    ops = []                 # every OpResult, traced ones too
    traced_walls = []
    tracer = Tracer(TARGETS) if trace else None
    gc.collect()
    start = time.perf_counter()
    reference.spent = 0.0
    paused = 0.0             # set-up time inside the measured span

    def elapsed() -> float:
        return time.perf_counter() - start - paused - reference.spent

    # Every input config runs at least twice, so each has a repeat to check.
    # After that, an operation starts only if, at the mean pace so far, it
    # ends within --seconds: a run's length then does not grow with the
    # length of one operation.
    while (len(timed) < 2 * n_configs
           or elapsed() / len(timed) * (len(timed) + 1) <= seconds):
        if (len(setups) < sizes.setup_repeats
                and elapsed() >= len(setups) * seconds / sizes.setup_repeats):
            setups.append(wl.setup())
            paused += sum(setups[-1].parts.values())
        i = len(timed)
        timed.append(wl.op(i))
        ops.append(timed[-1])
        if i >= n_configs:
            # Same seed, same input config: outputs must hash the same.
            timed[-1].checks.append(_same_outputs(i, timed[i % n_configs], timed[-1]))
        if tracer is not None:
            tracer.run_id = i
            with tracer:
                traced = wl.op(i)
            traced_walls.append(traced.wall_s)
            traced.checks.append(_same_outputs(i, timed[-1], traced))
            ops.append(traced)
    measured_s = elapsed()
    accepted = wl.acceptance_ops()
    ops += accepted
    while len(setups) < sizes.setup_repeats:
        setups.append(wl.setup())
    reference.measure()

    checks = [c for op in ops for c in op.checks]
    failed = sum(1 for op in ops if not op.ok)
    attempted = len(ops)
    # The host's speed drifts by tens of percent within seconds and over
    # minutes (other tenants' load).  So each stage is scaled by the host's
    # speed around the time it ran, as the reference computation measured
    # it; each stage of each input config is taken at its median over the
    # run, and the stages are summed over one cycle of configs.  The set of
    # configs does not depend on speed: a faster program only runs each of
    # them more often.  setup_s is the median set-up, each scaled the same way.
    def scaled(timing) -> dict:
        return {stage: wall_s * reference.scale_at(timing.mids[stage])
                for stage, wall_s in timing.parts.items()}

    def cycle_sum(walls: list) -> float:
        by_stage: dict = {}
        for i, parts in enumerate(walls):
            for stage, wall_s in parts.items():
                by_stage.setdefault((i % n_configs, stage), []).append(wall_s)
        return sum(statistics.median(v) for v in by_stage.values())

    cycle = timed[:n_configs]
    cycle_sim_s = sum(op.sim_s for op in cycle)
    figures = {
        "setup_s": (statistics.median(sum(scaled(s).values()) for s in setups),
                    len(setups)),
        "wall_s_per_sim_s": (cycle_sum([scaled(op) for op in timed]) / cycle_sim_s,
                             len(timed)),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "ops_ok_frac": (1.0 - failed / attempted, attempted),
        "setup_s_unscaled": (statistics.median(sum(s.parts.values()) for s in setups),
                             len(setups)),
        "wall_s_per_sim_s_unscaled": (cycle_sum([op.parts for op in timed]) / cycle_sim_s,
                                      len(timed)),
        "reference_min_ms": (min(reference.times) * 1e3, len(reference.times)),
        "reference_p50_ms": (statistics.median(reference.times) * 1e3,
                             len(reference.times)),
    }
    fixed_from = accepted or cycle
    for name, _ in REPORT[workload_name]:
        if name in FIXED:
            figures[name] = (statistics.fmean(op.stats[name] for op in fixed_from),
                             len(fixed_from))
        else:
            values = [op.stats[name] for op in timed]
            figures[name] = (statistics.median(values), len(values))

    result = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "measured_s": measured_s,
        "ops": len(timed), "attempted": attempted, "failed": failed,
        "correct": failed == 0,
        "output_sha256": hashlib.sha256(
            "".join(op.digest for op in cycle + accepted).encode()).hexdigest(),
        "setup_stages_s": [s.parts for s in setups],
        "op_stages_s": [op.parts for op in timed],
        "op_sim_s": [op.sim_s for op in timed],
        "timeline": {"start": start, "setup_mids": [s.mids for s in setups],
                     "op_mids": [op.mids for op in timed],
                     "reference_mids": reference.mids, "reference_s": reference.times},
        "checks_failed": [f"{c.name}: {c.detail}" for c in checks if not c.ok],
        "figures": figures,
    }
    if tracer is not None:
        spec_items = getattr(wl, "spec_items", 0) * len(traced_walls)
        result["layers"] = layer_metrics(tracer, sum(traced_walls),
                                         sum(op.wall_s for op in timed),
                                         spec_items, spec_items)
        result["tracer"] = tracer
    return result


def _same_outputs(i: int, first, again):
    from workloads import Check
    return Check(f"op {i} outputs repeat for the same seed",
                 first.digest == again.digest, f"{first.digest} vs {again.digest}")


def json_line(result: dict) -> dict:
    """The final output line: end-to-end or per-layer metrics."""
    from layers import metric_specs

    if result["trace"]:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in metric_specs()}
    else:
        metrics = {name: {"value": result["figures"][name][0], "unit": unit}
                   for name, unit in E2E}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def report_lines(result: dict) -> list[str]:
    from layers import metric_specs

    lines = [f"workload {result['workload']} seed {result['seed']} "
             f"trace {result['trace']}: {result['ops']} ops in "
             f"{result['measured_s']:.1f} s, {result['failed']} of "
             f"{result['attempted']} failed",
             f"output_sha256 {result['output_sha256']}"]
    units = dict(E2E) | dict(UNSCALED) | dict(REPORT[result["workload"]])
    for name, (value, n) in result["figures"].items():
        lines.append(f"  {name:<26} {value:>14.6g} {units[name]:<8} (n={n})")
    if result["trace"]:
        for name, unit, _ in metric_specs():
            lines.append(f"  {name:<52} {result['layers'][name]:>14.6g} {unit}")
    lines += [f"  FAILED {c}" for c in result["checks_failed"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coexsim" / "__init__.py").is_file():
        return _fail(f"no coexsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result.pop("tracer").write_csv(results_dir / f"{tag}-spans.csv")
    line = json_line(result)
    saved = {k: v for k, v in result.items() if k != "figures"}
    saved["figures"] = {k: {"value": v, "n": n} for k, (v, n) in result["figures"].items()}
    saved["provenance"] = provenance()
    (results_dir / f"{tag}.json").write_text(json.dumps(saved, indent=1) + "\n")

    for text in report_lines(result):
        print(text)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
