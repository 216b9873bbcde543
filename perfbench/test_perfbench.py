"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run as bench  # noqa: E402
from layers import TARGETS  # noqa: E402
from reference import NEAREST, REFERENCE_S, Reference  # noqa: E402
from tracer import Tracer, TracerError, _bindings, _resolve  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _tiny(workload, tmp_path, seed=3, trace=False):
    return bench.run(workload, seed, 0, trace, sizes=TINY, work=tmp_path)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(workload, tmp_path):
    result = _tiny(workload, tmp_path)
    line = bench.json_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == _units("end_to_end")
    report = "\n".join(bench.report_lines(result))
    for name, unit in got.items():
        assert f"{name} " in report and f" {unit} " in report


def test_traced_run_prints_every_per_layer_metric_and_restores(tmp_path):
    sites = {}
    for target in TARGETS:
        func = _resolve(target)
        sites[target] = [(owner, attr, func) for owner, attr in _bindings(func)]
    result = _tiny("loop-radar", tmp_path, trace=True)
    line = bench.json_line(result)
    assert {name: m["unit"] for name, m in line["metrics"].items()} == _units("per_layer")
    assert line["metrics"]["localize.localize.calls"]["value"] > 0
    for target, bound in sites.items():
        assert bound, target
        for owner, attr, func in bound:
            assert getattr(owner, attr) is func, f"{target} still wrapped at {attr}"


def test_a_target_that_matches_nothing_fails():
    with pytest.raises(TracerError):
        with Tracer({"coexsim.signals.no_such_function": None}):
            pass


def test_tracer_restores_after_an_error():
    import coexsim.signals as signals

    original = signals.gen_awgn
    with pytest.raises(ValueError):
        with Tracer({"coexsim.signals.gen_awgn": None}):
            assert signals.gen_awgn is not original
            raise ValueError("boom")
    assert signals.gen_awgn is original


@pytest.mark.parametrize("workload", ["loop-radar", "offline"])
def test_two_seeded_runs_give_identical_output_hashes(workload, tmp_path):
    first = _tiny(workload, tmp_path / "a")
    second = _tiny(workload, tmp_path / "b")
    other = _tiny(workload, tmp_path / "c", seed=4)
    assert first["output_sha256"] == second["output_sha256"]
    assert first["output_sha256"] != other["output_sha256"]


def test_a_stage_is_scaled_by_the_reference_times_nearest_to_it():
    ref = Reference()
    # Slow host (70 ms) early on, fast host (35 ms) from t = 10 s.
    ref.mids = [float(t) for t in range(20)]
    ref.times = [0.070] * 10 + [0.035] * 10
    assert NEAREST < 10
    assert ref.scale_at(2.0) == pytest.approx(REFERENCE_S / 0.070)
    assert ref.scale_at(15.0) == pytest.approx(REFERENCE_S / 0.035)
    ref.measure()
    assert len(ref.times) == 21 and ref.times[-1] > 0
