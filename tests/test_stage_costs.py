"""tools/stage_costs.py on two captures."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_costs.py"


def test_two_captures_give_every_step_its_figures(capsys):
    spec = importlib.util.spec_from_file_location("stage_costs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--captures", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["captures"] == 2 and list(result["steps"]) == list(tool.STEPS)
    for step, row in result["steps"].items():
        assert row["count"] == 2, step
        assert 0.0 <= row["p50_ms"] <= row["p95_ms"] <= row["max_ms"], step
    # one header line and one line per step before the JSON line
    assert len(lines) == len(tool.STEPS) + 2
