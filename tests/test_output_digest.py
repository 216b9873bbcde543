"""Smoke test of tools/output_digest.py at tiny sizes."""

import importlib.util
from pathlib import Path

from coexsim.detect import ClassifierModel

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_standard_set_has_one_digest_per_file(tmp_path):
    tool = load_tool()
    out = tmp_path / "set"
    tool.write_standard_set(out, kpm_items=6, spec_items=1, time_scale=0.05)
    names = dict(tool.digests(out))
    for name in ("kpm/kpm_dataset.csv", "detector_n1.npz", "detector_n4.npz",
                 "det_eval_n4.csv", "specs/truth_boxes.csv", "specs/specs/item_00002.bin",
                 "localized_boxes.csv", "loc_eval.csv", "loc_pooled.txt",
                 "example/kpm_log.csv", "example/summary.txt",
                 "criterion7/full_8dB/command_log.csv", "criterion7/baseline_0dB/kpm_log.csv"):
        assert len(names.pop(name)) == 64, name
    assert not any(name.endswith("latency_report.txt") for name in names)
    # a model digests by its arrays: saved again, the zip differs, the digest does not
    copy = tmp_path / "copy.npz"
    ClassifierModel.load(out / "detector_n4.npz").save(copy)
    assert tool.file_sha256(copy) == tool.file_sha256(out / "detector_n4.npz")
