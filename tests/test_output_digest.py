"""tools/output_digest.py at tiny sizes, and the small set's committed digests."""

import importlib.util
from pathlib import Path

import pytest

from coexsim.detect import ClassifierModel

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load_tool()


@pytest.fixture(scope="module")
def small_set(tool, tmp_path_factory):
    out = tmp_path_factory.mktemp("digest") / "set"
    tool.write_standard_set(out, **tool.SMALL_SET)
    return out


def test_small_standard_set_has_one_digest_per_file(tool, small_set, tmp_path):
    out = small_set
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


def test_small_standard_set_equals_committed_digests(tool, small_set):
    made_with, expected = tool.read_golden()
    here = tool.versions()
    assert made_with == here, (
        f"{tool.GOLDEN.name} was made with {made_with}, this environment has {here}; "
        f"check the outputs on both, then regenerate it with write_golden()")
    got = dict(tool.digests(small_set))
    differ = sorted(name for name in expected.keys() | got.keys()
                    if expected.get(name) != got.get(name))
    assert not differ, (f"{len(differ)} of {len(expected)} files differ from "
                        f"{tool.GOLDEN.name}: {', '.join(differ)}")
