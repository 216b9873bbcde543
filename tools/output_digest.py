"""Regenerate coexsim's standard outputs and print one SHA-256 per file.

A change that claims byte-identical outputs runs this on both trees and
compares the listings with ``diff``:

    PYTHONPATH=src python tools/output_digest.py > after.txt

The standard set, at the acceptance suite's sizes and seeds:

- the seed-101 KPM set (80 items per class per SINR), the ``TrainConfig(seed=7)``
  detectors at N = 1 and N = 4 (their arrays, not the zip container, whose
  entries carry the time of writing) with their accuracies, and each
  detector's ``eval_detector`` report on the set;
- the seed-202 spectrogram set (250 items at each of 4, 8 and 12 dB), the
  ``localize`` boxes of every item, the ``eval_localizer`` report and the
  pooled metrics at 8 and 4 dB;
- ``configs/scenario_example.yaml`` run with the N = 1 detector;
- criterion 7's seed-55 runs: 0, 4 and 8 dB under each policy.

Latency reports time the wall clock, so they are left out.  It takes a
couple of minutes on a laptop-class CPU.

The small set (``SMALL_SET``, a few seconds) has its digests committed in
``tests/output_digest_small.txt`` with the numpy and scipy versions that made
them, and ``tests/test_output_digest.py`` checks them.  A change that names an
output change regenerates that file and lists the changed files:

    PYTHONPATH=src python tools/output_digest.py --write-golden
"""

from __future__ import annotations

from dataclasses import replace
import hashlib
from pathlib import Path
import sys
import tempfile

import numpy as np
import scipy

from coexsim.detect import ClassifierModel, TrainConfig, train_detector
from coexsim.fileio import write_sidecar
from coexsim.harness.datasets import (
    KpmDatasetConfig,
    SpectrogramDatasetConfig,
    gen_kpm_dataset,
    gen_spectrogram_dataset,
    load_kpm_windows,
    load_spectrogram_items,
)
from coexsim.harness.evaluate import (
    eval_detector,
    eval_localizer,
    pooled_localizer_metrics,
    write_detector_report,
    write_localizer_report,
)
from coexsim.harness.scenario import (
    POLICIES,
    POLICY_BASELINE,
    RadarWindow,
    ScenarioConfig,
    run_scenario,
    scenario_from_yaml,
)
from coexsim.localize import localize, write_box_records
from coexsim.signals import RadarParams

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_CONFIG = ROOT / "configs" / "scenario_example.yaml"
LOOP_RADAR = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6)
NOT_DETERMINISTIC = {"latency_report.txt"}
SMALL_SET = {"kpm_items": 6, "spec_items": 1, "time_scale": 0.05}
GOLDEN = ROOT / "tests" / "output_digest_small.txt"


def write_standard_set(out: Path, kpm_items: int = 80, spec_items: int = 250,
                       time_scale: float = 1.0) -> None:
    """Regenerate the standard set under ``out``.

    ``time_scale`` shrinks every scenario's duration and radar interval; the
    smoke test runs the set small with it and the two counts.
    """
    out = Path(out)
    kpm = gen_kpm_dataset(out / "kpm", KpmDatasetConfig(items_per_class_per_sinr=kpm_items,
                                                        seed=101))
    models = {}
    for n_stack in (1, 4):
        x, labels, _ = load_kpm_windows(kpm, n_stack)
        result = train_detector(x, labels, TrainConfig(seed=7))
        models[n_stack] = model = result.model
        model.save(out / f"detector_n{n_stack}.npz")
        write_sidecar(out / f"detector_n{n_stack}.accuracy",
                      {"train": repr(result.train_accuracy), "val": repr(result.val_accuracy)})
        write_detector_report(out / f"det_eval_n{n_stack}.csv",
                              eval_detector(model, kpm, n_stack))

    specs = gen_spectrogram_dataset(out / "specs", SpectrogramDatasetConfig(
        sinr_sweep_db=(4.0, 8.0, 12.0), items_per_sinr=spec_items, absent_fraction=0.0,
        seed=202))
    write_box_records(out / "localized_boxes.csv",
                      [(file_id, box) for file_id, _, _, sgram, _ in load_spectrogram_items(specs)
                       for box in localize(sgram)])
    write_localizer_report(out / "loc_eval.csv", eval_localizer(specs))
    write_sidecar(out / "loc_pooled.txt", {
        f"min_sinr_{min_sinr:g}": repr(pooled_localizer_metrics(specs, min_sinr_db=min_sinr))
        for min_sinr in (8.0, 4.0)})

    example = scenario_from_yaml(EXAMPLE_CONFIG)
    example.duration_s *= time_scale
    example.radar_schedule = [replace(w, t_on_s=w.t_on_s * time_scale,
                                      t_off_s=w.t_off_s * time_scale)
                              for w in example.radar_schedule]
    example.output_dir = str(out / "example")
    run_scenario(example, models[1])

    for sinr in (0.0, 4.0, 8.0):
        for policy in POLICIES:
            run_scenario(ScenarioConfig(
                duration_s=1.0 * time_scale, policy=policy,
                radar_schedule=[RadarWindow(0.3 * time_scale, 0.7 * time_scale, LOOP_RADAR)],
                sinr_schedule=[(0.0, sinr)], seed=55,
                output_dir=str(out / "criterion7" / f"{policy}_{sinr:g}dB")),
                None if policy == POLICY_BASELINE else models[1])


def file_sha256(path: Path) -> str:
    """SHA-256 of a file's bytes; of a model file, of its arrays by name."""
    h = hashlib.sha256()
    if path.suffix == ".npz":
        model = ClassifierModel.load(path)
        arrays = [np.asarray(model.layer_sizes), *model.weights, *model.biases,
                  model.feat_mean, model.feat_std]
        for a in arrays:
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def digests(out: Path) -> list[tuple[str, str]]:
    """(relative path, SHA-256) of every deterministic file under ``out``, sorted."""
    out = Path(out)
    return [(str(p.relative_to(out)), file_sha256(p)) for p in sorted(out.rglob("*"))
            if p.is_file() and p.name not in NOT_DETERMINISTIC]


def versions() -> dict[str, str]:
    """The versions of the libraries whose arithmetic the digests rest on."""
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def write_golden() -> None:
    """Regenerate the small set's committed digests, versions first."""
    with tempfile.TemporaryDirectory() as tmp:
        write_standard_set(Path(tmp), **SMALL_SET)
        listing = digests(Path(tmp))
    lines = [f"# {lib} {version}" for lib, version in versions().items()]
    lines += [f"{sha}  {name}" for name, sha in listing]
    GOLDEN.write_text("\n".join(lines) + "\n")


def read_golden() -> tuple[dict[str, str], dict[str, str]]:
    """(library versions, digest by relative path) as ``write_golden`` wrote them."""
    libs, shas = {}, {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("# "):
            lib, version = line[2:].split(" ", 1)
            libs[lib] = version
        else:
            sha, name = line.split("  ", 1)
            shas[name] = sha
    return libs, shas


def main(argv: list[str]) -> int:
    if argv == ["--write-golden"]:
        write_golden()
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        write_standard_set(Path(tmp))
        for name, sha in digests(Path(tmp)):
            print(f"{sha}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
