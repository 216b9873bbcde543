from dataclasses import replace
import math
import re
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexsim.control import STAGE_SPECTROGRAM_BUILD
from coexsim.detect import (
    KPM_FEATURES,
    KpmWindow,
    TrainConfig,
    record_features,
    train_detector,
)
from coexsim.errors import (
    InvalidConfigError,
    InvalidParamsError,
    MissingDataError,
    MissingModelError,
)
from coexsim.harness import cli, datasets, evaluate
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
    localize_items,
    localizer_rows,
    pooled_localizer_metrics,
    pooled_metrics,
    radar_slice,
)
from coexsim.harness.scenario import (
    POLICIES,
    POLICY_BASELINE,
    POLICY_FULL,
    RadarWindow,
    ScenarioConfig,
    run_scenario,
    scenario_from_yaml,
)
from coexsim.fileio import read_csv, write_csv
from coexsim.localize import RADAR, FreqTimeBox, evaluate_localizer, localize
from coexsim.ranlink import KpmRecord, LinkConfig, read_kpm_csv, write_kpm_csv
from coexsim.signals import SAMPLE_RATE_HZ, RadarParams


@pytest.fixture(scope="module")
def kpm_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "kpm"
    gen_kpm_dataset(out, KpmDatasetConfig(items_per_class_per_sinr=25, seed=11))
    return out


@pytest.fixture(scope="module")
def small_model(kpm_dataset):
    windows, labels, _ = load_kpm_windows(kpm_dataset, n_stack=1)
    return train_detector(windows, labels, TrainConfig(epochs=20, seed=1)).model


@pytest.fixture(scope="module")
def spectro_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "specs"
    cfg = SpectrogramDatasetConfig(sinr_sweep_db=(12.0,), items_per_sinr=6,
                                   absent_fraction=0.5, seed=5)
    gen_spectrogram_dataset(out, cfg)
    return out


def set_cell(column, value):
    """A corruption: rewrites a CSV file with ``column`` of its first data row set
    to ``value``."""
    def corrupt(path):
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return corrupt


class TestKpmDataset:
    def test_structure_and_windowing(self, kpm_dataset):
        assert (kpm_dataset / "kpm_dataset.csv").exists()
        assert (kpm_dataset / "items.csv").exists()
        windows, labels, sinrs = load_kpm_windows(kpm_dataset, n_stack=4)
        # 5 sinr points x 2 classes x 25 items x (8 - 4 + 1) windows
        assert len(windows) == 5 * 2 * 25 * 5
        assert set(labels.tolist()) == {0, 1}
        assert sorted(set(sinrs.tolist())) == [-4.0, 0.0, 4.0, 8.0, 12.0]

    def test_windows_never_straddle_items(self, kpm_dataset):
        windows, labels, _ = load_kpm_windows(kpm_dataset, n_stack=8)
        # with n_stack == records_per_item each window is exactly one item
        assert len(windows) == 5 * 2 * 25

    def test_regeneration_is_byte_identical(self, tmp_path, kpm_dataset):
        cfg = KpmDatasetConfig(items_per_class_per_sinr=25, seed=11)
        other = tmp_path / "kpm2"
        gen_kpm_dataset(other, cfg)
        assert (other / "kpm_dataset.csv").read_bytes() == \
               (kpm_dataset / "kpm_dataset.csv").read_bytes()

    def test_missing_dataset(self, tmp_path):
        with pytest.raises(MissingDataError):
            load_kpm_windows(tmp_path / "nope", 1)

    @pytest.mark.parametrize("config", [KpmDatasetConfig, SpectrogramDatasetConfig])
    @pytest.mark.parametrize("seed", [-1, 2.5, False, np.int64(-3)])
    def test_bad_seed_rejected_by_name(self, config, seed):
        with pytest.raises(InvalidParamsError, match="seed must be a non-negative integer"):
            config(seed=seed)

    @pytest.mark.parametrize("config", [KpmDatasetConfig, SpectrogramDatasetConfig])
    @pytest.mark.parametrize("sinr", [math.nan, math.inf, -math.inf, 1e308, 3100.0, "8", True])
    def test_bad_sweep_sinr_rejected_by_name(self, config, sinr):
        with pytest.raises(InvalidParamsError, match=r"^sinr_sweep_db\[1\] "):
            config(sinr_sweep_db=(8.0, sinr))

    def test_sweep_sinr_below_overflow_accepted(self):
        for config in (KpmDatasetConfig, SpectrogramDatasetConfig):
            config(sinr_sweep_db=(-1e308, 3000.0, np.float64(8.0), 12))

    @pytest.mark.parametrize("field", ["items_per_class_per_sinr", "records_per_item"])
    @pytest.mark.parametrize("value", [0, -1, 1.5, 2.0, np.float64(3.0), True, "8", None])
    def test_bad_count_rejected_by_name(self, field, value):
        message = rf"^{field} must be an integer >= 1, not {re.escape(repr(value))}$"
        with pytest.raises(InvalidParamsError, match=message):
            KpmDatasetConfig(**{field: value})

    def test_one_record_per_item_accepted(self, tmp_path):
        out = gen_kpm_dataset(tmp_path, KpmDatasetConfig(
            sinr_sweep_db=(8.0,), items_per_class_per_sinr=np.int64(2),
            records_per_item=np.int64(1)))
        windows, labels, _ = load_kpm_windows(out, n_stack=1)
        assert len(windows) == 4 and labels.tolist() == [0, 0, 1, 1]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 63 - 1), item=st.integers(0, 10 ** 6),
           k=st.integers(1, 64))
    def test_one_seed_draw_equals_scalar_draws(self, seed, item, k):
        """An item's seeds, drawn in one call after its operating point, equal
        k draws of one seed each."""
        one, scalar = (np.random.default_rng([seed, item]) for _ in range(2))
        for rng in (one, scalar):
            rng.integers(4, 29), rng.uniform(6.0, 14.0), rng.uniform(1.0, 5.0)
        want = [int(scalar.integers(2 ** 63)) for _ in range(k)]
        assert one.integers(2 ** 63, size=k).tolist() == want



def per_record_windows(dataset_dir, n_stack):
    """``load_kpm_windows`` as it was before it parsed one matrix: a
    ``KpmRecord`` per row and a ``KpmWindow`` per stacked window."""
    records, _ = read_kpm_csv(dataset_dir / "kpm_dataset.csv")
    windows, labels, sinrs = [], [], []
    for row in read_csv(dataset_dir / "items.csv"):
        start, n = int(row["row_start"]), int(row["n_records"])
        feats = [record_features(r) for r in records[start:start + n]]
        for end in range(n_stack, len(feats) + 1):
            windows.append(KpmWindow(np.concatenate(feats[end - n_stack:end]), n_stack))
            labels.append(int(row["label"]))
            sinrs.append(float(row["sinr_db"]))
    return windows, np.asarray(labels), np.asarray(sinrs)


class TestKpmMatrix:
    """The KPM windows as one matrix equal the stacked per-record windows."""

    @pytest.mark.parametrize("n_stack", [1, 2, 3, 4])
    def test_generated_set_equals_per_record_windows(self, kpm_dataset, n_stack):
        x, labels, sinrs = load_kpm_windows(kpm_dataset, n_stack)
        windows, ref_labels, ref_sinrs = per_record_windows(kpm_dataset, n_stack)
        assert x.tobytes() == np.stack([w.features for w in windows]).tobytes()
        assert x.shape == (len(windows), 4 * n_stack) and x.flags.c_contiguous
        assert np.array_equal(labels, ref_labels) and labels.dtype == ref_labels.dtype
        assert sinrs.tobytes() == ref_sinrs.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_stack=st.integers(1, 4),
           lengths=st.lists(st.integers(0, 9), min_size=1, max_size=12))
    def test_random_records_equal_per_record_windows(self, tmp_path_factory, seed, n_stack,
                                                     lengths):
        rng = np.random.default_rng(seed)
        out = tmp_path_factory.mktemp("kpm")
        n = sum(lengths)
        records = [KpmRecord(float(rng.uniform(0, 1)), float(rng.uniform(0, 20)),
                             float(rng.uniform(0, 100)), int(rng.integers(0, 29)),
                             int(rng.integers(0, 10 ** 7)), float(rng.normal(20, 10)))
                   for _ in range(n)]
        write_kpm_csv(out / "kpm_dataset.csv", records, [0] * n)
        starts = np.cumsum([0] + lengths[:-1])
        write_csv(out / "items.csv", ["item_id", "row_start", "n_records", "sinr_db", "label"],
                  [[i, s, k, float(rng.choice([-4.0, 0.5, 12.0])), int(rng.integers(2))]
                   for i, (s, k) in enumerate(zip(starts, lengths))])
        x, labels, sinrs = load_kpm_windows(out, n_stack)
        windows, ref_labels, ref_sinrs = per_record_windows(out, n_stack)
        assert len(x) == len(windows)
        if windows:
            assert x.tobytes() == np.stack([w.features for w in windows]).tobytes()
            assert np.array_equal(labels, ref_labels)
            assert sinrs.tobytes() == ref_sinrs.tobytes()

    @pytest.mark.parametrize("n_stack", [1, 4])
    def test_empty_record_set_loads_without_a_warning(self, tmp_path, n_stack):
        write_kpm_csv(tmp_path / "kpm_dataset.csv", [], [])
        write_csv(tmp_path / "items.csv", ["item_id", "row_start", "n_records", "sinr_db", "label"],
                  [[0, 0, 0, 12.0, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            features = datasets._read_columns(tmp_path / "kpm_dataset.csv", KPM_FEATURES)
            x, labels, sinrs = load_kpm_windows(tmp_path, n_stack)
        assert features.shape == (0, len(KPM_FEATURES)) and features.dtype == np.float64
        assert x.shape == (0, len(KPM_FEATURES) * n_stack)
        assert labels.size == sinrs.size == 0

    def test_non_finite_feature_rejected_by_name(self, kpm_dataset, tmp_path):
        text = (kpm_dataset / "kpm_dataset.csv").read_text().splitlines(keepends=True)
        row = text[5].split(",")
        row[2] = "nan"  # bler_pct
        text[5] = ",".join(row)
        (tmp_path / "kpm_dataset.csv").write_text("".join(text))
        (tmp_path / "items.csv").write_bytes((kpm_dataset / "items.csv").read_bytes())
        with pytest.raises(InvalidParamsError, match="bler_pct holds a non-finite value"):
            load_kpm_windows(tmp_path, 1)

    @pytest.mark.parametrize("cell, message", [
        ("abc", r"kpm_dataset.csv row 5: bler_pct is 'abc', not a number$"),
        ("", r"kpm_dataset.csv row 5: bler_pct is '', not a number$"),
        ("1_000", r"kpm_dataset.csv: could not convert string '1_000'"),  # float() reads it
    ])
    def test_malformed_cell_rejected_by_name(self, kpm_dataset, tmp_path, cell, message):
        text = (kpm_dataset / "kpm_dataset.csv").read_text().splitlines(keepends=True)
        row = text[5].split(",")
        row[2] = cell  # bler_pct
        text[5] = ",".join(row)
        (tmp_path / "kpm_dataset.csv").write_text("".join(text))
        (tmp_path / "items.csv").write_bytes((kpm_dataset / "items.csv").read_bytes())
        with pytest.raises(InvalidParamsError, match=message):
            load_kpm_windows(tmp_path, 1)


class TestSpectrogramDataset:
    def test_items_and_truth(self, spectro_dataset):
        items = list(load_spectrogram_items(spectro_dataset))
        assert len(items) == 9  # 6 radar + 3 absent
        for file_id, sinr, has_radar, power, truths in items:
            assert power.shape[0] == 1024
            if has_radar:
                assert truths, f"{file_id} lacks truth boxes"
            else:
                assert truths == []

    def test_absent_labels_zero_truths(self, spectro_dataset):
        truth_path = spectro_dataset / "truth_boxes.csv"
        assert truth_path.exists()

    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = SpectrogramDatasetConfig(sinr_sweep_db=(8.0,), items_per_sinr=2,
                                       absent_fraction=0.0, seed=9)
        a = tmp_path / "a"
        b = tmp_path / "b"
        gen_spectrogram_dataset(a, cfg)
        gen_spectrogram_dataset(b, cfg)
        for rel in ("specs/item_00000.bin", "specs/item_00001.bin",
                    "truth_boxes.csv", "items.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_missing_dataset(self, tmp_path):
        with pytest.raises(MissingDataError):
            list(load_spectrogram_items(tmp_path / "nope"))

    def test_kpm_item_list_rejected_before_any_item(self, kpm_dataset):
        with pytest.raises(MissingDataError, match="lacks the column.s. file_id, has_radar"):
            next(load_spectrogram_items(kpm_dataset))

    @pytest.mark.parametrize("value", [0, -1, 1.5, 2.0, np.float64(3.0), True, "8", None])
    def test_bad_count_rejected_by_name(self, value):
        message = rf"^items_per_sinr must be an integer >= 1, not {re.escape(repr(value))}$"
        with pytest.raises(InvalidParamsError, match=message):
            SpectrogramDatasetConfig(items_per_sinr=value)

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -0.1, "0.2", True])
    def test_bad_absent_fraction_rejected_by_name(self, fraction):
        with pytest.raises(InvalidParamsError, match="^absent_fraction must be a finite number"):
            SpectrogramDatasetConfig(absent_fraction=fraction)


class TestEvaluate:
    def test_detector_table(self, small_model, kpm_dataset):
        rows = eval_detector(small_model, kpm_dataset, n_stack=1)
        assert [r.sinr_db for r in rows] == [-4.0, 0.0, 4.0, 8.0, 12.0]
        assert all(0.0 <= r.accuracy <= 1.0 for r in rows)
        assert all(r.n_windows == 2 * 25 * 8 for r in rows)

    def test_training_set_accuracy_is_optimistic_bound(self, kpm_dataset):
        windows, labels, _ = load_kpm_windows(kpm_dataset, n_stack=1)
        result = train_detector(windows, labels, TrainConfig(epochs=20, seed=2))
        # accuracy on data the model trained on bounds held-out accuracy
        assert result.train_accuracy >= result.val_accuracy

    def test_localizer_table(self, spectro_dataset):
        rows = eval_localizer(spectro_dataset)
        assert len(rows) == 1
        assert rows[0].sinr_db == 12.0
        assert rows[0].recall >= 0.9
        pooled = pooled_localizer_metrics(spectro_dataset, min_sinr_db=8.0)
        assert pooled.recall >= 0.9

    def test_pooled_empty_slice(self, spectro_dataset):
        with pytest.raises(MissingDataError, match="^no items in requested SINR slice$"):
            pooled_localizer_metrics(spectro_dataset, min_sinr_db=99.0)
        items = localize_items(spectro_dataset, radar_slice(99.0))
        assert items == []
        with pytest.raises(MissingDataError, match="^no items in requested SINR slice$"):
            pooled_metrics(items, 99.0)


def load_all_pooled_metrics(dataset_dir, min_sinr_db):
    """``pooled_localizer_metrics`` as it was before it read items.csv first:
    it loaded every item and kept the slice."""
    preds, truths = [], []
    for _, sinr, has_radar, power, truth in load_spectrogram_items(dataset_dir):
        if sinr < min_sinr_db or not has_radar:
            continue
        preds.append([b for b in localize(power) if b.label == RADAR])
        truths.append(truth)
    if not preds:
        raise MissingDataError("no items in requested SINR slice")
    return evaluate_localizer(preds, truths)


@pytest.fixture(scope="module")
def sweep_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "sweep"
    gen_spectrogram_dataset(out, SpectrogramDatasetConfig(
        sinr_sweep_db=(4.0, 8.0, 12.0), items_per_sinr=2, absent_fraction=0.5, seed=13))
    return out


@pytest.fixture(scope="module")
def sweep_items(sweep_dataset):
    return localize_items(sweep_dataset)


class TestPooledSlice:
    """The pooled metrics load only the slice's items and equal the load-all loop,
    and so does every slice of the one-pass item list."""

    @settings(max_examples=12, deadline=None)
    @given(min_sinr_db=st.sampled_from([-np.inf, 3.9, 4.0, 8.0, 8.5, 12.0, 12.1, np.nan])
           | st.floats(0.0, 14.0))
    def test_equals_load_all_loop(self, sweep_dataset, sweep_items, min_sinr_db):
        loaded = []
        load = datasets.load_spectrogram
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(datasets, "load_spectrogram",
                          lambda path: loaded.append(path) or load(path))
            if math.isnan(min_sinr_db):  # names no slice: rejected before any item loads
                with pytest.raises(InvalidParamsError, match="min_sinr_db is nan"):
                    pooled_localizer_metrics(sweep_dataset, min_sinr_db)
                assert loaded == []
                with pytest.raises(InvalidParamsError, match="min_sinr_db is nan"):
                    pooled_metrics(sweep_items, min_sinr_db)
                return
            try:
                got = pooled_localizer_metrics(sweep_dataset, min_sinr_db)
            except MissingDataError:
                got = None
        n_slice = sum(1 for row in read_csv(sweep_dataset / "items.csv")
                      if row["has_radar"] == "1"
                      and not float(row["sinr_db"]) < min_sinr_db)
        assert len(loaded) == n_slice
        try:
            want = load_all_pooled_metrics(sweep_dataset, min_sinr_db)
        except MissingDataError:
            want = None
        assert repr(got) == repr(want)
        try:
            sliced = pooled_metrics(sweep_items, min_sinr_db)
        except MissingDataError:
            sliced = None
        assert repr(sliced) == repr(want)

    def test_rows_of_item_list_equal_eval_localizer(self, sweep_dataset, sweep_items):
        rows = localizer_rows(sweep_items)
        assert [r.sinr_db for r in rows] == [4.0, 8.0, 12.0]
        assert rows == eval_localizer(sweep_dataset)

    def test_item_list_holds_boxes_not_spectrograms(self, sweep_dataset, sweep_items):
        listed = [(row["file_id"], float(row["sinr_db"]), row["has_radar"] == "1")
                  for row in read_csv(sweep_dataset / "items.csv")]
        assert [item[:3] for item in sweep_items] == listed
        for *_, boxes, truths in sweep_items:
            assert all(isinstance(b, FreqTimeBox) for b in boxes + truths)

    def test_cli_loads_and_localizes_each_item_once(self, sweep_dataset, monkeypatch,
                                                    capsys):
        loaded, localized = [], []
        load, boxes_of = datasets.load_spectrogram, evaluate.localize
        monkeypatch.setattr(datasets, "load_spectrogram",
                            lambda path: loaded.append(path) or load(path))
        monkeypatch.setattr(evaluate, "localize",
                            lambda power: localized.append(None) or boxes_of(power))
        assert cli.main(["eval-localizer", "--data", str(sweep_dataset),
                         "--min-sinr", "8"]) == 0
        assert "pooled sinr >= +8.0" in capsys.readouterr().out
        n_items = sum(1 for _ in read_csv(sweep_dataset / "items.csv"))
        assert len(set(loaded)) == len(loaded) == n_items
        assert len(localized) == n_items


SCENARIO_PARAMS = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6)


class TestScenario:
    def test_interference_free_baseline(self, small_model):
        sc = ScenarioConfig(duration_s=0.5, policy=POLICY_BASELINE, seed=0)
        out = run_scenario(sc, None)
        assert out.summary["mean_bler_pct"] < 1.0
        assert not any(out.labels)

    def test_closed_loop_blanks_and_restores(self, small_model, tmp_path):
        sc = ScenarioConfig(duration_s=1.0, policy=POLICY_FULL,
                            radar_schedule=[RadarWindow(0.3, 0.7, SCENARIO_PARAMS)],
                            seed=4, output_dir=str(tmp_path / "run"))
        out = run_scenario(sc, small_model)
        assert out.summary["detection_delay_s"] <= 0.02
        assert out.summary["evacuation_delay_s"] <= 0.02
        assert out.summary["restore_delay_s"] <= 0.02
        assert (tmp_path / "run" / "kpm_log.csv").exists()
        assert (tmp_path / "run" / "command_log.csv").exists()
        assert (tmp_path / "run" / "latency_report.txt").exists()
        assert (tmp_path / "run" / "summary.txt").exists()

    def test_mode2_windows_start_at_most_one_thread(self, small_model, monkeypatch):
        """The STFT, the row sort and the capture's noise share one helper
        thread: no thread and no pool per call."""
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), start(thread))[1])
        before = threading.active_count()
        sc = ScenarioConfig(duration_s=0.5, policy=POLICY_FULL,
                            radar_schedule=[RadarWindow(0.1, 0.4, SCENARIO_PARAMS)], seed=4)
        out = run_scenario(sc, small_model)
        assert out.ledger.counts[STAGE_SPECTROGRAM_BUILD] >= 20
        assert threading.active_count() <= before + 1
        assert len(started) <= 1

    def test_determinism_byte_for_byte(self, small_model, tmp_path):
        outs = []
        for name in ("a", "b"):
            sc = ScenarioConfig(duration_s=0.4, policy=POLICY_FULL,
                                radar_schedule=[RadarWindow(0.1, 0.3, SCENARIO_PARAMS)],
                                seed=7, output_dir=str(tmp_path / name))
            run_scenario(sc, small_model)
            outs.append(tmp_path / name)
        for fname in ("kpm_log.csv", "command_log.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_causality_one_window_delay(self, small_model):
        # the KPM of the radar-onset window is produced under a full mask:
        # commands derived from it can only affect later windows
        sc = ScenarioConfig(duration_s=0.4, policy=POLICY_FULL,
                            radar_schedule=[RadarWindow(0.1, 0.3, SCENARIO_PARAMS)],
                            seed=8)
        out = run_scenario(sc, small_model)
        onset_record = out.records[10]  # first radar window
        # throughput/BLER of that record computed with all PRBs active
        assert out.labels[10] == 1
        blank_times = [t for t, c in out.commands if c.kind == "BLANK"]
        assert blank_times and min(blank_times) >= onset_record.t_s

    def test_missing_model_rejected(self):
        sc = ScenarioConfig(duration_s=0.2, policy=POLICY_FULL)
        with pytest.raises(MissingModelError):
            run_scenario(sc, None)

    def test_invalid_config_rejected(self):
        sc = ScenarioConfig(duration_s=0.2, policy="warp")
        with pytest.raises(InvalidConfigError):
            sc.validate()
        sc = ScenarioConfig(duration_s=0.2,
                            radar_schedule=[RadarWindow(0.1, 0.5, SCENARIO_PARAMS)])
        with pytest.raises(InvalidConfigError):
            sc.validate()

    def test_empty_sinr_schedule_rejected(self):
        sc = ScenarioConfig(duration_s=0.2, sinr_schedule=[])
        with pytest.raises(InvalidConfigError, match="sinr_schedule"):
            sc.validate()

    def test_unsorted_sinr_schedule_rejected(self):
        sc = ScenarioConfig(duration_s=0.2, sinr_schedule=[(0.1, 4.0), (0.0, 8.0)])
        with pytest.raises(InvalidConfigError, match="sinr_schedule"):
            sc.validate()

    def test_negative_offered_load_rejected(self):
        sc = ScenarioConfig(duration_s=0.2, offered_load_range_mbps=(-1.0, 5.0))
        with pytest.raises(InvalidConfigError, match="offered_load_range_mbps"):
            sc.validate()

    def test_inverted_offered_load_rejected(self):
        sc = ScenarioConfig(duration_s=0.2, offered_load_range_mbps=(5.0, 1.0))
        with pytest.raises(InvalidConfigError, match="offered_load_range_mbps"):
            sc.validate()

    def test_invalid_radar_params_rejected(self):
        bad = RadarParams(5e-6, 1000.0, 10, 10e-3)   # pulse width out of range
        sc = ScenarioConfig(duration_s=0.2,
                            radar_schedule=[RadarWindow(0.05, 0.1, bad)])
        with pytest.raises(InvalidConfigError, match=r"radar_schedule\[0\].*pulse_width_s"):
            sc.validate()

    def test_burst_longer_than_period_rejected(self):
        long_burst = RadarParams(26e-6, 1000.0, 10, 20e-3)
        sc = ScenarioConfig(duration_s=0.2,
                            radar_schedule=[RadarWindow(0.05, 0.1, long_burst)])
        with pytest.raises(InvalidConfigError, match="burst_length_s"):
            sc.validate()

    def test_period_shorter_than_stft_frame_rejected(self):
        sc = ScenarioConfig(duration_s=0.2, telemetry_period_s=50e-6)  # 768 samples
        with pytest.raises(InvalidConfigError, match="telemetry_period_s"):
            sc.validate()


    def test_negative_guard_prbs_rejected(self):
        sc = ScenarioConfig(duration_s=0.2, guard_prbs=-1)
        with pytest.raises(InvalidConfigError, match="guard_prbs"):
            sc.validate()

    def test_kpm_times_follow_a_matching_period(self):
        sc = ScenarioConfig(duration_s=0.1, telemetry_period_s=0.02, policy=POLICY_BASELINE)
        out = run_scenario(sc, None)
        assert [r.t_s for r in out.records] == pytest.approx([0.02, 0.04, 0.06, 0.08, 0.1])

    @pytest.mark.parametrize("kwargs, message", [
        ({"duration_s": 0.015},
         r"duration_s 0.015 is not a whole number \(>= 1\) of 0.01 s windows"),
        ({"duration_s": 0.05, "telemetry_period_s": 0.02}, "not a whole number"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_partial_window_or_negative_seed_rejected(self, kwargs, message):
        sc = ScenarioConfig(**{"duration_s": 0.2, **kwargs})
        with pytest.raises(InvalidConfigError, match=message):
            sc.validate()

    @pytest.mark.parametrize("kwargs, message", [
        ({"sinr_schedule": [(0.0, float("nan"))]},
         r"sinr_schedule\[0\].sinr_db must be a finite number, not nan"),
        ({"sinr_schedule": [(0.0, 8.0), (0.05, -np.inf)]}, r"sinr_schedule\[1\].sinr_db"),
        ({"sinr_schedule": [(np.nan, 8.0)]}, r"sinr_schedule\[0\].t_start_s"),
        ({"coupling_db": float("nan")}, "coupling_db must be a finite number"),
        ({"radar_schedule": [RadarWindow("0.05", 0.1, SCENARIO_PARAMS)]},
         r"radar_schedule\[0\].t_on_s must be a finite number, not '0.05'"),
        ({"n_stack": 1.5}, "n_stack must be an integer, not 1.5"),
        ({"guard_prbs": True}, "guard_prbs must be an integer, not True"),
        ({"seed": 3.0}, "seed must be an integer, not 3.0"),
        ({"coupling_db": "52"}, "coupling_db must be a finite number, not '52'"),
        ({"sinr_schedule": [(0.0, "8")]}, r"sinr_schedule\[0\].sinr_db must be a finite"),
        ({"offered_load_range_mbps": (1.0, np.inf)},
         r"offered_load_range_mbps\[1\] must be a finite number, not inf"),
        ({"offered_load_range_mbps": (True, 5.0)}, r"offered_load_range_mbps\[0\]"),
        ({"duration_s": "0.1"}, "duration_s must be a finite number, not '0.1'"),
        ({"telemetry_period_s": np.nan}, "telemetry_period_s must be a finite number"),
        ({"link": LinkConfig(base_sinr_db="35")}, "link.base_sinr_db must be a finite"),
        ({"link": LinkConfig(sinr_jitter_db=np.inf)}, "link.sinr_jitter_db must be a finite"),
        ({"radar_schedule": [RadarWindow(0.0, None, SCENARIO_PARAMS)]},
         r"radar_schedule\[0\].t_off_s must be a finite number, not None"),
        ({"sinr_schedule": 5}, "sinr_schedule must be a list, not int"),
        ({"offered_load_range_mbps": 3.0}, "offered_load_range_mbps must be a list, not float"),
        ({"radar_schedule": [(0.0, 0.05, SCENARIO_PARAMS)]},
         r"radar_schedule\[0\] must be a RadarWindow, not tuple"),
        ({"radar_schedule": RadarWindow(0.0, 0.05, SCENARIO_PARAMS)},
         "radar_schedule must be a list, not RadarWindow"),
        ({"link": None}, "link must be a LinkConfig, not NoneType"),
        ({"sinr_schedule": [5]}, r"sinr_schedule\[0\] must be a \(t_start_s, sinr_db\) pair, "
                                 r"not 5"),
        ({"sinr_schedule": [(0.0, 8.0, 1.0)]},
         r"sinr_schedule\[0\] must be a \(t_start_s, sinr_db\) pair, not \(0.0, 8.0, 1.0\)"),
        ({"radar_schedule": [RadarWindow(0.0, 0.05, None)]},
         r"radar_schedule\[0\].params must be a RadarParams, not NoneType"),
    ])
    def test_python_built_bad_number_rejected_by_name(self, kwargs, message):
        sc = ScenarioConfig(**{"duration_s": 0.1, "policy": POLICY_BASELINE, **kwargs})
        with pytest.raises(InvalidConfigError, match=message):
            sc.validate()
        with pytest.raises(InvalidConfigError, match=message):
            run_scenario(sc, None)

    @pytest.mark.parametrize("field, value", [
        ("center_offset_hz", np.nan), ("doppler_shift_hz", np.nan), ("burst_start_s", np.nan),
        ("burst_length_s", np.nan), ("pulses_per_burst", 2.5),
    ])
    def test_python_built_bad_radar_number_rejected_by_name(self, small_model, field, value):
        params = replace(SCENARIO_PARAMS, **{field: value})
        sc = ScenarioConfig(duration_s=0.1, radar_schedule=[RadarWindow(0.0, 0.05, params)])
        message = rf"radar_schedule\[0\]: {field} must be"
        with pytest.raises(InvalidConfigError, match=message):
            sc.validate()
        with pytest.raises(InvalidConfigError, match=message):
            run_scenario(sc, small_model)

    @pytest.mark.parametrize("kwargs, message", [
        ({"sinr_schedule": [(0.0, 5000.0)]},
         r"sinr_schedule\[0\].sinr_db 5000.0 with coupling_db 52.0 puts a radar power"),
        ({"sinr_schedule": [(0.0, 8.0), (0.05, 4000.0)]}, r"sinr_schedule\[1\].sinr_db 4000.0"),
        ({"coupling_db": 4000.0}, "coupling_db sets a level of 4000.0 dB"),
        ({"coupling_db": -4000.0}, "coupling_db sets a level of -4000.0 dB"),
        ({"coupling_db": 3000.0, "sinr_schedule": [(0.0, 100.0)]},
         r"sinr_schedule\[0\].sinr_db 100.0 with coupling_db 3000.0 puts a radar power"),
    ])
    def test_level_without_finite_power_rejected_by_name(self, small_model, kwargs, message):
        sc = ScenarioConfig(duration_s=0.05, radar_schedule=[RadarWindow(0.0, 0.05,
                                                                         SCENARIO_PARAMS)],
                            **kwargs)
        with pytest.raises(InvalidConfigError, match=message):
            sc.validate()
        for policy, model in ((POLICY_BASELINE, None), (POLICY_FULL, small_model)):
            with pytest.raises(InvalidConfigError, match=message):
                run_scenario(replace(sc, policy=policy), model)

    @pytest.mark.parametrize("sinr_db", [3050.0, 3100.0])
    def test_level_overflowing_in_the_division_rejected_without_a_warning(self, sinr_db):
        # the radar power and the coupling are finite; their ratio to the
        # per-PRB noise is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match=rf"sinr_schedule\[0\].sinr_db {sinr_db} "
                               "with coupling_db 52.0 puts a radar power") as info:
                ScenarioConfig(sinr_schedule=[(0.0, sinr_db)]).validate()
        assert "\n" not in str(info.value)

    def test_n_stack_against_detector_rejected_before_window_0(self, small_model):
        sc = ScenarioConfig(duration_s=0.05, n_stack=2,
                            radar_schedule=[RadarWindow(0.0, 0.05, SCENARIO_PARAMS)])
        sc.validate()
        with pytest.raises(InvalidConfigError,
                           match="n_stack 2 stacks 8 features, but the detector takes 4"):
            run_scenario(sc, small_model)
        # the baseline policy never infers, so it does not check
        assert run_scenario(replace(sc, policy=POLICY_BASELINE), small_model).records

    @pytest.mark.parametrize("duration_s, period_s", [(0.16, 0.01), (0.3, 0.1), (0.7, 0.1)])
    def test_rounded_whole_windows_accepted(self, duration_s, period_s):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        ScenarioConfig(duration_s=duration_s, telemetry_period_s=period_s).validate()

    @settings(max_examples=50, deadline=None)
    @given(period_s=st.floats(1024 / SAMPLE_RATE_HZ, 0.05), n_windows=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32))
    def test_any_valid_period_runs_on_its_own_clock(self, period_s, n_windows, seed):
        sc = ScenarioConfig(duration_s=n_windows * period_s, telemetry_period_s=period_s,
                            policy=POLICY_BASELINE, seed=seed)
        sc.validate()
        out = run_scenario(sc, None)
        assert out.summary["n_windows"] == n_windows
        expected = [(k + 1) * period_s for k in range(n_windows)]
        assert [r.t_s for r in out.records] == pytest.approx(expected, rel=1e-9)

    # Each example sets at most one drawn number to a value no number check
    # accepts.  LinkConfig itself rejects a NaN, negative or string jitter
    # when it is built, so the jitter takes only the others.
    _INVALID = [np.nan, np.inf, -np.inf, "8", True]
    _DRAWN = ["link.base_sinr_db", "link.sinr_jitter_db", "sinr_schedule[0].sinr_db",
              "sinr_schedule[1].t_start_s", "sinr_schedule[1].sinr_db",
              "offered_load_range_mbps[0]", "offered_load_range_mbps[1]"]

    @settings(max_examples=60, deadline=None)
    @given(policy=st.sampled_from(POLICIES), n_windows=st.integers(1, 5),
           radar_on=st.integers(0, 5), radar_len=st.integers(1, 5),
           base_sinr=st.floats(-10.0, 50.0) | st.just(1.5), jitter=st.floats(0.0, 3.0),
           sinrs=st.tuples(st.floats(-10.0, 20.0), st.floats(-10.0, 20.0)),
           step_frac=st.floats(0.0, 1.2),
           load_low=st.just(0.0) | st.floats(0.0, 10.0),
           load_width=st.just(0.0) | st.floats(0.0, 10.0), seed=st.integers(0, 2 ** 32),
           bad=st.none() | st.tuples(st.sampled_from(_DRAWN), st.sampled_from(_INVALID)).filter(
               lambda b: b[0] != "link.sinr_jitter_db" or b[1] in (np.inf, True)))
    def test_validated_config_runs_to_completion(self, small_model, policy, n_windows,
                                                 radar_on, radar_len, base_sinr, jitter, sinrs,
                                                 step_frac, load_low, load_width, seed, bad):
        period = 0.01
        duration = n_windows * period
        values = dict(zip(self._DRAWN, (base_sinr, jitter, sinrs[0], step_frac * duration,
                                        sinrs[1], load_low, load_low + load_width)))
        if bad is not None:
            values[bad[0]] = bad[1]
        base_sinr, jitter, sinr0, t_step, sinr1, load_low, load_high = values.values()
        radar = []
        if radar_on < n_windows:
            radar = [RadarWindow(radar_on * period, min(radar_on + radar_len, n_windows) * period,
                                 SCENARIO_PARAMS)]
        sc = ScenarioConfig(
            duration_s=duration, policy=policy, radar_schedule=radar, seed=seed,
            link=LinkConfig(base_sinr_db=base_sinr, sinr_jitter_db=jitter),
            sinr_schedule=[(0.0, sinr0), (t_step, sinr1)],
            offered_load_range_mbps=(load_low, load_high))
        try:
            out = run_scenario(sc, None if policy == POLICY_BASELINE else small_model)
        except InvalidConfigError as exc:
            # a valid draw fails only on a step that starts after the run ends
            names = [bad[0]] if bad else ["sinr_schedule entry outside duration"]
            assert any(name in str(exc) for name in names), str(exc)
            return
        assert bad is None
        assert len(out.records) == n_windows
        for r in out.records:
            assert all(math.isfinite(x) for x in (r.t_s, r.throughput_mbps, r.bler_pct,
                                                  r.mcs, r.bsr_bytes, r.sinr_db))


class TestYamlConfig:
    def test_round_trip(self, tmp_path):
        text = """
duration_s: 1.5
policy: blanking
seed: 42
sinr_schedule:
  - {t_start_s: 0.0, sinr_db: 8.0}
radar_schedule:
  - {t_on_s: 0.5, t_off_s: 1.0, pulse_width_s: 26.0e-6, prr_hz: 1000,
     pulses_per_burst: 10, center_offset_hz: 2.5e+6}
link: {base_sinr_db: 35.0}
"""
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        cfg = scenario_from_yaml(path)
        assert cfg.policy == "blanking"
        assert cfg.seed == 42
        assert cfg.radar_schedule[0].params.center_offset_hz == 2.5e6

    def test_bad_config(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("duration_s: 1.0\nradar_schedule:\n  - {t_on_s: 2.0, t_off_s: 0.5}\n")
        with pytest.raises(InvalidConfigError):
            scenario_from_yaml(path)

    def test_misspelt_radar_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "typo.yaml"
        path.write_text("duration_s: 1.0\nradar_schedule:\n"
                        "  - {t_on_s: 0.2, t_off_s: 0.5, pulse_widht_s: 40.0e-6}\n")
        with pytest.raises(InvalidConfigError,
                           match=r"radar_schedule\[0\].*'pulse_widht_s'"):
            scenario_from_yaml(path)

    def test_unknown_keys_rejected_by_name(self, tmp_path):
        path = tmp_path / "unknown.yaml"
        for text, where in (("duration_s: 1.0\nduraton_s: 2.0\n", "scenario config"),
                            ("link: {base_sinr_db: 30.0, jitter_db: 1.0}\n", "link"),
                            ("sinr_schedule:\n  - {t_start_s: 0.0, sinr_db: 8.0, db: 1}\n",
                             r"sinr_schedule\[0\]")):
            path.write_text(text)
            with pytest.raises(InvalidConfigError, match=where + r": unknown key"):
                scenario_from_yaml(path)

    @pytest.mark.parametrize("text, key", [
        ("duration_s: 0.05\npolicy: baseline\nduration_s: 0.1\n", "duration_s"),
        ("duration_s: 0.05\nlink: {base_sinr_db: 30.0, base_sinr_db: 31.0}\n", "base_sinr_db"),
        ("duration_s: 0.05\nradar_schedule:\n"
         "  - {t_on_s: 0.0, t_off_s: 0.05}\n  - {t_on_s: 0.0, t_on_s: 0.01}\n", "t_on_s"),
    ], ids=["top-level", "link", "radar-window"])
    def test_duplicated_key_rejected_by_name(self, tmp_path, text, key):
        path = tmp_path / "twice.yaml"
        path.write_text(text)
        with pytest.raises(InvalidConfigError, match=f"found the key '{key}' twice"):
            scenario_from_yaml(path)

    def test_list_root_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- duration_s: 1.0\n- policy: full\n")
        with pytest.raises(InvalidConfigError, match="mapping"):
            scenario_from_yaml(path)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "coexsim.harness.cli", *args],
                              capture_output=True, text=True)

    def test_gen_train_eval_pipeline(self, tmp_path):
        data = tmp_path / "kpm"
        r = self.run_cli("gen-dataset", "--kind", "kpm", "--out", str(data),
                         "--count", "20", "--seed", "3", "--sinrs", "0,8")
        assert r.returncode == 0, r.stderr
        model_path = tmp_path / "detector.npz"
        r = self.run_cli("train-detector", "--data", str(data), "--out",
                         str(model_path), "--epochs", "15")
        assert r.returncode == 0, r.stderr
        assert model_path.exists()
        report = tmp_path / "det.csv"
        r = self.run_cli("eval-detector", "--model", str(model_path),
                         "--data", str(data), "--report", str(report))
        assert r.returncode == 0, r.stderr
        assert report.read_text().startswith("sinr_db,accuracy,n_windows")

    def test_error_line_on_missing_data(self, tmp_path):
        r = self.run_cli("train-detector", "--data", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "m.npz"))
        assert r.returncode == 2
        assert r.stderr.startswith("error: MissingDataError:")

    def test_error_line_on_malformed_model(self, tmp_path):
        model_path = tmp_path / "m.npz"
        np.savez(model_path, weights=np.ones(3))
        r = self.run_cli("eval-detector", "--model", str(model_path),
                         "--data", str(tmp_path))
        assert r.returncode == 2
        assert r.stderr.startswith("error: InvalidParamsError:")
        assert len(r.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_error_line_on_non_finite_learning_rate(self, kpm_dataset, tmp_path, capsys, rate):
        model_path = tmp_path / "m.npz"
        assert cli.main(["train-detector", "--data", str(kpm_dataset), "--out",
                         str(model_path), "--learning-rate", rate]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParamsError: learning_rate must be finite")
        assert len(err.strip().splitlines()) == 1
        assert not model_path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_error_line_on_non_finite_model(self, small_model, kpm_dataset, tmp_path, capsys,
                                            value):
        weights = [w.copy() for w in small_model.weights]
        weights[0][0, 0] = value
        model_path = tmp_path / "m.npz"
        replace(small_model, weights=weights).save(model_path)
        assert cli.main(["eval-detector", "--model", str(model_path),
                         "--data", str(kpm_dataset)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParamsError: model file")
        assert "non-finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda m: replace(m, weights=[m.weights[0], m.weights[1][:, :5], *m.weights[2:]]),
         "W1 has shape (16, 5), not (16, 32)"),
        (lambda m: replace(m, feat_mean=m.feat_mean[:2]), "feat_mean has shape (2,), not (4,)"),
        (lambda m: replace(m, layer_sizes=(4, 32, 16)),
         "layer_sizes is [4, 32, 16], which does not end in the 2 classes"),
        (lambda m: replace(m, feat_std=np.zeros_like(m.feat_std)),
         "feat_std holds a value not above 0"),
        (lambda m: replace(m, layer_sizes=((4, 32), (16, 2))),
         "layer_sizes has shape (2, 2), not one dimension"),
        (lambda m: replace(m, weights=[m.weights[0].astype(object), *m.weights[1:]]),
         "W0 is not an array of numbers"),
        (lambda m: replace(m, feat_mean=m.feat_mean.astype(str)),
         "feat_mean is not an array of numbers"),
    ], ids=["W1-cut", "feat-mean-cut", "layer-sizes-without-head", "zero-feat-std",
            "2d-layer-sizes", "object-w0", "string-feat-mean"])
    @pytest.mark.parametrize("command", ["eval-detector", "run-scenario"])
    def test_error_line_on_model_arrays_against_layer_sizes(self, small_model, kpm_dataset,
                                                            tmp_path, capsys, edit, message,
                                                            command):
        model_path = tmp_path / "m.npz"
        edit(small_model).save(model_path)
        yaml_path = tmp_path / "ok.yaml"
        yaml_path.write_text("duration_s: 0.05\n")
        source = (["--data", str(kpm_dataset)] if command == "eval-detector"
                  else ["--config", str(yaml_path)])
        assert cli.main([command, "--model", str(model_path), *source]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: InvalidParamsError: model file {model_path}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("version, message", [
        (np.array([1, 1]), "format_version holds 2 values, not one"),
        (np.array(2), "unsupported model format version 2"),
        (np.array(np.nan), "unsupported model format version nan"),
    ], ids=["two-versions", "version-2", "nan-version"])
    def test_error_line_on_model_format_version(self, small_model, kpm_dataset, tmp_path,
                                                capsys, version, message):
        model_path = tmp_path / "m.npz"
        small_model.save(model_path)
        with np.load(model_path) as data:
            arrays = dict(data)
        np.savez(model_path, **{**arrays, "format_version": version})
        assert cli.main(["eval-detector", "--model", str(model_path),
                         "--data", str(kpm_dataset)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: InvalidParamsError: model file {model_path}: {message}\n"
        assert captured.out == ""

    def test_error_line_on_list_root_config(self, tmp_path):
        yaml_path = tmp_path / "list.yaml"
        yaml_path.write_text("- duration_s: 1.0\n")
        r = self.run_cli("run-scenario", "--config", str(yaml_path))
        assert r.returncode == 2
        assert r.stderr.startswith("error: InvalidConfigError:")
        assert len(r.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("content", [b"duration_s: [0.1\n", b"duration_s: 0.1\n# caf\xe9\n"],
                             ids=["malformed-yaml", "not-utf-8"])
    def test_error_line_on_unreadable_config(self, tmp_path, capsys, content):
        yaml_path = tmp_path / "bad.yaml"
        yaml_path.write_bytes(content)
        assert cli.main(["run-scenario", "--config", str(yaml_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidConfigError: {yaml_path}: ")
        assert len(err.strip().splitlines()) == 1

    # "" names tmp_path itself, a directory
    @pytest.mark.parametrize("config, model", [("", "model.npz"), ("ok.yaml", "")],
                             ids=["config", "model"])
    def test_error_line_on_directory_argument(self, tmp_path, capsys, config, model):
        (tmp_path / "ok.yaml").write_text("duration_s: 0.05\n")
        assert cli.main(["run-scenario", "--config", str(tmp_path / config),
                         "--model", str(tmp_path / model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: IsADirectoryError:")
        assert len(err.strip().splitlines()) == 1

    def test_error_line_on_non_mapping_link(self, tmp_path, capsys):
        yaml_path = tmp_path / "link.yaml"
        yaml_path.write_text("duration_s: 1.0\nlink: [35.0]\n")
        assert cli.main(["run-scenario", "--config", str(yaml_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidConfigError: link")
        assert len(err.strip().splitlines()) == 1

    def test_error_line_on_unknown_config_key(self, tmp_path, capsys):
        yaml_path = tmp_path / "typo.yaml"
        yaml_path.write_text("duration_s: 1.0\nradar_schedule:\n"
                             "  - {t_on_s: 0.2, t_off_s: 0.5, pulse_widht_s: 40.0e-6}\n")
        assert cli.main(["run-scenario", "--config", str(yaml_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidConfigError: radar_schedule[0]: unknown key")
        assert "pulse_widht_s" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        ("guard_prbs: -1\n", "guard_prbs must be >= 0"),
        ("output_dir: 5\n", "output_dir must be a string, not int"),
        ("link: {sinr_jitter_db: -0.5}\n", "bad scenario config: sinr_jitter_db"),
        ("link: {sinr_jitter_db: .nan}\n", "bad scenario config: sinr_jitter_db"),
        ("radar_schedule: {t_on_s: 0.0, t_off_s: 0.05}\n",
         "radar_schedule must be a list, not dict\n"),
        ("sinr_schedule: 5\n", "sinr_schedule must be a list, not int\n"),
    ])
    def test_error_line_on_invalid_field(self, tmp_path, capsys, text, message):
        yaml_path = tmp_path / "bad.yaml"
        yaml_path.write_text("duration_s: 0.05\npolicy: baseline\n" + text)
        assert cli.main(["run-scenario", "--config", str(yaml_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidConfigError: {message}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text, field", [
        ("duration_s: .inf\n", "duration_s must be a finite number, not inf"),
        ("duration_s: true\n", "duration_s must be a finite number, not True"),
        ("telemetry_period_s: .nan\n", "telemetry_period_s must be a finite number"),
        ("coupling_db: .nan\n", "coupling_db must be a finite number"),
        ("link: {base_sinr_db: .nan}\n", "base_sinr_db must be a finite number"),
        ("sinr_schedule:\n  - {t_start_s: 0.0, sinr_db: .nan}\n", "sinr_db must be a finite"),
        ("offered_load_range_mbps: [1.0, .inf]\n", r"offered_load_range_mbps\[1\] must be"),
        ("radar_schedule:\n  - {t_on_s: 0.0, t_off_s: 0.02, center_offset_hz: -.inf}\n",
         "center_offset_hz must be a finite number, not -inf"),
        ("n_stack: 1.7\n", "n_stack must be an integer, not 1.7"),
        ("guard_prbs: 2.5\n", "guard_prbs must be an integer, not 2.5"),
        ("seed: true\n", "seed must be an integer, not True"),
        ("radar_schedule:\n  - {t_on_s: 0.0, t_off_s: 0.02, pulses_per_burst: 5.5}\n",
         "pulses_per_burst must be an integer"),
    ])
    def test_error_line_on_bad_number(self, tmp_path, capsys, text, field):
        yaml_path = tmp_path / "bad.yaml"
        yaml_path.write_text("policy: baseline\n" + text)
        assert cli.main(["run-scenario", "--config", str(yaml_path)]) == 2
        err = capsys.readouterr().err
        assert re.match(rf"error: InvalidConfigError: bad scenario config: {field}", err)
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("duration_s, args, message", [
        ("0.015", [], "duration_s 0.015 is not a whole number"),
        ("0.02", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_error_line_on_partial_window_or_negative_seed(self, tmp_path, capsys,
                                                           duration_s, args, message):
        yaml_path = tmp_path / "bad.yaml"
        yaml_path.write_text(f"policy: baseline\nduration_s: {duration_s}\n")
        assert cli.main(["run-scenario", "--config", str(yaml_path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidConfigError: {message}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        ("sinr_schedule:\n  - {t_start_s: 0.0, sinr_db: 5000.0}\n",
         r"sinr_schedule\[0\].sinr_db 5000.0 with coupling_db 52.0 puts a radar power"),
        ("coupling_db: 4000.0\n", "coupling_db sets a level of 4000.0 dB"),
    ])
    def test_error_line_on_level_without_finite_power(self, tmp_path, capsys, text, message):
        yaml_path = tmp_path / "huge.yaml"
        yaml_path.write_text("duration_s: 0.05\npolicy: baseline\n"
                             "radar_schedule:\n  - {t_on_s: 0.0, t_off_s: 0.05}\n" + text)
        assert cli.main(["run-scenario", "--config", str(yaml_path)]) == 2
        err = capsys.readouterr().err
        assert re.match(rf"error: InvalidConfigError: {message}", err)
        assert len(err.strip().splitlines()) == 1

    def test_error_line_on_n_stack_against_detector(self, small_model, tmp_path, capsys):
        model_path = tmp_path / "detector.npz"
        small_model.save(model_path)
        yaml_path = tmp_path / "stack.yaml"
        yaml_path.write_text("duration_s: 0.05\nn_stack: 2\n"
                             "radar_schedule:\n  - {t_on_s: 0.0, t_off_s: 0.05}\n")
        assert cli.main(["run-scenario", "--config", str(yaml_path),
                         "--model", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidConfigError: n_stack 2 stacks 8 features")
        assert len(err.strip().splitlines()) == 1

    def test_period_from_yaml_stamps_kpms_and_commands(self, small_model, tmp_path):
        model_path = tmp_path / "detector.npz"
        small_model.save(model_path)
        yaml_path = tmp_path / "slow.yaml"
        yaml_path.write_text("duration_s: 0.4\ntelemetry_period_s: 0.02\n"
                             "radar_schedule:\n  - {t_on_s: 0.1, t_off_s: 0.3}\n")
        out = tmp_path / "run"
        assert cli.main(["run-scenario", "--config", str(yaml_path),
                         "--model", str(model_path), "--out", str(out)]) == 0
        records, _ = read_kpm_csv(out / "kpm_log.csv")
        expected = [0.02 * (k + 1) for k in range(20)]
        assert [r.t_s for r in records] == pytest.approx(expected)
        commands = list(read_csv(out / "command_log.csv"))
        assert commands
        assert all(float(c["t_s"]) in [r.t_s for r in records] for c in commands)

    def test_error_line_on_zero_count(self, tmp_path, capsys):
        out = tmp_path / "data"
        for kind, field in (("kpm", "items_per_class_per_sinr"),
                            ("spectrogram", "items_per_sinr")):
            assert cli.main(["gen-dataset", "--kind", kind, "--out", str(out),
                             "--count", "0"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: InvalidParamsError: {field}")
            assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_error_line_on_duplicated_config_key(self, tmp_path, capsys):
        yaml_path = tmp_path / "twice.yaml"
        yaml_path.write_text("duration_s: 0.05\npolicy: baseline\nduration_s: 0.1\n")
        assert cli.main(["run-scenario", "--config", str(yaml_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidConfigError: {yaml_path}: ")
        assert "found the key 'duration_s' twice" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("args", [["gen-dataset", "--kind", "kpm"],
                                      ["gen-dataset", "--kind", "spectrogram"],
                                      ["train-detector", "--data", "{kpm}"]],
                             ids=["kpm", "spectrogram", "train"])
    def test_error_line_on_negative_seed(self, kpm_dataset, tmp_path, capsys, args):
        out = tmp_path / "out"
        argv = [a.format(kpm=kpm_dataset) for a in args]
        target = out / "m.npz" if args[0] == "train-detector" else out
        assert cli.main([*argv, "--out", str(target), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParamsError: seed must be a non-negative "
                              "integer, not -1")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("min_sinr", [[], ["--min-sinr", "8"]], ids=["all", "min-sinr"])
    def test_error_line_on_kpm_set_given_to_eval_localizer(self, kpm_dataset, capsys,
                                                           min_sinr):
        assert cli.main(["eval-localizer", "--data", str(kpm_dataset), *min_sinr]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: MissingDataError: {kpm_dataset / 'items.csv'} is not "
                              "a spectrogram item list")
        assert "file_id, has_radar" in err
        assert len(err.strip().splitlines()) == 1

    def test_scenario_and_latency_report(self, tmp_path):
        data = tmp_path / "kpm"
        self.run_cli("gen-dataset", "--kind", "kpm", "--out", str(data),
                     "--count", "20", "--seed", "3", "--sinrs", "0,8")
        model_path = tmp_path / "detector.npz"
        self.run_cli("train-detector", "--data", str(data), "--out", str(model_path))
        yaml_path = tmp_path / "scenario.yaml"
        yaml_path.write_text(
            "duration_s: 0.3\npolicy: full\n"
            "radar_schedule:\n"
            "  - {t_on_s: 0.1, t_off_s: 0.2, pulse_width_s: 26.0e-6, prr_hz: 1000,\n"
            "     pulses_per_burst: 10, center_offset_hz: 2.5e+6}\n")
        out_dir = tmp_path / "run"
        r = self.run_cli("run-scenario", "--config", str(yaml_path),
                         "--model", str(model_path), "--out", str(out_dir))
        assert r.returncode == 0, r.stderr
        assert "mean_bler_pct=" in r.stdout
        r = self.run_cli("report-latency", "--scenario-out", str(out_dir))
        assert r.returncode == 0
        assert "mode2 total" in r.stdout

    @pytest.mark.parametrize("kind", ["kpm", "spectrogram"])
    @pytest.mark.parametrize("sinr", ["1e308", "3100", "nan"])
    def test_error_line_on_bad_sweep_sinr(self, tmp_path, capsys, kind, sinr):
        out = tmp_path / "out"
        assert cli.main(["gen-dataset", "--kind", kind, "--out", str(out),
                         "--sinrs", sinr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParamsError: sinr_sweep_db[0] ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("name, corrupt, message", [
        ("specs/item_00000.bin", lambda p: p.write_bytes(p.read_bytes()[:1000]),
         " holds 250 values, not the 1024 x 597 its sidecar names"),
        ("specs/item_00000.bin.meta",
         lambda p: p.write_text(re.sub(r"n_time_bins=\d+\n", "", p.read_text())),
         ": n_time_bins is missing"),
        ("specs/item_00000.bin.meta",
         lambda p: p.write_text(re.sub(r"n_time_bins=\d+", "n_time_bins=abc", p.read_text())),
         ": n_time_bins is 'abc', not an integer"),
        ("items.csv", lambda p: p.write_text(p.read_text().replace(",12.0,", ",eight,", 1)),
         " row 1: sinr_db is 'eight', not a number"),
        ("truth_boxes.csv", set_cell("f_low_hz", "abc"),
         " row 1: f_low_hz is 'abc', not a number"),
        ("truth_boxes.csv", set_cell("f_low_hz", "1e12"),
         " row 1: f_low_hz must be < f_high_hz"),
        ("truth_boxes.csv", set_cell("f_low_hz", "nan"),
         " row 1: f_low_hz is nan, not a finite number"),
        ("truth_boxes.csv", set_cell("t_start_s", "nan"),
         " row 1: t_start_s is nan, not a finite number"),
        ("truth_boxes.csv", set_cell("t_end_s", "inf"),
         " row 1: t_end_s is inf, not a finite number"),
        ("truth_boxes.csv", set_cell("class", "bogus"),
         " row 1: label is 'bogus', not 'radar' or 'cellular'"),
        ("truth_boxes.csv", lambda p: p.write_text(p.read_text().replace(",class,", ",", 1)),
         " lacks the column(s) class"),
        ("truth_boxes.csv", lambda p: p.write_text(p.read_text().replace("file_id,", "", 1)),
         " lacks the column(s) file_id"),
        ("specs/item_00000.bin.meta", lambda p: p.write_bytes(b"\xff\xfe=1\n" + p.read_bytes()),
         " is not UTF-8 text: invalid start byte at byte 0"),
        ("specs/item_00000.bin.meta",
         lambda p: p.write_text(re.sub(r"t_start_s=.*", "t_start_s=nan", p.read_text())),
         ": t_start_s is nan, not the STFT's 0.0"),
        ("specs/item_00000.bin.meta",
         lambda p: p.write_text(re.sub(r"f_start_hz=.*", "f_start_hz=-inf", p.read_text())),
         ": f_start_hz is -inf, not the STFT's -7680000.0"),
        ("specs/item_00000.bin.meta",
         lambda p: p.write_text(re.sub(r"time_resolution_s=.*", "time_resolution_s=inf",
                                       p.read_text())),
         ": time_resolution_s is inf, not the STFT's 1.6666666666666667e-05"),
        ("specs/item_00000.bin.meta",
         lambda p: p.write_text(re.sub(r"freq_resolution_hz=.*", "freq_resolution_hz=0",
                                       p.read_text())),
         ": freq_resolution_hz is 0.0, not the STFT's 15000.0"),
        ("specs/item_00000.bin.meta",
         lambda p: p.write_text(re.sub(r"freq_resolution_hz=.*", "freq_resolution_hz=7500.0",
                                       p.read_text())),
         ": freq_resolution_hz is 7500.0, not the STFT's 15000.0"),
    ], ids=["truncated-matrix", "missing-sidecar-key", "bad-sidecar-integer", "bad-item-cell",
            "bad-truth-cell", "truth-f-low-above-f-high", "nan-truth-f-low", "nan-truth-t-start",
            "inf-truth-t-end", "bogus-truth-class", "truth-lacks-class",
            "truth-lacks-file-id", "sidecar-not-utf-8", "nan-axis", "inf-axis",
            "inf-resolution", "zero-resolution", "other-resolution"])
    @pytest.mark.parametrize("min_sinr", [[], ["--min-sinr", "8"]], ids=["all", "min-sinr"])
    def test_error_line_on_corrupt_spectrogram_set(self, spectro_dataset, tmp_path, capsys,
                                                   name, corrupt, message, min_sinr):
        data = tmp_path / "specs"
        shutil.copytree(spectro_dataset, data)
        corrupt(data / name)
        assert cli.main(["eval-localizer", "--data", str(data), *min_sinr]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: InvalidParamsError: {data / name}{message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["items.csv", "truth_boxes.csv"])
    @pytest.mark.parametrize("min_sinr", [[], ["--min-sinr", "8"]], ids=["all", "min-sinr"])
    def test_error_line_on_non_utf8_spectrogram_csv(self, spectro_dataset, tmp_path, capsys,
                                                    name, min_sinr):
        data = tmp_path / "specs"
        shutil.copytree(spectro_dataset, data)
        path = data / name
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\xff\xfe")
        assert cli.main(["eval-localizer", "--data", str(data), *min_sinr]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: InvalidParamsError: {path} is not UTF-8 text: "
                                f"invalid start byte at byte {size}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["kpm_dataset.csv", "items.csv"])
    def test_error_line_on_non_utf8_kpm_csv(self, kpm_dataset, tmp_path, capsys, name):
        data = tmp_path / "kpm"
        shutil.copytree(kpm_dataset, data)
        path = data / name
        size = path.stat().st_size  # kpm_dataset.csv spans several decoded chunks
        path.write_bytes(path.read_bytes() + b"\xff\xfe")
        model_path = tmp_path / "m.npz"
        assert cli.main(["train-detector", "--data", str(data), "--out", str(model_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: InvalidParamsError: {path} is not UTF-8 text: "
                                f"invalid start byte at byte {size}\n")
        assert captured.out == ""
        assert not model_path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["gen-dataset", "--kind", "kpm", "--out", "{out}", "--seed", "1.5"],
         "argument --seed: invalid int value: '1.5'"),
        (["gen-dataset", "--kind", "kpm", "--out", "{out}", "--sinrs", "abc"],
         "argument --sinrs: 'abc' is not a comma-separated list of numbers"),
        (["eval-localizer", "--data", "{out}", "--min-sinr", "abc"],
         "argument --min-sinr: invalid float value: 'abc'"),
        (["gen-dataset", "--kind", "kpm"], "the following arguments are required: --out"),
    ], ids=["seed", "sinrs", "min-sinr", "missing-out"])
    def test_error_line_on_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert cli.main([a.format(out=out) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: InvalidParamsError: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-dataset", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: coexsim gen-dataset [-h] --kind")
        assert captured.err == ""

    def test_error_line_on_corrupt_kpm_set(self, kpm_dataset, tmp_path, capsys):
        data = tmp_path / "kpm"
        shutil.copytree(kpm_dataset, data)
        path = data / "kpm_dataset.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[lines[0].split(",").index("bler_pct")] = "abc"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "m.npz"
        assert cli.main(["train-detector", "--data", str(data), "--out", str(model_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: InvalidParamsError: {path} row 3: bler_pct is 'abc', "
                                "not a number\n")
        assert captured.out == ""
        assert not model_path.exists()

    def test_error_line_on_nan_min_sinr(self, spectro_dataset, capsys):
        assert cli.main(["eval-localizer", "--data", str(spectro_dataset),
                         "--min-sinr", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: InvalidParamsError: min_sinr_db is nan")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
