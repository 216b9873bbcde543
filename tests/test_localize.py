from concurrent.futures import ThreadPoolExecutor
import hashlib
import importlib
import multiprocessing
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from coexsim.errors import InvalidParamsError
from coexsim.localize import (
    CELLULAR,
    NOISE_FLOOR_PERCENTILE,
    RADAR,
    FreqTimeBox,
    MERGE_GAP_BINS,
    _ROW_BLOCK,
    _component_members,
    _dilate_square,
    _row_quantile,
    evaluate_localizer,
    iou,
    localize,
    radar_freq_extent,
    radar_truth_boxes,
    read_box_records,
    write_box_records,
)
from coexsim.signals import (
    IqBuffer,
    RadarParams,
    SinrSpec,
    gen_cellular_baseband,
    gen_radar_pulse_train,
    mix_at_sinr,
    sensing_capture,
)
from coexsim.spectro import stft_spectrogram

# The package attribute ``coexsim.localize`` is the function, so the module
# whose constants a test sets comes from the import system.
LOCALIZE_MODULE = importlib.import_module("coexsim.localize")
FS = 15.36e6


def make_composite(sinr_db, offset_hz=2.5e6, pulse_width_s=26e-6, seed=0):
    rng = np.random.default_rng(seed)
    params = RadarParams(pulse_width_s, 1000.0, 5, 10e-3,
                         center_offset_hz=offset_hz,
                         burst_start_s=rng.uniform(0, 4e-3))
    radar = gen_radar_pulse_train(params, 10e-3)
    cell = gen_cellular_baseband(None, 10e-3, seed=int(rng.integers(2 ** 31)))
    out, _ = mix_at_sinr(radar, cell, SinrSpec.from_target(sinr_db),
                         seed=int(rng.integers(2 ** 31)))
    return out, radar, params


def box(f0, f1, t0, t1, label=RADAR, conf=1.0):
    return FreqTimeBox(f0, f1, t0, t1, label, conf)


def find_objects_members(active, radius):
    """Reference grouping: per-label bounding-box slices, masked, in raster order."""
    square = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    dilated = ndimage.binary_dilation(active, structure=square)
    labels, _ = ndimage.label(dilated, structure=np.ones((3, 3), dtype=bool))
    members = []
    for comp, sl in enumerate(ndimage.find_objects(labels), start=1):
        if sl is None:
            continue
        rows_rel, cols_rel = np.nonzero((labels[sl] == comp) & active[sl])
        members.append((rows_rel + sl[0].start, cols_rel + sl[1].start))
    return members


def full_grid_members(active, radius):
    """Reference: ``_component_members`` as it was, dilating and labelling the
    whole grid."""
    rows, cols = np.nonzero(active)
    if rows.size == 0:
        return []
    labels, _ = ndimage.label(_dilate_square(active, radius),
                              structure=np.ones((3, 3), dtype=bool))
    comp = labels[rows, cols]
    order = np.argsort(comp, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(comp[order])) + 1)
    return [(rows[g], cols[g]) for g in groups]


class TestIou:
    def test_identical(self):
        a = box(2.4e6, 2.6e6, 0.0, 1e-3)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        a = box(2.4e6, 2.6e6, 0.0, 1e-3)
        b = box(3.0e6, 3.2e6, 0.0, 1e-3)
        assert iou(a, b) == 0.0

    def test_left_half(self):
        a = box(0.0, 2.0e6, 0.0, 1e-3)
        b = box(0.0, 1.0e6, 0.0, 1e-3)
        assert iou(a, b) == pytest.approx(0.5)

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            f = np.sort(rng.uniform(-5e6, 5e6, 4))
            t = np.sort(rng.uniform(0, 10e-3, 4))
            a = box(f[0], f[2], t[0], t[2])
            b = box(f[1], f[3], t[1], t[3])
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0
            assert iou(a, a) == 1.0

    def test_invalid_box(self):
        with pytest.raises(InvalidParamsError):
            box(2.6e6, 2.4e6, 0.0, 1e-3)


class TestLocalize:
    def test_cellular_only_has_no_radar_boxes(self):
        cell = gen_cellular_baseband(None, 10e-3, seed=1)
        spec0 = SinrSpec(float("-inf"), -112.0103, -112.0103)
        out, _ = mix_at_sinr(IqBuffer(np.zeros(cell.n_samples)), cell,
                             spec0, seed=2)
        boxes = localize(stft_spectrogram(out))
        assert not [b for b in boxes if b.label == RADAR]

    def test_single_radar_box_contains_main_lobe(self):
        out, radar, params = make_composite(12.0, seed=3)
        boxes = [b for b in localize(stft_spectrogram(out))
                 if b.label == RADAR]
        assert boxes
        extent = radar_freq_extent(boxes)
        lobe = params.main_lobe_half_width_hz
        # the union of per-pulse boxes covers the pulse main lobe region
        assert extent[0] <= params.carrier_hz - lobe / 2
        assert extent[1] >= params.carrier_hz + lobe / 2
        truths = radar_truth_boxes(stft_spectrogram(radar))
        metrics = evaluate_localizer([boxes], [truths])
        assert metrics.recall >= 0.8
        assert metrics.mean_iou >= 0.5

    def test_strong_persistent_wideband_yields_no_box(self):
        # An always-on occupant sets its own rows' floors, so none of its
        # bins clears them.
        cell = gen_cellular_baseband(None, 10e-3, seed=4)
        spec0 = SinrSpec(float("-inf"), -97.0, -112.0)  # cellular 15 dB over noise
        out, _ = mix_at_sinr(IqBuffer(np.zeros(cell.n_samples)), cell,
                             spec0, seed=5)
        assert localize(stft_spectrogram(out)) == []

    def test_noise_only_empty(self):
        noise_spec = SinrSpec(float("-inf"), float("-inf"), -112.0)
        silent = IqBuffer(np.zeros(153600))
        out, _ = mix_at_sinr(silent, silent, noise_spec, seed=6)
        assert localize(stft_spectrogram(out)) == []

    def test_dilation_soundness(self):
        # higher threshold: the bins of every high-threshold group lie inside
        # the bins of one low-threshold group over the same spectrogram
        out, _, _ = make_composite(12.0, seed=7)
        lin = stft_spectrogram(out)
        row_floor = (_row_quantile(lin, NOISE_FLOOR_PERCENTILE)
                     / (-np.log(1.0 - NOISE_FLOOR_PERCENTILE / 100.0)))
        radius = max(1, int(np.ceil(MERGE_GAP_BINS / 2)))

        def groups(threshold_db):
            active = lin > row_floor[:, None] * 10.0 ** (threshold_db / 10.0)
            return [set(zip(rows.tolist(), cols.tolist()))
                    for rows, cols in _component_members(active, radius)]

        low = groups(8.0)
        high = groups(12.0)
        assert high
        for bins in high:
            assert any(bins <= sup for sup in low)

    def test_fortran_and_c_order_give_equal_boxes(self, monkeypatch):
        out, _, _ = make_composite(10.0, seed=9)
        c_power = stft_spectrogram(out)
        f_power = np.asfortranarray(c_power)
        assert c_power.flags.c_contiguous
        assert f_power.flags.f_contiguous
        assert not f_power.flags.c_contiguous
        for merge_gap_bins in (MERGE_GAP_BINS, 6):
            monkeypatch.setattr(LOCALIZE_MODULE, "MERGE_GAP_BINS", merge_gap_bins)
            c_boxes = localize(c_power)
            assert c_boxes
            assert localize(f_power) == c_boxes

    @pytest.mark.parametrize("seed", range(5))
    def test_truth_boxes_equal_in_both_layouts(self, seed):
        # The column sums reduce along the strided axis of a C-order matrix.
        _, radar, _ = make_composite(8.0, pulse_width_s=13e-6 + 9e-6 * seed, seed=seed)
        c_power = stft_spectrogram(radar)
        f_power = np.asfortranarray(c_power)
        assert c_power.flags.c_contiguous
        assert not f_power.flags.c_contiguous
        c_boxes = radar_truth_boxes(c_power)
        assert len(c_boxes) == 5
        assert radar_truth_boxes(f_power) == c_boxes

    def test_confidence_in_unit_interval(self):
        out, _, _ = make_composite(8.0, seed=8)
        for b in localize(stft_spectrogram(out)):
            assert 0.0 <= b.confidence <= 1.0


class TestExactRewrites:
    """The fast row statistics, dilation and component grouping equal the
    numpy/scipy calls bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), merge_gap_bins=st.integers(1, 6),
           rows=st.integers(1, 30), cols=st.integers(1, 30),
           density=st.floats(0.0, 0.3))
    def test_separable_dilation_equals_binary_dilation(self, seed, merge_gap_bins,
                                                        rows, cols, density):
        rng = np.random.default_rng(seed)
        mask = rng.random((rows, cols)) < density
        # blobs on every border, where the zero border value matters
        mask[0, rng.integers(cols)] = mask[-1, rng.integers(cols)] = True
        mask[rng.integers(rows), 0] = mask[rng.integers(rows), -1] = True
        radius = max(1, int(np.ceil(merge_gap_bins / 2)))
        square = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
        expected = ndimage.binary_dilation(mask, structure=square)
        for layout in (mask, np.asfortranarray(mask)):
            got = _dilate_square(layout, radius)
            assert got.dtype == bool
            assert np.array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           rows=st.sampled_from([1, 2, 7, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
                                 2 * _ROW_BLOCK + 1, 1024]),
           width=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 597]),
           pct=st.sampled_from([20.0, 50.0, 25, 12.5, 0.5, 99.5])
           | st.floats(0.001, 99.999),
           ties=st.booleans())
    @example(seed=0, rows=1024, width=597, pct=NOISE_FLOOR_PERCENTILE, ties=False)
    @example(seed=1, rows=1, width=597, pct=NOISE_FLOOR_PERCENTILE, ties=False)
    @example(seed=2, rows=2, width=597, pct=NOISE_FLOOR_PERCENTILE, ties=False)
    @example(seed=3, rows=_ROW_BLOCK - 1, width=597, pct=NOISE_FLOOR_PERCENTILE, ties=False)
    @example(seed=4, rows=_ROW_BLOCK + 1, width=597, pct=NOISE_FLOOR_PERCENTILE, ties=False)
    @example(seed=5, rows=2 * _ROW_BLOCK + 1, width=597, pct=NOISE_FLOOR_PERCENTILE, ties=False)
    def test_one_partition_equals_percentile(self, seed, rows, width, pct, ties):
        # row counts around the block size and the two-way split of the
        # blocks: a short last block, none, one row, one block each side
        rng = np.random.default_rng(seed)
        lin = 10.0 ** (rng.normal(-9.0, 1.5, (rows, width)))
        if ties:
            lin = np.round(lin, 10)
        for layout in (lin, np.asfortranarray(lin)):
            quantile = _row_quantile(layout, pct)
            assert quantile.tobytes() == np.percentile(lin, pct, axis=1).tobytes()


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), merge_gap_bins=st.integers(1, 6),
           rows=st.integers(1, 40), cols=st.integers(1, 60),
           density=st.floats(0.0, 0.08), n_blobs=st.integers(0, 6),
           border=st.booleans())
    def test_label_indexed_members_equal_find_objects(self, seed, merge_gap_bins,
                                                      rows, cols, density,
                                                      n_blobs, border):
        rng = np.random.default_rng(seed)
        mask = rng.random((rows, cols)) < density
        for _ in range(n_blobs):
            r0, c0 = rng.integers(rows), rng.integers(cols)
            h, w = rng.integers(1, 8, size=2)
            sub = mask[r0:r0 + h, c0:c0 + w]
            sub |= rng.random(sub.shape) < 0.7
        if border:
            mask[0, rng.integers(cols)] = mask[-1, rng.integers(cols)] = True
            mask[rng.integers(rows), 0] = mask[rng.integers(rows), -1] = True
        radius = max(1, int(np.ceil(merge_gap_bins / 2)))
        expected = find_objects_members(mask, radius)
        for layout in (mask, np.asfortranarray(mask)):
            got = _component_members(layout, radius)
            assert len(got) == len(expected)
            for (got_rows, got_cols), (exp_rows, exp_cols) in zip(got, expected):
                assert got_rows.dtype == exp_rows.dtype
                assert got_rows.tolist() == exp_rows.tolist()
                assert got_cols.tolist() == exp_cols.tolist()


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), radius=st.integers(1, 4),
           rows=st.integers(1, 120), cols=st.integers(1, 120),
           density=st.floats(0.001, 0.5), borders=st.booleans())
    def test_line_dropping_members_equal_full_grid(self, seed, radius, rows, cols,
                                                   density, borders):
        rng = np.random.default_rng(seed)
        mask = rng.random((rows, cols)) < density
        if borders:
            mask[0, rng.integers(cols)] = mask[-1, rng.integers(cols)] = True
            mask[rng.integers(rows), 0] = mask[rng.integers(rows), -1] = True
        expected = full_grid_members(mask, radius)
        for layout in (mask, np.asfortranarray(mask)):
            got = _component_members(layout, radius)
            assert len(got) == len(expected)
            for (got_rows, got_cols), (exp_rows, exp_cols) in zip(got, expected):
                assert got_rows.dtype == exp_rows.dtype
                assert got_rows.tobytes() == exp_rows.tobytes()
                assert got_cols.tobytes() == exp_cols.tobytes()


    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), radius=st.integers(1, 4),
           n_scattered=st.integers(0, 300), n_blobs=st.integers(0, 4),
           borders=st.booleans())
    def test_spectrogram_sized_members_equal_2d_nonzero(self, seed, radius, n_scattered,
                                                        n_blobs, borders):
        # the Mode-2 grid: 1024 bins by 597 columns, a few hundred cells active
        rng = np.random.default_rng(seed)
        mask = np.zeros((1024, 597), dtype=bool)
        mask.flat[rng.integers(mask.size, size=n_scattered)] = True
        for _ in range(n_blobs):
            r0, c0 = rng.integers(1024), rng.integers(597)
            sub = mask[r0:r0 + rng.integers(1, 40), c0:c0 + rng.integers(1, 12)]
            sub |= rng.random(sub.shape) < 0.5
        if borders:
            mask[0, rng.integers(597)] = mask[-1, rng.integers(597)] = True
            mask[rng.integers(1024), 0] = mask[rng.integers(1024), -1] = True
        expected = full_grid_members(mask, radius)
        got = _component_members(mask, radius)
        assert len(got) == len(expected)
        for (got_rows, got_cols), (exp_rows, exp_cols) in zip(got, expected):
            assert got_rows.dtype == exp_rows.dtype and got_cols.dtype == exp_cols.dtype
            assert got_rows.tobytes() == exp_rows.tobytes()
            assert got_cols.tobytes() == exp_cols.tobytes()


class TestRecallSweep:
    def test_recall_targets_and_monotonicity(self):
        recalls = {}
        rng = np.random.default_rng(42)
        for sinr in [0.0, 4.0, 8.0, 12.0]:
            preds, truths = [], []
            for i in range(25):
                pw = rng.uniform(13e-6, 52e-6)
                prr = rng.uniform(500, 1100)
                start = rng.uniform(0, 10e-3 - (4 / prr + pw) - 1e-4)
                params = RadarParams(pw, prr, 5, 10e-3,
                                     center_offset_hz=rng.choice([-2.5e6, 0.0, 2.5e6]),
                                     burst_start_s=start)
                radar = gen_radar_pulse_train(params, 10e-3)
                cell = gen_cellular_baseband(None, 10e-3, seed=int(rng.integers(2 ** 31)))
                out, _ = mix_at_sinr(radar, cell, SinrSpec.from_target(sinr),
                                     seed=int(rng.integers(2 ** 31)))
                preds.append([b for b in localize(stft_spectrogram(out))
                              if b.label == RADAR])
                truths.append(radar_truth_boxes(stft_spectrogram(radar)))
            recalls[sinr] = evaluate_localizer(preds, truths).recall
        assert recalls[8.0] >= 0.9
        assert recalls[12.0] >= 0.9
        # near-monotone in SINR
        order = sorted(recalls)
        for lo, hi in zip(order, order[1:]):
            assert recalls[hi] >= recalls[lo] - 0.02


class TestEvaluate:
    def test_perfect_predictions(self):
        truths = [[box(2.4e6, 2.6e6, 0.0, 1e-3)], [box(0.0, 1e6, 0.0, 2e-3)]]
        m = evaluate_localizer(truths, truths)
        assert m.recall == m.precision == m.mean_iou == 1.0

    def test_empty_predictions(self):
        truths = [[box(2.4e6, 2.6e6, 0.0, 1e-3)]]
        m = evaluate_localizer([[]], truths)
        assert m.recall == 0.0

    def test_counting(self):
        # 10 truths, 9 matched at IoU 0.6 (left-biased boxes), 1 unmatched
        truths, preds = [], []
        for i in range(10):
            t = box(i * 1e5, i * 1e5 + 8e4, 0.0, 1e-3)
            truths.append(t)
            if i < 9:
                # overlap 6e4 of union 1e5 -> IoU 0.6
                preds.append(box(i * 1e5 - 2e4, i * 1e5 + 6e4, 0.0, 1e-3))
        m = evaluate_localizer([preds], [truths])
        assert m.recall == pytest.approx(0.9)
        assert m.mean_iou == pytest.approx(0.6, abs=0.01)

    def test_class_aware(self):
        t = [box(0.0, 1e6, 0.0, 1e-3, label=RADAR)]
        p = [box(0.0, 1e6, 0.0, 1e-3, label=CELLULAR)]
        m = evaluate_localizer([p], [t])
        assert m.recall == 0.0


class TestRadarFreqExtent:
    def test_empty(self):
        assert radar_freq_extent([]) is None
        assert radar_freq_extent([box(0.0, 1e6, 0.0, 1e-3, label=CELLULAR)]) is None

    def test_single(self):
        assert radar_freq_extent([box(2.4e6, 2.6e6, 0.0, 1e-3)]) == (2.4e6, 2.6e6)

    def test_union(self):
        boxes = [box(2.4e6, 2.6e6, 0.0, 1e-3), box(2.55e6, 2.7e6, 2e-3, 3e-3)]
        assert radar_freq_extent(boxes) == (2.4e6, 2.7e6)


class TestBoxRecords:
    def test_round_trip(self, tmp_path):
        records = [("item_0001", box(2.4e6, 2.6e6, 0.0, 1e-3, RADAR, 0.9)),
                   ("item_0002", box(-4.5e6, 4.5e6, 0.0, 10e-3, CELLULAR, 0.5))]
        path = tmp_path / "boxes.csv"
        write_box_records(path, records)
        back = read_box_records(path)
        assert len(back) == 2
        assert back[0][0] == "item_0001"
        assert back[0][1] == records[0][1]
        assert back[1][1].label == CELLULAR


def _stft_and_boxes(iq):
    """The STFT's SHA-256 and ``localize``'s boxes for ``iq``."""
    power = stft_spectrogram(iq)
    return hashlib.sha256(power.tobytes()).hexdigest(), localize(power)


def _send_stft_and_boxes(iq, conn):
    conn.send(_stft_and_boxes(iq))
    conn.close()


class TestForkedChild:
    def test_child_forked_after_a_split_gives_the_parents_bytes(self):
        """The parent's helper thread does not survive a fork; the child splits
        on a fresh one, where the parent's executor would leave its jobs
        waiting forever."""
        iq, _, _ = make_composite(8.0, seed=5)
        want = _stft_and_boxes(iq)  # the parent has split before it forks
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_stft_and_boxes, args=(iq, sender))
        child.start()
        sender.close()
        try:
            answered = receiver.poll(60)
            got = receiver.recv() if answered else None
        finally:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
        assert answered, "the forked child gave no answer within 60 s"
        assert child.exitcode == 0
        assert got == want


def _capture_stft_and_boxes(seed):
    """A capture's SHA-256, then ``_stft_and_boxes`` of it."""
    radar = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6 - 1e6 * seed)
    iq, _, _ = sensing_capture(radar, 8.0, 10e-3, seed, seed + 100, measure_achieved=False)
    return hashlib.sha256(iq.samples.tobytes()).hexdigest(), *_stft_and_boxes(iq)


class TestConcurrentCallers:
    def test_threads_sharing_the_helper_give_one_threads_bytes(self):
        """Callers on more threads than cores queue their halves on the one
        helper thread; each still gets the bytes of a lone call."""
        seeds = list(range(4))
        want = [_capture_stft_and_boxes(seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(_capture_stft_and_boxes, seeds * 2, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 2
