"""Energy-threshold localization of signals in spectrograms.

The reference localizer is deliberately simple and deterministic so its
outputs can be reasoned about; it sits behind a plain function interface so
a learned detector can be dropped in instead.  Detection runs on two paths:

* transient path: bins exceeding a per-row noise floor (20th-percentile
  quantile estimate scaled to mean-equivalent for exponential periodogram
  statistics) by ``THRESHOLD_DB_ABOVE_FLOOR``; 8-connected components are
  merged across small gaps and kept if large enough.  This finds pulsed
  emitters even inside an occupied band, since the row floor tracks the
  local background.
* persistent path: rows whose mean power exceeds the quietest-row floor by
  the same threshold; contiguous runs become full-duration boxes.  This
  finds always-on wideband occupants that the per-row floor would otherwise
  absorb.

Box extents are then refined with floor-subtracted energy profiles trimmed
contiguously from the peak (TIME_TRIM_DB for columns, FREQ_TRIM_DB for
rows), which makes the reported extent depend on the signal's shape rather
than on how far above the detection threshold it happens to sit.

Classification is heuristic: a box is ``cellular`` when its time duty is
high and it is wide (persistent wideband occupancy), otherwise ``radar``.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy import ndimage

from .errors import InvalidParamsError
from .fileio import parse_field, read_csv, write_csv
from .spectro import Spectrogram

RADAR = "radar"
CELLULAR = "cellular"

_PAD_ROWS = 8   # refinement window margin beyond detected bins
_PAD_COLS = 3
_ROW_BLOCK = 64  # rows per copy in the row statistics: 300 KB at 597 columns

NOISE_FLOOR_PERCENTILE = 20.0
THRESHOLD_DB_ABOVE_FLOOR = 10.0  # a bin, or a row's median, is occupied this far above its floor
MERGE_GAP_BINS = 3  # sets the merging dilation, and the row gap a persistent run bridges
MIN_BOX_BINS = 4
MIN_BOX_ROWS = 2  # rejects single-bin noise spikes smeared across overlapped columns
CELLULAR_DUTY_THRESHOLD = 0.8
CELLULAR_MIN_BANDWIDTH_HZ = 1.8e6  # 10 PRB equivalents
TIME_TRIM_DB = 6.0   # extent trims below the peak of the column and row energy
FREQ_TRIM_DB = 10.0
PULSE_GAP_COLS = 8   # truth boxes: active columns further apart start a new pulse
DYNAMIC_RANGE_DB = 40.0  # truth boxes: active columns lie within this of the peak
IOU_THRESHOLD = 0.5  # a matched prediction recalls its truth box at this IoU


@dataclass(frozen=True)
class FreqTimeBox:
    """Axis-aligned box in the (frequency, time) plane."""

    f_low_hz: float
    f_high_hz: float
    t_start_s: float
    t_end_s: float
    label: str = RADAR
    confidence: float = 1.0

    def __post_init__(self):
        for name in ("f_low_hz", "f_high_hz", "t_start_s", "t_end_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParamsError(f"{name} is {value!r}, not a finite number")
        if self.label not in (RADAR, CELLULAR):
            raise InvalidParamsError(f"label is {self.label!r}, not {RADAR!r} or "
                                     f"{CELLULAR!r}")
        if not self.f_low_hz < self.f_high_hz:
            raise InvalidParamsError("f_low_hz must be < f_high_hz")
        if self.t_start_s > self.t_end_s:
            raise InvalidParamsError("t_start_s must be <= t_end_s")
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidParamsError("confidence must be in [0, 1]")

    @property
    def bandwidth_hz(self) -> float:
        return self.f_high_hz - self.f_low_hz

    @property
    def duration_s(self) -> float:
        return self.t_end_s - self.t_start_s


def _contiguous_span(profile: np.ndarray, trim_db: float) -> tuple[int, int]:
    """Run of indices around the argmax staying within trim_db of the peak."""
    peak = int(np.argmax(profile))
    cut = profile[peak] * 10.0 ** (-trim_db / 10.0)
    lo = peak
    while lo > 0 and profile[lo - 1] >= cut:
        lo -= 1
    hi = peak
    while hi < len(profile) - 1 and profile[hi + 1] >= cut:
        hi += 1
    return lo, hi


def _refine_extent(lin: np.ndarray, floor_lin: np.ndarray, rows_idx: np.ndarray,
                   cols_idx: np.ndarray) -> tuple[int, int, int, int]:
    """Floor-subtracted, peak-contiguous extent trim around a component."""
    n_rows, n_cols = lin.shape
    r0 = max(0, int(rows_idx.min()) - _PAD_ROWS)
    r1 = min(n_rows, int(rows_idx.max()) + 1 + _PAD_ROWS)
    c0 = max(0, int(cols_idx.min()) - _PAD_COLS)
    c1 = min(n_cols, int(cols_idx.max()) + 1 + _PAD_COLS)
    win = np.maximum(lin[r0:r1, c0:c1] - floor_lin[r0:r1, None], 0.0)
    col_energy = win.sum(axis=0)
    clo, chi = _contiguous_span(col_energy, TIME_TRIM_DB)
    row_energy = win[:, clo:chi + 1].sum(axis=1)
    rlo, rhi = _contiguous_span(row_energy, FREQ_TRIM_DB)
    return r0 + rlo, r0 + rhi, c0 + clo, c0 + chi


def _bins_to_box(spec: Spectrogram, rmin: int, rmax: int, cmin: int, cmax: int,
                 label: str, confidence: float) -> FreqTimeBox:
    return FreqTimeBox(
        f_low_hz=spec.f_start_hz + rmin * spec.freq_resolution_hz,
        f_high_hz=spec.f_start_hz + (rmax + 1) * spec.freq_resolution_hz,
        t_start_s=spec.t_start_s + cmin * spec.time_resolution_s,
        t_end_s=spec.t_start_s + (cmax + 1) * spec.time_resolution_s,
        label=label,
        confidence=confidence,
    )


def _squash_confidence(mean_excess_db: float) -> float:
    return float(np.clip(1.0 - math.exp(-max(mean_excess_db, 0.0) / 10.0), 0.0, 1.0))


def _row_quantile_and_median(lin: np.ndarray, pct: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``pct``-th percentile and median of ``lin``, sorted a block of rows at a time.

    For finite input both equal ``np.percentile(lin, pct, axis=1)`` and
    ``np.median(lin, axis=1)`` bit for bit: they take the same order
    statistics and combine them with numpy's own arithmetic (its linear
    interpolation, and the mean of the two middle elements at even width).
    Each block of ``_ROW_BLOCK`` rows is copied into one small buffer and
    sorted there, so no copy of the whole matrix is mapped afresh on every
    call.  numpy vectorizes row sorts but not a multi-kth partition, and at
    spectrogram widths a sort also beats two single-kth partitions (median,
    then quantile): each pays the same per-row cost.
    """
    n_rows, n = lin.shape
    virtual = (n - 1) * (pct / 100.0)
    lo = math.floor(virtual) if virtual < n - 1 else n - 1
    hi = min(lo + 1, n - 1)
    gamma = virtual - lo
    mid = n // 2
    below, above, median = (np.empty(n_rows, dtype=lin.dtype) for _ in range(3))
    buf = np.empty((min(_ROW_BLOCK, n_rows), n), dtype=lin.dtype)
    for r0 in range(0, n_rows, _ROW_BLOCK):
        block = buf[:min(_ROW_BLOCK, n_rows - r0)]
        rows = slice(r0, r0 + len(block))
        block[...] = lin[rows]
        block.sort(axis=1)
        below[rows], above[rows] = block[:, lo], block[:, hi]
        median[rows] = block[:, mid] if n % 2 else (block[:, mid - 1] + block[:, mid]) / 2.0
    diff = above - below
    quantile = below + diff * gamma if gamma < 0.5 else above - diff * (1.0 - gamma)
    return quantile, median


def _dilate_square(mask: np.ndarray, radius: int) -> np.ndarray:
    """``ndimage.binary_dilation`` by a (2 radius + 1)^2 square, zero border:
    the square is separable, so OR the mask shifted by up to ``radius``
    along the rows, then along the columns."""
    rows = mask.copy()
    for s in range(1, radius + 1):
        rows[s:] |= mask[:-s]
        rows[:-s] |= mask[s:]
    out = rows.copy()
    for s in range(1, radius + 1):
        out[:, s:] |= rows[:, :-s]
        out[:, :-s] |= rows[:, s:]
    return out


def _near_lines(idx: np.ndarray, n: int, reach: int) -> np.ndarray:
    """Mask of the n lines within ``reach`` of any line in ``idx``."""
    hit = np.zeros(n, dtype=np.uint8)
    hit[idx] = 1
    return ndimage.maximum_filter1d(hit, 2 * reach + 1, mode="constant").view(bool)


def _component_members(active: np.ndarray, radius: int
                       ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Active bins grouped by 8-connected component of the dilated mask, in
    label order, each group's (rows, cols) in raster order.  No group is
    empty: the dilated mask is a union of squares around active bins.

    Only rows and columns within 2 radius of an active bin are dilated and
    labelled.  Each kept run of lines then ends at least ``radius`` empty
    lines beyond its dilated bins, so no component spans two runs, and
    dropping whole lines keeps the raster order, so the labels are those of
    the full grid."""
    rows, cols = np.divmod(np.flatnonzero(active), active.shape[1])
    if rows.size == 0:
        return []
    keep_r = _near_lines(rows, active.shape[0], 2 * radius)
    keep_c = _near_lines(cols, active.shape[1], 2 * radius)
    labels, _ = ndimage.label(_dilate_square(active[keep_r][:, keep_c], radius),
                              structure=np.ones((3, 3), dtype=bool))
    comp = labels[np.cumsum(keep_r)[rows] - 1, np.cumsum(keep_c)[cols] - 1]
    order = np.argsort(comp, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(comp[order])) + 1)
    return [(rows[g], cols[g]) for g in groups]


def localize(spec: Spectrogram) -> list[FreqTimeBox]:
    """Detect and box signal occupancy; returns boxes sorted by confidence."""
    # Every pass below runs along rows.  STFT and loaded spectrograms are
    # C-order already; the call copies only caller-built F-order arrays.
    lin = np.ascontiguousarray(spec.power)
    n_rows, n_cols = lin.shape
    pct = NOISE_FLOOR_PERCENTILE

    # Per-row floor: quantile scaled to mean-equivalent for exponential bins.
    row_q, row_med = _row_quantile_and_median(lin, pct)
    row_floor = row_q / (-np.log(1.0 - pct / 100.0))
    thr_lin = 10.0 ** (THRESHOLD_DB_ABOVE_FLOOR / 10.0)

    boxes: list[FreqTimeBox] = []

    # MIN_BOX_BINS counts distinct resolution cells: with overlapped columns
    # (hop < fft) one noise event smears across fft/hop columns, so those
    # correlated looks collapse onto the true time-frequency grid.
    overlap = max(1, round(1.0 / (spec.freq_resolution_hz * spec.time_resolution_s)))

    # Transient path: per-bin exceedances over the local row floor.
    active = lin > row_floor[:, None] * thr_lin
    radius = max(1, int(np.ceil(MERGE_GAP_BINS / 2)))
    for rows_idx, cols_idx in _component_members(active, radius):
        cells = set(zip(rows_idx.tolist(), (cols_idx // overlap).tolist()))
        if len(cells) < MIN_BOX_BINS:
            continue
        if len(np.unique(rows_idx)) < MIN_BOX_ROWS:
            continue
        rmin, rmax = int(rows_idx.min()), int(rows_idx.max())
        cmin, cmax = int(cols_idx.min()), int(cols_idx.max())
        duty = len(np.unique(cols_idx)) / (cmax - cmin + 1)
        bw_hz = (rmax - rmin + 1) * spec.freq_resolution_hz
        label = (CELLULAR if duty >= CELLULAR_DUTY_THRESHOLD
                 and bw_hz >= CELLULAR_MIN_BANDWIDTH_HZ else RADAR)
        excess = np.mean(10.0 * np.log10(lin[rows_idx, cols_idx])
                         - 10.0 * np.log10(row_floor[rows_idx] * thr_lin))
        rmin, rmax, cmin, cmax = _refine_extent(lin, row_floor, rows_idx, cols_idx)
        boxes.append(_bins_to_box(spec, rmin, rmax, cmin, cmax, label,
                                  _squash_confidence(float(excess))))

    # Persistent path: rows whose median power clears the quietest-row floor.
    # Medians ignore pulsed outliers, so pulsed emitters never register here.
    global_floor = np.percentile(row_med, pct)
    persistent = row_med > global_floor * thr_lin
    if persistent.any():
        rows = np.flatnonzero(persistent)
        for run in np.split(rows, np.flatnonzero(np.diff(rows) > MERGE_GAP_BINS) + 1):
            rmin, rmax = int(run[0]), int(run[-1])
            # A full-duration run meets the duty rule, so its width sets the class.
            bw_hz = (rmax - rmin + 1) * spec.freq_resolution_hz
            label = CELLULAR if bw_hz >= CELLULAR_MIN_BANDWIDTH_HZ else RADAR
            excess = np.mean(10.0 * np.log10(row_med[run] / (global_floor * thr_lin)))
            boxes.append(_bins_to_box(spec, rmin, rmax, 0, n_cols - 1, label,
                                      _squash_confidence(float(excess))))

    return sorted(boxes, key=lambda b: -b.confidence)


def radar_truth_boxes(clean_radar_spec: Spectrogram) -> list[FreqTimeBox]:
    """Ground-truth boxes from a noise-free radar spectrogram.

    Each pulse is segmented by gaps in the column-energy profile, then its
    extent is refined with the same trim levels the localizer applies, so
    the truth describes the pulse's support at the analysis resolution.
    """
    lin = clean_radar_spec.power
    if 10.0 * np.log10(lin.max()) - 10.0 * np.log10(lin.min()) < 1.0:
        return []  # flat spectrogram, no signal
    col_energy = lin.sum(axis=0)
    peak = col_energy.max()
    active_cols = np.nonzero(col_energy > peak * 10.0 ** (-DYNAMIC_RANGE_DB / 10.0))[0]
    if active_cols.size == 0:
        return []
    segments = np.split(active_cols,
                        np.nonzero(np.diff(active_cols) > PULSE_GAP_COLS)[0] + 1)
    zero_floor = np.zeros(lin.shape[0])
    out = []
    for seg in segments:
        sub = lin[:, seg[0]:seg[-1] + 1]
        rows_idx, cols_rel = np.divmod(np.flatnonzero(sub > sub.max() * 1e-3), sub.shape[1])
        cols_idx = cols_rel + seg[0]
        rmin, rmax, cmin, cmax = _refine_extent(lin, zero_floor, rows_idx, cols_idx)
        out.append(_bins_to_box(clean_radar_spec, rmin, rmax, cmin, cmax, RADAR, 1.0))
    return out


def iou(a: FreqTimeBox, b: FreqTimeBox) -> float:
    """Intersection over union in the (frequency x time) plane."""
    f_overlap = max(0.0, min(a.f_high_hz, b.f_high_hz) - max(a.f_low_hz, b.f_low_hz))
    t_overlap = max(0.0, min(a.t_end_s, b.t_end_s) - max(a.t_start_s, b.t_start_s))
    inter = f_overlap * t_overlap
    union = (a.bandwidth_hz * a.duration_s + b.bandwidth_hz * b.duration_s - inter)
    if union <= 0.0:
        return 1.0 if (a.f_low_hz, a.f_high_hz, a.t_start_s, a.t_end_s) == \
                      (b.f_low_hz, b.f_high_hz, b.t_start_s, b.t_end_s) else 0.0
    return inter / union


@dataclass(frozen=True)
class LocalizerMetrics:
    recall: float
    precision: float
    mean_iou: float
    n_truth: int = 0
    n_pred: int = 0


def evaluate_localizer(predictions: list[list[FreqTimeBox]],
                       ground_truth: list[list[FreqTimeBox]]) -> LocalizerMetrics:
    """Greedy one-to-one matching by descending IoU, class-aware.

    A truth box counts as recalled when its matched prediction reaches the
    IOU_THRESHOLD; mean_iou is over matched pairs.
    """
    if len(predictions) != len(ground_truth):
        raise InvalidParamsError("predictions and ground_truth must pair per spectrogram")
    n_truth = n_pred = n_matched = 0
    matched_ious: list[float] = []
    for preds, truths in zip(predictions, ground_truth):
        n_truth += len(truths)
        n_pred += len(preds)
        pairs = []
        for ti, t in enumerate(truths):
            for pi, p in enumerate(preds):
                if t.label != p.label:
                    continue
                v = iou(t, p)
                if v > 0.0:
                    pairs.append((v, ti, pi))
        pairs.sort(key=lambda x: -x[0])
        used_t: set[int] = set()
        used_p: set[int] = set()
        for v, ti, pi in pairs:
            if ti in used_t or pi in used_p:
                continue
            used_t.add(ti)
            used_p.add(pi)
            if v >= IOU_THRESHOLD:
                n_matched += 1
                matched_ious.append(v)
    recall = n_matched / n_truth if n_truth else 1.0
    precision = n_matched / n_pred if n_pred else (1.0 if n_truth == 0 else 0.0)
    mean_iou = float(np.mean(matched_ious)) if matched_ious else 0.0
    return LocalizerMetrics(recall, precision, mean_iou, n_truth, n_pred)


def radar_freq_extent(boxes: list[FreqTimeBox]) -> tuple[float, float] | None:
    """Union frequency extent of radar-class boxes; None when there are none."""
    radar_boxes = [b for b in boxes if b.label == RADAR]
    if not radar_boxes:
        return None
    return (min(b.f_low_hz for b in radar_boxes),
            max(b.f_high_hz for b in radar_boxes))


BOX_RECORD_FIELDS = ["file_id", "class", "f_low_hz", "f_high_hz",
                     "t_start_s", "t_end_s", "confidence"]


def write_box_records(path, records: list[tuple[str, FreqTimeBox]]) -> None:
    """Line-delimited box records: (file_id, box) pairs."""
    write_csv(path, BOX_RECORD_FIELDS,
              ([file_id, box.label, repr(box.f_low_hz), repr(box.f_high_hz),
                repr(box.t_start_s), repr(box.t_end_s), repr(box.confidence)]
               for file_id, box in records))


def read_box_records(path) -> list[tuple[str, FreqTimeBox]]:
    """``write_box_records``'s pairs; a header that lacks one of their columns
    raises InvalidParamsError naming it, and a number cell that is missing or
    malformed, or a box that ``FreqTimeBox`` rejects, one naming the data row
    (1 is the first)."""
    records = []
    for row_no, row in enumerate(read_csv(path, BOX_RECORD_FIELDS), 1):
        where = f"{path} row {row_no}"
        fields = {key: parse_field(float, row, key, where)
                  for key in ("f_low_hz", "f_high_hz", "t_start_s", "t_end_s", "confidence")}
        try:
            records.append((row["file_id"], FreqTimeBox(label=row["class"], **fields)))
        except InvalidParamsError as exc:
            raise InvalidParamsError(f"{where}: {exc}") from None
    return records
