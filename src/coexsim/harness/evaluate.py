"""Model evaluation against generated datasets, with CSV table export.

A localizer evaluation loads and localizes each item once (``localize_items``);
its per-SINR table and pooled SINR slices derive from that list, which holds
boxes, never spectrograms.  ``eval_localizer`` and ``pooled_localizer_metrics``
remain for the benchmark in ``perfbench/``, which calls and traces them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from ..detect import ClassifierModel, radar_present
from ..errors import InvalidParamsError, MissingDataError
from ..fileio import write_csv
from ..localize import RADAR, LocalizerMetrics, evaluate_localizer, localize
from .datasets import load_kpm_windows, load_spectrogram_items


@dataclass(frozen=True)
class DetectorEvalRow:
    sinr_db: float
    accuracy: float
    n_windows: int


def eval_detector(model: ClassifierModel, dataset_dir, n_stack: int
                  ) -> list[DetectorEvalRow]:
    """Accuracy per sweep SINR point (radar and clean windows pooled)."""
    x, labels, sinrs = load_kpm_windows(dataset_dir, n_stack)
    if not len(x):
        raise MissingDataError("dataset produced no windows")
    preds = radar_present(model.predict_proba(x))
    rows = []
    for sinr in sorted(set(sinrs.tolist())):
        sel = sinrs == sinr
        rows.append(DetectorEvalRow(float(sinr),
                                    float(np.mean(preds[sel] == labels[sel])),
                                    int(sel.sum())))
    return rows


@dataclass(frozen=True)
class LocalizerEvalRow:
    sinr_db: float
    recall: float
    precision: float
    mean_iou: float
    n_truth: int


def localize_items(dataset_dir, keep=lambda sinr_db, has_radar: True) -> list[tuple]:
    """(file_id, sinr_db, has_radar, ``localize`` boxes, truth boxes) of each item
    that ``keep(sinr_db, has_radar)`` accepts, in dataset order."""
    return [(file_id, sinr_db, has_radar, localize(sgram), truths)
            for file_id, sinr_db, has_radar, sgram, truths
            in load_spectrogram_items(dataset_dir, keep)]


def _radar_metrics(items) -> LocalizerMetrics:
    """``evaluate_localizer`` of the items' radar-class boxes against their truths."""
    return evaluate_localizer([[b for b in boxes if b.label == RADAR] for *_, boxes, _ in items],
                              [truths for *_, truths in items])


def localizer_rows(items) -> list[LocalizerEvalRow]:
    """Recall/precision/mean-IoU per SINR point of ``localize_items``' list; each
    point keeps the list's order of its items."""
    by_sinr: dict[float, list] = {}
    for item in items:
        by_sinr.setdefault(item[1], []).append(item)
    rows = []
    for sinr in sorted(by_sinr):
        m = _radar_metrics(by_sinr[sinr])
        rows.append(LocalizerEvalRow(sinr, m.recall, m.precision, m.mean_iou, m.n_truth))
    return rows


def radar_slice(min_sinr_db: float):
    """``keep(sinr_db, has_radar)`` of the radar items at or above min_sinr_db; a
    NaN compares to no SINR, so it raises InvalidParamsError."""
    if math.isnan(min_sinr_db):
        raise InvalidParamsError("min_sinr_db is nan, which no SINR compares to, so it "
                                 "names no slice")
    return lambda sinr_db, has_radar: has_radar and not sinr_db < min_sinr_db


def pooled_metrics(items, min_sinr_db: float) -> LocalizerMetrics:
    """Metrics pooled over the radar items of ``localize_items``' list at or above
    min_sinr_db."""
    keep = radar_slice(min_sinr_db)
    kept = [item for item in items if keep(item[1], item[2])]
    if not kept:
        raise MissingDataError("no items in requested SINR slice")
    return _radar_metrics(kept)


def eval_localizer(dataset_dir) -> list[LocalizerEvalRow]:
    """``localizer_rows`` of every item in dataset_dir."""
    rows = localizer_rows(localize_items(dataset_dir))
    if not rows:
        raise MissingDataError(f"no spectrogram items in {dataset_dir}")
    return rows


def pooled_localizer_metrics(dataset_dir, min_sinr_db: float = float("-inf")):
    """``pooled_metrics`` of dataset_dir's slice; it loads no item outside it."""
    return pooled_metrics(localize_items(dataset_dir, radar_slice(min_sinr_db)), min_sinr_db)


def write_detector_report(path, rows: list[DetectorEvalRow]) -> None:
    write_csv(path, ["sinr_db", "accuracy", "n_windows"],
              ([r.sinr_db, f"{r.accuracy:.6f}", r.n_windows] for r in rows))


def write_localizer_report(path, rows: list[LocalizerEvalRow]) -> None:
    write_csv(path, ["sinr_db", "recall", "precision", "mean_iou", "n_truth"],
              ([r.sinr_db, f"{r.recall:.6f}", f"{r.precision:.6f}", f"{r.mean_iou:.6f}",
                r.n_truth] for r in rows))
