"""Model evaluation against generated datasets, with CSV table export."""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from ..detect import ClassifierModel, radar_present
from ..errors import InvalidParamsError, MissingDataError
from ..fileio import write_csv
from ..localize import RADAR, evaluate_localizer, localize
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


def _radar_boxes(dataset_dir, keep=lambda sinr_db, has_radar: True):
    """(sinr_db, the radar boxes ``localize`` finds, the truth boxes) of each
    item that ``keep(sinr_db, has_radar)`` accepts, each loaded once."""
    for _, sinr_db, _, sgram, truths in load_spectrogram_items(dataset_dir, keep):
        yield sinr_db, [b for b in localize(sgram) if b.label == RADAR], truths


def eval_localizer(dataset_dir) -> list[LocalizerEvalRow]:
    """Recall/precision/mean-IoU per sweep SINR point, radar class only."""
    by_sinr: dict[float, tuple[list, list]] = {}
    for sinr, preds, truths in _radar_boxes(dataset_dir):
        bucket = by_sinr.setdefault(sinr, ([], []))
        bucket[0].append(preds)
        bucket[1].append(truths)
    if not by_sinr:
        raise MissingDataError(f"no spectrogram items in {dataset_dir}")
    rows = []
    for sinr in sorted(by_sinr):
        preds, truths = by_sinr[sinr]
        m = evaluate_localizer(preds, truths)
        rows.append(LocalizerEvalRow(sinr, m.recall, m.precision, m.mean_iou,
                                     m.n_truth))
    return rows


def pooled_localizer_metrics(dataset_dir, min_sinr_db: float = float("-inf")):
    """Metrics over the radar items at or above min_sinr_db; loads no other item."""
    if math.isnan(min_sinr_db):
        raise InvalidParamsError("min_sinr_db is nan, which no SINR compares to, so it "
                                 "names no slice")
    preds, truths = [], []
    for _, pred, truth in _radar_boxes(
            dataset_dir, lambda sinr, has_radar: has_radar and not sinr < min_sinr_db):
        preds.append(pred)
        truths.append(truth)
    if not preds:
        raise MissingDataError("no items in requested SINR slice")
    return evaluate_localizer(preds, truths)


def write_detector_report(path, rows: list[DetectorEvalRow]) -> None:
    write_csv(path, ["sinr_db", "accuracy", "n_windows"],
              ([r.sinr_db, f"{r.accuracy:.6f}", r.n_windows] for r in rows))


def write_localizer_report(path, rows: list[LocalizerEvalRow]) -> None:
    write_csv(path, ["sinr_db", "recall", "precision", "mean_iou", "n_truth"],
              ([r.sinr_db, f"{r.recall:.6f}", f"{r.precision:.6f}", f"{r.mean_iou:.6f}",
                r.n_truth] for r in rows))
