"""Which coexsim functions the traced run wraps, and the per-layer metrics.

Layer names follow the package's modules.  File I/O is counted under
``spectro`` (``save_spectrogram`` / ``load_spectrogram``); ``harness.cli`` is
not wrapped because the benchmark calls the library functions it calls.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from coexsim.localize import RADAR

MB = 1e6


def _file_mb(path) -> float:
    path = str(path)
    return (os.path.getsize(path) + os.path.getsize(path + ".meta")) / MB


def _radar_boxes(args, kwargs, boxes) -> dict:
    n = sum(1 for b in boxes if b.label == RADAR)
    return {"radar_boxes": n, "radar_hits": 1 if n else 0}


TARGETS = {
    "coexsim.signals.gen_cellular_baseband": None,
    "coexsim.signals.gen_radar_pulse_train": None,
    "coexsim.signals.mix_at_sinr": None,
    "coexsim.spectro.stft_spectrogram": None,
    "coexsim.spectro.save_spectrogram": lambda a, k, r: {"mb": _file_mb(a[0])},
    "coexsim.spectro.load_spectrogram": lambda a, k, r: {"mb": _file_mb(a[0])},
    "coexsim.localize.localize": _radar_boxes,
    "coexsim.localize.radar_truth_boxes": None,
    "coexsim.localize.evaluate_localizer": None,
    "coexsim.ranlink.UplinkSimulator.step": None,
    "coexsim.ranlink.radar_psd_per_prb": None,
    "coexsim.detect.infer": None,
    "coexsim.detect.ClassifierModel.predict_proba":
        lambda a, k, r: {"rows": np.atleast_2d(a[1]).shape[0]},
    "coexsim.detect.train_detector": None,
    "coexsim.control.XappController.step": lambda a, k, r: {"commands": len(r)},
    "coexsim.harness.scenario.run_scenario": None,
    "coexsim.harness.datasets.gen_kpm_dataset": None,
    "coexsim.harness.datasets.load_kpm_windows": None,
    "coexsim.harness.datasets.gen_spectrogram_dataset": None,
    "coexsim.harness.datasets.load_spectrogram_items": None,
    "coexsim.harness.evaluate.eval_detector": None,
    "coexsim.harness.evaluate.eval_localizer": None,
    "coexsim.harness.evaluate.pooled_localizer_metrics": None,
}

PREFIX = "coexsim."
STFT = "spectro.stft_spectrogram"
LOCALIZE = "localize.localize"
UPLINK_STEP = "ranlink.UplinkSimulator.step"
SCENARIO = "harness.scenario.run_scenario"
GEN_SPEC = "harness.datasets.gen_spectrogram_dataset"
EVALS = ("harness.evaluate.eval_localizer", "harness.evaluate.pooled_localizer_metrics")
SIMULATOR_LAYERS = ("signals.",)
PIPELINE_LAYERS = ("spectro.", "localize.", "detect.", "control.")
PER_FUNCTION = (("calls", "count", "lower"), ("p50_ms", "ms", "lower"),
                ("p_hi_ms", "ms", "lower"), ("self_s", "s", "lower"))
EXTRA = (
    ("localize.localize.radar_boxes_per_call", "count", "higher"),
    ("detect.ClassifierModel.predict_proba.rows_per_call", "count", "higher"),
    ("control.XappController.step.commands_per_call", "count", "lower"),
    ("spectro.save_spectrogram.mb_written", "MB", "lower"),
    ("spectro.load_spectrogram.mb_read", "MB", "lower"),
    ("harness.scenario.run_scenario.self_ms_per_window", "ms", "lower"),
    ("localize.calls_per_eval_item", "count", "lower"),
    ("spectro.stft_calls_per_item", "count", "lower"),
    ("mode2_window_frac", "frac", "lower"),
    ("localize.radar_hit_frac", "frac", "higher"),
    ("simulator_ms_per_mode2_window", "ms", "lower"),
    ("pipeline_ms_per_mode2_window", "ms", "lower"),
    ("trace_accounted_frac", "frac", "higher"),
    ("tracing_overhead_frac", "frac", "lower"),
)


def short(target: str) -> str:
    return target[len(PREFIX):]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in print order."""
    specs = [(f"{short(t)}.{stat}", unit, better)
             for t in TARGETS for stat, unit, better in PER_FUNCTION]
    return specs + list(EXTRA)


def high_percentile(n: int) -> float:
    """Highest of 99.9/99/90/50 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced_wall_s: float, untraced_wall_s: float,
                  spec_items_generated: int, spec_items_evaluated: int) -> dict:
    """Per-layer metrics from the spans of the traced operations.

    ``spec_items_*`` are the bases of the offline per-item ratios (zero on
    the loop workloads, where those ratios are reported as 0).
    """
    names = [short(n) for n in tracer.names]
    spans = tracer.spans
    own = tracer.self_times_ns()
    durations: dict[str, list[int]] = {n: [] for n in names}
    self_ns = dict.fromkeys(names, 0)
    in_eval = []           # per span: inside an evaluate.* localizer call
    in_gen = []            # per span: inside gen_spectrogram_dataset
    window = []            # per span: scenario window index, or -1
    n_windows = 0
    for i, (idx, start, end, parent, _) in enumerate(spans):
        name = names[idx]
        durations[name].append(end - start)
        self_ns[name] += own[i]
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        in_eval.append(parent >= 0 and (in_eval[parent] or parent_name in EVALS))
        in_gen.append(parent >= 0 and (in_gen[parent] or parent_name == GEN_SPEC))
        if parent_name == SCENARIO:
            if name == UPLINK_STEP:
                n_windows += 1
            window.append(n_windows)
        else:
            window.append(window[parent] if parent >= 0 else -1)

    out: dict[str, float] = {}
    for name in names:
        d = durations[name]
        calls = len(d)
        out[f"{name}.calls"] = calls
        out[f"{name}.p50_ms"] = statistics.median(d) / 1e6 if calls else 0.0
        out[f"{name}.p_hi_ms"] = (float(np.percentile(d, high_percentile(calls))) / 1e6
                                  if calls else 0.0)
        out[f"{name}.self_s"] = self_ns[name] / 1e9

    counts = {short(k): v for k, v in tracer.counts.items()}
    n_loc = out[f"{LOCALIZE}.calls"]
    out["localize.localize.radar_boxes_per_call"] = _ratio(
        counts[LOCALIZE].get("radar_boxes", 0), n_loc)
    out["detect.ClassifierModel.predict_proba.rows_per_call"] = _ratio(
        counts["detect.ClassifierModel.predict_proba"].get("rows", 0),
        out["detect.ClassifierModel.predict_proba.calls"])
    out["control.XappController.step.commands_per_call"] = _ratio(
        counts["control.XappController.step"].get("commands", 0),
        out["control.XappController.step.calls"])
    out["spectro.save_spectrogram.mb_written"] = counts["spectro.save_spectrogram"].get("mb", 0.0)
    out["spectro.load_spectrogram.mb_read"] = counts["spectro.load_spectrogram"].get("mb", 0.0)
    out["harness.scenario.run_scenario.self_ms_per_window"] = _ratio(
        self_ns[SCENARIO] / 1e6, n_windows)

    eval_localize = sum(1 for i, s in enumerate(spans)
                        if in_eval[i] and names[s[0]] == LOCALIZE)
    gen_stft = sum(1 for i, s in enumerate(spans)
                   if in_gen[i] and names[s[0]] == STFT)
    out["localize.calls_per_eval_item"] = _ratio(eval_localize, spec_items_evaluated)
    out["spectro.stft_calls_per_item"] = _ratio(gen_stft, spec_items_generated)

    mode2 = {window[i] for i, s in enumerate(spans)
             if names[s[0]] == STFT and window[i] >= 0}
    out["mode2_window_frac"] = _ratio(len(mode2), n_windows)
    out["localize.radar_hit_frac"] = _ratio(counts[LOCALIZE].get("radar_hits", 0), n_loc)

    def mode2_ms(prefixes) -> float:
        ns = sum(own[i] for i, s in enumerate(spans)
                 if window[i] in mode2 and names[s[0]].startswith(prefixes))
        return _ratio(ns / 1e6, len(mode2))

    out["simulator_ms_per_mode2_window"] = mode2_ms(SIMULATOR_LAYERS)
    out["pipeline_ms_per_mode2_window"] = mode2_ms(PIPELINE_LAYERS)
    out["trace_accounted_frac"] = _ratio(sum(own) / 1e9, traced_wall_s)
    out["tracing_overhead_frac"] = _ratio(traced_wall_s, untraced_wall_s) - 1.0
    return out
