"""Time each step of a Mode-2 window on fixed-seed captures.

The steps are the ones a Mode-2 window runs, in order:

- ``cellular``, ``radar`` and ``mix``: ``gen_cellular_baseband``,
  ``gen_radar_pulse_train`` and ``mix_at_sinr``, each timed inside
  ``sensing_capture`` as the scenario loop calls it (noise drawn beside the
  cellular synthesis, SINR not measured);
- ``stft``: ``stft_spectrogram`` of the composite;
- ``localize`` and its steps, each called on its own in ``localize``'s
  order: ``row_floor``, ``active_mask``, ``lone_bins``, ``grouping``
  (``_group_bins``) and ``box_loop``.  The steps' boxes must equal
  ``localize``'s, or the script exits with code 1.

Capture i runs at 4, 8 or 12 dB (i mod 3) with radar i of a draw seeded
by ``SEED`` (pulse width 13-52 us, PRR 500-1100 Hz, centre offset within 3 MHz); every
other capture blanks the radar's PRBs, as the loop does after it evacuates
them.  One untimed capture comes first.  Each step prints its count, p50,
p95 and max in ms; the last line is one JSON object with the same figures:

    PYTHONPATH=src python tools/stage_costs.py --captures 30
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from coexsim import signals
from coexsim.localize import (
    MERGE_GAP_BINS,
    _active_bins,
    _drop_lone_bins,
    _group_bins,
    _radar_boxes,
    _row_floor,
    localize,
)
from coexsim.signals import N_PRBS, PRB_BANDWIDTH_HZ, RadarParams, sensing_capture
from coexsim.spectro import stft_spectrogram

SEED = 0
SINRS_DB = (4.0, 8.0, 12.0)
WINDOW_S = 10e-3
SYNTHESIS = ("gen_cellular_baseband", "gen_radar_pulse_train", "mix_at_sinr")
STEPS = ("cellular", "radar", "mix", "stft", "localize",
         "row_floor", "active_mask", "lone_bins", "grouping", "box_loop")


def capture_inputs(i: int):
    """(radar, sinr_db, prb_mask, cell_seed, noise_seed) of capture i."""
    rng = np.random.default_rng([SEED, i])
    offset = float(rng.uniform(-3e6, 3e6))
    radar = RadarParams(float(rng.uniform(13e-6, 52e-6)), float(rng.uniform(500.0, 1100.0)),
                        3, WINDOW_S, center_offset_hz=offset,
                        burst_start_s=float(rng.uniform(0.0, 4e-3)))
    mask = np.ones(N_PRBS, dtype=bool)
    if i % 2:
        prb = int((offset + N_PRBS * PRB_BANDWIDTH_HZ / 2) // PRB_BANDWIDTH_HZ)
        mask[max(prb - 3, 0):prb + 4] = False
    return (radar, SINRS_DB[i % len(SINRS_DB)], mask,
            int(rng.integers(2 ** 63)), int(rng.integers(2 ** 63)))


def timing(costs: dict, step: str, fn):
    """``fn``, appending the ms of each call to ``costs[step]``."""
    def timed_fn(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        costs[step].append((time.perf_counter() - t0) * 1e3)
        return out
    return timed_fn


def timed(costs: dict, step: str, fn, *args):
    return timing(costs, step, fn)(*args)


def one_window(costs: dict, i: int) -> int:
    """Time capture i's steps into ``costs``; return its box count."""
    radar, sinr_db, mask, cell_seed, noise_seed = capture_inputs(i)
    originals = {name: getattr(signals, name) for name in SYNTHESIS}
    for name, step in zip(SYNTHESIS, ("cellular", "radar", "mix")):
        setattr(signals, name, timing(costs, step, originals[name]))
    try:
        iq, _, _ = sensing_capture(radar, sinr_db, WINDOW_S, cell_seed, noise_seed,
                                   prb_mask=mask, measure_achieved=False)
    finally:
        for name, fn in originals.items():
            setattr(signals, name, fn)
    power = timed(costs, "stft", stft_spectrogram, iq)
    boxes = timed(costs, "localize", localize, power)

    radius = max(1, int(np.ceil(MERGE_GAP_BINS / 2)))
    row_floor = timed(costs, "row_floor", _row_floor, power)
    active = timed(costs, "active_mask", _active_bins, power, row_floor)
    rows, cols = timed(costs, "lone_bins", _drop_lone_bins, active, radius)
    members = timed(costs, "grouping", _group_bins, rows, cols, active.shape, radius)
    if timed(costs, "box_loop", _radar_boxes, power, row_floor, members) != boxes:
        raise SystemExit(f"capture {i}: the steps' boxes differ from localize's")
    return len(boxes)


def summary(values: list[float]) -> dict:
    return {"count": len(values), "p50_ms": round(float(np.percentile(values, 50)), 4),
            "p95_ms": round(float(np.percentile(values, 95)), 4),
            "max_ms": round(max(values), 4)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--captures", type=int, default=30, help="timed captures (>= 1)")
    args = parser.parse_args(argv)
    if args.captures < 1:
        parser.error("--captures must be at least 1")
    one_window({step: [] for step in STEPS}, args.captures)  # warm-up
    costs = {step: [] for step in STEPS}
    n_boxes = sum(one_window(costs, i) for i in range(args.captures))
    table = {step: summary(costs[step]) for step in STEPS}
    print(f"{'step':<12} {'count':>5} {'p50_ms':>8} {'p95_ms':>8} {'max_ms':>8}")
    for step, row in table.items():
        print(f"{step:<12} {row['count']:>5} {row['p50_ms']:>8.3f} {row['p95_ms']:>8.3f} "
              f"{row['max_ms']:>8.3f}")
    print(json.dumps({"captures": args.captures, "seed": SEED, "boxes": n_boxes,
                      "steps": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
