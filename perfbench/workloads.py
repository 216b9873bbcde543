"""The three benchmark workloads, their seeded inputs and their output checks.

Each workload is a closed loop with one caller in one process: the next
operation starts only when the previous one has returned.

* ``loop-radar``: ``run_scenario`` segments, full policy, each a fresh loop
  with one radar interval between short quiet spells, so every segment runs
  detection, evacuation and restore.  One operation is one segment.
* ``loop-quiet``: ``run_scenario`` segments, full policy, no radar and a long
  simulated duration, so every window stays in Mode 1.
* ``offline``: the dataset pipeline of the acceptance suite and the CLI.
  One operation is one full pass.

Operation i runs input config ``i % n_configs`` of its workload, so a run
cycles through a fixed set of inputs whatever its speed, and operation i
must reproduce the outputs of operation ``i % n_configs`` exactly.

Inputs come only from the seed.  The library sees nothing but the generated
configs and the directories it is told to write to.  Library calls go
through module attributes (``scenario.run_scenario``), so a traced run's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
import hashlib
import math
import shutil
import time

import numpy as np

from coexsim import detect
from coexsim.control import CMD_REQUEST_IQ, STAGE_SPECTROGRAM_BUILD
from coexsim.detect import ClassifierModel, TrainConfig
from coexsim.harness import datasets, evaluate, scenario
from coexsim.harness.datasets import KpmDatasetConfig, SpectrogramDatasetConfig
from coexsim.harness.scenario import POLICY_FULL, RadarWindow, ScenarioConfig
from coexsim.ranlink import read_kpm_csv
from coexsim.signals import RadarParams

TELEMETRY_PERIOD_S = 0.01
KPM_RECORD_SIM_S = 0.01        # one KPM record covers one telemetry period
SPEC_ITEM_SIM_S = 0.01         # one spectrogram item covers a 10 ms capture
SPEC_SINRS_DB = (4.0, 8.0, 12.0)
SPEC_ABSENT_FRACTION = 0.2
GATE_SINR_DB = 8.0
N_STACK = 1                    # the loop detector's KPM stack depth
OFFLINE_WARMUP_KPM_ITEMS = 4
DET_ACCURACY_GATE = 0.99       # criterion 3, pooled over SINR >= -4 dB
LOC_RECALL_GATE = 0.95         # criterion 4, SINR >= 8 dB
EVAC_RESTORE_MAX_WINDOWS = 2   # criterion 7


@dataclass(frozen=True)
class Sizes:
    """How much work one operation and one set-up do."""

    radar_lead_windows: int = 3
    radar_on_windows: int = 10
    radar_tail_windows: int = 3
    quiet_windows: int = 500
    detector_items: int = 40        # KPM items per class per SINR, loop detector
    warmup_windows: int = 6
    # The offline acceptance pass, at the acceptance suite's size for both
    # KPM sets.  An item's 8 records give 5 N=4 windows, so errors come in
    # clusters; a smaller evaluation set turns one hard item into a percent
    # of accuracy.
    kpm_train_items: int = 80
    kpm_eval_items: int = 80
    spec_items_per_sinr: int = 8
    # The timed offline passes: smaller, so that a run repeats each stage
    # often enough for its median time to settle.  Three items per SINR
    # keep one radar-absent item at each SINR.
    timed_kpm_items: int = 20
    timed_spec_items_per_sinr: int = 3
    setup_repeats: int = 9


TINY = Sizes(radar_lead_windows=2, radar_on_windows=3, radar_tail_windows=3,
             quiet_windows=20, detector_items=4,
             warmup_windows=3, kpm_train_items=7, kpm_eval_items=2,
             spec_items_per_sinr=1, timed_kpm_items=7, timed_spec_items_per_sinr=1,
             setup_repeats=1)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class OpResult:
    parts: dict        # wall seconds of each stage
    mids: dict         # each stage's midpoint, in perf_counter seconds
    sim_s: float
    digest: str
    checks: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.parts.values())

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def file_digest(paths) -> str:
    """sha256 over (relative name, bytes) of the given files, in order."""
    h = hashlib.sha256()
    for base, path in paths:
        h.update(str(path.relative_to(base)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Laps:
    """Wall time and midpoint of consecutive stages.

    ``between`` runs after each stage and is timed in none of them; the
    stages cover the rest of the span.
    """

    def __init__(self, between=None):
        self.parts: dict[str, float] = {}
        self.mids: dict[str, float] = {}
        self._between = between
        self._last = time.perf_counter()

    def __call__(self, stage: str) -> float:
        now = time.perf_counter()
        lap = now - self._last
        self.parts[stage] = self.parts.get(stage, 0.0) + lap
        self.mids[stage] = (self._last + now) / 2
        if self._between is not None:
            self._between()
        self._last = time.perf_counter()
        return lap


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# --------------------------------------------------------------- closed loop

# Segment config n takes its radar from an additive-recurrence sequence with
# these irrational strides, so successive configs cover each range evenly.
# The sequence is the same for every seed, so every run meets the same
# radars; the seed varies every random draw inside a segment.
_STRIDES = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772,
            0.2360679774997898)
_PHASE = np.full(len(_STRIDES), 0.5)


def _radar(n: int) -> tuple[RadarParams, float]:
    """Radar n of the sequence, and its SINR (4..12 dB); fits one period."""
    u = (_PHASE + n * np.asarray(_STRIDES)) % 1.0
    pw = 13e-6 + 39e-6 * float(u[0])
    prr = 500.0 + 600.0 * float(u[1])
    n_pulses = min(int((TELEMETRY_PERIOD_S - pw) * prr) + 1,
                   int(TELEMETRY_PERIOD_S * prr))
    offset = -3.0e6 + 6.0e6 * float(u[2])
    params = RadarParams(pw, prr, n_pulses, TELEMETRY_PERIOD_S,
                         center_offset_hz=offset)
    return params, 4.0 + 8.0 * float(u[3])


def _edge(k: int) -> float:
    """Half a window before window k starts, so window k is the first inside."""
    return (k - 0.5) * TELEMETRY_PERIOD_S


def radar_segment(seed: int, index: int, sizes: Sizes) -> ScenarioConfig:
    """Segment ``index``: quiet lead, one radar interval, quiet tail."""
    params, sinr = _radar(index)
    k_on = sizes.radar_lead_windows
    k_off = k_on + sizes.radar_on_windows
    return ScenarioConfig(
        duration_s=(k_off + sizes.radar_tail_windows) * TELEMETRY_PERIOD_S,
        policy=POLICY_FULL, n_stack=N_STACK,
        sinr_schedule=[(0.0, 8.0), (_edge(k_on), sinr)],
        radar_schedule=[RadarWindow(_edge(k_on), _edge(k_off), params)],
        seed=_sub_seed(seed, 1, index))


def quiet_segment(seed: int, index: int, sizes: Sizes) -> ScenarioConfig:
    return ScenarioConfig(duration_s=sizes.quiet_windows * TELEMETRY_PERIOD_S,
                          policy=POLICY_FULL, n_stack=N_STACK,
                          seed=_sub_seed(seed, 1, index))


class LoopWorkload:
    """run_scenario segments driven by a detector trained during set-up."""

    # loop-radar segment configs differ in their radar; a run cycles through
    # all of them.
    n_configs = 4
    between_stages = None    # called after each timed stage, untimed

    def __init__(self, name: str, seed: int, sizes: Sizes, work: Path):
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.radar = name == "loop-radar"
        self.model = None

    def segment_config(self, i: int) -> ScenarioConfig:
        make = radar_segment if self.radar else quiet_segment
        return make(self.seed, i, self.sizes)

    def setup(self) -> Laps:
        """Train and load the detector, check segment 0, warm up the loop.

        Returns the timed set-up stages.
        """
        sizes = self.sizes
        lap = Laps(self.between_stages)
        root = _fresh_dir(self.work / "setup")
        data = datasets.gen_kpm_dataset(root / "kpm", KpmDatasetConfig(
            items_per_class_per_sinr=sizes.detector_items,
            seed=_sub_seed(self.seed, 0, 0)))
        lap("kpm_gen")
        windows, labels, _ = datasets.load_kpm_windows(data, N_STACK)
        trained = detect.train_detector(
            windows, labels, TrainConfig(seed=_sub_seed(self.seed, 0, 1)))
        trained.model.save(root / "detector.npz")
        self.model = ClassifierModel.load(root / "detector.npz")
        self.segment_config(0).validate()
        lap("train")
        # Warm the loop up in Mode 1 only: whether the detector fires in a
        # short radar warm-up depends on the seed, and would make set-up
        # time bimodal.
        scenario.run_scenario(quiet_segment(self.seed, 0, replace(
            sizes, quiet_windows=sizes.warmup_windows)), self.model)
        lap("warmup")
        return lap

    def acceptance_ops(self) -> list:
        """Every segment is checked as it runs."""
        return []

    def op(self, i: int) -> OpResult:
        config = self.segment_config(i % self.n_configs)
        out = self.work / "segment"
        config.output_dir = str(out)
        lap = Laps(self.between_stages)
        result = scenario.run_scenario(config, self.model)
        lap("segment")
        digest = file_digest((out, out / f) for f in ("kpm_log.csv", "command_log.csv"))
        sim_windows = result.summary["n_windows"]
        iq_requests = sum(1 for _, c in result.commands if c.kind == CMD_REQUEST_IQ)
        stats = {"mean_bler_pct": result.summary["mean_bler_pct"],
                 "iq_requests": iq_requests}
        checks = []
        if self.radar:
            # Criterion 7: the scenario's own delays, over the segment's one
            # radar onset and offset.
            for kind in ("evacuation", "restore"):
                delay_s = result.summary[f"{kind}_delay_s"]
                delay = math.nan if delay_s is None else round(delay_s / TELEMETRY_PERIOD_S)
                stats[f"{kind}_delay_windows"] = delay
                checks.append(Check(
                    f"segment {i} {kind} <= {EVAC_RESTORE_MAX_WINDOWS} windows",
                    delay <= EVAC_RESTORE_MAX_WINDOWS, f"{kind} {delay}"))
            stats["mode2_windows"] = result.ledger.counts[STAGE_SPECTROGRAM_BUILD]
        else:
            # The workload's premise: without radar the loop never leaves Mode 1.
            checks.append(Check(f"segment {i} stays in Mode 1 without radar",
                                iq_requests == 0, f"{iq_requests} I/Q requests"))
        return OpResult(lap.parts, lap.mids, sim_windows * TELEMETRY_PERIOD_S, digest,
                        checks, stats)


# ------------------------------------------------------------------ offline

class OfflineWorkload:
    """gen KPM -> train N=1..4 -> eval; gen spectrograms -> eval localizer.

    The timed passes are small.  After them, one untimed pass at the
    acceptance suite's size checks criteria 3 and 4.
    """

    n_configs = 1        # every timed pass repeats the same inputs
    between_stages = None    # called after each timed stage, untimed

    def __init__(self, name: str, seed: int, sizes: Sizes, work: Path):
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.spec_items = _spec_items(sizes.timed_spec_items_per_sinr)

    def _configs(self, kpm_items: int, eval_items: int, spec_items: int, sinrs):
        return (
            KpmDatasetConfig(items_per_class_per_sinr=kpm_items,
                             seed=_sub_seed(self.seed, 2, 0)),
            KpmDatasetConfig(items_per_class_per_sinr=eval_items,
                             seed=_sub_seed(self.seed, 2, 1)),
            TrainConfig(seed=_sub_seed(self.seed, 2, 2)),
            SpectrogramDatasetConfig(sinr_sweep_db=sinrs, items_per_sinr=spec_items,
                                     absent_fraction=SPEC_ABSENT_FRACTION,
                                     seed=_sub_seed(self.seed, 2, 3)),
        )

    def setup(self) -> Laps:
        """Clear the work area and warm every stage up on a minimal pass.

        Returns the timed set-up stages.
        """
        lap = Laps(self.between_stages)
        root = _fresh_dir(self.work / "setup")
        kpm_cfg, _, train_cfg, spec_cfg = self._configs(
            OFFLINE_WARMUP_KPM_ITEMS, 1, 1, (GATE_SINR_DB,))
        data = datasets.gen_kpm_dataset(root / "kpm", kpm_cfg)
        lap("kpm_gen")
        windows, labels, _ = datasets.load_kpm_windows(data, 1)
        model = detect.train_detector(windows, labels, train_cfg).model
        evaluate.eval_detector(model, data, 1)
        lap("detector")
        specs = datasets.gen_spectrogram_dataset(root / "specs", spec_cfg)
        lap("spec_gen")
        evaluate.eval_localizer(specs)
        _fresh_dir(self.work / "pass")
        lap("loc_eval")
        return lap

    def op(self, i: int) -> OpResult:
        sizes = self.sizes
        return self._pass(sizes.timed_kpm_items, sizes.timed_kpm_items,
                          sizes.timed_spec_items_per_sinr)

    def acceptance_ops(self) -> list:
        """One pass at acceptance size, gated by criteria 3 and 4."""
        sizes = self.sizes
        result = self._pass(sizes.kpm_train_items, sizes.kpm_eval_items,
                            sizes.spec_items_per_sinr)
        stats = result.stats
        acc = stats["det_accuracy"]
        result.checks += [
            Check(f"detector N=4 accuracy >= {DET_ACCURACY_GATE} at SINR >= -4 dB",
                  acc >= DET_ACCURACY_GATE,
                  f"pooled {acc:.4f}; worst point {stats['det_worst_sinr_accuracy']:.4f}"),
            Check(f"localizer recall >= {LOC_RECALL_GATE} at SINR >= {GATE_SINR_DB:g} dB",
                  stats["loc_recall"] >= LOC_RECALL_GATE,
                  f"recall {stats['loc_recall']:.4f} over "
                  f"{stats['loc_truth_boxes']} truth boxes"),
        ]
        return [result]

    def _pass(self, kpm_items: int, eval_items: int, spec_per_sinr: int) -> OpResult:
        kpm_cfg, eval_cfg, train_cfg, spec_cfg = self._configs(
            kpm_items, eval_items, spec_per_sinr, SPEC_SINRS_DB)
        spec_items = _spec_items(spec_per_sinr)
        root = _fresh_dir(self.work / "pass")
        stats: dict = {}
        # Each stage is timed on its own, so that a run can scale each one by
        # the host's speed at the time it ran.
        lap = Laps(self.between_stages)

        train_dir = datasets.gen_kpm_dataset(root / "kpm_train", kpm_cfg)
        lap("kpm_gen_train")
        eval_dir = datasets.gen_kpm_dataset(root / "kpm_eval", eval_cfg)
        t_kpm = lap("kpm_gen_eval") + lap.parts["kpm_gen_train"]
        n_kpm = 2 * len(kpm_cfg.sinr_sweep_db) * (kpm_items + eval_items)

        t_train = t_eval = 0.0
        eval_windows = 0
        for n_stack in (1, 2, 3, 4):
            windows, labels, _ = datasets.load_kpm_windows(train_dir, n_stack)
            model = detect.train_detector(windows, labels, train_cfg).model
            model_path = root / f"detector_n{n_stack}.npz"
            model.save(model_path)
            t_train += lap(f"train_n{n_stack}")
            rows = evaluate.eval_detector(ClassifierModel.load(model_path), eval_dir,
                                          n_stack)
            t_eval += lap(f"det_eval_n{n_stack}")
            n = sum(r.n_windows for r in rows)
            eval_windows += n
            stats[f"det_accuracy_n{n_stack}"] = sum(
                r.accuracy * r.n_windows for r in rows) / n
        # Criterion 3: N=4 accuracy pooled over the sweep (every SINR >= -4 dB).
        stats["det_worst_sinr_accuracy"] = min(r.accuracy for r in rows)

        spec_dir = datasets.gen_spectrogram_dataset(root / "specs", spec_cfg)
        t_spec = lap("spec_gen")
        evaluate.eval_localizer(spec_dir)
        t_loc = lap("loc_eval")
        pooled = evaluate.pooled_localizer_metrics(spec_dir, min_sinr_db=GATE_SINR_DB)
        t_loc += lap("loc_pooled")

        records = sorted(p for d in (train_dir, eval_dir, spec_dir)
                         for p in d.rglob("*") if p.is_file())
        digest = file_digest((root, p) for p in records)
        stats.update({
            "kpm_items_per_s": n_kpm / t_kpm,
            "train_s": t_train,
            "det_eval_windows_per_s": eval_windows / t_eval,
            "spec_items_per_s": spec_items / t_spec,
            "loc_eval_items_per_s": spec_items / t_loc,
            "det_accuracy": stats["det_accuracy_n4"],
            "loc_recall": pooled.recall,
            "loc_mean_iou": pooled.mean_iou,
            "loc_truth_boxes": pooled.n_truth,
            "mean_bler_pct": _mean_kpm_bler(train_dir),
        })
        sim_s = (n_kpm * kpm_cfg.records_per_item * KPM_RECORD_SIM_S
                 + spec_items * SPEC_ITEM_SIM_S)
        return OpResult(lap.parts, lap.mids, sim_s, digest, [], stats)


def _spec_items(per_sinr: int) -> int:
    """Items in a spectrogram dataset: radar items plus radar-absent ones."""
    return len(SPEC_SINRS_DB) * (per_sinr + int(round(per_sinr * SPEC_ABSENT_FRACTION)))


def _mean_kpm_bler(dataset_dir: Path) -> float:
    records, _ = read_kpm_csv(dataset_dir / "kpm_dataset.csv")
    return float(np.mean([r.bler_pct for r in records]))


WORKLOADS = {
    "loop-radar": LoopWorkload,
    "loop-quiet": LoopWorkload,
    "offline": OfflineWorkload,
}
