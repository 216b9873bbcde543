"""Closed-loop scenario engine.

Simulation time advances in fixed telemetry periods; each window the uplink
emits one KPM record, the controller consumes it (plus an I/Q window when it
has escalated), and the commands it emits reconfigure the link for the
*next* window (one-window control delay).  Wall-clock durations of the
compute stages are accumulated in the latency ledger; they never influence
simulation time.

Policies: ``baseline`` applies no control at all, ``blanking`` applies PRB
blanking only (MCS pinned at max), ``full`` adds BLER-driven AIMD MCS
adaptation on top.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
import time

import numpy as np
import yaml

from ..control import (
    CMD_BLANK,
    CMD_SET_MCS,
    CMD_UNBLANK_ALL,
    Mode,
    STAGE_CONTROL_DISPATCH,
    STAGE_KPM_INFERENCE_POLICY,
    STAGE_LOCALIZATION_INFERENCE,
    STAGE_SPECTRUM_CONTROL,
    STAGE_SPECTROGRAM_BUILD,
    STAGE_TELEMETRY_INGEST,
    XappController,
    map_extent_to_prbs,
    write_command_log,
)
from ..detect import ClassifierModel, Detection, KpmWindow, infer, record_features
from ..errors import InvalidConfigError, InvalidParamsError, MissingModelError
from ..fileio import write_sidecar
from ..localize import LocalizerConfig, localize
from ..ranlink import (
    LinkConfig,
    MCS_MAX,
    RadarInterferenceProfile,
    UplinkSimulator,
    apply_prb_mask,
    radar_psd_per_prb,
    write_kpm_csv,
)
from ..signals import (
    DEFAULT_SAMPLE_RATE_HZ,
    CellularParams,
    IqBuffer,
    RadarParams,
    SinrSpec,
    gen_cellular_baseband,
    gen_radar_pulse_train,
    mix_at_sinr,
)
from ..spectro import stft_spectrogram
from .datasets import (
    COMBINED_DBM_MHZ,
    DEFAULT_COUPLING_DB,
    MODE2_STFT,
    interference_units,
)

POLICY_BASELINE = "baseline"
POLICY_BLANKING = "blanking"
POLICY_FULL = "full"
POLICIES = (POLICY_BASELINE, POLICY_BLANKING, POLICY_FULL)


@dataclass(frozen=True)
class RadarWindow:
    t_on_s: float
    t_off_s: float
    params: RadarParams


@dataclass
class ScenarioConfig:
    duration_s: float = 2.0
    telemetry_period_s: float = 0.01
    n_stack: int = 1
    policy: str = POLICY_FULL
    sinr_schedule: list = field(default_factory=lambda: [(0.0, 8.0)])
    radar_schedule: list = field(default_factory=list)  # RadarWindow items
    offered_load_range_mbps: tuple = (1.0, 5.0)
    link: LinkConfig = field(default_factory=lambda: LinkConfig(base_sinr_db=35.0))
    combined_dbm_mhz: float = COMBINED_DBM_MHZ
    coupling_db: float = DEFAULT_COUPLING_DB
    guard_prbs: int = 1
    stft: object = MODE2_STFT
    localizer: LocalizerConfig = field(default_factory=LocalizerConfig)
    seed: int = 0
    output_dir: str | None = None

    def validate(self) -> None:
        if self.telemetry_period_s <= 0:
            raise InvalidConfigError("telemetry_period_s must be > 0")
        if self.duration_s < self.telemetry_period_s:
            raise InvalidConfigError("duration_s must cover one window")
        if self.policy not in POLICIES:
            raise InvalidConfigError(f"policy must be one of {POLICIES}")
        if self.n_stack < 1:
            raise InvalidConfigError("n_stack must be >= 1")
        # Mode 2 synthesizes one telemetry period of I/Q and takes its STFT.
        if round(self.telemetry_period_s * DEFAULT_SAMPLE_RATE_HZ) < self.stft.fft_size:
            raise InvalidConfigError(
                f"telemetry_period_s {self.telemetry_period_s} holds fewer than one "
                f"{self.stft.fft_size}-sample STFT frame")
        prev = None
        for i, w in enumerate(self.radar_schedule):
            if not 0.0 <= w.t_on_s < w.t_off_s <= self.duration_s:
                raise InvalidConfigError("radar window outside scenario duration")
            if prev is not None and w.t_on_s < prev:
                raise InvalidConfigError("radar windows must be ordered and disjoint")
            prev = w.t_off_s
            try:
                w.params.validate(DEFAULT_SAMPLE_RATE_HZ)
            except InvalidParamsError as exc:
                raise InvalidConfigError(f"radar_schedule[{i}]: {exc}") from exc
            if w.params.burst_length_s > self.telemetry_period_s:
                raise InvalidConfigError(
                    f"radar_schedule[{i}]: burst_length_s {w.params.burst_length_s} "
                    f"exceeds telemetry_period_s {self.telemetry_period_s}")
        if not self.sinr_schedule:
            raise InvalidConfigError("sinr_schedule must not be empty")
        starts = [t_start for t_start, _ in self.sinr_schedule]
        if any(not 0.0 <= t_start <= self.duration_s for t_start in starts):
            raise InvalidConfigError("sinr schedule entry outside duration")
        if starts != sorted(starts):
            raise InvalidConfigError("sinr_schedule start times must be sorted")
        load = self.offered_load_range_mbps
        if len(load) != 2 or not 0.0 <= load[0] <= load[1]:
            raise InvalidConfigError(
                "offered_load_range_mbps must be (low, high) with 0 <= low <= high")


@dataclass
class ScenarioResult:
    summary: dict
    records: list
    labels: list
    commands: list          # (t_s, Command)
    ledger: object
    output_dir: Path | None


def _active_radar(config: ScenarioConfig, t0: float) -> RadarWindow | None:
    for w in config.radar_schedule:
        if w.t_on_s <= t0 < w.t_off_s:
            return w
    return None


def _sinr_at(config: ScenarioConfig, t0: float) -> float:
    current = config.sinr_schedule[0][1]
    for t_start, sinr in config.sinr_schedule:
        if t0 >= t_start:
            current = sinr
    return current


def ground_truth_radar_prbs(params: RadarParams, link: LinkConfig) -> set[int]:
    """PRBs overlapped by the pulse main lobe (no guard)."""
    lobe = params.main_lobe_half_width_hz
    return map_extent_to_prbs((params.carrier_hz - lobe, params.carrier_hz + lobe),
                              link, guard_prbs=0)


def run_scenario(config: ScenarioConfig, detector: ClassifierModel | None) -> ScenarioResult:
    """Run the closed loop; returns metrics and writes logs when output_dir set."""
    config.validate()
    if detector is None and config.policy != POLICY_BASELINE:
        raise MissingModelError("control policies need a trained detector model")

    link = config.link
    ts = config.telemetry_period_s
    n_windows = int(round(config.duration_s / ts))
    uplink = UplinkSimulator(link)
    controller = XappController(
        link=link,
        guard_prbs=config.guard_prbs,
        mcs_adaptation=(config.policy == POLICY_FULL),
        blanking=(config.policy in (POLICY_BLANKING, POLICY_FULL)),
    )
    ledger = controller.ledger

    silent = RadarInterferenceProfile.silent(link.n_prbs)
    mask = np.ones(link.n_prbs, dtype=bool)
    mcs = MCS_MAX
    recent = deque(maxlen=config.n_stack)

    records, labels, command_log = [], [], []
    detect_window_idx = None
    evac_window_idx = None
    restore_window_idx = None
    onset_idx = None
    offset_idx = None

    for k in range(n_windows):
        t0 = k * ts
        rng = np.random.default_rng([config.seed, k])
        radar_win = _active_radar(config, t0)
        sinr_db = _sinr_at(config, t0)
        if radar_win is not None and onset_idx is None:
            onset_idx = k
        if radar_win is None and onset_idx is not None and offset_idx is None:
            offset_idx = k

        # RAN side: one telemetry period of uplink under current settings
        if radar_win is not None:
            units = interference_units(sinr_db, link, config.combined_dbm_mhz,
                                       config.coupling_db)
            profile = radar_psd_per_prb(radar_win.params, units, link)
        else:
            profile = silent
        offered = float(rng.uniform(*config.offered_load_range_mbps))
        kpm = uplink.step(mcs, mask, profile, offered, seed=int(rng.integers(2 ** 63)))
        records.append(kpm)
        labels.append(int(radar_win is not None))

        if config.policy == POLICY_BASELINE:
            continue

        # xApp side: ingest telemetry, infer, decide
        t_start = time.perf_counter()
        recent.append(record_features(kpm))
        ledger.record_stage(STAGE_TELEMETRY_INGEST, time.perf_counter() - t_start)

        iq_active = controller.mode_state.mode == Mode.MODE2

        boxes = None
        if iq_active:
            t_spec = time.perf_counter()
            # Sensing path reuses the same emitter the link profile came
            # from; the cellular waveform honors the current PRB mask.
            cell_iq = gen_cellular_baseband(
                CellularParams(active_prb_mask=mask), ts,
                seed=int(rng.integers(2 ** 63)))
            powers = SinrSpec.from_target(sinr_db, config.combined_dbm_mhz)
            if radar_win is not None:
                radar_iq = gen_radar_pulse_train(radar_win.params, ts,
                                                 cell_iq.sample_rate_hz)
            else:
                radar_iq = IqBuffer(np.zeros(cell_iq.n_samples),
                                    cell_iq.sample_rate_hz)
                powers = SinrSpec(float("-inf"), powers.p_cellular_dbm_mhz,
                                  powers.p_noise_dbm_mhz)
            composite, _ = mix_at_sinr(radar_iq, cell_iq, powers,
                                       seed=int(rng.integers(2 ** 63)),
                                       measure_achieved=False)
            sgram = stft_spectrogram(composite, config.stft)
            ledger.record_stage(STAGE_SPECTROGRAM_BUILD, time.perf_counter() - t_spec)
            t_loc = time.perf_counter()
            boxes = localize(sgram, config.localizer)
            ledger.record_stage(STAGE_LOCALIZATION_INFERENCE,
                                time.perf_counter() - t_loc)

        t_infer = time.perf_counter()
        if len(recent) == config.n_stack:
            window = KpmWindow(np.concatenate(list(recent)), config.n_stack)
            detection = infer(detector, window)
        else:
            detection = Detection(False, 1.0)  # warm-up
        commands = controller.step(detection, boxes, kpm.bler_pct)
        ledger.record_stage(STAGE_KPM_INFERENCE_POLICY, time.perf_counter() - t_infer)

        t_dispatch = time.perf_counter()
        for cmd in commands:
            command_log.append((kpm.t_s, cmd))
        ledger.record_stage(STAGE_CONTROL_DISPATCH, time.perf_counter() - t_dispatch)

        if detection.radar_present and detect_window_idx is None:
            detect_window_idx = k

        # RAN applies commands before the next window (one-window delay)
        t_apply = time.perf_counter()
        for cmd in commands:
            if cmd.kind == CMD_BLANK:
                mask = apply_prb_mask(link, cmd.payload)
            elif cmd.kind == CMD_UNBLANK_ALL:
                mask = np.ones(link.n_prbs, dtype=bool)
            elif cmd.kind == CMD_SET_MCS:
                mcs = int(cmd.payload)
        ledger.record_stage(STAGE_SPECTRUM_CONTROL, time.perf_counter() - t_apply)

        # delay bookkeeping against ground truth
        if radar_win is not None and evac_window_idx is None:
            truth_prbs = ground_truth_radar_prbs(radar_win.params, link)
            if truth_prbs and truth_prbs <= set(np.nonzero(~mask)[0]):
                evac_window_idx = k
        if (offset_idx is not None and restore_window_idx is None
                and k >= offset_idx and mask.all()):
            restore_window_idx = k

    summary = {
        "policy": config.policy,
        "n_windows": n_windows,
        "mean_throughput_mbps": float(np.mean([r.throughput_mbps for r in records])),
        "mean_bler_pct": float(np.mean([r.bler_pct for r in records])),
        "radar_mean_bler_pct": float(np.mean(
            [r.bler_pct for r, lab in zip(records, labels) if lab])) if any(labels) else 0.0,
        "detection_delay_s": ((detect_window_idx - onset_idx + 1) * ts
                              if detect_window_idx is not None and onset_idx is not None
                              else None),
        "evacuation_delay_s": ((evac_window_idx - onset_idx + 1) * ts
                               if evac_window_idx is not None and onset_idx is not None
                               else None),
        "restore_delay_s": ((restore_window_idx - offset_idx + 1) * ts
                            if restore_window_idx is not None and offset_idx is not None
                            else None),
    }

    out_dir = None
    if config.output_dir is not None:
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_kpm_csv(out_dir / "kpm_log.csv", records, labels)
        write_command_log(out_dir / "command_log.csv", command_log)
        (out_dir / "latency_report.txt").write_text(ledger.report() + "\n")
        write_sidecar(out_dir / "summary.txt",
                      {k: v for k, v in summary.items() if v is not None})
    return ScenarioResult(summary, records, labels, command_log, ledger, out_dir)


def scenario_from_yaml(path) -> ScenarioConfig:
    """Load a scenario config from a YAML file; see README for the schema."""
    with open(str(path)) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise InvalidConfigError(
            f"scenario config root must be a mapping, not {type(raw).__name__}")
    link_raw = raw.get("link", {})
    if not isinstance(link_raw, dict):
        raise InvalidConfigError(f"link must be a mapping, not {type(link_raw).__name__}")
    try:
        radar_schedule = [
            RadarWindow(
                t_on_s=float(w["t_on_s"]),
                t_off_s=float(w["t_off_s"]),
                params=RadarParams(
                    pulse_width_s=float(w.get("pulse_width_s", 26e-6)),
                    prr_hz=float(w.get("prr_hz", 1000.0)),
                    pulses_per_burst=int(w.get("pulses_per_burst", 10)),
                    burst_length_s=float(w.get("burst_length_s", 0.01)),
                    center_offset_hz=float(w.get("center_offset_hz", 2.5e6)),
                    doppler_shift_hz=float(w.get("doppler_shift_hz", 0.0)),
                ),
            )
            for w in raw.get("radar_schedule", [])
        ]
        link = LinkConfig(
            base_sinr_db=float(link_raw.get("base_sinr_db", 35.0)),
            sinr_jitter_db=float(link_raw.get("sinr_jitter_db", 0.5)),
        )
        config = ScenarioConfig(
            duration_s=float(raw.get("duration_s", 2.0)),
            telemetry_period_s=float(raw.get("telemetry_period_s", 0.01)),
            n_stack=int(raw.get("n_stack", 1)),
            policy=str(raw.get("policy", POLICY_FULL)),
            sinr_schedule=[(float(e["t_start_s"]), float(e["sinr_db"]))
                           for e in raw.get("sinr_schedule", [{"t_start_s": 0,
                                                               "sinr_db": 8.0}])],
            radar_schedule=radar_schedule,
            offered_load_range_mbps=tuple(float(v) for v in
                                          raw.get("offered_load_range_mbps", (1.0, 5.0))),
            link=link,
            coupling_db=float(raw.get("coupling_db", DEFAULT_COUPLING_DB)),
            guard_prbs=int(raw.get("guard_prbs", 1)),
            seed=int(raw.get("seed", 0)),
            output_dir=raw.get("output_dir"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"bad scenario config: {exc}") from exc
    config.validate()
    return config
