"""Closed-loop scenario engine.

Simulation time advances in fixed telemetry periods, and each window runs
two steps.  The world step simulates the radio: the uplink emits one KPM
record and, while the controller is in Mode 2, the sensing receiver
captures one period of I/Q.  The pipeline step is what a deployed xApp
runs: it ingests the KPMs, takes the STFT of the I/Q and localizes the
radar, infers, and lets the controller decide.  The RAN applies the
commands before the *next* window (one-window control delay).  The latency
ledger times the pipeline stages only; wall-clock time never influences
simulation time.

Policies: ``baseline`` applies no control at all, ``blanking`` applies PRB
blanking only (MCS pinned at max), ``full`` adds BLER-driven AIMD MCS
adaptation on top.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
import math

import numpy as np
import yaml

from ..control import (
    CMD_BLANK,
    CMD_SET_MCS,
    CMD_UNBLANK_ALL,
    Command,
    LatencyLedger,
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
from ..detect import N_FEATURES, ClassifierModel, Detection, KpmWindow, infer, record_features
from ..errors import InvalidConfigError, InvalidParamsError, MissingModelError
from ..fileio import write_sidecar
from ..localize import localize
from ..ranlink import (
    KpmRecord,
    LinkConfig,
    MCS_MAX,
    RadarInterferenceProfile,
    UplinkSimulator,
    WINDOW_S,
    apply_prb_mask,
    radar_psd_per_prb,
    write_kpm_csv,
)
from ..signals import SAMPLE_RATE_HZ, IqBuffer, RadarParams, dbm_to_linear, sensing_capture
from ..spectro import FFT_SIZE, stft_spectrogram
from .datasets import DEFAULT_COUPLING_DB, interference_is_finite, interference_units

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
    telemetry_period_s: float = WINDOW_S
    n_stack: int = 1
    policy: str = POLICY_FULL
    sinr_schedule: list = field(default_factory=lambda: [(0.0, 8.0)])
    radar_schedule: list = field(default_factory=list)  # RadarWindow items
    offered_load_range_mbps: tuple = (1.0, 5.0)
    link: LinkConfig = field(default_factory=lambda: LinkConfig(base_sinr_db=35.0))
    coupling_db: float = DEFAULT_COUPLING_DB
    guard_prbs: int = 1
    seed: int = 0
    output_dir: str | None = None

    def validate(self) -> None:
        # The YAML loader reads these numbers too; a config built in Python
        # meets the same list, finite and integer checks here, and a string or a
        # bool is not a number.
        try:
            for name in ("duration_s", "telemetry_period_s", "coupling_db"):
                _number(getattr(self, name), name)
            if not isinstance(self.link, LinkConfig):
                raise ValueError(f"link must be a LinkConfig, not {type(self.link).__name__}")
            for name in ("base_sinr_db", "sinr_jitter_db"):
                _number(getattr(self.link, name), f"link.{name}")
            for name in ("sinr_schedule", "radar_schedule", "offered_load_range_mbps"):
                if not isinstance(value := getattr(self, name), (list, tuple)):
                    raise ValueError(f"{name} must be a list, not {type(value).__name__}")
            for name in ("n_stack", "guard_prbs", "seed"):
                _int(getattr(self, name), name)
            for i, step in enumerate(self.sinr_schedule):
                if not (isinstance(step, (list, tuple)) and len(step) == 2):
                    raise ValueError(f"sinr_schedule[{i}] must be a (t_start_s, sinr_db) "
                                     f"pair, not {step!r}")
                _number(step[0], f"sinr_schedule[{i}].t_start_s")
                _number(step[1], f"sinr_schedule[{i}].sinr_db")
            for i, w in enumerate(self.radar_schedule):
                if not isinstance(w, RadarWindow):
                    raise ValueError(f"radar_schedule[{i}] must be a RadarWindow, "
                                     f"not {type(w).__name__}")
                if not isinstance(w.params, RadarParams):
                    raise ValueError(f"radar_schedule[{i}].params must be a RadarParams, "
                                     f"not {type(w.params).__name__}")
                _number(w.t_on_s, f"radar_schedule[{i}].t_on_s")
                _number(w.t_off_s, f"radar_schedule[{i}].t_off_s")
            for i, bound in enumerate(self.offered_load_range_mbps):
                _number(bound, f"offered_load_range_mbps[{i}]")
        except ValueError as exc:
            raise InvalidConfigError(str(exc)) from exc
        # A level without a finite linear power overflows, or divides by zero,
        # in the first radar window: the coupling, and the radar's power at the
        # base station for each scheduled SINR.
        _level(self.coupling_db, "coupling_db")
        for i, (_, sinr) in enumerate(self.sinr_schedule):
            if not interference_is_finite(sinr, self.coupling_db):
                raise InvalidConfigError(
                    f"sinr_schedule[{i}].sinr_db {sinr} with coupling_db {self.coupling_db} "
                    f"puts a radar power at the base station that is not finite")
        if not self.telemetry_period_s > 0:
            raise InvalidConfigError("telemetry_period_s must be > 0")
        n_windows = self.duration_s / self.telemetry_period_s
        if not (n_windows < math.inf and round(n_windows) >= 1
                and math.isclose(n_windows, round(n_windows), rel_tol=1e-9)):
            raise InvalidConfigError(f"duration_s {self.duration_s} is not a whole number "
                                     f"(>= 1) of {self.telemetry_period_s} s windows")
        if self.policy not in POLICIES:
            raise InvalidConfigError(f"policy must be one of {POLICIES}")
        if self.n_stack < 1:
            raise InvalidConfigError("n_stack must be >= 1")
        # Mode 2 synthesizes one telemetry period of I/Q and takes its STFT.
        if round(self.telemetry_period_s * SAMPLE_RATE_HZ) < FFT_SIZE:
            raise InvalidConfigError(
                f"telemetry_period_s {self.telemetry_period_s} holds fewer than one "
                f"{FFT_SIZE}-sample STFT frame")
        if self.guard_prbs < 0:
            raise InvalidConfigError(f"guard_prbs must be >= 0, got {self.guard_prbs}")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        prev = None
        for i, w in enumerate(self.radar_schedule):
            if not 0.0 <= w.t_on_s < w.t_off_s <= self.duration_s:
                raise InvalidConfigError("radar window outside scenario duration")
            if prev is not None and w.t_on_s < prev:
                raise InvalidConfigError("radar windows must be ordered and disjoint")
            prev = w.t_off_s
            try:
                w.params.validate()
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
            raise InvalidConfigError("sinr_schedule entry outside duration")
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
    ledger: LatencyLedger
    output_dir: Path | None


def _sinr_at(config: ScenarioConfig, t0: float) -> float:
    current = config.sinr_schedule[0][1]
    for t_start, sinr in config.sinr_schedule:
        if t0 >= t_start:
            current = sinr
    return current


def ground_truth_radar_prbs(params: RadarParams) -> set[int]:
    """PRBs overlapped by the pulse main lobe (no guard)."""
    lobe = params.main_lobe_half_width_hz
    return map_extent_to_prbs((params.carrier_hz - lobe, params.carrier_hz + lobe),
                              guard_prbs=0)


def _delay_s(event_idx: int | None, start_idx: int | None, ts: float) -> float | None:
    """Seconds from the start window to the event window, both counted."""
    return None if event_idx is None or start_idx is None else (event_idx - start_idx + 1) * ts


class _World:
    """The simulated radio: the uplink, the sensing receiver and the RAN's settings."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.uplink = UplinkSimulator(config.link, config.telemetry_period_s)
        self.silent = RadarInterferenceProfile.silent()
        self.mask = apply_prb_mask(())
        self.mcs = MCS_MAX

    def step(self, k: int, sense: bool
             ) -> tuple[RadarWindow | None, KpmRecord, IqBuffer | None]:
        """Window k: the active radar, the KPM record and, if ``sense``, the I/Q."""
        config = self.config
        t0 = k * config.telemetry_period_s
        rng = np.random.default_rng([config.seed, k])
        radar_win = next((w for w in config.radar_schedule if w.t_on_s <= t0 < w.t_off_s),
                         None)
        sinr_db = _sinr_at(config, t0)
        profile = self.silent
        if radar_win is not None:
            units = interference_units(sinr_db, config.coupling_db)
            profile = radar_psd_per_prb(radar_win.params, units)
        offered = float(rng.uniform(*config.offered_load_range_mbps))
        kpm = self.uplink.step(self.mcs, self.mask, profile, offered,
                               seed=int(rng.integers(2 ** 63)))
        if not sense:
            return radar_win, kpm, None
        # The sensing receiver sees the emitter the link profile came from;
        # the cellular waveform honors the current PRB mask.
        cell_seed = int(rng.integers(2 ** 63))
        iq, _, _ = sensing_capture(
            None if radar_win is None else radar_win.params, sinr_db,
            config.telemetry_period_s, cell_seed, noise_seed=int(rng.integers(2 ** 63)),
            prb_mask=self.mask, measure_achieved=False)
        return radar_win, kpm, iq

    def apply(self, commands: list[Command]) -> None:
        """The RAN reconfigures the link for the next window."""
        for cmd in commands:
            if cmd.kind == CMD_BLANK:
                self.mask = apply_prb_mask(cmd.payload)
            elif cmd.kind == CMD_UNBLANK_ALL:
                self.mask = apply_prb_mask(())
            elif cmd.kind == CMD_SET_MCS:
                self.mcs = int(cmd.payload)


def _pipeline_step(ledger: LatencyLedger, controller: XappController,
                   detector: ClassifierModel | None, recent: deque, kpm: KpmRecord,
                   iq: IqBuffer | None) -> tuple[Detection, list[Command]]:
    """The xApp's window: ingest the KPMs, STFT and localize any I/Q, infer, decide."""
    recent.append(ledger.timed(STAGE_TELEMETRY_INGEST, record_features, kpm))
    boxes = None
    if iq is not None:
        power = ledger.timed(STAGE_SPECTROGRAM_BUILD, stft_spectrogram, iq)
        boxes = ledger.timed(STAGE_LOCALIZATION_INFERENCE, localize, power)
    return ledger.timed(STAGE_KPM_INFERENCE_POLICY, _decide, controller, detector, recent,
                        boxes, kpm.bler_pct)


def _decide(controller, detector, recent, boxes, bler_pct):
    if len(recent) < recent.maxlen:
        detection = Detection(False, 1.0)  # warm-up
    else:
        detection = infer(detector, KpmWindow(np.concatenate(list(recent)), recent.maxlen))
    return detection, controller.step(detection, boxes, bler_pct)


def run_scenario(config: ScenarioConfig, detector: ClassifierModel | None) -> ScenarioResult:
    """Run the closed loop; returns metrics and writes logs when output_dir set."""
    config.validate()
    if config.policy != POLICY_BASELINE:
        if detector is None:
            raise MissingModelError("control policies need a trained detector model")
        if config.n_stack * N_FEATURES != detector.input_size:
            raise InvalidConfigError(
                f"n_stack {config.n_stack} stacks {config.n_stack * N_FEATURES} features, "
                f"but the detector takes {detector.input_size}")

    ts = config.telemetry_period_s
    n_windows = int(round(config.duration_s / ts))
    ledger = LatencyLedger()
    world = _World(config)
    controller = XappController(guard_prbs=config.guard_prbs,
                                mcs_adaptation=(config.policy == POLICY_FULL))
    recent = deque(maxlen=config.n_stack)
    records, labels, command_log = [], [], []
    # window indices: radar on and off, and the loop's detection,
    # evacuation and restore
    onset = offset = detected = evacuated = restored = None

    for k in range(n_windows):
        radar_win, kpm, iq = world.step(k, sense=controller.mode_state.mode == Mode.MODE2)
        records.append(kpm)
        labels.append(int(radar_win is not None))
        if radar_win is not None and onset is None:
            onset = k
        if radar_win is None and onset is not None and offset is None:
            offset = k
        if config.policy == POLICY_BASELINE:
            continue

        detection, commands = _pipeline_step(ledger, controller, detector, recent, kpm, iq)
        ledger.timed(STAGE_CONTROL_DISPATCH, command_log.extend,
                     [(kpm.t_s, cmd) for cmd in commands])
        ledger.timed(STAGE_SPECTRUM_CONTROL, world.apply, commands)

        if detection.radar_present and detected is None:
            detected = k
        if radar_win is not None and evacuated is None:
            truth_prbs = ground_truth_radar_prbs(radar_win.params)
            if truth_prbs and truth_prbs <= set(np.nonzero(~world.mask)[0]):
                evacuated = k
        if offset is not None and restored is None and world.mask.all():
            restored = k

    summary = {
        "policy": config.policy,
        "n_windows": n_windows,
        "mean_throughput_mbps": float(np.mean([r.throughput_mbps for r in records])),
        "mean_bler_pct": float(np.mean([r.bler_pct for r in records])),
        "radar_mean_bler_pct": float(np.mean(
            [r.bler_pct for r, lab in zip(records, labels) if lab])) if any(labels) else 0.0,
        "detection_delay_s": _delay_s(detected, onset, ts),
        "evacuation_delay_s": _delay_s(evacuated, onset, ts),
        "restore_delay_s": _delay_s(restored, offset, ts),
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


def _number(value, name: str) -> float:
    """A finite number; a string or a bool is not one."""
    try:
        if not isinstance(value, (bool, str)) and math.isfinite(number := float(value)):
            return number
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be a finite number, not {value!r}")


def _level(db: float, name: str) -> None:
    """A dB level whose linear power is a finite, non-zero number."""
    try:
        linear = dbm_to_linear(db)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise InvalidConfigError(
            f"{name} sets a level of {db} dB, which has no finite, non-zero linear power")


def _float(value, name: str) -> float:
    """A YAML number.  PyYAML reads ``26e-6`` and ``2.5e6`` (no dot, or no
    exponent sign) as strings, so a numeric string converts."""
    try:
        return _number(float(value) if isinstance(value, str) else value, name)
    except ValueError:
        raise ValueError(f"{name} must be a finite number, not {value!r}") from None


def _int(value, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def _str(value, name: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise InvalidConfigError(f"{name} must be a string, not {type(value).__name__}")
    return value


def _mapping(value, where: str, readers: dict) -> dict:
    """Each key of a YAML mapping through its reader; an unknown key fails by name."""
    if not isinstance(value, dict):
        raise InvalidConfigError(f"{where} must be a mapping, not {type(value).__name__}")
    unknown = [key for key in value if key not in readers]
    if unknown:
        raise InvalidConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    return {key: readers[key](v, key) for key, v in value.items()}


def _each(read):
    """The reader of a YAML list whose entries ``read`` reads one by one."""
    def read_list(value, name: str) -> list:
        if not isinstance(value, list):
            raise InvalidConfigError(f"{name} must be a list, not {type(value).__name__}")
        return [read(v, f"{name}[{i}]") for i, v in enumerate(value)]
    return read_list


# A radar window's keys, and the defaults of those RadarParams has none for.
# The default center offset is 2.5 MHz, off DC, where RadarParams' own is 0.
_RADAR_KEYS = {"t_on_s": _float, "t_off_s": _float, "pulse_width_s": _float,
               "prr_hz": _float, "pulses_per_burst": _int, "burst_length_s": _float,
               "center_offset_hz": _float, "doppler_shift_hz": _float}
_RADAR_DEFAULTS = {"pulse_width_s": 26e-6, "prr_hz": 1000.0, "pulses_per_burst": 10,
                   "burst_length_s": WINDOW_S, "center_offset_hz": 2.5e6}


def _radar_window(value, where: str) -> RadarWindow:
    w = _mapping(value, where, _RADAR_KEYS)
    return RadarWindow(w.pop("t_on_s"), w.pop("t_off_s"), RadarParams(**_RADAR_DEFAULTS | w))


def _sinr_step(value, where: str) -> tuple[float, float]:
    step = _mapping(value, where, {"t_start_s": _float, "sinr_db": _float})
    return step["t_start_s"], step["sinr_db"]


# The YAML keys; a key left out keeps the ScenarioConfig (or its link's) default.
_SCENARIO_KEYS = {
    "duration_s": _float, "telemetry_period_s": _float, "n_stack": _int, "policy": _str,
    "sinr_schedule": _each(_sinr_step), "radar_schedule": _each(_radar_window),
    "offered_load_range_mbps": lambda value, name: tuple(_each(_float)(value, name)),
    "link": lambda value, name: _mapping(
        value, name, {"base_sinr_db": _float, "sinr_jitter_db": _float}),
    "coupling_db": _float, "guard_prbs": _int, "seed": _int, "output_dir": _str,
}


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a key given twice in one mapping, where
    PyYAML would keep the last value."""

    def construct_mapping(self, node, deep=False):
        # its own keys, before ``<<`` merge keys are flattened into it
        key_nodes = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)
        seen = set()
        for key_node in key_nodes:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found the key {key!r} twice", key_node.start_mark)
            seen.add(key)
        return mapping


def scenario_from_yaml(path) -> ScenarioConfig:
    """Load a scenario config from a YAML file; see README for the schema.

    Each mapping's keys are checked against the known ones, so a misspelt
    key fails by name rather than falling back to its default, and a key
    given twice fails by name rather than keeping its last value.
    """
    with open(str(path), "rb") as fh:  # the YAML reader decodes, and rejects bad bytes
        try:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader) or {}
        except yaml.YAMLError as exc:  # its message spans lines; the error is one
            raise InvalidConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
    try:
        values = _mapping(raw, "scenario config", _SCENARIO_KEYS)
        link = values.pop("link", {})
        config = ScenarioConfig(**values)
        config.link = replace(config.link, **link)
    except InvalidConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"bad scenario config: {exc}") from exc
    config.validate()
    return config
