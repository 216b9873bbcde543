"""Decision layer: AIMD MCS adaptation, box-to-PRB blanking, mode machine.

The MCS controller is a BLER-driven additive-increase/multiplicative-
decrease rule: hold while BLER is within AIMD_GAMMA of the last acted-upon
value, divide the index by AIMD_BETA above BLER_THRESH_PCT, add AIMD_BETA
otherwise, clamped to [MCS_MIN, MCS_MAX].  The reference BLER used for the
hold comparison advances only when an increase or decrease actually fires,
so a slow drift below AIMD_GAMMA per step still triggers action eventually.

The mode machine starts in MODE1 (KPM-only monitoring).  A detection
escalates to MODE2, which consumes localization boxes: radar boxes map to
a blanked PRB set (frequency-only, whole observation window, guard PRBs
added on each side).  Boxes take priority over the KPM detector while in
MODE2, since blanking hides the radar from the KPMs but not from the
sensing path; only when boxes and detector both report absence does the
system unblank everything and drop back to MODE1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
import math
import time

from .errors import (
    EmptyExtentError,
    InvalidParamsError,
    ProtocolViolationError,
)
from .fileio import write_csv
from .localize import FreqTimeBox, radar_freq_extent
from .ranlink import BAND_LOW_HZ, MCS_MAX, MCS_MIN
from .signals import N_PRBS, PRB_BANDWIDTH_HZ


class Action(Enum):
    INCR = "INCR"
    DECR = "DECR"
    HOLD = "HOLD"


class Mode(Enum):
    MODE1 = "MODE1"
    MODE2 = "MODE2"


AIMD_GAMMA = 1.0       # hold band on BLER, in percentage points
AIMD_BETA = 2          # MCS step up, and divisor down
BLER_THRESH_PCT = 5.0  # BLER above which the MCS decreases


@dataclass(frozen=True)
class McsControllerState:
    mcs: int = MCS_MAX
    bler_prev: float = 0.0
    last_action: Action = Action.HOLD

    def __post_init__(self):
        if not MCS_MIN <= self.mcs <= MCS_MAX:
            raise InvalidParamsError(f"mcs outside [{MCS_MIN}, {MCS_MAX}]")


def mcs_update(state: McsControllerState, bler: float) -> McsControllerState:
    """One AIMD step from the observed BLER (percent)."""
    if not 0.0 <= bler <= 100.0:
        raise InvalidParamsError(f"bler {bler} outside [0, 100]")
    if abs(bler - state.bler_prev) < AIMD_GAMMA:
        if state.last_action == Action.HOLD:
            return state
        return replace(state, last_action=Action.HOLD)
    if bler > BLER_THRESH_PCT:
        new_mcs = max(state.mcs // AIMD_BETA, MCS_MIN)
        return replace(state, mcs=new_mcs, bler_prev=bler, last_action=Action.DECR)
    new_mcs = min(state.mcs + AIMD_BETA, MCS_MAX)
    return replace(state, mcs=new_mcs, bler_prev=bler, last_action=Action.INCR)


def map_extent_to_prbs(extent: tuple[float, float], guard_prbs: int = 1) -> set[int]:
    """PRBs whose span overlaps the extent, dilated by guard_prbs each side.

    PRB i spans [ranlink.PRB_EDGES_HZ[i], PRB_EDGES_HZ[i + 1]) of the
    DC-centered band; overlap requires positive measure, so an extent exactly
    on a PRB boundary does not drag in the neighbor.
    """
    f_low, f_high = extent
    if not f_low < f_high:
        raise EmptyExtentError("extent must have positive width")
    if guard_prbs < 0:
        raise InvalidParamsError("guard_prbs must be >= 0")
    first = math.floor((f_low - BAND_LOW_HZ) / PRB_BANDWIDTH_HZ) - guard_prbs
    last = math.ceil((f_high - BAND_LOW_HZ) / PRB_BANDWIDTH_HZ) - 1 + guard_prbs
    return set(range(max(first, 0), min(last, N_PRBS - 1) + 1))


# Command kinds on the control output stream
CMD_BLANK = "BLANK"
CMD_UNBLANK_ALL = "UNBLANK_ALL"
CMD_SET_MCS = "SET_MCS"
CMD_REQUEST_IQ = "REQUEST_IQ"
CMD_STOP_IQ = "STOP_IQ"


@dataclass(frozen=True)
class Command:
    kind: str
    payload: object = None


@dataclass(frozen=True)
class ModeState:
    mode: Mode = Mode.MODE1
    blanked_prbs: frozenset[int] = frozenset()


def mode_step(state: ModeState, detection, localization: list[FreqTimeBox] | None,
              guard_prbs: int = 1) -> tuple[ModeState, list[Command]]:
    """Mode transitions and blanking commands for one observation window.

    ``detection`` is the KPM detector output (``.radar_present``);
    ``localization`` must be None in MODE1.  MCS commands are layered on
    top by XappController, which owns the AIMD state.
    """
    if state.mode == Mode.MODE1 and localization is not None:
        raise ProtocolViolationError("localization input not permitted in MODE1")

    commands: list[Command] = []
    detected = bool(detection.radar_present)

    if state.mode == Mode.MODE1:
        if detected:
            return replace(state, mode=Mode.MODE2), [Command(CMD_REQUEST_IQ)]
        return state, commands

    boxes = localization or []
    extent = radar_freq_extent(boxes)
    if extent is not None:
        # Radar boxes outrank the KPM detector: blanking hides the radar
        # from KPMs but the sensing path still sees it.
        prbs = frozenset(map_extent_to_prbs(extent, guard_prbs))
        if prbs != state.blanked_prbs:
            commands.append(Command(CMD_BLANK, prbs))
            state = replace(state, blanked_prbs=prbs)
        return state, commands
    if not detected:
        commands.append(Command(CMD_UNBLANK_ALL))
        commands.append(Command(CMD_STOP_IQ))
        return ModeState(), commands
    # detector says present but no boxes: keep the current blank set, retry
    return state, commands


# Latency ledger stages
STAGE_TELEMETRY_INGEST = "telemetry_ingest"
STAGE_KPM_INFERENCE_POLICY = "kpm_inference_policy"
STAGE_CONTROL_DISPATCH = "control_dispatch"
STAGE_SPECTROGRAM_BUILD = "spectrogram_build"
STAGE_LOCALIZATION_INFERENCE = "localization_inference"
STAGE_SPECTRUM_CONTROL = "spectrum_control"

ALL_STAGES = (STAGE_TELEMETRY_INGEST, STAGE_KPM_INFERENCE_POLICY,
              STAGE_CONTROL_DISPATCH, STAGE_SPECTROGRAM_BUILD,
              STAGE_LOCALIZATION_INFERENCE, STAGE_SPECTRUM_CONTROL)

MODE1_STAGES = (STAGE_TELEMETRY_INGEST, STAGE_KPM_INFERENCE_POLICY,
                STAGE_CONTROL_DISPATCH)
MODE2_STAGES = (STAGE_SPECTROGRAM_BUILD, STAGE_LOCALIZATION_INFERENCE,
                STAGE_CONTROL_DISPATCH, STAGE_SPECTRUM_CONTROL)


@dataclass
class LatencyLedger:
    """Accumulates wall-clock stage durations (seconds)."""

    totals_s: dict = field(default_factory=lambda: {s: 0.0 for s in ALL_STAGES})
    counts: dict = field(default_factory=lambda: {s: 0 for s in ALL_STAGES})

    def record_stage(self, stage: str, duration_s: float) -> None:
        if stage not in self.totals_s:
            raise InvalidParamsError(f"unknown stage {stage!r}")
        if duration_s < 0:
            raise InvalidParamsError("duration must be >= 0")
        self.totals_s[stage] += duration_s
        self.counts[stage] += 1

    def timed(self, stage: str, fn, *args):
        """Call ``fn(*args)``, record its wall time under ``stage``, return its value."""
        t0 = time.perf_counter()
        value = fn(*args)
        self.record_stage(stage, time.perf_counter() - t0)
        return value

    def mean_s(self, stage: str) -> float:
        n = self.counts[stage]
        return self.totals_s[stage] / n if n else 0.0

    def mode1_total_s(self) -> float:
        return sum(self.mean_s(s) for s in MODE1_STAGES)

    def mode2_total_s(self) -> float:
        return sum(self.mean_s(s) for s in MODE2_STAGES)

    def report(self) -> str:
        """Text table pairing the detection path with the evacuation path."""
        def ms(x):
            return f"{x * 1e3:10.3f} ms"

        rows = [
            (STAGE_TELEMETRY_INGEST, STAGE_SPECTROGRAM_BUILD),
            (STAGE_KPM_INFERENCE_POLICY, STAGE_LOCALIZATION_INFERENCE),
            (STAGE_CONTROL_DISPATCH, STAGE_CONTROL_DISPATCH),
            (None, STAGE_SPECTRUM_CONTROL),
        ]
        width = 28
        lines = [
            f"{'radar detection (mode 1)':<{width}} {'mean/window':>13} | "
            f"{'localization + control (mode 2)':<{width}} {'mean/window':>13}",
            "-" * (2 * width + 33),
        ]
        for left, right in rows:
            lcell = f"{left:<{width}} {ms(self.mean_s(left))}" if left else " " * (width + 14)
            rcell = f"{right:<{width}} {ms(self.mean_s(right))}"
            lines.append(f"{lcell} | {rcell}")
        lines.append("-" * (2 * width + 33))
        lines.append(f"{'mode1 total':<{width}} {ms(self.mode1_total_s())} | "
                     f"{'mode2 total':<{width}} {ms(self.mode2_total_s())}")
        lines.append("i/q transport over the control interface: not modeled")
        return "\n".join(lines)


class XappController:
    """Single logical actor: consumes ordered telemetry, emits ordered commands.

    Owns the mode machine and the AIMD MCS state; SET_MCS commands are
    emitted whenever the AIMD step changes the index, in both modes.
    """

    def __init__(self, guard_prbs: int = 1, mcs_adaptation: bool = True,
                 blanking: bool = True):
        self.mcs_state = McsControllerState()
        self.mode_state = ModeState()
        self.guard_prbs = guard_prbs
        self.mcs_adaptation = mcs_adaptation
        self.blanking = blanking

    def step(self, detection, localization: list[FreqTimeBox] | None,
             bler_pct: float) -> list[Command]:
        commands: list[Command] = []
        if self.blanking:
            self.mode_state, commands = mode_step(
                self.mode_state, detection, localization, self.guard_prbs)
        if self.mcs_adaptation:
            new_state = mcs_update(self.mcs_state, bler_pct)
            if new_state.mcs != self.mcs_state.mcs:
                commands.append(Command(CMD_SET_MCS, new_state.mcs))
            self.mcs_state = new_state
        return commands


def write_command_log(path, entries: list[tuple[float, Command]]) -> None:
    """Line-delimited command records: t_s, kind, payload."""
    def text(payload) -> str:
        if isinstance(payload, (set, frozenset)):
            return " ".join(str(p) for p in sorted(payload))
        return "" if payload is None else str(payload)
    write_csv(path, ["t_s", "kind", "payload"],
              ([repr(t_s), cmd.kind, text(cmd.payload)] for t_s, cmd in entries))
