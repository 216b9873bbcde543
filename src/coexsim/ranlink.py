"""Abstract cellular uplink at PRB granularity under pulsed radar interference.

The link model is intentionally simple: per active PRB an effective SINR is
the configured base SINR degraded by duty-cycle-weighted radar interference
(linear-domain), BLER follows a logistic waterfall in the gap between the
MCS's required SINR and the effective SINR, and throughput is the offered
load capped by the surviving capacity.  Interference profile entries are
expressed in units of the link's per-PRB noise floor.

Telemetry comes out as KpmRecord rows (one per reporting period) and can be
logged to CSV with an optional trailing label column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidParamsError
from .fileio import read_csv, write_csv
from .signals import N_PRBS, PRB_BANDWIDTH_HZ, RadarParams

MCS_MIN = 0
MCS_MAX = 28
WINDOW_S = 0.01  # default KPM reporting period, which is also the I/Q capture length
SYMBOL_OVERHEAD = 0.75  # share of a PRB's resource elements that carry data
BLER_SLOPE = 0.5  # logistic BLER waterfall, per dB of SINR shortfall

# signals' PRB grid: PRB i spans [PRB_EDGES_HZ[i], PRB_EDGES_HZ[i + 1]).
BAND_LOW_HZ = -N_PRBS * PRB_BANDWIDTH_HZ / 2.0
PRB_EDGES_HZ = BAND_LOW_HZ + np.arange(N_PRBS + 1) * PRB_BANDWIDTH_HZ
PRB_EDGES_HZ.setflags(write=False)


# LTE-shaped MCS table, indexed by MCS 0..28: spectral efficiency climbs
# 0.15 to 5.55 bits/symbol equivalent, and the required SINR is linear in
# the index from -6 to +22 dB.
SPECTRAL_EFFICIENCY = 0.15 + np.arange(MCS_MAX + 1) * (5.55 - 0.15) / MCS_MAX
SINR_REQUIRED_DB = -6.0 + np.arange(MCS_MAX + 1) * 1.0


def check_mcs(mcs: int) -> int:
    """``mcs`` as an index into the MCS table; out of range raises."""
    if not MCS_MIN <= mcs <= MCS_MAX:
        raise InvalidParamsError(f"mcs {mcs} outside {MCS_MIN}..{MCS_MAX}")
    return int(mcs)


@dataclass(frozen=True)
class LinkConfig:
    base_sinr_db: float = 30.0
    sinr_jitter_db: float = 0.5      # per-period wideband fading jitter

    def __post_init__(self):
        if not self.sinr_jitter_db >= 0:  # also rejects NaN
            raise InvalidParamsError(f"sinr_jitter_db must be >= 0, got {self.sinr_jitter_db}")


@dataclass(frozen=True)
class KpmRecord:
    t_s: float
    throughput_mbps: float
    bler_pct: float
    mcs: int
    bsr_bytes: int
    sinr_db: float

    def __post_init__(self):
        if self.throughput_mbps < 0 or not 0 <= self.bler_pct <= 100:
            raise InvalidParamsError("KPM fields out of range")
        if not MCS_MIN <= self.mcs <= MCS_MAX or self.bsr_bytes < 0:
            raise InvalidParamsError("KPM fields out of range")


@dataclass(frozen=True)
class RadarInterferenceProfile:
    """Per-PRB radar interference (units of the per-PRB noise floor) and duty."""

    per_prb_interference: np.ndarray
    duty_cycle: float

    def __post_init__(self):
        arr = np.asarray(self.per_prb_interference, dtype=float)
        if np.any(arr < 0):
            raise InvalidParamsError("interference entries must be >= 0")
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise InvalidParamsError("duty_cycle must be in [0, 1]")
        object.__setattr__(self, "per_prb_interference", arr)

    @classmethod
    def silent(cls) -> "RadarInterferenceProfile":
        return cls(np.zeros(N_PRBS), 0.0)


def _sinc_sq_antiderivative(x: float) -> float:
    """An antiderivative of sinc^2(x) = (sin(pi x)/(pi x))^2, zero at 0; total mass 1.

    Takes a scalar: numpy squares a scalar through ``pow`` and an array
    through ``square``, which differ in the last bit for some inputs.
    """
    if x == 0.0:
        return 0.0
    si, _ = special.sici(2.0 * np.pi * x)
    return (si - np.sin(np.pi * x) ** 2 / (np.pi * x)) / np.pi


def radar_psd_per_prb(radar: RadarParams, p_radar_linear: float) -> RadarInterferenceProfile:
    """Integrate the analytic pulse PSD, sinc^2((f - fc) * pw), over each PRB.

    ``p_radar_linear`` is the pulse-on (peak) radar power at the receiver in
    whatever linear unit the caller works in; the profile entries come out
    in the same unit.  Total mass over all frequencies equals
    ``p_radar_linear``.  The antiderivative is taken once per PRB edge.
    """
    if p_radar_linear < 0:
        raise InvalidParamsError("p_radar_linear must be >= 0")
    out = np.zeros(N_PRBS)
    if p_radar_linear > 0.0:
        pw = radar.pulse_width_s
        fc = radar.carrier_hz
        cdf = [_sinc_sq_antiderivative((edge - fc) * pw) for edge in PRB_EDGES_HZ]
        for i in range(N_PRBS):
            out[i] = p_radar_linear * (cdf[i + 1] - cdf[i])
    return RadarInterferenceProfile(out, radar.duty_cycle())


def apply_prb_mask(prbs_to_blank) -> np.ndarray:
    """All-active mask with exactly the listed PRBs blanked; idempotent."""
    mask = np.ones(N_PRBS, dtype=bool)
    for prb in prbs_to_blank:
        if not 0 <= prb < N_PRBS:
            raise InvalidParamsError(f"PRB index {prb} out of range 0..{N_PRBS - 1}")
        mask[prb] = False
    return mask


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


class UplinkSimulator:
    """Single-writer state machine; each step emits one KPM record.

    Each step covers one reporting period of ``period_s`` seconds.  State is
    the elapsed time and the uplink buffer backlog; everything else is a
    pure function of the step inputs and the seed.
    """

    def __init__(self, link: LinkConfig = LinkConfig(), period_s: float = WINDOW_S):
        if not period_s > 0:
            raise InvalidParamsError(f"period_s must be > 0, got {period_s}")
        self.link = link
        self.period_s = period_s
        self.t_s = 0.0
        self.backlog_bits = 0.0

    def step(self, mcs: int, prb_mask: np.ndarray,
             profile: RadarInterferenceProfile,
             offered_load_mbps: float, seed=None) -> KpmRecord:
        link = self.link
        mcs = check_mcs(mcs)
        prb_mask = np.asarray(prb_mask, dtype=bool)
        if prb_mask.size != N_PRBS:
            raise InvalidParamsError(f"prb_mask length != {N_PRBS} PRBs")
        if profile.per_prb_interference.size != N_PRBS:
            raise InvalidParamsError(f"profile length != {N_PRBS} PRBs")

        rng = np.random.default_rng(seed)
        base_db = link.base_sinr_db + rng.normal(0.0, link.sinr_jitter_db)

        # duty-weighted interference, linear-domain, noise floor = 1 per PRB
        i_over_n = profile.per_prb_interference * profile.duty_cycle
        sinr_eff_db = base_db - 10.0 * np.log10(1.0 + i_over_n)

        n_active = int(np.count_nonzero(prb_mask))
        if n_active == 0:
            self.backlog_bits += offered_load_mbps * 1e6 * self.period_s
            self.t_s += self.period_s
            return KpmRecord(self.t_s, 0.0, 0.0, mcs,
                             int(self.backlog_bits / 8), base_db)

        # Means as sum / count: numpy's own np.mean arithmetic, without its
        # per-call dispatch.
        sinr_active = sinr_eff_db[prb_mask]
        required = float(SINR_REQUIRED_DB[mcs])
        per_prb_bler = _logistic(BLER_SLOPE * (required - sinr_active))
        bler = float(per_prb_bler.sum() / n_active)

        capacity_mbps = (float(SPECTRAL_EFFICIENCY[mcs]) * n_active
                         * PRB_BANDWIDTH_HZ * SYMBOL_OVERHEAD
                         * (1.0 - bler)) / 1e6
        throughput = min(offered_load_mbps, capacity_mbps)
        self.backlog_bits += max(0.0, (offered_load_mbps - throughput)
                                 * 1e6 * self.period_s)
        self.t_s += self.period_s
        return KpmRecord(
            t_s=self.t_s,
            throughput_mbps=throughput,
            bler_pct=100.0 * bler,
            mcs=mcs,
            bsr_bytes=int(self.backlog_bits / 8),
            sinr_db=float(sinr_active.sum() / n_active),
        )


KPM_CSV_FIELDS = ["t_s", "throughput_mbps", "bler_pct", "mcs", "bsr_bytes", "sinr_db"]


def write_kpm_csv(path, records: list[KpmRecord], labels: list[int] | None = None) -> None:
    """KPM log; with labels a trailing 0/1 radar-present column is added."""
    if labels is not None and len(labels) != len(records):
        raise InvalidParamsError("labels length != records length")
    rows = ([repr(r.t_s), repr(r.throughput_mbps), repr(r.bler_pct), r.mcs, r.bsr_bytes,
             repr(r.sinr_db)] for r in records)
    if labels is not None:
        rows = (row + [label] for row, label in zip(rows, labels))
    write_csv(path, KPM_CSV_FIELDS + (["label"] if labels is not None else []), rows)


def read_kpm_csv(path) -> tuple[list[KpmRecord], list[int] | None]:
    """Records and, if the log has a label column, the labels."""
    records, labels = [], []
    for row in read_csv(path):
        records.append(KpmRecord(float(row["t_s"]), float(row["throughput_mbps"]),
                                 float(row["bler_pct"]), int(row["mcs"]),
                                 int(row["bsr_bytes"]), float(row["sinr_db"])))
        if "label" in row:
            labels.append(int(row["label"]))
    return records, labels or None
