"""Baseband synthesis and SINR calibration for radar-cellular coexistence.

Everything here works on complex baseband I/Q at a common sample rate
(default 15.36 Msps carrying a 10 MHz cellular channel, DC-centered so the
usable band is -5..+5 MHz).  Power levels follow the regulatory convention
of spectral densities in dBm/MHz:

* cellular and noise densities are average power per MHz over the band they
  occupy,
* radar density is a peak (pulse-on) quantity referenced to a 1 MHz
  measurement bandwidth, which matches how detection thresholds are stated
  for pulsed emitters.

The SINR of a mix treats the radar as the desired signal and cellular+noise
as the interference, i.e. ``10*log10(P_radar / (P_cellular + P_noise))``
with all three terms in linear mW/MHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import InvalidParamsError, SilentComponentError, EmptyBandError

DEFAULT_SAMPLE_RATE_HZ = 15.36e6
RADAR_REF_BANDWIDTH_HZ = 1e6  # reference bandwidth for peak radar density
COMBINED_DBM_MHZ = -109.0  # regulatory cap on cellular + noise density

PULSE_WIDTH_RANGE_S = (13e-6, 52e-6)
PRR_RANGE_HZ = (500.0, 1100.0)
OCCUPIED_REL_FLOOR_DB = -20.0  # occupied bins lie within this of the peak bin

# The PRB grid, DC-centred: the one the sensed cellular waveform occupies and
# the uplink model (ranlink) and PRB blanking (control) count in.
N_PRBS = 50
PRB_BANDWIDTH_HZ = 180e3


def dbm_to_linear(dbm: float) -> float:
    """dBm/MHz -> mW/MHz (or any dB quantity to its linear ratio)."""
    return 10.0 ** (dbm / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * np.log10(x) if x > 0 else float("-inf")


@dataclass(frozen=True)
class IqBuffer:
    """Complex baseband sample stream.

    Treated as immutable after creation; do not write into ``samples``.
    ``occupied_density`` is the density ``_occupied_density`` would measure,
    when the generator knows it exactly; None means measure it.
    """

    samples: np.ndarray
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    occupied_density: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.complex128))
        if self.sample_rate_hz <= 0:
            raise InvalidParamsError("sample_rate_hz must be > 0")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass(frozen=True)
class RadarParams:
    """Pulsed CW radar burst description (unit-amplitude fixed-frequency pulses)."""

    pulse_width_s: float
    prr_hz: float
    pulses_per_burst: int
    burst_length_s: float
    center_offset_hz: float = 0.0
    doppler_shift_hz: float = 0.0
    burst_start_s: float = 0.0  # pulse-train phase within the burst period

    def validate(self, sample_rate_hz: float) -> None:
        for name in ("pulse_width_s", "prr_hz", "burst_length_s", "center_offset_hz",
                     "doppler_shift_hz", "burst_start_s"):
            value = getattr(self, name)
            if isinstance(value, (bool, str)) or not math.isfinite(value):
                raise InvalidParamsError(f"{name} must be a finite number, not {value!r}")
        count = self.pulses_per_burst
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise InvalidParamsError(f"pulses_per_burst must be an integer, not {count!r}")
        lo, hi = PULSE_WIDTH_RANGE_S
        if not lo <= self.pulse_width_s <= hi:
            raise InvalidParamsError(
                f"pulse_width_s {self.pulse_width_s} outside valid range {lo}..{hi}")
        lo, hi = PRR_RANGE_HZ
        if not lo <= self.prr_hz <= hi:
            raise InvalidParamsError(f"prr_hz {self.prr_hz} outside valid range {lo}..{hi}")
        if self.pulses_per_burst < 0:
            raise InvalidParamsError("pulses_per_burst must be >= 0")
        if self.burst_length_s <= 0:
            raise InvalidParamsError("burst_length_s must be > 0")
        if self.burst_start_s < 0:
            raise InvalidParamsError("burst_start_s must be >= 0")
        if self.pulses_per_burst / self.prr_hz > self.burst_length_s:
            raise InvalidParamsError("pulses do not fit in the burst period")
        if self.pulses_per_burst > 0:
            last_end = (self.burst_start_s
                        + (self.pulses_per_burst - 1) / self.prr_hz
                        + self.pulse_width_s)
            if last_end > self.burst_length_s:
                raise InvalidParamsError("pulse train overruns the burst period")
        if abs(self.carrier_hz) >= sample_rate_hz / 2:
            raise InvalidParamsError("carrier aliases: |offset + doppler| >= fs/2")

    @property
    def carrier_hz(self) -> float:
        return self.center_offset_hz + self.doppler_shift_hz

    @property
    def main_lobe_half_width_hz(self) -> float:
        """First spectral null of the rectangular pulse, 1/pulse_width."""
        return 1.0 / self.pulse_width_s

    def duty_cycle(self) -> float:
        """On-air time fraction within one burst period."""
        return min(1.0, self.pulses_per_burst * self.pulse_width_s / self.burst_length_s)


@dataclass(frozen=True)
class CellularParams:
    """Spectral occupancy of the cellular uplink stand-in."""

    n_prbs: int = N_PRBS
    prb_bandwidth_hz: float = PRB_BANDWIDTH_HZ
    active_prb_mask: np.ndarray | None = None  # None means all PRBs active
    per_prb_power: float = 1.0

    def __post_init__(self):
        if self.active_prb_mask is not None:
            object.__setattr__(
                self, "active_prb_mask", np.asarray(self.active_prb_mask, dtype=bool))

    def validate(self, sample_rate_hz: float) -> None:
        if self.n_prbs <= 0:
            raise InvalidParamsError("n_prbs must be > 0")
        if self.prb_bandwidth_hz <= 0:
            raise InvalidParamsError("prb_bandwidth_hz must be > 0")
        if self.n_prbs * self.prb_bandwidth_hz > sample_rate_hz:
            raise InvalidParamsError("occupied bandwidth exceeds the sample rate")
        if self.active_prb_mask is not None and self.active_prb_mask.size != self.n_prbs:
            raise InvalidParamsError("active_prb_mask length != n_prbs")
        if self.per_prb_power < 0:
            raise InvalidParamsError("per_prb_power must be >= 0")

    def mask(self) -> np.ndarray:
        if self.active_prb_mask is None:
            return np.ones(self.n_prbs, dtype=bool)
        return self.active_prb_mask


@dataclass(frozen=True)
class SinrSpec:
    """Component power densities in dBm/MHz; -inf marks an absent component."""

    p_radar_dbm_mhz: float
    p_cellular_dbm_mhz: float
    p_noise_dbm_mhz: float

    def __post_init__(self):
        for name in ("p_radar_dbm_mhz", "p_cellular_dbm_mhz", "p_noise_dbm_mhz"):
            v = getattr(self, name)
            if np.isnan(v) or v == float("inf"):
                raise InvalidParamsError(f"{name} must be finite or -inf")

    @classmethod
    def from_target(cls, target_sinr_db: float, combined_dbm_mhz: float = COMBINED_DBM_MHZ
                    ) -> "SinrSpec":
        """Build a spec for a target SINR against a fixed combined floor.

        The combined cellular+noise density is split equally between the two,
        so their linear sum equals ``combined_dbm_mhz`` exactly.
        """
        lin_combined = dbm_to_linear(combined_dbm_mhz)
        lin_noise = lin_combined / 2.0
        return cls(
            p_radar_dbm_mhz=combined_dbm_mhz + target_sinr_db,
            p_cellular_dbm_mhz=linear_to_db(lin_combined - lin_noise),
            p_noise_dbm_mhz=linear_to_db(lin_noise),
        )


def compute_sinr(spec: SinrSpec) -> float:
    """Closed-form SINR in dB with the radar as the desired signal."""
    num = dbm_to_linear(spec.p_radar_dbm_mhz)
    den = dbm_to_linear(spec.p_cellular_dbm_mhz) + dbm_to_linear(spec.p_noise_dbm_mhz)
    if num == 0.0:
        return float("-inf")
    return 10.0 * float(np.log10(num / den))


def gen_radar_pulse_train(params: RadarParams, duration_s: float,
                          sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ) -> IqBuffer:
    """Rectangular-envelope CW pulse train; zero outside pulses.

    Pulses within a burst are spaced exactly 1/prr_hz apart and the burst
    pattern repeats every burst_length_s.  The carrier phase is continuous
    across pulses (gated CW).
    """
    params.validate(sample_rate_hz)
    if duration_s < params.burst_length_s:
        raise InvalidParamsError("duration_s must cover at least one burst period")
    n = int(round(duration_s * sample_rate_hz))
    x = np.zeros(n, dtype=np.complex128)
    if params.pulses_per_burst == 0:
        return IqBuffer(x, sample_rate_hz)

    pulse_n = int(round(params.pulse_width_s * sample_rate_hz))
    f = params.carrier_hz
    burst = 0
    while burst * params.burst_length_s < duration_s:
        for j in range(params.pulses_per_burst):
            start_s = (burst * params.burst_length_s + params.burst_start_s
                       + j / params.prr_hz)
            s0 = int(round(start_s * sample_rate_hz))
            if s0 >= n:
                break
            s1 = min(s0 + pulse_n, n)
            t = np.arange(s0, s1) / sample_rate_hz
            x[s0:s1] = np.exp(2j * np.pi * f * t)
        burst += 1
    return IqBuffer(x, sample_rate_hz)


@lru_cache(maxsize=8)
def _prb_bin_layout(n: int, sample_rate_hz: float, n_prbs: int, prb_bandwidth_hz: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(PRB of each FFT bin, n_prbs outside the band; FFT bins per PRB), read-only.

    A bin belongs to the PRB whose [low, high) interval holds its frequency.
    """
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate_hz)
    band_low = -n_prbs * prb_bandwidth_hz / 2.0
    in_band = (freqs >= band_low) & (freqs < band_low + n_prbs * prb_bandwidth_hz)
    prb_of_bin = np.full(n, n_prbs, dtype=np.min_scalar_type(n_prbs))
    prb_of_bin[in_band] = np.clip(np.floor((freqs[in_band] - band_low) / prb_bandwidth_hz),
                                  0, n_prbs - 1)
    counts = np.bincount(prb_of_bin, minlength=n_prbs + 1)[:n_prbs]
    for a in (prb_of_bin, counts):
        a.setflags(write=False)
    return prb_of_bin, counts


def gen_cellular_baseband(params: CellularParams, duration_s: float,
                          sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
                          seed=None) -> IqBuffer:
    """Noise-like multicarrier stand-in for the cellular uplink.

    Synthesized in the frequency domain as a random-phase multisine:
    constant magnitude on every FFT bin inside an active PRB, zero
    elsewhere.  This gives an exactly flat PSD per active PRB and an exact
    total power of ``sum(per_prb_power)`` while the time-domain samples are
    Gaussian-like by the CLT.  The buffer carries the density
    ``_occupied_density`` would measure: PRBs hold k or k + 1 bins, so every
    active bin is within a factor 2 of the peak, well inside its -20 dB floor.
    """
    params.validate(sample_rate_hz)
    n = int(round(duration_s * sample_rate_hz))
    mask = params.mask()
    if not mask.any() or params.per_prb_power == 0.0:
        return IqBuffer(np.zeros(n, dtype=np.complex128), sample_rate_hz, 0.0)

    rng = np.random.default_rng(seed)
    prb_of_bin, counts = _prb_bin_layout(n, sample_rate_hz, params.n_prbs,
                                         params.prb_bandwidth_hz)
    if np.any(counts[mask] == 0):
        raise InvalidParamsError(
            "duration too short to place FFT bins inside each active PRB")

    bins = np.flatnonzero(np.append(mask, False)[prb_of_bin])
    n_active_bins = bins.size
    prb_mag = np.zeros(params.n_prbs)
    prb_mag[mask] = np.sqrt(params.per_prb_power * n * n / counts[mask])
    mags = prb_mag[prb_of_bin[bins]]  # held to the end: freed early, it lifted peak RSS
    phases = rng.uniform(0.0, 2.0 * np.pi, n_active_bins)
    tones = np.exp(1j * phases)
    tones *= mags
    spectrum = np.zeros(n, dtype=np.complex128)
    spectrum[bins] = tones
    x = np.fft.ifft(spectrum, out=spectrum)
    density = (int(mask.sum()) * params.per_prb_power
               / (n_active_bins * sample_rate_hz / n / 1e6))
    return IqBuffer(x, sample_rate_hz, density)


def gen_awgn(power_linear: float, duration_s: float,
             sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ, seed=None) -> IqBuffer:
    """Circularly symmetric complex Gaussian noise of the given mean power."""
    if power_linear < 0:
        raise InvalidParamsError("power_linear must be >= 0")
    x = np.zeros(int(round(duration_s * sample_rate_hz)), dtype=np.complex128)
    _add_awgn(x, power_linear, seed)
    return IqBuffer(x, sample_rate_hz)


def _add_awgn(x: np.ndarray, power_linear: float, seed) -> None:
    """Add ``gen_awgn``'s noise for ``seed`` to the complex array ``x`` in place.

    The real and then the imaginary normal draws pass through one reused
    float buffer, scaled there; ``power_linear == 0`` adds nothing.
    """
    if power_linear == 0.0:
        return
    rng = np.random.default_rng(seed)
    scale = np.sqrt(power_linear / 2.0)
    half = np.empty(x.size)
    for part in (x.real, x.imag):
        rng.standard_normal(out=half)
        half *= scale
        part += half


def measure_band_power(iq: IqBuffer, f_low_hz: float, f_high_hz: float) -> float:
    """Average power density (linear per MHz) over [f_low, f_high).

    Integrates the full-length periodogram over the band and divides by the
    requested band width.  Frequency resolution is sample_rate / n_samples.
    """
    if f_low_hz >= f_high_hz:
        raise InvalidParamsError("f_low_hz must be < f_high_hz")
    fs = iq.sample_rate_hz
    if f_high_hz <= -fs / 2 or f_low_hz >= fs / 2:
        raise EmptyBandError("band lies outside the representable spectrum")
    if iq.n_samples == 0:
        return 0.0
    return _band_density(_fft_power(iq.samples), fs, f_low_hz, f_high_hz)


def _fft_power(samples: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """|FFT(samples)|^2 per bin through one float array; ``overwrite`` transforms
    ``samples`` in place."""
    power = np.abs(np.fft.fft(samples, out=samples if overwrite else None))
    return np.square(power, out=power)


def _band_density(p_bins: np.ndarray, fs: float, f_low_hz: float, f_high_hz: float
                  ) -> float:
    """``measure_band_power`` from the squared FFT magnitudes ``p_bins``."""
    n = p_bins.size
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    sel = (freqs >= f_low_hz) & (freqs < f_high_hz)
    band_power = float(np.sum(p_bins[sel])) / (n * n)
    width_mhz = (f_high_hz - f_low_hz) / 1e6
    return band_power / width_mhz


def _occupied_density(iq: IqBuffer) -> float:
    """Density per MHz over the bins within OCCUPIED_REL_FLOOR_DB of the peak bin."""
    n = iq.n_samples
    p_bins = _fft_power(iq.samples)
    p_bins /= n * n
    peak = p_bins.max()
    if peak <= 0.0:
        return 0.0
    occ = p_bins >= peak * 10.0 ** (OCCUPIED_REL_FLOOR_DB / 10.0)
    bw_hz = occ.sum() * iq.sample_rate_hz / n
    return float(p_bins[occ].sum()) / (bw_hz / 1e6)


def _radar_peak_density(iq: IqBuffer) -> tuple[float, np.ndarray]:
    """Pulse-on power density in the 1 MHz reference bandwidth, plus the on-sample indices."""
    on = np.flatnonzero(iq.samples != 0)
    if not on.size:
        return 0.0, on
    on_power = float(np.mean(np.abs(iq.samples[on]) ** 2))
    return on_power / (RADAR_REF_BANDWIDTH_HZ / 1e6), on


def mix_at_sinr(radar: IqBuffer, cellular: IqBuffer, spec: SinrSpec,
                seed=None, measure_achieved: bool = True) -> tuple[IqBuffer, float]:
    """Scale components to the requested densities, add noise; return (mix, measured SINR).

    Radar is scaled so its pulse-on density in a 1 MHz reference bandwidth
    equals p_radar; cellular so its occupied-band density equals p_cellular;
    fresh AWGN is generated at p_noise over the full sample bandwidth.  The
    returned SINR is re-measured from the scaled components, not the nominal
    target; ``measure_achieved=False`` skips that verification pass (three
    full-length FFTs) and returns NaN instead, for hot loops that only need
    the waveform.  The mix is built in one array: the scaled cellular, then
    the scaled radar on its support, then the noise.
    """
    if radar.sample_rate_hz != cellular.sample_rate_hz:
        raise InvalidParamsError("component sample rates differ")
    if radar.n_samples != cellular.n_samples:
        raise InvalidParamsError("component durations differ")
    fs = radar.sample_rate_hz
    n = radar.n_samples

    cell_target = dbm_to_linear(spec.p_cellular_dbm_mhz)
    if cell_target > 0.0:
        d_now = cellular.occupied_density
        if d_now is None:
            d_now = _occupied_density(cellular)
        if d_now == 0.0:
            raise SilentComponentError("cellular component has zero power but p_cellular is finite")
        mix = cellular.samples * np.sqrt(cell_target / d_now)
    else:
        mix = np.zeros(n, dtype=np.complex128)
    radar_target = dbm_to_linear(spec.p_radar_dbm_mhz)
    measure = measure_achieved and radar_target > 0.0
    # The mix holds the scaled cellular alone until the radar is added.
    cell_meas = 0.0
    if measure and cell_target > 0.0:
        cell_meas = _occupied_density(IqBuffer(mix, fs))

    if radar_target > 0.0:
        d_now, on = _radar_peak_density(radar)
        if d_now == 0.0:
            raise SilentComponentError("radar component has zero power but p_radar is finite")
        radar_on = radar.samples[on] * np.sqrt(radar_target / d_now)
        mix[on] += radar_on

    noise_power = dbm_to_linear(spec.p_noise_dbm_mhz) * (fs / 1e6)
    if not measure:
        _add_awgn(mix, noise_power, seed)
        return IqBuffer(mix, fs), float("-inf") if measure_achieved else float("nan")

    noise = gen_awgn(noise_power, radar.duration_s, fs, seed).samples
    mix += noise
    # Measure what was actually achieved, per component.  The noise is
    # transformed in place, and its array then holds the scaled radar.
    noise_meas = _band_density(_fft_power(noise, overwrite=True), fs, -fs / 2, fs / 2)
    # Average density over the whole buffer relates to the peak density
    # through the on-time fraction, so no gated FFT is needed.  One spectrum
    # gives both the carrier and the band power around it.
    radar_scaled = noise
    radar_scaled.fill(0.0)
    radar_scaled[on] = radar_on
    p_bins = _fft_power(radar_scaled, overwrite=True)
    carrier = float(np.fft.fftfreq(n, d=1.0 / fs)[int(np.argmax(p_bins))])
    lo = max(carrier - RADAR_REF_BANDWIDTH_HZ / 2, -fs / 2)
    hi = min(carrier + RADAR_REF_BANDWIDTH_HZ / 2, fs / 2)
    radar_meas = _band_density(p_bins, fs, lo, hi) / (on.size / n)
    achieved = 10.0 * float(np.log10(radar_meas / (cell_meas + noise_meas)))
    return IqBuffer(mix, fs), achieved


def sensing_capture(radar: RadarParams | None, sinr_db: float, combined_dbm_mhz: float,
                    duration_s: float, cell_seed: int, noise_seed: int,
                    prb_mask: np.ndarray | None = None,
                    measure_achieved: bool = True) -> tuple[IqBuffer, IqBuffer, float]:
    """What the sensing receiver records: (composite, clean radar, mix_at_sinr's SINR).

    The cellular waveform occupies the PRBs in ``prb_mask`` (all when None).
    The radar, or silence when ``radar`` is None, and fresh AWGN are scaled
    to ``sinr_db`` against the pinned cellular-plus-noise density.
    """
    cell = gen_cellular_baseband(CellularParams(active_prb_mask=prb_mask), duration_s,
                                 seed=cell_seed)
    powers = SinrSpec.from_target(sinr_db, combined_dbm_mhz)
    if radar is None:
        radar_iq = IqBuffer(np.zeros(cell.n_samples), cell.sample_rate_hz)
        powers = SinrSpec(float("-inf"), powers.p_cellular_dbm_mhz, powers.p_noise_dbm_mhz)
    else:
        radar_iq = gen_radar_pulse_train(radar, duration_s, cell.sample_rate_hz)
    composite, achieved = mix_at_sinr(radar_iq, cell, powers, seed=noise_seed,
                                      measure_achieved=measure_achieved)
    return composite, radar_iq, achieved

