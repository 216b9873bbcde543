"""Baseband synthesis and SINR calibration for radar-cellular coexistence.

Everything here works on complex baseband I/Q at one fixed sample rate,
SAMPLE_RATE_HZ = 15.36 Msps, carrying a 10 MHz cellular channel, DC-centered
so the usable band is -5..+5 MHz.  Power levels follow the regulatory convention
of spectral densities in dBm/MHz:

* cellular and noise densities are average power per MHz over the band they
  occupy,
* radar density is a peak (pulse-on) quantity referenced to a 1 MHz
  measurement bandwidth, which matches how detection thresholds are stated
  for pulsed emitters.

The SINR of a mix treats the radar as the desired signal and cellular+noise
as the interference, i.e. ``10*log10(P_radar / (P_cellular + P_noise))``
with all three terms in linear mW/MHz.

The second core.  ``_in_two`` runs one half of a job on a private helper
thread while the caller runs the other half, then waits for both; numpy's
FFT, sort and normal draws release the interpreter lock, so the halves
overlap.  ``sensing_capture`` draws its noise on the helper while the caller
synthesizes the cellular waveform, and ``spectro`` and ``localize`` split the
STFT's frames and the row sort's blocks in two.  The bytes do not depend on
the split: every element is computed by the same operations, in the same
order, as by one thread, and each half writes only its own elements.  The
caller allocates every work buffer before the split: buffers allocated on
the helper come from glibc's arena for that thread, which lifted
loop-radar's peak RSS by about 5 %.  The helper's thread starts on the first
split, not at import.  A forked child inherits the executor but not its
thread, so a job submitted there would wait forever; the child gets a fresh
executor at the fork.  No function that perfbench traces runs on the helper.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache
import math
import os

import numpy as np

from .errors import InvalidParamsError, SilentComponentError, EmptyBandError

SAMPLE_RATE_HZ = 15.36e6
RADAR_REF_BANDWIDTH_HZ = 1e6  # reference bandwidth for peak radar density
COMBINED_DBM_MHZ = -109.0  # regulatory cap on cellular + noise density

PULSE_WIDTH_RANGE_S = (13e-6, 52e-6)
PRR_RANGE_HZ = (500.0, 1100.0)
OCCUPIED_REL_FLOOR_DB = -20.0  # occupied bins lie within this of the peak bin

# The PRB grid, DC-centred: the one the sensed cellular waveform occupies and
# the uplink model (ranlink) and PRB blanking (control) count in.
N_PRBS = 50
PRB_BANDWIDTH_HZ = 180e3


def _new_helper() -> None:
    """Give this process its own executor for ``_in_two``."""
    global _helper
    _helper = ThreadPoolExecutor(max_workers=1)


_new_helper()
os.register_at_fork(after_in_child=_new_helper)


def _in_two(here, there):
    """Run ``there()`` on the helper thread and ``here()`` on the caller; return
    ``here()``'s value once both have finished.

    An exception from either re-raises in the caller, ``here()``'s first.
    ``there`` must not split again: the helper would wait on itself.
    """
    future = _helper.submit(there)
    try:
        result = here()
    finally:
        wait([future])  # the helper may still be writing the caller's buffers
    future.result()
    return result


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
    occupied_density: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.complex128))

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)


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

    def validate(self) -> None:
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
        if abs(self.carrier_hz) >= SAMPLE_RATE_HZ / 2:
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
    def from_target(cls, target_sinr_db: float) -> "SinrSpec":
        """Build a spec for a target SINR against the fixed combined floor.

        The combined cellular+noise density is split equally between the two,
        so their linear sum equals ``COMBINED_DBM_MHZ`` exactly.
        """
        lin_combined = dbm_to_linear(COMBINED_DBM_MHZ)
        lin_noise = lin_combined / 2.0
        return cls(
            p_radar_dbm_mhz=COMBINED_DBM_MHZ + target_sinr_db,
            p_cellular_dbm_mhz=linear_to_db(lin_combined - lin_noise),
            p_noise_dbm_mhz=linear_to_db(lin_noise),
        )


def compute_sinr(spec: SinrSpec) -> float:
    """Closed-form SINR in dB with the radar as the desired signal.

    An absent radar gives -inf; a present radar against no cellular and no
    noise gives +inf.
    """
    num = dbm_to_linear(spec.p_radar_dbm_mhz)
    den = dbm_to_linear(spec.p_cellular_dbm_mhz) + dbm_to_linear(spec.p_noise_dbm_mhz)
    if num == 0.0:
        return float("-inf")
    if den == 0.0:
        return float("inf")
    return 10.0 * float(np.log10(num / den))


def gen_radar_pulse_train(params: RadarParams, duration_s: float) -> IqBuffer:
    """Rectangular-envelope CW pulse train; zero outside pulses.

    Pulses within a burst are spaced exactly 1/prr_hz apart and the burst
    pattern repeats every burst_length_s.  The carrier phase is continuous
    across pulses (gated CW).
    """
    params.validate()
    if duration_s < params.burst_length_s:
        raise InvalidParamsError("duration_s must cover at least one burst period")
    n = int(round(duration_s * SAMPLE_RATE_HZ))
    x = np.zeros(n, dtype=np.complex128)
    if params.pulses_per_burst == 0:
        return IqBuffer(x)

    pulse_n = int(round(params.pulse_width_s * SAMPLE_RATE_HZ))
    f = params.carrier_hz
    burst = 0
    while burst * params.burst_length_s < duration_s:
        for j in range(params.pulses_per_burst):
            start_s = (burst * params.burst_length_s + params.burst_start_s
                       + j / params.prr_hz)
            s0 = int(round(start_s * SAMPLE_RATE_HZ))
            if s0 >= n:
                break
            s1 = min(s0 + pulse_n, n)
            t = np.arange(s0, s1) / SAMPLE_RATE_HZ
            x[s0:s1] = np.exp(2j * np.pi * f * t)
        burst += 1
    return IqBuffer(x)


@lru_cache(maxsize=8)
def _prb_bin_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(first FFT index of each PRB's bins, FFT bins per PRB) for n bins, read-only.

    A bin belongs to the PRB whose [low, high) interval holds its frequency.
    No PRB spans DC, and the frequency rises with the index within each of
    the two halves of the FFT grid, so each PRB's bins are one index range.
    """
    freqs = np.fft.fftfreq(n, d=1.0 / SAMPLE_RATE_HZ)
    band_low = -N_PRBS * PRB_BANDWIDTH_HZ / 2.0
    in_band = (freqs >= band_low) & (freqs < band_low + N_PRBS * PRB_BANDWIDTH_HZ)
    prb_of_bin = np.full(n, N_PRBS, dtype=np.min_scalar_type(N_PRBS))
    prb_of_bin[in_band] = np.clip(np.floor((freqs[in_band] - band_low) / PRB_BANDWIDTH_HZ),
                                  0, N_PRBS - 1)
    counts = np.bincount(prb_of_bin, minlength=N_PRBS + 1)[:N_PRBS]
    run_starts = np.flatnonzero(np.diff(prb_of_bin, prepend=N_PRBS + 1))
    run_prbs = prb_of_bin[run_starts]
    in_band_runs = run_prbs < N_PRBS
    starts = np.zeros(N_PRBS, dtype=np.intp)
    starts[run_prbs[in_band_runs]] = run_starts[in_band_runs]
    for a in (starts, counts):
        a.setflags(write=False)
    return starts, counts


def gen_cellular_baseband(prb_mask: np.ndarray | None, duration_s: float, seed=None
                          ) -> IqBuffer:
    """Noise-like multicarrier stand-in for the cellular uplink.

    Occupies the PRBs of the N_PRBS-long boolean ``prb_mask`` (all when None).
    Synthesized in the frequency domain as a random-phase multisine:
    constant magnitude on every FFT bin inside an active PRB, zero
    elsewhere.  This gives an exactly flat PSD per active PRB and unit power
    per active PRB while the time-domain samples are Gaussian-like by the
    CLT.  The buffer carries the density ``_occupied_density`` would
    measure: PRBs hold k or k + 1 bins, so every active bin is within a
    factor 2 of the peak, well inside its -20 dB floor.

    The phases are drawn in ascending FFT-index order.  Each PRB's bins are
    one index range, so its tones are written straight into its slice of
    the spectrum that the ifft then transforms in place.  The capture
    allocates only the phases and the spectrum: index arrays, gathers and
    tone temporaries of the same length made glibc map and fault fresh
    pages in every Mode-2 window.
    """
    mask = np.ones(N_PRBS, dtype=bool) if prb_mask is None else np.asarray(prb_mask, dtype=bool)
    if mask.shape != (N_PRBS,):
        raise InvalidParamsError(f"prb_mask must hold {N_PRBS} PRBs, not shape {mask.shape}")
    n = int(round(duration_s * SAMPLE_RATE_HZ))
    if not mask.any():
        return IqBuffer(np.zeros(n, dtype=np.complex128), occupied_density=0.0)

    rng = np.random.default_rng(seed)
    starts, counts = _prb_bin_layout(n)
    if np.any(counts[mask] == 0):
        raise InvalidParamsError(
            "duration too short to place FFT bins inside each active PRB")

    active = np.flatnonzero(mask)
    n_active_bins = int(counts[active].sum())
    phases = rng.uniform(0.0, 2.0 * np.pi, n_active_bins)
    spectrum = np.zeros(n, dtype=np.complex128)
    drawn = 0
    for p in active[np.argsort(starts[active])].tolist():
        m = int(counts[p])
        tones = spectrum[starts[p]:starts[p] + m]
        np.multiply(phases[drawn:drawn + m], 1j, out=tones)
        np.exp(tones, out=tones)
        tones *= np.sqrt(n * n / counts[p])
        drawn += m
    x = np.fft.ifft(spectrum, out=spectrum)
    density = len(active) / (n_active_bins * SAMPLE_RATE_HZ / n / 1e6)
    return IqBuffer(x, occupied_density=density)


def gen_awgn(power_linear: float, duration_s: float, seed=None) -> IqBuffer:
    """Circularly symmetric complex Gaussian noise of the given mean power."""
    if power_linear < 0:
        raise InvalidParamsError("power_linear must be >= 0")
    x = np.zeros(int(round(duration_s * SAMPLE_RATE_HZ)), dtype=np.complex128)
    _add_awgn(x, power_linear, seed)
    return IqBuffer(x)


def _draw_awgn(noise: np.ndarray, power_linear: float, seed) -> None:
    """Fill the float ``(2, n)`` array ``noise`` with ``gen_awgn``'s draws for
    ``seed``: the real parts' normal draws in row 0, then the imaginary
    parts' in row 1, each scaled there to ``power_linear / 2``."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(power_linear / 2.0)
    for part in noise:
        rng.standard_normal(out=part)
        part *= scale


def _add_drawn(x: np.ndarray, noise: np.ndarray, measure: bool) -> float:
    """Add ``_draw_awgn``'s ``noise`` to the complex array ``x`` in place, the
    real parts first.  With ``measure`` it returns the energy of the noise,
    the sum of the squared draws of both parts (squared in place), which by
    Parseval is the noise's full-band periodogram sum divided by ``x.size``;
    without it, 0.0."""
    energy = 0.0
    for part, draws in zip((x.real, x.imag), noise):
        part += draws
        if measure:
            energy += float(np.square(draws, out=draws).sum())
    return energy


def _add_awgn(x: np.ndarray, power_linear: float, seed, measure: bool = False) -> float:
    """Add ``gen_awgn``'s noise for ``seed`` to the complex array ``x`` in place
    and return ``_add_drawn``'s energy; ``power_linear == 0`` adds nothing."""
    if power_linear == 0.0:
        return 0.0
    noise = np.empty((2, x.size))
    _draw_awgn(noise, power_linear, seed)
    return _add_drawn(x, noise, measure)


@dataclass(frozen=True)
class _DrawnAwgn:
    """``_draw_awgn``'s noise, drawn before ``mix_at_sinr`` for its seed and spec."""

    noise: np.ndarray


def measure_band_power(iq: IqBuffer, f_low_hz: float, f_high_hz: float) -> float:
    """Average power density (linear per MHz) over [f_low, f_high).

    Integrates the full-length periodogram over the band and divides by the
    requested band width.  Frequency resolution is SAMPLE_RATE_HZ / n_samples.
    A band from -fs/2 or below holds every bin below ``f_high``.
    """
    if not (f_high_hz - f_low_hz) / 1e6 > 0.0:  # also a width that underflows to 0 MHz
        raise InvalidParamsError("f_low_hz must be < f_high_hz by a width in MHz above 0")
    if f_high_hz <= -SAMPLE_RATE_HZ / 2 or f_low_hz >= SAMPLE_RATE_HZ / 2:
        raise EmptyBandError("band lies outside the representable spectrum")
    if iq.n_samples == 0:
        return 0.0
    return _band_density(_fft_power(iq.samples), f_low_hz, f_high_hz)


def _fft_power(samples: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """|FFT(samples)|^2 per bin through one float array; ``overwrite`` transforms
    ``samples`` in place."""
    power = np.abs(np.fft.fft(samples, out=samples if overwrite else None))
    return np.square(power, out=power)


def _bin_hz(n: int) -> float:
    """``np.fft.fftfreq(n, 1 / SAMPLE_RATE_HZ)``'s bin spacing: signed bin k sits at
    k * _bin_hz."""
    return 1.0 / (n * (1.0 / SAMPLE_RATE_HZ))


def _first_bin_at_or_above(f_hz: float, bin_hz: float, lo: int, hi: int) -> int:
    """The least signed bin k in [lo, hi) with k * bin_hz >= f_hz, else hi."""
    q = f_hz / bin_hz
    k = min(max(math.ceil(q), lo), hi) if math.isfinite(q) else (lo if q < 0 else hi)
    while k > lo and (k - 1) * bin_hz >= f_hz:
        k -= 1
    while k < hi and k * bin_hz < f_hz:
        k += 1
    return k


def _band_density(p_bins: np.ndarray, f_low_hz: float, f_high_hz: float) -> float:
    """``measure_band_power`` from the squared FFT magnitudes ``p_bins``.

    The band holds the bins whose ``fftfreq`` frequency, k * _bin_hz for
    signed bin k, lies in [f_low, f_high); a low edge at or below -fs/2
    holds every bin from the first negative one, since for even n that bin,
    the Nyquist bin, can round to just below -fs/2.  The frequency rises
    with k, so the band is one run of bins k >= 0 (at index k) and one of
    bins k < 0 (at index n + k); their powers are summed as one array, the
    non-negative run first, which is the order of ``p_bins[mask]`` over the
    ``fftfreq`` grid.
    """
    n = p_bins.size
    bin_hz = _bin_hz(n)
    n_pos = (n + 1) // 2  # bins k = 0 .. n_pos - 1 at index k, n_pos - n .. -1 at n + k
    band = []
    for lo, hi, offset in ((0, n_pos, 0), (n_pos - n, 0, n)):
        start = (lo if f_low_hz <= -SAMPLE_RATE_HZ / 2
                 else _first_bin_at_or_above(f_low_hz, bin_hz, lo, hi))
        stop = _first_bin_at_or_above(f_high_hz, bin_hz, lo, hi)
        band.append(p_bins[offset + start:offset + stop])
    band_power = float(np.sum(np.concatenate(band))) / (n * n)
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
    bw_hz = occ.sum() * SAMPLE_RATE_HZ / n
    return float(p_bins[occ].sum()) / (bw_hz / 1e6)


def _radar_peak_density(iq: IqBuffer) -> tuple[float, np.ndarray]:
    """Pulse-on power density in the 1 MHz reference bandwidth, plus the on-sample indices."""
    on = np.flatnonzero(iq.samples != 0)
    if not on.size:
        return 0.0, on
    on_power = float(np.mean(np.abs(iq.samples[on]) ** 2))
    return on_power / (RADAR_REF_BANDWIDTH_HZ / 1e6), on


def _noise_power(spec: SinrSpec) -> float:
    """The linear noise power that ``spec``'s density gives over the full sample band."""
    return dbm_to_linear(spec.p_noise_dbm_mhz) * (SAMPLE_RATE_HZ / 1e6)


def mix_at_sinr(radar: IqBuffer, cellular: IqBuffer, spec: SinrSpec,
                seed=None, measure_achieved: bool = True) -> tuple[IqBuffer, float]:
    """Scale components to the requested densities, add noise; return (mix, measured SINR).

    Radar is scaled so its pulse-on density in a 1 MHz reference bandwidth
    equals p_radar; cellular so its occupied-band density equals p_cellular;
    fresh AWGN is generated at p_noise over the full sample bandwidth.  The
    mix is built in one array: the scaled cellular, then the scaled radar on
    its support, then the noise.

    The returned SINR is measured from the scaled components, not taken from
    the nominal target, with one full-length FFT, the radar's:

    * radar: the scaled radar's periodogram over the 1 MHz band around its
      peak bin, divided by the on-time fraction to give the pulse-on density;
    * cellular: the occupied-band density before scaling times the power
      gain of the scaling, which scales every bin alike and so keeps the
      bins within OCCUPIED_REL_FLOOR_DB of the peak;
    * noise: the energy of the added draws over n samples and fs, which by
      Parseval is the full-band periodogram density.

    It is +inf when the cellular and noise terms are both 0 and -inf for an
    absent radar.  ``measure_achieved=False`` skips the measurement, for hot
    loops that only need the waveform, and returns NaN instead.  ``seed``
    seeds the noise; ``sensing_capture`` passes the noise it already drew
    for its seed at ``spec``'s noise power instead.
    """
    if radar.n_samples != cellular.n_samples:
        raise InvalidParamsError("component durations differ")
    n = radar.n_samples

    cell_target = dbm_to_linear(spec.p_cellular_dbm_mhz)
    cell_meas = 0.0
    if cell_target > 0.0:
        d_now = cellular.occupied_density
        if d_now is None:
            d_now = _occupied_density(cellular)
        if d_now == 0.0:
            raise SilentComponentError("cellular component has zero power but p_cellular is finite")
        gain = np.sqrt(cell_target / d_now)
        mix = cellular.samples * gain
        cell_meas = float(d_now * gain ** 2)
    else:
        mix = np.zeros(n, dtype=np.complex128)

    radar_target = dbm_to_linear(spec.p_radar_dbm_mhz)
    if radar_target > 0.0:
        d_now, on = _radar_peak_density(radar)
        if d_now == 0.0:
            raise SilentComponentError("radar component has zero power but p_radar is finite")
        radar_on = radar.samples[on] * np.sqrt(radar_target / d_now)
        mix[on] += radar_on

    measure = measure_achieved and radar_target > 0.0
    if isinstance(seed, _DrawnAwgn):
        noise_energy = _add_drawn(mix, seed.noise, measure)
    else:
        noise_energy = _add_awgn(mix, _noise_power(spec), seed, measure)
    if not measure:
        return IqBuffer(mix), float("-inf") if measure_achieved else float("nan")

    noise_meas = noise_energy / n / (SAMPLE_RATE_HZ / 1e6)
    # Average density over the whole buffer relates to the peak density
    # through the on-time fraction, so no gated FFT is needed.  One spectrum
    # gives both the carrier and the band power around it.
    radar_scaled = np.zeros(n, dtype=np.complex128)
    radar_scaled[on] = radar_on
    p_bins = _fft_power(radar_scaled, overwrite=True)
    peak = int(np.argmax(p_bins))
    carrier = (peak if peak < (n + 1) // 2 else peak - n) * _bin_hz(n)  # signed bin
    lo = max(carrier - RADAR_REF_BANDWIDTH_HZ / 2, -SAMPLE_RATE_HZ / 2)
    hi = min(carrier + RADAR_REF_BANDWIDTH_HZ / 2, SAMPLE_RATE_HZ / 2)
    radar_meas = _band_density(p_bins, lo, hi) / (on.size / n)
    interference = cell_meas + noise_meas
    if interference == 0.0:
        return IqBuffer(mix), float("inf")
    return IqBuffer(mix), 10.0 * float(np.log10(radar_meas / interference))


def sensing_capture(radar: RadarParams | None, sinr_db: float, duration_s: float,
                    cell_seed: int, noise_seed: int, prb_mask: np.ndarray | None = None,
                    measure_achieved: bool = True) -> tuple[IqBuffer, IqBuffer, float]:
    """What the sensing receiver records: (composite, clean radar, mix_at_sinr's SINR).

    The cellular waveform occupies the PRBs in ``prb_mask`` (all when None).
    The radar, or silence when ``radar`` is None, and fresh AWGN are scaled
    to ``sinr_db`` against the pinned cellular-plus-noise density.  The
    helper thread draws the noise while the caller synthesizes the cellular
    waveform; ``mix_at_sinr`` then adds it as it would have drawn it.
    """
    powers = SinrSpec.from_target(sinr_db)
    noise = np.empty((2, int(round(duration_s * SAMPLE_RATE_HZ))))
    noise_power = _noise_power(powers)
    cell = _in_two(lambda: gen_cellular_baseband(prb_mask, duration_s, seed=cell_seed),
                   lambda: _draw_awgn(noise, noise_power, noise_seed))
    if radar is None:
        radar_iq = IqBuffer(np.zeros(cell.n_samples, dtype=np.complex128))
        powers = SinrSpec(float("-inf"), powers.p_cellular_dbm_mhz, powers.p_noise_dbm_mhz)
    else:
        radar_iq = gen_radar_pulse_train(radar, duration_s)
    composite, achieved = mix_at_sinr(radar_iq, cell, powers, seed=_DrawnAwgn(noise),
                                      measure_achieved=measure_achieved)
    return composite, radar_iq, achieved

