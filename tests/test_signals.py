import importlib
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coexsim.errors import (
    EmptyBandError,
    InvalidParamsError,
    SilentComponentError,
)
from coexsim.signals import (
    IqBuffer,
    RadarParams,
    SinrSpec,
    compute_sinr,
    dbm_to_linear,
    gen_awgn,
    gen_cellular_baseband,
    gen_radar_pulse_train,
    measure_band_power,
    mix_at_sinr,
    _add_awgn,
    _occupied_density,
    _prb_bin_layout,
    sensing_capture,
)

FS = 15.36e6
SIGNALS_MODULE = importlib.import_module("coexsim.signals")

FIG_PARAMS = RadarParams(pulse_width_s=13e-6, prr_hz=500.0, pulses_per_burst=5,
                         burst_length_s=10e-3)


def mean_power(iq):
    return float(np.mean(np.abs(iq.samples) ** 2))


def band_density_oracle(samples, fs, f_low, f_high):
    """Independent band-power density: direct periodogram sum, per MHz."""
    n = len(samples)
    spec = np.fft.fft(samples)
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    sel = (freqs >= f_low) & (freqs < f_high)
    return np.sum(np.abs(spec[sel]) ** 2) / (n * n) / ((f_high - f_low) / 1e6)


class TestRadarPulseTrain:
    def test_five_pulse_burst_positions(self):
        iq = gen_radar_pulse_train(FIG_PARAMS, 10e-3)
        nz = np.abs(iq.samples) > 0
        starts = np.nonzero(nz & ~np.roll(nz, 1))[0]
        # roll wraps; first sample is a genuine start here
        assert list(starts) == [0, 30720, 61440, 92160, 122880]
        assert np.allclose(np.array(starts) / FS, [0, 2e-3, 4e-3, 6e-3, 8e-3])

    def test_nonzero_sample_count(self):
        iq = gen_radar_pulse_train(FIG_PARAMS, 10e-3)
        assert int(np.count_nonzero(iq.samples)) == 5 * round(13e-6 * FS) == 1000

    def test_zero_pulses_gives_silence(self):
        p = RadarParams(13e-6, 500.0, 0, 10e-3)
        iq = gen_radar_pulse_train(p, 10e-3)
        assert not np.any(iq.samples)

    def test_sparsity_fraction(self):
        for pw, prr, npulses in [(13e-6, 500.0, 5), (52e-6, 1100.0, 9), (26e-6, 900.0, 7)]:
            p = RadarParams(pw, prr, npulses, 10e-3)
            iq = gen_radar_pulse_train(p, 10e-3)
            count = np.count_nonzero(iq.samples)
            expected = npulses * pw / 10e-3 * iq.n_samples
            assert abs(count - expected) <= npulses

    def test_bursts_repeat(self):
        iq = gen_radar_pulse_train(FIG_PARAMS, 20e-3)
        half = iq.n_samples // 2
        assert np.count_nonzero(iq.samples[:half]) == np.count_nonzero(iq.samples[half:])

    def test_carrier_frequency(self):
        p = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6)
        iq = gen_radar_pulse_train(p, 10e-3)
        spec = np.abs(np.fft.fft(iq.samples)) ** 2
        freqs = np.fft.fftfreq(iq.n_samples, 1 / FS)
        assert abs(freqs[np.argmax(spec)] - 2.5e6) < 1e3

    def test_doppler_moves_psd_argmax(self):
        # averaged 1024-point periodogram, matching the analysis FFT size
        def argmax_hz(iq):
            n_cols = iq.n_samples // 1024
            frames = iq.samples[: n_cols * 1024].reshape(n_cols, 1024)
            psd = np.mean(np.abs(np.fft.fft(frames, axis=1)) ** 2, axis=0)
            freqs = np.fft.fftfreq(1024, 1 / FS)
            return freqs[np.argmax(psd)]

        base = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=0.0)
        shifted = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=0.0,
                              doppler_shift_hz=30e3)
        f0 = argmax_hz(gen_radar_pulse_train(base, 10e-3))
        f1 = argmax_hz(gen_radar_pulse_train(shifted, 10e-3))
        bin_width = FS / 1024
        assert abs((f1 - f0) - 30e3) <= bin_width

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParamsError):
            RadarParams(13e-6, 500.0, 6, 10e-3).validate()  # 6/500 Hz > 10 ms
        with pytest.raises(InvalidParamsError):
            RadarParams(13e-6, 500.0, 5, 10e-3, center_offset_hz=8e6).validate()
        with pytest.raises(InvalidParamsError):
            RadarParams(5e-6, 500.0, 2, 10e-3).validate()  # pulse width out of range
        with pytest.raises(InvalidParamsError):
            gen_radar_pulse_train(FIG_PARAMS, 5e-3)  # duration < burst


class TestCellularBaseband:
    def test_all_inactive_silent(self):
        iq = gen_cellular_baseband(np.zeros(50, dtype=bool), 1e-3, seed=0)
        assert not np.any(iq.samples)

    def test_total_power_matches_sum(self):
        iq = gen_cellular_baseband(None, 10e-3, seed=1)
        assert mean_power(iq) == pytest.approx(50.0, rel=0.02)

    def test_inactive_half_suppressed(self):
        mask = np.zeros(50, dtype=bool)
        mask[:25] = True
        iq = gen_cellular_baseband(mask, 10e-3, seed=2)
        lower = band_density_oracle(iq.samples, FS, -4.5e6, 0.0)
        upper = band_density_oracle(iq.samples, FS, 0.0, 4.5e6)
        assert upper < lower * 1e-3  # >= 30 dB down

    def test_psd_flat_over_active_prbs(self):
        iq = gen_cellular_baseband(None, 10e-3, seed=3)
        d1 = measure_band_power(iq, -4.0e6, -2.0e6)
        d2 = measure_band_power(iq, 1.0e6, 3.0e6)
        assert d1 == pytest.approx(d2, rel=0.02)

    def test_deterministic(self):
        a = gen_cellular_baseband(None, 1e-3, seed=7)
        b = gen_cellular_baseband(None, 1e-3, seed=7)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("n_prbs", [0, 49, 51, 100])
    def test_mask_not_50_prbs_rejected_by_name(self, n_prbs):
        with pytest.raises(InvalidParamsError,
                           match=rf"prb_mask must hold 50 PRBs, not shape \({n_prbs},\)"):
            gen_cellular_baseband(np.ones(n_prbs, dtype=bool), 1e-3)


class TestAwgn:
    def test_zero_power_silent(self):
        assert not np.any(gen_awgn(0.0, 1e-3, seed=0).samples)

    def test_mean_power_within_one_percent(self):
        iq = gen_awgn(1.0, 10e-3, seed=11)  # 153,600 samples
        assert 0.99 <= mean_power(iq) <= 1.01

    def test_deterministic(self):
        a = gen_awgn(2.5, 1e-3, seed=42)
        b = gen_awgn(2.5, 1e-3, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_circular_symmetry(self):
        iq = gen_awgn(1.0, 10e-3, seed=5)
        assert np.mean(iq.samples.real ** 2) == pytest.approx(0.5, rel=0.03)
        assert np.mean(iq.samples.imag ** 2) == pytest.approx(0.5, rel=0.03)


class TestComputeSinr:
    def test_regulatory_anchor_20db(self):
        spec = SinrSpec.from_target(20.0)
        assert spec.p_radar_dbm_mhz == -89.0
        assert compute_sinr(spec) == pytest.approx(20.0, abs=1e-9)

    def test_equal_powers_zero_db(self):
        spec = SinrSpec(-100.0, -103.0103, -103.0103)
        assert compute_sinr(spec) == pytest.approx(0.0, abs=1e-4)

    def test_direct_linear_sum(self):
        spec = SinrSpec(-97.0, -112.0, -112.0)
        oracle = 10 * np.log10(10 ** -9.7 / (10 ** -11.2 + 10 ** -11.2))
        assert compute_sinr(spec) == pytest.approx(oracle, abs=1e-12)
        assert compute_sinr(spec) == pytest.approx(11.99, abs=0.005)

    def test_common_offset_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r, c, n = rng.uniform(-120, -80, 3)
            k = rng.uniform(-40, 40)
            a = compute_sinr(SinrSpec(r, c, n))
            b = compute_sinr(SinrSpec(r + k, c + k, n + k))
            assert a == pytest.approx(b, abs=1e-9)

    def test_absent_radar(self):
        assert compute_sinr(SinrSpec(float("-inf"), -112.0, -112.0)) == float("-inf")

    def test_zero_interference_is_inf(self):
        assert compute_sinr(SinrSpec(-100.0, float("-inf"), float("-inf"))) == float("inf")


class TestMeasureBandPower:
    def test_tone_density(self):
        n = 16384
        t = np.arange(n) / FS
        tone = np.exp(2j * np.pi * 1.92e6 * t)
        iq = IqBuffer(tone)
        # all tone power lands in a 1 MHz band around the tone
        d = measure_band_power(iq, 1.42e6, 2.42e6)
        assert d == pytest.approx(1.0 / 1.0, rel=0.01)

    def test_zero_buffer(self):
        iq = IqBuffer(np.zeros(1024))
        assert measure_band_power(iq, -1e6, 1e6) == 0.0

    def test_awgn_full_band_density(self):
        iq = gen_awgn(1.0, 10e-3, seed=9)
        d = measure_band_power(iq, -FS / 2, FS / 2)
        assert d == pytest.approx(1.0 / 15.36, rel=0.02)

    def test_band_outside_spectrum(self):
        iq = IqBuffer(np.zeros(1024))
        with pytest.raises(EmptyBandError):
            measure_band_power(iq, 8e6, 9e6)
        with pytest.raises(InvalidParamsError):
            measure_band_power(iq, 1e6, -1e6)


def fftfreq_prb_of_bin(n):
    """The PRB of each of n FFT bins on an ``fftfreq`` grid, 50 outside the band:
    the one whose [low, high) interval holds the bin's frequency."""
    freqs = np.fft.fftfreq(n, d=1.0 / FS)
    band_low = -50 * 180e3 / 2.0
    in_band = (freqs >= band_low) & (freqs < band_low + 50 * 180e3)
    prb_of_bin = np.full(n, 50)
    prb_of_bin[in_band] = np.clip(np.floor((freqs[in_band] - band_low) / 180e3), 0, 49)
    return prb_of_bin


def one_prb(p):
    mask = np.zeros(50, dtype=bool)
    mask[p] = True
    return mask


PRB_MASKS = (st.integers(0, 49).map(one_prb)
             | st.integers(0, 49).map(lambda p: ~one_prb(p))
             | st.sampled_from([np.arange(50) % 2 == 0, np.arange(50) % 2 == 1])
             | st.lists(st.booleans(), min_size=50, max_size=50).filter(any).map(np.array))


def fftfreq_band_density(samples, fs, f_low, f_high):
    """``measure_band_power`` as it was with an ``fftfreq`` mask: the reference
    for its bin index ranges.  A low edge at or below -fs/2 takes every bin
    below ``f_high``, the Nyquist bin included."""
    n = samples.size
    p_bins = np.abs(np.fft.fft(samples)) ** 2
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    sel = ((freqs >= f_low) | (f_low <= -fs / 2)) & (freqs < f_high)
    return float(np.sum(p_bins[sel])) / (n * n) / ((f_high - f_low) / 1e6)


class TestBandIndexRanges:
    """Band power read from signed-bin index ranges equals the ``fftfreq``
    mask's, by repr: edges on bin frequencies, at +-fs/2, anywhere between,
    and bands that hold no bin."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.sampled_from([153600]) | st.integers(4, 5000).map(lambda v: 2 * v + 1)
           | st.integers(1, 7),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_equals_fftfreq_mask(self, n, seed, data):
        fs = FS
        freqs = np.fft.fftfreq(n, d=1.0 / fs)
        on_bin = st.integers(0, n - 1).map(lambda i: float(freqs[i]))
        edge = on_bin | st.sampled_from([-fs / 2, fs / 2]) | st.floats(-fs / 2, fs / 2)
        bin_hz = fs / n
        between_bins = st.integers(0, n - 1).map(
            lambda i: (float(freqs[i]) + bin_hz / 4, float(freqs[i]) + bin_hz / 2))
        f_low, f_high = sorted(data.draw(st.tuples(edge, edge) | between_bins))
        assume(f_low < f_high and f_high > -fs / 2 and f_low < fs / 2)
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        if (f_high - f_low) / 1e6 == 0.0:  # e.g. [0, 5e-324): no density, rejected by name
            with pytest.raises(InvalidParamsError, match="width in MHz above 0"):
                measure_band_power(IqBuffer(samples), f_low, f_high)
            return
        got = measure_band_power(IqBuffer(samples), f_low, f_high)
        assert repr(got) == repr(fftfreq_band_density(samples, fs, f_low, f_high))


class TestFullBand:
    @settings(max_examples=150, deadline=None)
    @given(n=st.sampled_from([42, 84, 168, 502, 20000]) | st.integers(1, 20000),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=42, seed=0)
    @example(n=502, seed=0)
    def test_holds_every_bin(self, n, seed):
        """Parseval: the density over [-fs/2, fs/2) is the periodogram's whole
        energy, sum |X|^2 / n^2, over fs in MHz, the Nyquist bin of an even n
        included."""
        fs = FS
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        total = float(np.sum(np.abs(np.fft.fft(samples)) ** 2)) / (n * n)
        got = measure_band_power(IqBuffer(samples), -fs / 2, fs / 2)
        assert got == pytest.approx(total / (fs / 1e6), rel=1e-12)


class TestMixAtSinr:
    @staticmethod
    def composite_sinr_oracle(out, radar_input, carrier_hz):
        """Gated measurement on the composite only: pulse-on density minus the
        pulse-off (interference) density in the radar's 1 MHz band."""
        fs = FS
        on = np.abs(radar_input.samples) > 0
        lo, hi = carrier_hz - 0.5e6, carrier_hz + 0.5e6
        d_on = band_density_oracle(out.samples[on], fs, lo, hi)
        off = out.samples[~on][: on.sum() * 20]
        d_off = band_density_oracle(off, fs, lo, hi)
        return 10 * np.log10((d_on - d_off) / d_off)

    def test_single_target(self):
        radar = gen_radar_pulse_train(
            RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6), 10e-3)
        cell = gen_cellular_baseband(None, 10e-3, seed=3)
        out, achieved = mix_at_sinr(radar, cell, SinrSpec.from_target(12.0), seed=4)
        assert 11.5 <= achieved <= 12.5
        oracle = self.composite_sinr_oracle(out, radar, 2.5e6)
        assert oracle == pytest.approx(12.0, abs=0.5)

    @pytest.mark.parametrize("target", [-4.0, 0.0, 4.0, 8.0, 12.0])
    def test_target_sweep(self, target):
        radar = gen_radar_pulse_train(
            RadarParams(13e-6, 500.0, 5, 10e-3, center_offset_hz=-2.5e6), 10e-3)
        cell = gen_cellular_baseband(None, 10e-3, seed=5)
        _, achieved = mix_at_sinr(radar, cell, SinrSpec.from_target(target), seed=6)
        assert achieved == pytest.approx(target, abs=0.5)

    def test_absent_radar_passthrough(self):
        radar = IqBuffer(np.zeros(153600))
        cell = gen_cellular_baseband(None, 10e-3, seed=8)
        spec = SinrSpec(float("-inf"), -112.0, -112.0)
        out, achieved = mix_at_sinr(radar, cell, spec, seed=9)
        assert achieved == float("-inf")
        # output contains cellular + noise only: pulse structure absent
        noise_only = SinrSpec(float("-inf"), float("-inf"), -112.0)
        base, _ = mix_at_sinr(radar, cell, noise_only, seed=9)
        assert mean_power(out) > mean_power(base)

    def test_zero_interference_is_inf(self):
        radar = gen_radar_pulse_train(FIG_PARAMS, 10e-3)
        cell = gen_cellular_baseband(None, 10e-3, seed=1)
        spec = SinrSpec(-100.0, float("-inf"), float("-inf"))
        out, achieved = mix_at_sinr(radar, cell, spec, seed=2)
        assert achieved == float("inf")
        assert np.array_equal(out.samples != 0, radar.samples != 0)

    def test_silent_radar_rejected(self):
        radar = IqBuffer(np.zeros(15360))
        cell = gen_cellular_baseband(None, 1e-3, seed=1)
        with pytest.raises(SilentComponentError):
            mix_at_sinr(radar, cell, SinrSpec.from_target(8.0), seed=0)

    def test_mismatched_buffers_rejected(self):
        radar = gen_radar_pulse_train(FIG_PARAMS, 10e-3)
        cell = gen_cellular_baseband(None, 5e-3, seed=1)
        with pytest.raises(InvalidParamsError):
            mix_at_sinr(radar, cell, SinrSpec.from_target(8.0), seed=0)

    def test_deterministic(self):
        radar = gen_radar_pulse_train(FIG_PARAMS, 10e-3)
        cell = gen_cellular_baseband(None, 10e-3, seed=2)
        spec = SinrSpec.from_target(8.0)
        a, sa = mix_at_sinr(radar, cell, spec, seed=3)
        b, sb = mix_at_sinr(radar, cell, spec, seed=3)
        assert np.array_equal(a.samples, b.samples) and sa == sb


class TestCarriedDensity:
    """The density gen_cellular_baseband carries is the one mix_at_sinr used to
    measure with a full-length FFT."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_samples=st.integers(1500, 40000),
           single=st.booleans())
    def test_carried_density_equals_fft_measurement(self, seed, n_samples, single):
        rng = np.random.default_rng(seed)
        mask = np.zeros(50, dtype=bool)
        if single:
            mask[rng.integers(50)] = True
        else:
            mask |= rng.random(50) < rng.uniform(0.05, 1.0)
            mask[rng.integers(50)] = True
        # The FFT bins per PRB need not be whole: PRBs then differ by one bin.
        cell = gen_cellular_baseband(mask, n_samples / FS, seed=seed)
        measured = _occupied_density(IqBuffer(cell.samples))
        assert cell.occupied_density == pytest.approx(measured, rel=1e-12, abs=0.0)

    def test_silent_cellular_still_rejected(self):
        cell = gen_cellular_baseband(np.zeros(50, dtype=bool), 1e-3, seed=1)
        radar = gen_radar_pulse_train(FIG_PARAMS, 10e-3)
        assert cell.occupied_density == 0.0
        with pytest.raises(SilentComponentError):
            mix_at_sinr(IqBuffer(radar.samples[:cell.n_samples]), cell,
                        SinrSpec.from_target(8.0), seed=0)

    def test_other_buffers_are_measured(self):
        cell = gen_cellular_baseband(None, 10e-3, seed=2)
        radar = gen_radar_pulse_train(FIG_PARAMS, 10e-3)
        bare = IqBuffer(cell.samples)
        assert bare.occupied_density is None
        a, sa = mix_at_sinr(radar, cell, SinrSpec.from_target(8.0), seed=3)
        b, sb = mix_at_sinr(radar, bare, SinrSpec.from_target(8.0), seed=3)
        assert np.allclose(a.samples, b.samples, rtol=1e-12, atol=0.0)
        assert sa == pytest.approx(sb, abs=1e-9)


class TestInPlaceSynthesis:
    """The noise, the cellular waveform and the mix, built in place, equal the
    expressions they replaced bit for bit."""

    @staticmethod
    def awgn_oracle(power_linear, n, seed):
        rng = np.random.default_rng(seed)
        scale = np.sqrt(power_linear / 2.0)
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    @staticmethod
    def cellular_oracle(mask, n, seed):
        """The tones ``mags * np.exp(1j * phases)``, scattered on the active bins of
        an ``fftfreq`` grid, the phases drawn in ascending bin order."""
        rng = np.random.default_rng(seed)
        prb_of_bin = fftfreq_prb_of_bin(n)
        counts = np.bincount(prb_of_bin, minlength=51)
        bins = np.flatnonzero(np.append(mask, False)[prb_of_bin])
        mags = np.sqrt(1.0 * n * n / counts[prb_of_bin[bins]])
        phases = rng.uniform(0.0, 2.0 * np.pi, bins.size)
        spectrum = np.zeros(n, dtype=np.complex128)
        spectrum[bins] = mags * np.exp(1j * phases)
        return np.fft.ifft(spectrum)

    @pytest.mark.parametrize("seed", range(20))
    def test_awgn_equals_summed_draws(self, seed):
        power = 10.0 ** np.random.default_rng(seed).uniform(-14.0, 2.0)
        got = gen_awgn(power, 10e-3, seed=seed).samples
        assert np.array_equal(got, self.awgn_oracle(power, 153600, seed))

    @pytest.mark.parametrize("seed", range(20))
    def test_cellular_equals_scaled_tones(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(50) < rng.uniform(0.1, 1.0)
        mask[rng.integers(50)] = True
        got = gen_cellular_baseband(mask, 10e-3, seed=seed).samples
        assert np.array_equal(got, self.cellular_oracle(mask, 153600, seed))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1500, 40000) | st.just(153600), mask=PRB_MASKS,
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=153600, mask=one_prb(24), seed=0)
    @example(n=153600, mask=one_prb(25), seed=0)
    @example(n=1500, mask=one_prb(24), seed=1)
    @example(n=1501, mask=one_prb(25), seed=1)
    def test_cellular_per_prb_equals_scattered_tones(self, n, mask, seed):
        got = gen_cellular_baseband(mask, n / FS, seed=seed).samples
        assert got.size == n
        assert np.array_equal(got, self.cellular_oracle(mask, n, seed))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40000) | st.just(153600))
    def test_each_prb_is_one_index_range_in_draw_order(self, n):
        starts, counts = _prb_bin_layout(n)
        prb_of_bin = fftfreq_prb_of_bin(n)
        assert np.array_equal(counts, np.bincount(prb_of_bin, minlength=51)[:50])
        ranges = sorted((int(starts[p]), int(counts[p]), p) for p in range(50) if counts[p])
        for start, count, p in ranges:
            assert (prb_of_bin[start:start + count] == p).all()
        drawn = np.concatenate([np.arange(start, start + count) for start, count, _ in ranges])
        assert np.array_equal(drawn, np.flatnonzero(prb_of_bin < 50))

    @pytest.mark.parametrize("seed", range(20))
    def test_mix_equals_sum_of_components(self, seed):
        radar = gen_radar_pulse_train(
            RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6), 10e-3)
        cell = gen_cellular_baseband(None, 10e-3, seed=seed)
        spec = SinrSpec.from_target(float(seed % 13) - 4.0)
        silent = float("-inf")
        parts = [mix_at_sinr(radar, cell, part, seed=seed, measure_achieved=False)[0].samples
                 for part in (SinrSpec(spec.p_radar_dbm_mhz, silent, silent),
                              SinrSpec(silent, spec.p_cellular_dbm_mhz, silent),
                              SinrSpec(silent, silent, spec.p_noise_dbm_mhz))]
        radar_scaled, cell_scaled, noise = parts
        got, _ = mix_at_sinr(radar, cell, spec, seed=seed, measure_achieved=False)
        assert np.array_equal(got.samples, radar_scaled + cell_scaled + noise)


class TestSensingCapture:
    """The one capture path of the scenario's Mode 2 and the spectrogram dataset."""

    RADAR = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6)

    def test_radar_matches_explicit_synthesis(self):
        mask = np.ones(50, dtype=bool)
        mask[20:30] = False
        out, radar, achieved = sensing_capture(self.RADAR, 8.0, 10e-3, 11, 12,
                                               prb_mask=mask)
        cell = gen_cellular_baseband(mask, 10e-3, seed=11)
        ref_radar = gen_radar_pulse_train(self.RADAR, 10e-3)
        ref, ref_achieved = mix_at_sinr(ref_radar, cell, SinrSpec.from_target(8.0),
                                        seed=12)
        assert np.array_equal(radar.samples, ref_radar.samples)
        assert np.array_equal(out.samples, ref.samples) and achieved == ref_achieved

    def test_silence_matches_explicit_synthesis(self):
        out, radar, achieved = sensing_capture(None, 4.0, 10e-3, 21, 22)
        cell = gen_cellular_baseband(None, 10e-3, seed=21)
        floor = SinrSpec.from_target(0.0)
        spec = SinrSpec(float("-inf"), floor.p_cellular_dbm_mhz, floor.p_noise_dbm_mhz)
        ref, _ = mix_at_sinr(IqBuffer(np.zeros(cell.n_samples)), cell, spec, seed=22)
        assert not radar.samples.any()
        assert achieved == float("-inf")
        assert np.array_equal(out.samples, ref.samples)

    def test_unmeasured_sinr_is_nan(self):
        out, _, achieved = sensing_capture(self.RADAR, 8.0, 10e-3, 1, 2,
                                           measure_achieved=False)
        measured, _, _ = sensing_capture(self.RADAR, 8.0, 10e-3, 1, 2)
        assert np.isnan(achieved)
        assert np.array_equal(out.samples, measured.samples)

    @pytest.mark.parametrize("seed, pinned", [
        (0, -0.06864459402771923), (1, 3.9644039649324023), (2, 7.98115651807378)])
    def test_noise_drawn_beside_the_cellular_keeps_bytes(self, seed, pinned):
        """The helper thread draws the noise while the caller synthesizes the
        cellular waveform.  Measured or not, the composite has the same bytes,
        and the measured SINR equals the one-thread capture's, pinned."""
        mask = np.ones(50, dtype=bool)
        mask[10 + seed:14 + seed] = False
        radar = RadarParams(13e-6 * (seed + 1), 700.0 + 150 * seed, 5, 10e-3,
                            center_offset_hz=-2e6 + 2e6 * seed)
        args = (radar, 4.0 * seed, 10e-3, 11 + seed, 21 + seed)
        measured, _, achieved = sensing_capture(*args, prb_mask=mask)
        unmeasured, _, _ = sensing_capture(*args, prb_mask=mask, measure_achieved=False)
        assert measured.samples.tobytes() == unmeasured.samples.tobytes()
        assert achieved == pinned

    def test_traced_stages_run_on_the_calling_thread(self, monkeypatch):
        """perfbench's tracer assumes one thread, so the public stages a capture
        calls run on the caller; only the private noise draw runs on the helper."""
        callers = []
        for name in ("gen_cellular_baseband", "gen_radar_pulse_train", "mix_at_sinr"):
            def spy(*args, _original=getattr(SIGNALS_MODULE, name), **kwargs):
                callers.append(threading.current_thread())
                return _original(*args, **kwargs)
            monkeypatch.setattr(SIGNALS_MODULE, name, spy)
        sensing_capture(self.RADAR, 8.0, 10e-3, 1, 2)
        assert callers == [threading.current_thread()] * 3


def three_array_components(radar, cellular, spec, seed):
    """The scaled radar, its support, the scaled cellular, the cellular power
    gain and the noise, each as its own array."""
    fs = FS
    n = radar.n_samples
    noise = np.zeros(n, dtype=np.complex128)
    noise_power = dbm_to_linear(spec.p_noise_dbm_mhz) * (fs / 1e6)
    if noise_power != 0.0:
        rng = np.random.default_rng(seed)
        noise.real = rng.standard_normal(n)
        noise.imag = rng.standard_normal(n)
        noise *= np.sqrt(noise_power / 2.0)
    radar_target = dbm_to_linear(spec.p_radar_dbm_mhz)
    radar_scaled = np.zeros(n, dtype=np.complex128)
    on = radar.samples != 0
    if radar_target > 0.0:
        d_now = float(np.mean(np.abs(radar.samples[on]) ** 2))
        radar_scaled[on] = radar.samples[on] * np.sqrt(radar_target / d_now)
    cell_target = dbm_to_linear(spec.p_cellular_dbm_mhz)
    gain = np.sqrt(cell_target / cellular.occupied_density) if cell_target > 0.0 else 0.0
    cell_scaled = cellular.samples * gain if cell_target > 0.0 else np.zeros(n, np.complex128)
    return radar_scaled, on, cell_scaled, gain, noise


def radar_band_density(radar_scaled, on, fs):
    """The scaled radar's pulse-on density in the 1 MHz band around its PSD
    argmax, from two FFTs and an ``fftfreq`` grid."""
    spectrum = np.abs(np.fft.fft(radar_scaled)) ** 2
    carrier = float(np.fft.fftfreq(radar_scaled.size, d=1.0 / fs)[int(np.argmax(spectrum))])
    lo = max(carrier - 0.5e6, -fs / 2)
    hi = min(carrier + 0.5e6, fs / 2)
    return float(band_density_oracle(radar_scaled, fs, lo, hi)) / (on.sum() / on.size)


def two_array_mix_at_sinr(radar, cellular, spec, seed=None, measure_achieved=True):
    """``mix_at_sinr`` as it was before it built the mix in one array: the
    scaled radar, the scaled cellular and the noise as three arrays, and the
    radar spectrum taken twice, once for its peak and once for its band.  The
    achieved SINR's cellular term is the carried density times the power gain
    and its noise term the noise energy over n samples and fs (Parseval)."""
    fs = FS
    radar_scaled, on, cell_scaled, gain, noise = three_array_components(
        radar, cellular, spec, seed)
    mix = np.add(radar_scaled, cell_scaled)
    mix += noise
    if not measure_achieved:
        return mix, float("nan")
    if dbm_to_linear(spec.p_radar_dbm_mhz) <= 0.0:
        return mix, float("-inf")
    cell_meas = float(cellular.occupied_density * gain ** 2) if gain else 0.0
    energy = float(np.sum(noise.real ** 2)) + float(np.sum(noise.imag ** 2))
    noise_meas = energy / noise.size / (fs / 1e6)
    if cell_meas + noise_meas == 0.0:
        return mix, float("inf")
    radar_meas = radar_band_density(radar_scaled, on, fs)
    return mix, 10.0 * float(np.log10(radar_meas / (cell_meas + noise_meas)))


def three_fft_achieved_sinr(radar, cellular, spec, seed):
    """The achieved SINR as ``mix_at_sinr`` measured it with three full-length
    FFTs: the occupied-band density of the scaled cellular, the full-band
    periodogram density of the noise and the radar's band density."""
    fs = FS
    radar_scaled, on, cell_scaled, _, noise = three_array_components(
        radar, cellular, spec, seed)
    cell_meas = _occupied_density(IqBuffer(cell_scaled))
    noise_meas = band_density_oracle(noise, fs, -fs / 2, fs / 2)
    radar_meas = radar_band_density(radar_scaled, on, fs)
    return 10.0 * float(np.log10(radar_meas / (cell_meas + noise_meas)))


class TestOneArrayMix:
    """The mix built in one array, with one radar FFT when measured, equals the
    three-array mix bit for bit, and its achieved SINR has the same repr."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), sinr=st.floats(-4.0, 12.0),
           radar_on=st.booleans(), measure=st.booleans(),
           offset=st.sampled_from([-2.5e6, 0.0, 2.5e6]), mask_frac=st.floats(0.05, 1.0),
           pw=st.floats(13e-6, 52e-6), prr=st.floats(500.0, 1100.0))
    def test_sensing_capture_equals_three_array_mix(self, seed, sinr, radar_on, measure,
                                                    offset, mask_frac, pw, prr):
        rng = np.random.default_rng(seed)
        mask = rng.random(50) < mask_frac
        mask[rng.integers(50)] = True
        params = RadarParams(pw, prr, int(0.005 * prr), 10e-3, center_offset_hz=offset,
                             burst_start_s=float(rng.uniform(0.0, 4e-3)))
        radar = params if radar_on else None
        out, radar_iq, achieved = sensing_capture(radar, sinr, 10e-3, seed, seed + 1,
                                                  prb_mask=mask, measure_achieved=measure)
        cell = gen_cellular_baseband(mask, 10e-3, seed=seed)
        spec = SinrSpec.from_target(sinr)
        if not radar_on:
            spec = SinrSpec(float("-inf"), spec.p_cellular_dbm_mhz, spec.p_noise_dbm_mhz)
        mix, ref_achieved = two_array_mix_at_sinr(radar_iq, cell, spec, seed + 1, measure)
        assert out.samples.tobytes() == mix.tobytes()
        assert repr(achieved) == repr(ref_achieved)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1024, 20000),
           present=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           measure=st.booleans(), zero_frac=st.floats(0.0, 1.0))
    def test_mix_equals_three_array_mix(self, seed, n, present, measure, zero_frac):
        rng = np.random.default_rng(seed)
        radar = rng.normal(size=n) + 1j * rng.normal(size=n)
        radar[rng.random(n) < zero_frac] = 0.0
        radar[rng.integers(n)] = 1.0
        cell = IqBuffer(rng.normal(size=n) + 1j * rng.normal(size=n),
                        occupied_density=float(rng.uniform(0.5, 2.0)))
        levels = [float(rng.uniform(-120.0, -90.0)) if on else float("-inf")
                  for on in present]
        spec = SinrSpec(*levels)
        out, achieved = mix_at_sinr(IqBuffer(radar), cell, spec, seed=seed,
                                    measure_achieved=measure)
        mix, ref_achieved = two_array_mix_at_sinr(IqBuffer(radar), cell, spec, seed,
                                                  measure)
        assert out.samples.tobytes() == mix.tobytes()
        assert repr(achieved) == repr(ref_achieved)


class TestOneFftMeasurement:
    """The achieved SINR from one FFT, the radar's, against the three-FFT
    measurement it replaced, and the Parseval noise density against the
    noise's full-band periodogram density."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), sinr=st.floats(-4.0, 12.0),
           offset=st.sampled_from([-2.5e6, 0.0, 2.5e6]), mask_frac=st.floats(0.05, 1.0),
           pw=st.floats(13e-6, 52e-6), prr=st.floats(500.0, 1100.0))
    def test_sensing_capture_within_1e9_db_of_three_fft_measurement(
            self, seed, sinr, offset, mask_frac, pw, prr):
        rng = np.random.default_rng(seed)
        mask = rng.random(50) < mask_frac
        mask[rng.integers(50)] = True
        params = RadarParams(pw, prr, int(0.005 * prr), 10e-3, center_offset_hz=offset,
                             burst_start_s=float(rng.uniform(0.0, 4e-3)))
        _, radar_iq, achieved = sensing_capture(params, sinr, 10e-3, seed, seed + 1,
                                                prb_mask=mask)
        cell = gen_cellular_baseband(mask, 10e-3, seed=seed)
        want = three_fft_achieved_sinr(radar_iq, cell, SinrSpec.from_target(sinr),
                                       seed + 1)
        assert achieved == pytest.approx(want, abs=1e-9, rel=0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 20000),
           power=st.floats(1e-14, 1e2))
    def test_parseval_density_equals_full_band_fft_density(self, seed, n, power):
        base = np.array([1.0, 1j]) @ np.random.default_rng(seed + 1).normal(size=(2, n))
        x = base.copy()
        energy = _add_awgn(x, power, seed, measure=True)
        noise = gen_awgn(power, n / FS, seed).samples
        assert noise.size == n
        # Every bin: for some even n, fftfreq puts the Nyquist bin just below -fs/2.
        want = np.sum(np.abs(np.fft.fft(noise)) ** 2) / (n * n) / (FS / 1e6)
        assert energy / n / (FS / 1e6) == pytest.approx(want, rel=1e-12, abs=0.0)
        unmeasured = base.copy()
        assert _add_awgn(unmeasured, power, seed) == 0.0
        assert unmeasured.tobytes() == x.tobytes()


class TestDurationErrors:
    """A capture that cannot hold a sample fails in one InvalidParamsError
    naming its duration."""

    RADAR = RadarParams(26e-6, 1000.0, 5, 10e-3)

    @pytest.mark.parametrize("make", [
        lambda: gen_cellular_baseband(None, 0.0),
        lambda: sensing_capture(TestSensingCapture.RADAR, 8.0, 0.0, 1, 2),
    ], ids=["cellular", "capture"])
    def test_zero_duration_is_too_short_for_the_prbs(self, make):
        with pytest.raises(InvalidParamsError,
                           match="^duration too short to place FFT bins inside each active PRB$"):
            make()

    @pytest.mark.parametrize("make, shown", [
        (lambda: gen_cellular_baseband(None, -1e-3), "-0.001"),
        (lambda: gen_cellular_baseband(None, float("nan")), "nan"),
        (lambda: gen_radar_pulse_train(TestDurationErrors.RADAR, float("nan")), "nan"),
        (lambda: gen_awgn(1.0, -1.0), "-1.0"),
        (lambda: sensing_capture(None, 8.0, float("nan"), 1, 2), "nan"),
    ], ids=["cellular-negative", "cellular-nan", "radar-nan", "awgn-negative", "capture-nan"])
    def test_duration_that_is_no_sample_count_is_named(self, make, shown):
        with pytest.raises(InvalidParamsError) as info:
            make()
        assert str(info.value) == f"duration_s must be a finite number >= 0, not {shown}"


def radar_params(draw):
    """A valid RadarParams: its pulses fit inside its burst period."""
    burst = draw(st.floats(1e-3, 10e-3))
    prr = draw(st.floats(500.0, 1100.0))
    pw = draw(st.floats(13e-6, 52e-6))
    fit = max(int((burst - pw) * prr) + 1, 0)
    pulses = draw(st.integers(0, min(fit, int(burst * prr))))
    span = (pulses - 1) / prr + pw if pulses else 0.0
    start = draw(st.floats(0.0, max(burst - span, 0.0)))
    params = RadarParams(pw, prr, pulses, burst, center_offset_hz=draw(st.floats(-5e6, 5e6)),
                         burst_start_s=start)
    try:
        params.validate()
    except InvalidParamsError:
        assume(False)
    return params


class TestCarriedSupport:
    """``gen_radar_pulse_train`` carries the indices of its non-zero samples."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), periods=st.floats(1.0, 3.0))
    def test_support_equals_nonzero_scan(self, data, periods):
        params = data.draw(st.composite(lambda draw: radar_params(draw))())
        iq = gen_radar_pulse_train(params, params.burst_length_s * periods)
        assert iq.support.dtype == np.intp
        assert np.array_equal(iq.support, np.flatnonzero(iq.samples != 0))

    def test_carried_and_scanned_support_give_one_mix(self):
        radar = gen_radar_pulse_train(TestSensingCapture.RADAR, 10e-3)
        bare = IqBuffer(radar.samples)
        cell = gen_cellular_baseband(None, 10e-3, seed=3)
        a, sa = mix_at_sinr(radar, cell, SinrSpec.from_target(8.0), seed=4)
        b, sb = mix_at_sinr(bare, cell, SinrSpec.from_target(8.0), seed=4)
        assert a.samples.tobytes() == b.samples.tobytes() and sa == sb

