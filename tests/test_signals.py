import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from coexsim.errors import (
    EmptyBandError,
    InvalidParamsError,
    SilentComponentError,
)
from coexsim.signals import (
    CellularParams,
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
    _occupied_density,
    _prb_bin_layout,
    sensing_capture,
)

FS = 15.36e6

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
        iq = gen_radar_pulse_train(FIG_PARAMS, 10e-3, FS)
        nz = np.abs(iq.samples) > 0
        starts = np.nonzero(nz & ~np.roll(nz, 1))[0]
        # roll wraps; first sample is a genuine start here
        assert list(starts) == [0, 30720, 61440, 92160, 122880]
        assert np.allclose(np.array(starts) / FS, [0, 2e-3, 4e-3, 6e-3, 8e-3])

    def test_nonzero_sample_count(self):
        iq = gen_radar_pulse_train(FIG_PARAMS, 10e-3, FS)
        assert int(np.count_nonzero(iq.samples)) == 5 * round(13e-6 * FS) == 1000

    def test_zero_pulses_gives_silence(self):
        p = RadarParams(13e-6, 500.0, 0, 10e-3)
        iq = gen_radar_pulse_train(p, 10e-3, FS)
        assert not np.any(iq.samples)

    def test_sparsity_fraction(self):
        for pw, prr, npulses in [(13e-6, 500.0, 5), (52e-6, 1100.0, 9), (26e-6, 900.0, 7)]:
            p = RadarParams(pw, prr, npulses, 10e-3)
            iq = gen_radar_pulse_train(p, 10e-3, FS)
            count = np.count_nonzero(iq.samples)
            expected = npulses * pw / 10e-3 * iq.n_samples
            assert abs(count - expected) <= npulses

    def test_bursts_repeat(self):
        iq = gen_radar_pulse_train(FIG_PARAMS, 20e-3, FS)
        half = iq.n_samples // 2
        assert np.count_nonzero(iq.samples[:half]) == np.count_nonzero(iq.samples[half:])

    def test_carrier_frequency(self):
        p = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6)
        iq = gen_radar_pulse_train(p, 10e-3, FS)
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
        f0 = argmax_hz(gen_radar_pulse_train(base, 10e-3, FS))
        f1 = argmax_hz(gen_radar_pulse_train(shifted, 10e-3, FS))
        bin_width = FS / 1024
        assert abs((f1 - f0) - 30e3) <= bin_width

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParamsError):
            RadarParams(13e-6, 500.0, 6, 10e-3).validate(FS)  # 6/500 Hz > 10 ms
        with pytest.raises(InvalidParamsError):
            RadarParams(13e-6, 500.0, 5, 10e-3, center_offset_hz=8e6).validate(FS)
        with pytest.raises(InvalidParamsError):
            RadarParams(5e-6, 500.0, 2, 10e-3).validate(FS)  # pulse width out of range
        with pytest.raises(InvalidParamsError):
            gen_radar_pulse_train(FIG_PARAMS, 5e-3, FS)  # duration < burst


class TestCellularBaseband:
    def test_all_inactive_silent(self):
        p = CellularParams(active_prb_mask=np.zeros(50, dtype=bool))
        iq = gen_cellular_baseband(p, 1e-3, FS, seed=0)
        assert not np.any(iq.samples)

    def test_total_power_matches_sum(self):
        p = CellularParams(per_prb_power=1.0)
        iq = gen_cellular_baseband(p, 10e-3, FS, seed=1)
        assert mean_power(iq) == pytest.approx(50.0, rel=0.02)

    def test_inactive_half_suppressed(self):
        mask = np.zeros(50, dtype=bool)
        mask[:25] = True
        p = CellularParams(active_prb_mask=mask)
        iq = gen_cellular_baseband(p, 10e-3, FS, seed=2)
        lower = band_density_oracle(iq.samples, FS, -4.5e6, 0.0)
        upper = band_density_oracle(iq.samples, FS, 0.0, 4.5e6)
        assert upper < lower * 1e-3  # >= 30 dB down

    def test_psd_flat_over_active_prbs(self):
        p = CellularParams(per_prb_power=1.0)
        iq = gen_cellular_baseband(p, 10e-3, FS, seed=3)
        d1 = measure_band_power(iq, -4.0e6, -2.0e6)
        d2 = measure_band_power(iq, 1.0e6, 3.0e6)
        assert d1 == pytest.approx(d2, rel=0.02)

    def test_deterministic(self):
        p = CellularParams()
        a = gen_cellular_baseband(p, 1e-3, FS, seed=7)
        b = gen_cellular_baseband(p, 1e-3, FS, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_bandwidth_overflow_rejected(self):
        with pytest.raises(InvalidParamsError):
            gen_cellular_baseband(CellularParams(n_prbs=100), 1e-3, FS)


class TestAwgn:
    def test_zero_power_silent(self):
        assert not np.any(gen_awgn(0.0, 1e-3, FS, seed=0).samples)

    def test_mean_power_within_one_percent(self):
        iq = gen_awgn(1.0, 10e-3, FS, seed=11)  # 153,600 samples
        assert 0.99 <= mean_power(iq) <= 1.01

    def test_deterministic(self):
        a = gen_awgn(2.5, 1e-3, FS, seed=42)
        b = gen_awgn(2.5, 1e-3, FS, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_circular_symmetry(self):
        iq = gen_awgn(1.0, 10e-3, FS, seed=5)
        assert np.mean(iq.samples.real ** 2) == pytest.approx(0.5, rel=0.03)
        assert np.mean(iq.samples.imag ** 2) == pytest.approx(0.5, rel=0.03)


class TestComputeSinr:
    def test_regulatory_anchor_20db(self):
        spec = SinrSpec.from_target(20.0, combined_dbm_mhz=-109.0)
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


class TestMeasureBandPower:
    def test_tone_density(self):
        n = 16384
        t = np.arange(n) / FS
        tone = np.exp(2j * np.pi * 1.92e6 * t)
        iq = IqBuffer(tone, FS)
        # all tone power lands in a 1 MHz band around the tone
        d = measure_band_power(iq, 1.42e6, 2.42e6)
        assert d == pytest.approx(1.0 / 1.0, rel=0.01)

    def test_zero_buffer(self):
        iq = IqBuffer(np.zeros(1024), FS)
        assert measure_band_power(iq, -1e6, 1e6) == 0.0

    def test_awgn_full_band_density(self):
        iq = gen_awgn(1.0, 10e-3, FS, seed=9)
        d = measure_band_power(iq, -FS / 2, FS / 2)
        assert d == pytest.approx(1.0 / 15.36, rel=0.02)

    def test_band_outside_spectrum(self):
        iq = IqBuffer(np.zeros(1024), FS)
        with pytest.raises(EmptyBandError):
            measure_band_power(iq, 8e6, 9e6)
        with pytest.raises(InvalidParamsError):
            measure_band_power(iq, 1e6, -1e6)


class TestMixAtSinr:
    @staticmethod
    def composite_sinr_oracle(out, radar_input, carrier_hz):
        """Gated measurement on the composite only: pulse-on density minus the
        pulse-off (interference) density in the radar's 1 MHz band."""
        fs = out.sample_rate_hz
        on = np.abs(radar_input.samples) > 0
        lo, hi = carrier_hz - 0.5e6, carrier_hz + 0.5e6
        d_on = band_density_oracle(out.samples[on], fs, lo, hi)
        off = out.samples[~on][: on.sum() * 20]
        d_off = band_density_oracle(off, fs, lo, hi)
        return 10 * np.log10((d_on - d_off) / d_off)

    def test_single_target(self):
        radar = gen_radar_pulse_train(
            RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6), 10e-3, FS)
        cell = gen_cellular_baseband(CellularParams(), 10e-3, FS, seed=3)
        out, achieved = mix_at_sinr(radar, cell, SinrSpec.from_target(12.0), seed=4)
        assert 11.5 <= achieved <= 12.5
        oracle = self.composite_sinr_oracle(out, radar, 2.5e6)
        assert oracle == pytest.approx(12.0, abs=0.5)

    @pytest.mark.parametrize("target", [-4.0, 0.0, 4.0, 8.0, 12.0])
    def test_target_sweep(self, target):
        radar = gen_radar_pulse_train(
            RadarParams(13e-6, 500.0, 5, 10e-3, center_offset_hz=-2.5e6), 10e-3, FS)
        cell = gen_cellular_baseband(CellularParams(), 10e-3, FS, seed=5)
        _, achieved = mix_at_sinr(radar, cell, SinrSpec.from_target(target), seed=6)
        assert achieved == pytest.approx(target, abs=0.5)

    def test_absent_radar_passthrough(self):
        radar = IqBuffer(np.zeros(153600), FS)
        cell = gen_cellular_baseband(CellularParams(), 10e-3, FS, seed=8)
        spec = SinrSpec(float("-inf"), -112.0, -112.0)
        out, achieved = mix_at_sinr(radar, cell, spec, seed=9)
        assert achieved == float("-inf")
        # output contains cellular + noise only: pulse structure absent
        noise_only = SinrSpec(float("-inf"), float("-inf"), -112.0)
        base, _ = mix_at_sinr(radar, cell, noise_only, seed=9)
        assert mean_power(out) > mean_power(base)

    def test_silent_radar_rejected(self):
        radar = IqBuffer(np.zeros(15360), FS)
        cell = gen_cellular_baseband(CellularParams(), 1e-3, FS, seed=1)
        with pytest.raises(SilentComponentError):
            mix_at_sinr(radar, cell, SinrSpec.from_target(8.0), seed=0)

    def test_mismatched_buffers_rejected(self):
        radar = gen_radar_pulse_train(FIG_PARAMS, 10e-3, FS)
        cell = gen_cellular_baseband(CellularParams(), 5e-3, FS, seed=1)
        with pytest.raises(InvalidParamsError):
            mix_at_sinr(radar, cell, SinrSpec.from_target(8.0), seed=0)

    def test_deterministic(self):
        radar = gen_radar_pulse_train(FIG_PARAMS, 10e-3, FS)
        cell = gen_cellular_baseband(CellularParams(), 10e-3, FS, seed=2)
        spec = SinrSpec.from_target(8.0)
        a, sa = mix_at_sinr(radar, cell, spec, seed=3)
        b, sb = mix_at_sinr(radar, cell, spec, seed=3)
        assert np.array_equal(a.samples, b.samples) and sa == sb


class TestCarriedDensity:
    """The density gen_cellular_baseband carries is the one mix_at_sinr used to
    measure with a full-length FFT."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_samples=st.integers(1500, 40000),
           per_prb_power=st.floats(1e-6, 1e6), n_prbs=st.integers(1, 60),
           prb_bandwidth_hz=st.sampled_from((180e3, FS / 64)), single=st.booleans())
    def test_carried_density_equals_fft_measurement(self, seed, n_samples, per_prb_power,
                                                    n_prbs, prb_bandwidth_hz, single):
        rng = np.random.default_rng(seed)
        mask = np.zeros(n_prbs, dtype=bool)
        if single:
            mask[rng.integers(n_prbs)] = True
        else:
            mask |= rng.random(n_prbs) < rng.uniform(0.05, 1.0)
            mask[rng.integers(n_prbs)] = True
        params = CellularParams(n_prbs=n_prbs, prb_bandwidth_hz=prb_bandwidth_hz,
                                active_prb_mask=mask, per_prb_power=per_prb_power)
        # The FFT bins per PRB need not be whole: PRBs then differ by one bin.
        cell = gen_cellular_baseband(params, n_samples / FS, FS, seed=seed)
        measured = _occupied_density(IqBuffer(cell.samples, FS))
        assert cell.occupied_density == pytest.approx(measured, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("params", [
        CellularParams(active_prb_mask=np.zeros(50, dtype=bool)),
        CellularParams(per_prb_power=0.0),
    ])
    def test_silent_cellular_still_rejected(self, params):
        cell = gen_cellular_baseband(params, 1e-3, FS, seed=1)
        radar = gen_radar_pulse_train(FIG_PARAMS, 10e-3, FS)
        assert cell.occupied_density == 0.0
        with pytest.raises(SilentComponentError):
            mix_at_sinr(IqBuffer(radar.samples[:cell.n_samples], FS), cell,
                        SinrSpec.from_target(8.0), seed=0)

    def test_other_buffers_are_measured(self):
        cell = gen_cellular_baseband(CellularParams(), 10e-3, FS, seed=2)
        radar = gen_radar_pulse_train(FIG_PARAMS, 10e-3, FS)
        bare = IqBuffer(cell.samples, FS)
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
    def cellular_oracle(params, n, seed):
        rng = np.random.default_rng(seed)
        prb_of_bin, counts = _prb_bin_layout(n, FS, params.n_prbs, params.prb_bandwidth_hz)
        bins = np.flatnonzero(np.append(params.mask(), False)[prb_of_bin])
        mags = np.sqrt(params.per_prb_power * n * n / counts[prb_of_bin[bins]])
        phases = rng.uniform(0.0, 2.0 * np.pi, bins.size)
        spectrum = np.zeros(n, dtype=np.complex128)
        spectrum[bins] = mags * np.exp(1j * phases)
        return np.fft.ifft(spectrum)

    @pytest.mark.parametrize("seed", range(20))
    def test_awgn_equals_summed_draws(self, seed):
        power = 10.0 ** np.random.default_rng(seed).uniform(-14.0, 2.0)
        got = gen_awgn(power, 10e-3, FS, seed=seed).samples
        assert np.array_equal(got, self.awgn_oracle(power, 153600, seed))

    @pytest.mark.parametrize("seed", range(20))
    def test_cellular_equals_scaled_tones(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(50) < rng.uniform(0.1, 1.0)
        mask[rng.integers(50)] = True
        params = CellularParams(active_prb_mask=mask, per_prb_power=rng.uniform(0.1, 10.0))
        got = gen_cellular_baseband(params, 10e-3, FS, seed=seed).samples
        assert np.array_equal(got, self.cellular_oracle(params, 153600, seed))

    @pytest.mark.parametrize("seed", range(20))
    def test_mix_equals_sum_of_components(self, seed):
        radar = gen_radar_pulse_train(
            RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6), 10e-3, FS)
        cell = gen_cellular_baseband(CellularParams(), 10e-3, FS, seed=seed)
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
        out, radar, achieved = sensing_capture(self.RADAR, 8.0, -109.0, 10e-3, 11, 12,
                                               prb_mask=mask)
        cell = gen_cellular_baseband(CellularParams(active_prb_mask=mask), 10e-3, seed=11)
        ref_radar = gen_radar_pulse_train(self.RADAR, 10e-3)
        ref, ref_achieved = mix_at_sinr(ref_radar, cell, SinrSpec.from_target(8.0, -109.0),
                                        seed=12)
        assert np.array_equal(radar.samples, ref_radar.samples)
        assert np.array_equal(out.samples, ref.samples) and achieved == ref_achieved

    def test_silence_matches_explicit_synthesis(self):
        out, radar, achieved = sensing_capture(None, 4.0, -109.0, 10e-3, 21, 22)
        cell = gen_cellular_baseband(CellularParams(), 10e-3, seed=21)
        floor = SinrSpec.from_target(0.0, -109.0)
        spec = SinrSpec(float("-inf"), floor.p_cellular_dbm_mhz, floor.p_noise_dbm_mhz)
        ref, _ = mix_at_sinr(IqBuffer(np.zeros(cell.n_samples), FS), cell, spec, seed=22)
        assert not radar.samples.any()
        assert achieved == float("-inf")
        assert np.array_equal(out.samples, ref.samples)

    def test_unmeasured_sinr_is_nan(self):
        out, _, achieved = sensing_capture(self.RADAR, 8.0, -109.0, 10e-3, 1, 2,
                                           measure_achieved=False)
        measured, _, _ = sensing_capture(self.RADAR, 8.0, -109.0, 10e-3, 1, 2)
        assert np.isnan(achieved)
        assert np.array_equal(out.samples, measured.samples)


def two_array_mix_at_sinr(radar, cellular, spec, seed=None, measure_achieved=True):
    """``mix_at_sinr`` as it was before it built the mix in one array: the
    scaled radar, the scaled cellular and the noise as three arrays, and the
    radar spectrum taken twice, once for its peak and once for its band."""
    fs = radar.sample_rate_hz
    fs_mhz = fs / 1e6

    def awgn(power_linear, n):
        if power_linear == 0.0:
            return np.zeros(n, dtype=np.complex128)
        rng = np.random.default_rng(seed)
        x = np.empty(n, dtype=np.complex128)
        x.real = rng.standard_normal(n)
        x.imag = rng.standard_normal(n)
        x *= np.sqrt(power_linear / 2.0)
        return x

    def band_power(samples, f_low, f_high):
        n = samples.size
        spectrum = np.fft.fft(samples)
        freqs = np.fft.fftfreq(n, d=1.0 / fs)
        sel = (freqs >= f_low) & (freqs < f_high)
        return float(np.sum(np.abs(spectrum[sel]) ** 2)) / (n * n) / ((f_high - f_low) / 1e6)

    def psd_argmax_hz(samples):
        spectrum = np.abs(np.fft.fft(samples)) ** 2
        return float(np.fft.fftfreq(samples.size, d=1.0 / fs)[int(np.argmax(spectrum))])

    noise = awgn(dbm_to_linear(spec.p_noise_dbm_mhz) * fs_mhz, radar.n_samples)
    radar_target = dbm_to_linear(spec.p_radar_dbm_mhz)
    radar_scaled = np.zeros(radar.n_samples, dtype=np.complex128)
    on = radar.samples != 0
    if radar_target > 0.0:
        d_now = float(np.mean(np.abs(radar.samples[on]) ** 2))
        radar_scaled[on] = radar.samples[on] * np.sqrt(radar_target / d_now)
    cell_target = dbm_to_linear(spec.p_cellular_dbm_mhz)
    if cell_target > 0.0:
        cell_scaled = cellular.samples * np.sqrt(cell_target / cellular.occupied_density)
    else:
        cell_scaled = np.zeros(cellular.n_samples, dtype=np.complex128)
    mix = np.add(radar_scaled, cell_scaled)
    mix += noise
    if not measure_achieved:
        return mix, float("nan")
    noise_meas = band_power(noise, -fs / 2, fs / 2)
    cell_meas = _occupied_density(IqBuffer(cell_scaled, fs)) if cell_target > 0.0 else 0.0
    if radar_target <= 0.0:
        return mix, float("-inf")
    carrier = psd_argmax_hz(radar_scaled)
    lo = max(carrier - 0.5e6, -fs / 2)
    hi = min(carrier + 0.5e6, fs / 2)
    radar_meas = band_power(radar_scaled, lo, hi) / (on.sum() / on.size)
    return mix, 10.0 * float(np.log10(radar_meas / (cell_meas + noise_meas)))


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
        out, radar_iq, achieved = sensing_capture(radar, sinr, -109.0, 10e-3, seed, seed + 1,
                                                  prb_mask=mask, measure_achieved=measure)
        cell = gen_cellular_baseband(CellularParams(active_prb_mask=mask), 10e-3, seed=seed)
        spec = SinrSpec.from_target(sinr, -109.0)
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
        cell = IqBuffer(rng.normal(size=n) + 1j * rng.normal(size=n), FS,
                        occupied_density=float(rng.uniform(0.5, 2.0)))
        levels = [float(rng.uniform(-120.0, -90.0)) if on else float("-inf")
                  for on in present]
        # the radar alone, measured, divides by zero interference on both sides
        assume(not (measure and present == (True, False, False)))
        spec = SinrSpec(*levels)
        out, achieved = mix_at_sinr(IqBuffer(radar, FS), cell, spec, seed=seed,
                                    measure_achieved=measure)
        mix, ref_achieved = two_array_mix_at_sinr(IqBuffer(radar, FS), cell, spec, seed,
                                                  measure)
        assert out.samples.tobytes() == mix.tobytes()
        assert repr(achieved) == repr(ref_achieved)

