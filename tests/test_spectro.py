import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from coexsim.errors import InvalidParamsError, TooShortInputError
from coexsim.signals import IqBuffer, gen_awgn
from coexsim.spectro import (
    _BLOCK_FRAMES,
    POWER_FLOOR_DB,
    Spectrogram,
    StftConfig,
    load_spectrogram,
    save_spectrogram,
    stft_spectrogram,
)

FS = 15.36e6


def tone(freq_hz, n, fs=FS, amp=1.0):
    t = np.arange(n) / fs
    return IqBuffer(amp * np.exp(2j * np.pi * freq_hz * t), fs)


class TestStft:
    def test_tone_bin_position(self):
        iq = tone(1.92e6, 4096)
        spec = stft_spectrogram(iq, StftConfig(fft_size=1024, hop=1024))
        col = spec.power_db[:, 0]
        assert int(np.argmax(col)) == 512 + 128 == 640

    def test_all_zero_input_floors(self):
        iq = IqBuffer(np.zeros(2048), FS)
        spec = stft_spectrogram(iq, StftConfig(fft_size=1024))
        assert np.all(spec.power_db == -120.0)

    def test_column_count_10ms(self):
        iq = gen_awgn(1.0, 10e-3, FS, seed=0)
        spec = stft_spectrogram(iq, StftConfig(fft_size=1024, hop=1024))
        assert spec.n_time_bins == 150
        assert spec.n_freq_bins == 1024

    def test_axis_metadata(self):
        spec = stft_spectrogram(gen_awgn(1.0, 1e-3, FS, seed=1),
                                StftConfig(fft_size=1024, hop=512))
        assert spec.freq_resolution_hz == pytest.approx(FS / 1024)
        assert spec.time_resolution_s == pytest.approx(512 / FS)
        assert spec.f_start_hz == -FS / 2
        freqs = spec.f_start_hz + np.arange(spec.n_freq_bins) * spec.freq_resolution_hz
        assert freqs[512] == pytest.approx(0.0)
        assert np.all(np.diff(freqs) > 0)

    @pytest.mark.parametrize("window", ["hann", "rectangular"])
    def test_parseval_with_window_compensation(self, window):
        iq = gen_awgn(2.0, 1e-3, FS, seed=2)
        cfg = StftConfig(fft_size=1024, hop=1024, window=window)
        spec = stft_spectrogram(iq, cfg)
        w = cfg.window_values()
        lin = 10.0 ** (spec.power_db / 10.0)
        for col in range(spec.n_time_bins):
            frame = iq.samples[col * 1024:(col + 1) * 1024] * w
            time_energy = np.sum(np.abs(frame) ** 2)
            assert np.sum(lin[:, col]) == pytest.approx(time_energy, rel=0.01)

    def test_time_shift_permutes_columns(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
        cfg = StftConfig(fft_size=1024, hop=1024)
        a = stft_spectrogram(IqBuffer(x, FS), cfg)
        b = stft_spectrogram(IqBuffer(np.roll(x, 2048), FS), cfg)
        # columns 2.. of the shifted signal equal columns 0.. of the original
        assert np.allclose(b.power_db[:, 2:], a.power_db[:, :-2])

    def test_freq_shift_permutes_rows(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        cfg = StftConfig(fft_size=1024, hop=1024, window="rectangular")
        bin_width = FS / 1024
        t = np.arange(2048) / FS
        shifted = x * np.exp(2j * np.pi * bin_width * t)
        a = stft_spectrogram(IqBuffer(x, FS), cfg)
        b = stft_spectrogram(IqBuffer(shifted, FS), cfg)
        assert np.allclose(b.power_db[1:, :], a.power_db[:-1, :], rtol=1e-6, atol=1e-6)

    def test_too_short_input(self):
        with pytest.raises(TooShortInputError):
            stft_spectrogram(IqBuffer(np.zeros(512), FS), StftConfig(fft_size=1024))

    def test_config_validation(self):
        with pytest.raises(InvalidParamsError):
            StftConfig(fft_size=1000)
        with pytest.raises(InvalidParamsError):
            StftConfig(fft_size=1024, hop=2048)
        with pytest.raises(InvalidParamsError):
            StftConfig(window="blackman")


def gathered_stft_db(samples, config):
    """Reference STFT that gathers frames through a fancy index."""
    fft_size, hop = config.fft_size, config.hop_size
    n_cols = 1 + (len(samples) - fft_size) // hop
    idx = np.arange(fft_size)[None, :] + hop * np.arange(n_cols)[:, None]
    frames = samples[idx] * config.window_values()[None, :]
    power = np.abs(np.fft.fft(frames, axis=1)) ** 2 / fft_size
    power = np.fft.fftshift(power, axes=1).T
    return 10.0 * np.log10(np.maximum(power, 10.0 ** (POWER_FLOOR_DB / 10.0)))


class TestStridedFraming:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log2_fft=st.integers(1, 8),
           extra=st.integers(0, 700), hop_frac=st.floats(0.0, 1.0),
           window=st.sampled_from(["hann", "rectangular"]))
    def test_strided_frames_equal_index_gather(self, seed, log2_fft, extra,
                                               hop_frac, window):
        fft_size = 2 ** log2_fft
        hop = max(1, round(hop_frac * fft_size))
        rng = np.random.default_rng(seed)
        n = fft_size + extra
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        cfg = StftConfig(fft_size=fft_size, hop=hop, window=window)
        spec = stft_spectrogram(IqBuffer(samples, FS), cfg)
        expected = gathered_stft_db(samples, cfg)
        assert spec.power_db.shape == expected.shape
        assert spec.power_db.tobytes() == expected.tobytes()


def shifted_power(samples, config):
    """The linear power as the STFT built it with a whole-matrix fftshift:
    the transpose of a C-order [time, freq] array, so F-order."""
    fft_size = config.fft_size
    frames = sliding_window_view(samples, fft_size)[::config.hop_size]
    spectra = np.fft.fft(frames * config.window_values(), axis=1)
    power = np.fft.fftshift(np.abs(spectra) ** 2 / fft_size, axes=1).T
    return np.maximum(power, 10.0 ** (POWER_FLOOR_DB / 10.0))


class TestBlockedLayout:
    """The STFT writes C-order power block by block, equal to the shifted
    transpose it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log2_fft=st.integers(1, 8),
           hop_frac=st.floats(0.0, 1.0), window=st.sampled_from(["hann", "rectangular"]),
           n_blocks=st.integers(0, 2), n_rest=st.integers(0, _BLOCK_FRAMES - 1),
           tail=st.floats(0.0, 1.0))
    def test_blocked_power_equals_shifted_transpose(self, seed, log2_fft, hop_frac, window,
                                                    n_blocks, n_rest, tail):
        fft_size = 2 ** log2_fft
        hop = max(1, round(hop_frac * fft_size))
        n_frames = max(1, n_blocks * _BLOCK_FRAMES + n_rest)
        # samples past the last whole frame, fewer than one hop
        n = fft_size + (n_frames - 1) * hop + int(tail * (hop - 1))
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        cfg = StftConfig(fft_size=fft_size, hop=hop, window=window)
        power = stft_spectrogram(IqBuffer(samples, FS), cfg).power
        assert power.shape == (fft_size, n_frames)
        assert power.flags.c_contiguous
        assert np.array_equal(power, shifted_power(samples, cfg))

    def test_stft_and_loaded_power_need_no_copy(self, tmp_path):
        spec = stft_spectrogram(gen_awgn(1.0, 10e-3, FS, seed=7), StftConfig(hop=256))
        path = tmp_path / "spec.bin"
        save_spectrogram(path, spec)
        loaded, _ = load_spectrogram(path)
        for power in (spec.power, loaded.power):
            assert np.ascontiguousarray(power) is power


def dense_stft_power(iq, config):
    """The STFT as it was before it skipped empty frames: every frame
    windowed and transformed in one matrix, then squared, scaled, clamped
    and written transposed block by block."""
    fft_size = config.fft_size
    hop = config.hop_size
    w = config.window_values()
    frames = sliding_window_view(iq.samples, fft_size)[::hop] * w
    magnitude = np.abs(np.fft.fft(frames, axis=1, out=frames))
    del frames
    floor_lin = 10.0 ** (POWER_FLOOR_DB / 10.0)
    half = fft_size // 2
    power = np.empty((fft_size, magnitude.shape[0]))
    for t0 in range(0, magnitude.shape[0], _BLOCK_FRAMES):
        block = magnitude[t0:t0 + _BLOCK_FRAMES]
        np.square(block, out=block)
        block /= fft_size
        np.maximum(block, floor_lin, out=block)
        power[:half, t0:t0 + _BLOCK_FRAMES] = block[:, half:].T
        power[half:, t0:t0 + _BLOCK_FRAMES] = block[:, :half].T
    return power


@st.composite
def signals_with_zero_runs(draw):
    """(samples, StftConfig): dense, all-zero, zero-run or pulsed inputs."""
    fft_size = 2 ** draw(st.integers(1, 10))
    hop = draw(st.sampled_from([fft_size, max(1, fft_size // 4)])
               | st.integers(1, fft_size))
    window = draw(st.sampled_from(["hann", "rectangular"]))
    n_frames = draw(st.sampled_from([1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1])
                    | st.integers(1, 2 * _BLOCK_FRAMES + 3))
    n = fft_size + (n_frames - 1) * hop + draw(st.integers(0, hop - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    kind = draw(st.sampled_from(["dense", "zeros", "zero runs", "pulses"]))
    if kind == "zeros":
        samples[:] = 0.0
    elif kind == "zero runs":
        for a, b in np.sort(rng.integers(0, n + 1, 2 * int(rng.integers(1, 6)))).reshape(-1, 2):
            samples[a:b] = 0.0
    elif kind == "pulses":
        keep = np.zeros(n, dtype=bool)
        for start in rng.integers(0, n, int(rng.integers(1, 6))):
            keep[start:start + int(rng.integers(1, 2 * fft_size))] = True
        samples[~keep] = 0.0
        # a sample with one zero part is still non-zero
        part = keep & (rng.random(n) < 0.2)
        samples[part] = np.where(rng.random(part.sum()) < 0.5, samples[part].real,
                                 1j * samples[part].imag)
    return samples, StftConfig(fft_size=fft_size, hop=hop, window=window)


class TestLiveFrames:
    """The STFT transforms only frames with a non-zero sample, block by block,
    and equals the dense STFT bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=signals_with_zero_runs())
    def test_equals_dense_stft(self, case):
        samples, cfg = case
        iq = IqBuffer(samples, FS)
        power = stft_spectrogram(iq, cfg).power
        assert power.flags.c_contiguous
        assert power.tobytes() == dense_stft_power(iq, cfg).tobytes()

    def test_clean_radar_equals_dense_stft(self):
        radar = IqBuffer(np.zeros(153600, dtype=np.complex128), FS)
        t = np.arange(400) / FS
        for start in (0, 20000, 76000, 153200):
            radar.samples[start:start + 400] = np.exp(2j * np.pi * 2.5e6 * t)
        cfg = StftConfig(fft_size=1024, hop=256)
        power = stft_spectrogram(radar, cfg).power
        assert power.tobytes() == dense_stft_power(radar, cfg).tobytes()
        assert (power == 10.0 ** (POWER_FLOOR_DB / 10.0)).all(axis=0).sum() > 500


class TestExport:
    def test_round_trip(self, tmp_path):
        spec = stft_spectrogram(gen_awgn(1.0, 1e-3, FS, seed=5), StftConfig())
        path = tmp_path / "spec.bin"
        save_spectrogram(path, spec, {"seed": 5})
        back, meta = load_spectrogram(path)
        assert back.power_db.shape == spec.power_db.shape
        assert np.allclose(back.power_db, spec.power_db, atol=1e-3)
        assert meta["seed"] == "5"

