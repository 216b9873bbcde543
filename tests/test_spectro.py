from pathlib import Path
import tempfile

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from coexsim.errors import TooShortInputError
from coexsim.signals import IqBuffer, RadarParams, gen_awgn, sensing_capture
from coexsim.spectro import (
    _BLOCK_FRAMES,
    F_START_HZ,
    FFT_SIZE,
    FREQ_RESOLUTION_HZ,
    HOP,
    POWER_FLOOR_DB,
    TIME_RESOLUTION_S,
    _db_to_power,
    _power_to_db,
    load_spectrogram,
    save_spectrogram,
    stft_spectrogram,
)

FS = 15.36e6


def tone(freq_hz, n, amp=1.0):
    t = np.arange(n) / FS
    return IqBuffer(amp * np.exp(2j * np.pi * freq_hz * t))


def hann():
    return np.hanning(FFT_SIZE)


def db(power):
    """The dB form that ``save_spectrogram`` writes, before its float32 cast."""
    return 10.0 * np.log10(power)


class TestStft:
    def test_tone_bin_position(self):
        iq = tone(1.92e6, 4096)
        col = db(stft_spectrogram(iq))[:, 0]
        assert int(np.argmax(col)) == 512 + 128 == 640

    def test_all_zero_input_floors(self):
        iq = IqBuffer(np.zeros(2048))
        assert np.all(db(stft_spectrogram(iq)) == -120.0)

    def test_column_count_10ms(self):
        iq = gen_awgn(1.0, 10e-3, seed=0)
        assert stft_spectrogram(iq).shape == (1024, 1 + (153600 - 1024) // 256) == (1024, 597)

    def test_axis_metadata(self):
        assert FREQ_RESOLUTION_HZ == pytest.approx(FS / 1024)
        assert TIME_RESOLUTION_S == pytest.approx(256 / FS)
        assert F_START_HZ == -FS / 2
        freqs = F_START_HZ + np.arange(FFT_SIZE) * FREQ_RESOLUTION_HZ
        assert freqs[512] == pytest.approx(0.0)
        assert np.all(np.diff(freqs) > 0)

    def test_parseval_with_window_compensation(self):
        iq = gen_awgn(2.0, 1e-3, seed=2)
        lin = stft_spectrogram(iq)
        for col in range(lin.shape[1]):
            frame = iq.samples[col * HOP:col * HOP + FFT_SIZE] * hann()
            time_energy = np.sum(np.abs(frame) ** 2)
            assert np.sum(lin[:, col]) == pytest.approx(time_energy, rel=0.01)

    def test_time_shift_permutes_columns(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
        a = stft_spectrogram(IqBuffer(x))
        b = stft_spectrogram(IqBuffer(np.roll(x, 2048)))
        # 2048 samples are 8 hops: columns 8.. of the shifted signal equal
        # columns 0.. of the original
        assert np.allclose(db(b)[:, 8:], db(a)[:, :-8])

    def test_freq_shift_permutes_rows(self):
        # A shift by one bin width moves every windowed frame's spectrum by
        # one bin, whatever the window.
        rng = np.random.default_rng(4)
        x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        bin_width = FS / 1024
        t = np.arange(2048) / FS
        shifted = x * np.exp(2j * np.pi * bin_width * t)
        a = stft_spectrogram(IqBuffer(x))
        b = stft_spectrogram(IqBuffer(shifted))
        assert np.allclose(db(b)[1:, :], db(a)[:-1, :], rtol=1e-6, atol=1e-6)

    def test_too_short_input(self):
        with pytest.raises(TooShortInputError):
            stft_spectrogram(IqBuffer(np.zeros(512)))


def gathered_stft_db(samples):
    """Reference STFT that gathers frames through a fancy index."""
    n_cols = 1 + (len(samples) - FFT_SIZE) // HOP
    idx = np.arange(FFT_SIZE)[None, :] + HOP * np.arange(n_cols)[:, None]
    frames = samples[idx] * hann()[None, :]
    power = np.abs(np.fft.fft(frames, axis=1)) ** 2 / FFT_SIZE
    power = np.fft.fftshift(power, axes=1).T
    return 10.0 * np.log10(np.maximum(power, 10.0 ** (POWER_FLOOR_DB / 10.0)))


class TestStridedFraming:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), extra=st.integers(0, 2 * _BLOCK_FRAMES * HOP))
    def test_strided_frames_equal_index_gather(self, seed, extra):
        rng = np.random.default_rng(seed)
        n = FFT_SIZE + extra
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = db(stft_spectrogram(IqBuffer(samples)))
        expected = gathered_stft_db(samples)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def shifted_power(samples):
    """The linear power as the STFT built it with a whole-matrix fftshift:
    the transpose of a C-order [time, freq] array, so F-order."""
    frames = sliding_window_view(samples, FFT_SIZE)[::HOP]
    spectra = np.fft.fft(frames * hann(), axis=1)
    power = np.fft.fftshift(np.abs(spectra) ** 2 / FFT_SIZE, axes=1).T
    return np.maximum(power, 10.0 ** (POWER_FLOOR_DB / 10.0))


class TestBlockedLayout:
    """The STFT writes C-order power block by block, equal to the shifted
    transpose it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_blocks=st.integers(0, 2),
           n_rest=st.integers(0, _BLOCK_FRAMES - 1), tail=st.floats(0.0, 1.0))
    def test_blocked_power_equals_shifted_transpose(self, seed, n_blocks, n_rest, tail):
        n_frames = max(1, n_blocks * _BLOCK_FRAMES + n_rest)
        # samples past the last whole frame, fewer than one hop
        n = FFT_SIZE + (n_frames - 1) * HOP + int(tail * (HOP - 1))
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        power = stft_spectrogram(IqBuffer(samples))
        assert power.shape == (FFT_SIZE, n_frames)
        assert power.flags.c_contiguous
        assert np.array_equal(power, shifted_power(samples))

    def test_stft_and_loaded_power_need_no_copy(self, tmp_path):
        power = stft_spectrogram(gen_awgn(1.0, 10e-3, seed=7))
        path = tmp_path / "spec.bin"
        save_spectrogram(path, power)
        loaded, _ = load_spectrogram(path)
        for matrix in (power, loaded):
            assert np.ascontiguousarray(matrix) is matrix


def dense_stft_power(iq):
    """The STFT as it was before it skipped empty frames: every frame
    windowed and transformed in one matrix, then squared, scaled, clamped
    and written transposed block by block."""
    frames = sliding_window_view(iq.samples, FFT_SIZE)[::HOP] * hann()
    magnitude = np.abs(np.fft.fft(frames, axis=1, out=frames))
    del frames
    floor_lin = 10.0 ** (POWER_FLOOR_DB / 10.0)
    half = FFT_SIZE // 2
    power = np.empty((FFT_SIZE, magnitude.shape[0]))
    for t0 in range(0, magnitude.shape[0], _BLOCK_FRAMES):
        block = magnitude[t0:t0 + _BLOCK_FRAMES]
        np.square(block, out=block)
        block /= FFT_SIZE
        np.maximum(block, floor_lin, out=block)
        power[:half, t0:t0 + _BLOCK_FRAMES] = block[:, half:].T
        power[half:, t0:t0 + _BLOCK_FRAMES] = block[:, :half].T
    return power


@st.composite
def signals_with_zero_runs(draw):
    """Dense, all-zero, zero-run or pulsed samples, with frame counts on and
    around the block boundaries."""
    n_frames = draw(st.sampled_from([1, 2, _BLOCK_FRAMES, _BLOCK_FRAMES + 1,
                                     2 * _BLOCK_FRAMES - 1, 2 * _BLOCK_FRAMES + 1])
                    | st.integers(1, 2 * _BLOCK_FRAMES + 3))
    n = FFT_SIZE + (n_frames - 1) * HOP + draw(st.integers(0, HOP - 1))
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
            keep[start:start + int(rng.integers(1, 2 * FFT_SIZE))] = True
        samples[~keep] = 0.0
        # a sample with one zero part is still non-zero
        part = keep & (rng.random(n) < 0.2)
        samples[part] = np.where(rng.random(part.sum()) < 0.5, samples[part].real,
                                 1j * samples[part].imag)
    return samples


class TestLiveFrames:
    """The STFT transforms only frames with a non-zero sample, block by block,
    and equals the dense STFT bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(samples=signals_with_zero_runs())
    def test_equals_dense_stft(self, samples):
        iq = IqBuffer(samples)
        power = stft_spectrogram(iq)
        assert power.flags.c_contiguous
        assert power.tobytes() == dense_stft_power(iq).tobytes()

    @pytest.mark.parametrize("n_frames, live", [
        (1, "all"), (2, "all"), (2 * _BLOCK_FRAMES - 1, "all"), (2 * _BLOCK_FRAMES, "all"),
        (2 * _BLOCK_FRAMES + 1, "all"), (2, "first"), (2, "last"),
        (2 * _BLOCK_FRAMES + 1, "first"), (2 * _BLOCK_FRAMES + 1, "last"),
    ])
    def test_split_boundaries_equal_dense_stft(self, n_frames, live):
        """The caller transforms the first half of the live frames and the
        helper thread the rest; with live frames only in the first or the
        last quarter of the samples, one side's columns are mostly floor."""
        n = FFT_SIZE + (n_frames - 1) * HOP
        rng = np.random.default_rng(n_frames)
        samples = rng.normal(size=n) + 1j * rng.normal(size=n)
        if live == "first":
            samples[n // 4:] = 0.0
        elif live == "last":
            samples[:n - n // 4] = 0.0
        iq = IqBuffer(samples)
        power = stft_spectrogram(iq)
        assert power.shape == (FFT_SIZE, n_frames)
        assert power.tobytes() == dense_stft_power(iq).tobytes()

    def test_clean_radar_equals_dense_stft(self):
        radar = IqBuffer(np.zeros(153600, dtype=np.complex128))
        t = np.arange(400) / FS
        for start in (0, 20000, 76000, 153200):
            radar.samples[start:start + 400] = np.exp(2j * np.pi * 2.5e6 * t)
        power = stft_spectrogram(radar)
        assert power.tobytes() == dense_stft_power(radar).tobytes()
        assert (power == 10.0 ** (POWER_FLOOR_DB / 10.0)).all(axis=0).sum() > 500

    @pytest.mark.parametrize("seed", range(3))
    def test_capture_equals_dividing_stft(self, seed):
        """The STFT scales by the reciprocal of FFT_SIZE, a power of two, so it
        rounds as the division of the dense STFT does."""
        mask = np.ones(50, dtype=bool)
        mask[20 + seed:30 + seed] = False
        radar = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6 - 1e6 * seed)
        composite, clean, _ = sensing_capture(radar, 4.0 * seed, 10e-3, seed, seed + 1,
                                              prb_mask=mask)
        for iq in (composite, clean):
            assert stft_spectrogram(iq).tobytes() == dense_stft_power(iq).tobytes()


class TestExport:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 40), cols=st.integers(1, 40))
    def test_db_conversions_equal_the_expressions(self, seed, rows, cols):
        """The file holds ``(10 log10 p)`` as float32 and loads as ``10 ** (m / 10)``,
        byte for byte, on dB values from the floor to near +-300 dB."""
        rng = np.random.default_rng(seed)
        db = rng.uniform(-300.0, 300.0, rows * cols)
        picks = rng.integers(0, db.size, size=min(4, db.size))
        db[picks] = rng.choice([POWER_FLOOR_DB, -299.99, 299.99, -300.0, 300.0], picks.size)
        power = 10.0 ** (db.astype("<f4").astype(np.float64).reshape(rows, cols) / 10.0)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "spec.bin"
            save_spectrogram(path, power)
            written = np.fromfile(path, dtype="<f4")
            loaded, _ = load_spectrogram(path)
        assert written.tobytes() == (10.0 * np.log10(power)).astype("<f4").tobytes()
        want = 10.0 ** (written.astype(np.float64).reshape(rows, cols) / 10.0)
        assert loaded.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.sampled_from([1, 2, 3, 63, 64, 65, 1024]),
           cols=st.integers(1, 600))
    def test_split_conversions_equal_whole_array_calls(self, seed, rows, cols):
        """The dB conversions run in two row halves, one on the helper thread;
        they equal the whole-array expressions bit for bit."""
        rng = np.random.default_rng(seed)
        power = 10.0 ** rng.uniform(-30.0, 30.0, (rows, cols))
        db = rng.uniform(-300.0, 300.0, (rows, cols)).astype("<f4")
        got = _power_to_db(power)
        assert got.dtype == np.dtype("<f4") and got.flags.c_contiguous
        assert got.tobytes() == (10.0 * np.log10(power)).astype("<f4").tobytes()
        got = _db_to_power(db)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == (10.0 ** (db.astype(np.float64) / 10.0)).tobytes()

    def test_round_trip(self, tmp_path):
        power = stft_spectrogram(gen_awgn(1.0, 1e-3, seed=5))
        path = tmp_path / "spec.bin"
        save_spectrogram(path, power, {"seed": 5})
        back, meta = load_spectrogram(path)
        assert back.shape == power.shape
        assert np.allclose(db(back), db(power), atol=1e-3)
        assert meta["seed"] == "5"

