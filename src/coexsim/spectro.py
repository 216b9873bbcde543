"""STFT spectrograms of I/Q buffers for time-frequency signal localization.

A spectrogram is its linear power matrix: a C-order float64 ``[freq, time]``
array, as both ``stft_spectrogram`` and ``load_spectrogram`` return it, so
row passes run over contiguous memory.  Its axes are this module's
constants: row r lies at ``F_START_HZ + r * FREQ_RESOLUTION_HZ`` (row 0 is
-fs/2, row FFT_SIZE/2 is DC) and column c starts at ``c * TIME_RESOLUTION_S``.
Power is clamped at POWER_FLOOR_DB; the dB form is derived where a
spectrogram is written or read.  Linear column energy is normalized so
that ``sum_k |X_k|^2 / FFT_SIZE`` equals the windowed time-domain energy of
the frame (Parseval), which the tests rely on.

``stft_spectrogram`` splits the frames that hold signal in two equal counts:
the caller transforms the first half and ``signals._in_two``'s helper thread
the second, each into its own columns of the power matrix and through its
own block buffers, which the caller allocates.  Each frame goes through the
same operations either way, so the bytes do not depend on the split.  A
forked child splits on a fresh helper thread (see ``signals``).  The dB
conversions of ``save_spectrogram`` and ``load_spectrogram`` run in two row
halves the same way.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParamsError, TooShortInputError
from .fileio import parse_field, write_sidecar, read_sidecar
from .signals import SAMPLE_RATE_HZ, IqBuffer, _in_halves, _in_two

# Mode-2 analysis geometry: 1024-point Hann frames at 75% overlap, so a
# 13..52 us pulse always lands well inside some frame, avoiding taper loss at
# column edges.
FFT_SIZE = 1024
HOP = 256
WINDOW = "hann"  # the window's name in a dataset's sidecar
POWER_FLOOR_DB = -120.0  # STFT power clamp, which keeps the dB form finite

# The axes of every spectrogram, written to and checked against its sidecar.
FREQ_RESOLUTION_HZ = SAMPLE_RATE_HZ / FFT_SIZE
TIME_RESOLUTION_S = HOP / SAMPLE_RATE_HZ
F_START_HZ = -SAMPLE_RATE_HZ / 2
_AXES = {"freq_resolution_hz": FREQ_RESOLUTION_HZ, "time_resolution_s": TIME_RESOLUTION_S,
         "f_start_hz": F_START_HZ, "t_start_s": 0.0}

# Frames per block of the STFT's transform and transposed write, in each of
# the two halves: the two blocks in flight hold 1 MB of power, half a 2 MB L2
# cache.  Re-measured against 128 per half on 2 CPUs: the STFT alone read
# 4.2 against 4.1 ms p50, and loop-radar 1.646 against 1.630 s/s (median of
# 4 pairs, 128 ahead in 3) at the same peak RSS, inside the run-to-run
# spread; 64 keeps the block buffers at 3 MB, not 6.
_BLOCK_FRAMES = 64


def stft_spectrogram(iq: IqBuffer) -> np.ndarray:
    """Magnitude-squared STFT, DC-centered rows, clamped at the floor.

    A frame of zeros has zero power, which clamps to the floor exactly, so
    only runs of frames that hold a non-zero sample are windowed and
    transformed.  The clean radar of a dataset item is such a signal: most
    of its frames lie between pulses.
    """
    n = iq.n_samples
    if n < FFT_SIZE:
        raise TooShortInputError(f"need at least {FFT_SIZE} samples, got {n}")
    w = np.hanning(FFT_SIZE)
    frames = sliding_window_view(iq.samples, FFT_SIZE)[::HOP]  # a view, no copy
    n_frames = frames.shape[0]
    if iq.samples.all():  # a composite: every frame holds signal
        live = np.ones(n_frames, dtype=bool)
    else:
        live = sliding_window_view(iq.samples != 0, FFT_SIZE)[::HOP].any(axis=1)

    # Window, transform, square, scale and clamp one cache-sized block of
    # frames at a time in reused buffers, and write it transposed, with
    # fftshift's half swap, into C-order [freq, time].  Columns [0, mid) hold
    # the first half of the live frames and go to the caller, the rest to
    # the helper thread, each with its own buffers.
    floor_lin = 10.0 ** (POWER_FLOOR_DB / 10.0)
    half = FFT_SIZE // 2
    power = np.empty((FFT_SIZE, n_frames))
    spectra = np.empty((2, min(_BLOCK_FRAMES, n_frames), FFT_SIZE), dtype=np.complex128)
    magnitude = np.empty(spectra.shape)
    runs = np.flatnonzero(np.diff(live, prepend=False, append=False)).reshape(-1, 2).tolist()
    mid = int(np.searchsorted(np.cumsum(live), (int(live.sum()) + 1) // 2)) + 1

    def columns(c0: int, c1: int, k: int) -> None:
        dead_from = c0
        for start, stop in runs:
            start, stop = max(start, c0), min(stop, c1)
            if start >= stop:
                continue
            power[:, dead_from:start] = floor_lin
            dead_from = stop
            for t0 in range(start, stop, _BLOCK_FRAMES):
                t1 = min(t0 + _BLOCK_FRAMES, stop)
                block = np.multiply(frames[t0:t1], w, out=spectra[k, :t1 - t0])
                np.fft.fft(block, axis=1, out=block)
                mag = np.abs(block, out=magnitude[k, :t1 - t0])
                np.square(mag, out=mag)
                mag *= 1.0 / FFT_SIZE  # exact: FFT_SIZE is a power of two
                np.maximum(mag, floor_lin, out=mag)
                power[:half, t0:t1] = mag[:, half:].T  # row 0 = -fs/2
                power[half:, t0:t1] = mag[:, :half].T
        power[:, dead_from:c1] = floor_lin

    _in_two(lambda: columns(0, mid, 0), lambda: columns(mid, n_frames, 1))
    return power


def _power_to_db(power: np.ndarray) -> np.ndarray:
    """``(10 * log10(power)).astype("<f4")`` in two row halves, the second on
    the helper thread, through buffers the caller allocates."""
    db = np.empty(power.shape)
    out = np.empty(power.shape, dtype="<f4")

    def rows(r0: int, r1: int) -> None:
        part = np.log10(power[r0:r1], out=db[r0:r1])
        part *= 10.0
        out[r0:r1] = part

    _in_halves(len(power), rows)
    return out


def _db_to_power(db: np.ndarray) -> np.ndarray:
    """``10 ** (db.astype(float64) / 10)`` in two row halves, the second on
    the helper thread, into one array the caller allocates."""
    power = np.empty(db.shape)

    def rows(r0: int, r1: int) -> None:
        part = power[r0:r1]
        part[...] = db[r0:r1]
        part /= 10.0
        np.power(10.0, part, out=part)

    _in_halves(len(db), rows)
    return power


def save_spectrogram(path, power: np.ndarray, extra_meta: dict | None = None) -> None:
    """Row-major float32 dB matrix of ``power`` plus a key=value sidecar."""
    _power_to_db(power).tofile(str(path))
    meta = {
        "format": "spectrogram_float32_rowmajor",
        "n_freq_bins": power.shape[0],
        "n_time_bins": power.shape[1],
        **{key: repr(value) for key, value in _AXES.items()},
    }
    if extra_meta:
        meta.update(extra_meta)
    write_sidecar(str(path) + ".meta", meta)


def load_spectrogram(path) -> tuple[np.ndarray, dict]:
    """Read what ``save_spectrogram`` wrote: (linear power, sidecar).  A sidecar key
    missing or malformed, an axis other than the STFT's, or a matrix of another size
    raises InvalidParamsError."""
    meta_path = str(path) + ".meta"
    meta = read_sidecar(meta_path)
    rows, cols = (parse_field(int, meta, key, meta_path)
                  for key in ("n_freq_bins", "n_time_bins"))
    for key, want in _AXES.items():
        value = parse_field(float, meta, key, meta_path)
        if value != want:
            raise InvalidParamsError(f"{meta_path}: {key} is {value!r}, not the STFT's {want!r}")
    db = np.fromfile(str(path), dtype="<f4")
    if rows < 1 or cols < 1 or db.size != rows * cols:
        raise InvalidParamsError(f"{path} holds {db.size} values, not the {rows} x {cols} "
                                 f"its sidecar names")
    return _db_to_power(db.reshape(rows, cols)), meta
