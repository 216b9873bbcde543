"""STFT spectrograms of I/Q buffers for time-frequency signal localization.

Columns are DC-centered (row 0 is -fs/2, row FFT_SIZE/2 is DC) and stored as
linear power clamped at POWER_FLOOR_DB, in a C-order ``[freq, time]``
matrix as both ``stft_spectrogram`` and ``load_spectrogram`` produce it, so
row passes run over contiguous memory.  The dB form is derived where a
spectrogram is written or read.  Linear column energy is normalized so
that ``sum_k |X_k|^2 / FFT_SIZE`` equals the windowed time-domain energy of
the frame (Parseval), which the tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParamsError, TooShortInputError
from .fileio import parse_field, write_sidecar, read_sidecar
from .signals import SAMPLE_RATE_HZ, IqBuffer

# Mode-2 analysis geometry: 1024-point Hann frames at 75% overlap, so a
# 13..52 us pulse always lands well inside some frame, avoiding taper loss at
# column edges.
FFT_SIZE = 1024
HOP = 256
WINDOW = "hann"  # the window's name in a dataset's sidecar
POWER_FLOOR_DB = -120.0  # STFT power clamp, which keeps the dB form finite

# Frames per block of the STFT's transform and transposed write.  128 frames
# of 1024 bins are 1 MB of power, half a 2 MB L2 cache; of 48, 64, 128 and
# 256 it was the fastest for the write.
_BLOCK_FRAMES = 128


@dataclass(frozen=True)
class Spectrogram:
    """Time-frequency power matrix, linear ``power[freq_bin, time_column]``.

    ``stft_spectrogram`` and ``load_spectrogram`` give a C-order matrix.  It
    stores the linear form only, as given; do not write into ``power``
    afterwards.  ``power_db`` derives the dB form, and ``load_spectrogram``
    converts the dB matrix a file holds.
    """

    power: np.ndarray
    freq_resolution_hz: float
    time_resolution_s: float
    f_start_hz: float
    t_start_s: float = 0.0

    @property
    def power_db(self) -> np.ndarray:
        """The dB form, computed on each access in one new array."""
        db = np.log10(self.power)
        db *= 10.0
        return db

    @property
    def n_freq_bins(self) -> int:
        return self.power.shape[0]

    @property
    def n_time_bins(self) -> int:
        return self.power.shape[1]


def stft_spectrogram(iq: IqBuffer) -> Spectrogram:
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
    # fftshift's half swap, into C-order [freq, time].
    floor_lin = 10.0 ** (POWER_FLOOR_DB / 10.0)
    half = FFT_SIZE // 2
    power = np.empty((FFT_SIZE, n_frames))
    spectra = np.empty((min(_BLOCK_FRAMES, n_frames), FFT_SIZE), dtype=np.complex128)
    magnitude = np.empty(spectra.shape)
    dead_from = 0
    runs = np.flatnonzero(np.diff(live, prepend=False, append=False)).reshape(-1, 2)
    for start, stop in runs.tolist():
        power[:, dead_from:start] = floor_lin
        dead_from = stop
        for t0 in range(start, stop, _BLOCK_FRAMES):
            t1 = min(t0 + _BLOCK_FRAMES, stop)
            block = np.multiply(frames[t0:t1], w, out=spectra[:t1 - t0])
            np.fft.fft(block, axis=1, out=block)
            mag = np.abs(block, out=magnitude[:t1 - t0])
            np.square(mag, out=mag)
            mag /= FFT_SIZE
            np.maximum(mag, floor_lin, out=mag)
            power[:half, t0:t1] = mag[:, half:].T  # row 0 = -fs/2
            power[half:, t0:t1] = mag[:, :half].T
    power[:, dead_from:] = floor_lin

    return Spectrogram(
        power,
        freq_resolution_hz=SAMPLE_RATE_HZ / FFT_SIZE,
        time_resolution_s=HOP / SAMPLE_RATE_HZ,
        f_start_hz=-SAMPLE_RATE_HZ / 2,
        t_start_s=0.0,
    )


def save_spectrogram(path, spec: Spectrogram, extra_meta: dict | None = None) -> None:
    """Row-major float32 dB matrix plus a key=value sidecar."""
    spec.power_db.astype("<f4", order="C").tofile(str(path))
    meta = {
        "format": "spectrogram_float32_rowmajor",
        "n_freq_bins": spec.n_freq_bins,
        "n_time_bins": spec.n_time_bins,
        "freq_resolution_hz": repr(spec.freq_resolution_hz),
        "time_resolution_s": repr(spec.time_resolution_s),
        "f_start_hz": repr(spec.f_start_hz),
        "t_start_s": repr(spec.t_start_s),
    }
    if extra_meta:
        meta.update(extra_meta)
    write_sidecar(str(path) + ".meta", meta)


def load_spectrogram(path) -> tuple[Spectrogram, dict]:
    """Read what ``save_spectrogram`` wrote; the dB matrix converts to linear.  A
    sidecar key missing or malformed, an axis value that is not finite, a resolution
    not above 0, or a matrix of another size raises InvalidParamsError."""
    meta_path = str(path) + ".meta"
    meta = read_sidecar(meta_path)
    rows, cols = (parse_field(int, meta, key, meta_path)
                  for key in ("n_freq_bins", "n_time_bins"))
    axes = {key: parse_field(float, meta, key, meta_path)
            for key in ("freq_resolution_hz", "time_resolution_s", "f_start_hz", "t_start_s")}
    for key, value in axes.items():
        positive = "resolution" in key
        if not math.isfinite(value) or (positive and value <= 0):
            raise InvalidParamsError(f"{meta_path}: {key} is {value!r}, not a finite number"
                                     f"{' above 0' if positive else ''}")
    power = np.fromfile(str(path), dtype="<f4")
    if rows < 1 or cols < 1 or power.size != rows * cols:
        raise InvalidParamsError(f"{path} holds {power.size} values, not the {rows} x {cols} "
                                 f"its sidecar names")
    power = power.reshape(rows, cols).astype(np.float64)
    power /= 10.0
    np.power(10.0, power, out=power)
    return Spectrogram(power, **axes), meta
