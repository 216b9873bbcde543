"""STFT spectrograms of I/Q buffers for time-frequency signal localization.

Columns are DC-centered (row 0 is -fs/2, row fft_size/2 is DC) and stored as
linear power clamped at POWER_FLOOR_DB, in a C-order ``[freq, time]``
matrix as both ``stft_spectrogram`` and ``load_spectrogram`` produce it, so
row passes run over contiguous memory.  The dB form is derived where a
spectrogram is written, read or drawn.  Linear column energy is normalized so
that ``sum_k |X_k|^2 / fft_size`` equals the windowed time-domain energy of
the frame (Parseval), which the tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParamsError, TooShortInputError
from .fileio import write_sidecar, read_sidecar
from .signals import IqBuffer

WINDOW_RECTANGULAR = "rectangular"
WINDOW_HANN = "hann"
POWER_FLOOR_DB = -120.0  # STFT power clamp, which keeps the dB form finite
PGM_DB_RANGE = (-120.0, -20.0)  # save_pgm's black and white levels

# Frames per block of the STFT's transposed write.  128 frames of 1024 bins
# are 1 MB, half a 2 MB L2 cache; of 48, 64, 128 and 256 it was the fastest.
_BLOCK_FRAMES = 128


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 1024
    hop: int | None = None  # None -> fft_size (non-overlapping)
    window: str = WINDOW_HANN

    def __post_init__(self):
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1):
            raise InvalidParamsError("fft_size must be a power of two")
        if self.hop is not None and not 0 < self.hop <= self.fft_size:
            raise InvalidParamsError("hop must satisfy 0 < hop <= fft_size")
        if self.window not in (WINDOW_RECTANGULAR, WINDOW_HANN):
            raise InvalidParamsError(f"unknown window {self.window!r}")

    @property
    def hop_size(self) -> int:
        return self.fft_size if self.hop is None else self.hop

    def window_values(self) -> np.ndarray:
        if self.window == WINDOW_HANN:
            return np.hanning(self.fft_size)
        return np.ones(self.fft_size)


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
        """The dB form, computed on each access."""
        return 10.0 * np.log10(self.power)

    @property
    def n_freq_bins(self) -> int:
        return self.power.shape[0]

    @property
    def n_time_bins(self) -> int:
        return self.power.shape[1]

    def freqs_hz(self) -> np.ndarray:
        return self.f_start_hz + np.arange(self.n_freq_bins) * self.freq_resolution_hz


def stft_spectrogram(iq: IqBuffer, config: StftConfig = StftConfig()) -> Spectrogram:
    """Magnitude-squared STFT, DC-centered rows, clamped at the floor."""
    n = iq.n_samples
    fft_size = config.fft_size
    if n < fft_size:
        raise TooShortInputError(f"need at least {fft_size} samples, got {n}")
    hop = config.hop_size
    w = config.window_values()

    # The FFT overwrites the windowed frames, which are freed before the
    # output is allocated: the output never adds to the frames' peak.
    frames = sliding_window_view(iq.samples, fft_size)[::hop] * w
    magnitude = np.abs(np.fft.fft(frames, axis=1, out=frames))  # [time, freq]
    del frames

    # Square, scale and clamp one cache-sized block of frames at a time and
    # write it transposed, with fftshift's half swap, into C-order [freq, time].
    floor_lin = 10.0 ** (POWER_FLOOR_DB / 10.0)
    half = fft_size // 2
    power = np.empty((fft_size, magnitude.shape[0]))
    for t0 in range(0, magnitude.shape[0], _BLOCK_FRAMES):
        block = magnitude[t0:t0 + _BLOCK_FRAMES]
        np.square(block, out=block)
        block /= fft_size
        np.maximum(block, floor_lin, out=block)
        power[:half, t0:t0 + _BLOCK_FRAMES] = block[:, half:].T  # row 0 = -fs/2
        power[half:, t0:t0 + _BLOCK_FRAMES] = block[:, :half].T

    fs = iq.sample_rate_hz
    return Spectrogram(
        power,
        freq_resolution_hz=fs / fft_size,
        time_resolution_s=hop / fs,
        f_start_hz=-fs / 2,
        t_start_s=0.0,
    )


def spectrogram_to_image(spec: Spectrogram, db_min: float, db_max: float) -> np.ndarray:
    """Affine clamp-and-scale of power_db into [0, 1]."""
    if db_min >= db_max:
        raise InvalidParamsError("db_min must be < db_max")
    return np.clip((spec.power_db - db_min) / (db_max - db_min), 0.0, 1.0)


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
    """Read what ``save_spectrogram`` wrote; the dB matrix converts to linear."""
    meta = read_sidecar(str(path) + ".meta")
    rows, cols = int(meta["n_freq_bins"]), int(meta["n_time_bins"])
    matrix = np.fromfile(str(path), dtype="<f4").reshape(rows, cols).astype(np.float64)
    spec = Spectrogram(
        10.0 ** (matrix / 10.0),
        freq_resolution_hz=float(meta["freq_resolution_hz"]),
        time_resolution_s=float(meta["time_resolution_s"]),
        f_start_hz=float(meta["f_start_hz"]),
        t_start_s=float(meta["t_start_s"]),
    )
    return spec, meta


def save_pgm(path, spec: Spectrogram) -> None:
    """Binary PGM grayscale export for visual inspection (freq rows, top = +fs/2)."""
    img = spectrogram_to_image(spec, *PGM_DB_RANGE)
    pixels = (img[::-1, :] * 255).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
    with open(str(path), "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())
