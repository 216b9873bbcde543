"""A fixed reference computation that measures the host's current speed.

The reference machine is a shared host whose speed drifts by tens of percent
within seconds and over minutes, in CPU time as much as in wall time.  A run
therefore times this computation between its timed stages, about every
``PERIOD_S`` seconds, and scales each stage's time by ``REFERENCE_S`` over
the median of the ``NEAREST`` reference times nearest to that stage.  A
stage run while the host is 20 % slow then reads about as it would on a
quiet host.

The computation uses nothing from coexsim, so a change to the library does
not move it.  It mixes the two kinds of work the workloads do: numpy
(framing, FFT, log power and connected-component labelling, as in the
sensing path) and pure-Python bookkeeping (as in the closed loop's per-window
code), about half of its time each.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import ndimage

# A typical time of the computation on the reference machine (2 vCPUs, Intel
# Xeon at 2.1 GHz, one BLAS thread).  It sets only the scale of the scaled
# figures: they read as time on that machine at that speed.
REFERENCE_S = 0.035
PERIOD_S = 0.25
NEAREST = 5

_N_SAMPLES = 1 << 18
_FFT = 256
_HOP = 128
_PY_STEPS = 60_000


class Reference:
    """Times the reference computation and keeps every time it took."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._iq = rng.standard_normal(_N_SAMPLES) + 1j * rng.standard_normal(_N_SAMPLES)
        n_cols = 1 + (_N_SAMPLES - _FFT) // _HOP
        self._idx = np.arange(_FFT)[None, :] + _HOP * np.arange(n_cols)[:, None]
        self._window = np.hanning(_FFT)
        self.times: list[float] = []    # wall seconds of each timing
        self.mids: list[float] = []     # its midpoint, in perf_counter seconds
        self.spent = 0.0                # wall seconds spent timing it
        self._due = 0.0

    def _numpy_part(self) -> int:
        frames = self._iq[self._idx] * self._window[None, :]
        power = np.abs(np.fft.fft(frames, axis=1)) ** 2
        power_db = 10.0 * np.log10(np.maximum(power, 1e-12))
        _, n_components = ndimage.label(power_db > power_db.mean() + 6.0)
        return n_components

    @staticmethod
    def _python_part() -> float:
        totals: dict[int, float] = {}
        acc = 0
        for i in range(_PY_STEPS):
            k = i % 97
            totals[k] = totals.get(k, 0.0) + i * 0.5
            acc += k
        return acc + totals[0]

    def measure(self) -> None:
        """Time the computation once."""
        t0 = time.perf_counter()
        self._numpy_part()
        self._python_part()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.mids.append((t0 + t1) / 2)
        self.spent += t1 - t0
        self._due = t1 + PERIOD_S

    def measure_if_due(self) -> None:
        """Time the computation if ``PERIOD_S`` has passed since the last time."""
        if time.perf_counter() >= self._due:
            self.measure()

    def scale_at(self, t: float) -> float:
        """The factor that takes a time measured around ``t`` to the
        reference machine's speed."""
        nearest = sorted(range(len(self.mids)), key=lambda i: abs(self.mids[i] - t))
        return REFERENCE_S / statistics.median(self.times[i] for i in nearest[:NEAREST])
