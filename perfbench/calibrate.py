"""Host-speed calibration for the benchmark's timings.

Shared hosts change speed by tens of percent within a minute: on a
2-vCPU VM, one fixed trasyn call ran 0.89 s for a while and then
0.57 s, with nothing else of ours running.  The benchmark therefore
times a short fixed kernel of its own, which no change to the program
can speed up, at the start and end of every op and after every
synthesis call inside it.  Each stretch of work between two samples is
rescaled to the speed at which the kernel takes :data:`REFERENCE_S`,
using the mean of the two samples.  On that VM this cut the quartile
spread of 40 repeats of one trasyn call from 30% to 4%.  Stretches
longer than a few seconds are not tracked, which is why samples are
also taken between synthesis calls.  Kernel time is excluded from the
measured op, and raw timings stay in the run record.

The kernel mixes what synthesis spends its time on: a dictionary-
heavy Python loop, k-d tree queries, and batched 2x2 complex products
with a partial sort over a table-sized array.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

#: Kernel median on a 2-vCPU x86-64 VM (Python 3.11, NumPy 2.4,
#: OpenBLAS); normalized timings are seconds at this speed.
REFERENCE_S = 0.03


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = (rng.standard_normal((32768, 2, 2))
                      + 1j * rng.standard_normal((32768, 2, 2)))
        self._env = rng.standard_normal((2, 2)) + 0j
        self._tree = cKDTree(rng.standard_normal((20000, 4)))
        self._queries = rng.standard_normal((3000, 4))
        self.samples: list[float] = []
        self._prev: float | None = None
        self._mark = 0.0
        self._raw = self._norm = 0.0

    def _kernel(self) -> None:
        counts: dict[int, int] = {}
        for i in range(40_000):
            counts[i % 977] = counts.get(i % 977, 0) + i * i
        self._tree.query(self._queries, k=4)
        for _ in range(2):
            prod = np.einsum("nij,jk->nik", self._mats, self._env)
            score = np.abs(prod[:, 0, 0])
            score[np.argpartition(score, -256)[-256:]].sum()

    def _sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def start(self) -> None:
        """Open a measurement; the last sample serves if one was taken."""
        if self._prev is None:
            self._prev = self._sample()
        self._raw = self._norm = 0.0
        self._mark = time.perf_counter()

    def checkpoint(self) -> None:
        """Close the current stretch of work with a fresh sample."""
        stretch = time.perf_counter() - self._mark
        now = self._sample()
        self._raw += stretch
        self._norm += stretch * REFERENCE_S / ((self._prev + now) / 2)
        self._prev = now
        self._mark = time.perf_counter()

    def finish(self) -> tuple[float, float]:
        """Close the measurement: ``(raw seconds, normalized seconds)``."""
        self.checkpoint()
        return self._raw, self._norm
