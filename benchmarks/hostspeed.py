"""Host speed reference for the egt benchmark.

The baseline VM shares its host: the same code runs up to 2x slower in
some minutes than in others, and neither CPU time nor steal time shows it.
A fixed numpy kernel, timed between the benchmark's operations, slows down
with it.  Timings are reported at reference host speed: multiplied by
``REFERENCE_MS`` over the kernel's median time in the same run.

The kernel uses only numpy, never the package, so a change to the package
cannot move it.  It mixes the two kinds of work the workloads do: strided
copies and small matrix products, as in an unrolled 3x3 convolution at the
gate's shapes, and a loop of numpy calls on tiny arrays, as in per-episode
bookkeeping.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 4.0
SHARE = 0.05


class HostSpeed:
    """Times the kernel for about ``SHARE`` of the wall time since creation
    (and runs it untimed about as long again)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((41, 8, 18, 18))
        self._w = rng.standard_normal((16, 72))
        self._cols = np.empty((41, 8, 3, 3, 16, 16))
        self._win = np.empty((41, 16, 4, 8, 8))
        self._small = rng.standard_normal((200, 64))
        self._kernel()
        self.samples: list[float] = []
        self._spent = 0.0
        self._start = time.perf_counter()

    def _kernel(self) -> float:
        for i in range(3):
            for j in range(3):
                self._cols[:, :, i, j] = self._x[:, :, i:i + 16, j:j + 16]
        y = np.matmul(self._w, self._cols.reshape(41, 72, 256))
        y4 = np.maximum(y, 0.0).reshape(41, 16, 16, 16)
        for i in range(2):
            for j in range(2):
                self._win[:, :, i * 2 + j] = y4[:, :, i:16:2, j:16:2]
        acc = float(self._win.max(axis=2).sum() + np.matmul(self._w.T, y).sum())
        for row in self._small:
            acc += float(np.dot(row, row))
        return acc

    def _due(self) -> bool:
        return not self.samples or self._spent < SHARE * (time.perf_counter() - self._start)

    def tick(self) -> None:
        """Time the kernel until it has used its share of the elapsed time.

        The first run of each tick is not timed: its time depends on what
        the preceding operation left in the caches, that is, on the code
        being measured.
        """
        if not self._due():
            return
        self._kernel()
        while self._due():
            start = time.perf_counter()
            self._kernel()
            took = time.perf_counter() - start
            self.samples.append(took)
            self._spent += took

    def factor(self, samples: list[float]) -> float:
        """Reference time over the median of ``samples`` (all of this
        run's kernel times when ``samples`` is empty)."""
        return REFERENCE_MS / (statistics.median(samples or self.samples) * 1e3)
