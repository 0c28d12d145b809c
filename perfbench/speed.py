"""Host-speed probe for the CPU-bound offline workloads.

On a shared host the CPU runs up to 1.5x slower or faster for minutes
at a time (measured on a 2-vCPU VM: a fixed NumPy kernel's speed drifts
±20% between runs a minute apart).  Offline workloads (``train``,
``eval*``) are CPU-bound end to end, so their raw times carry that
drift: an evaluation's time and this probe's time moved together, and
their ratio spread 0.02 where the raw time spread 0.12.

:class:`SpeedProbe` times a fixed mix of the work the program does — a
BLAS matmul, a large elementwise ufunc and a run of tiny NumPy calls
(interpreter overhead) — between operations (about 1% of the run), and :meth:`SpeedProbe.speed`
gives the run's host speed as the probe's :data:`NOMINAL_S` over its
median time.  Multiplying a run's times by it gives the times the host
would have taken at its nominal speed.  The probe is the benchmark's
own: no change to the program can speed it up.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

#: Median probe time at nominal speed on the 2-vCPU host the bounds
#: were set on (BLAS pinned to one thread).
NOMINAL_S = 0.58e-3
#: Minimum gap between probes; each probe costs about 2.5 ms.
PROBE_EVERY_S = 0.25


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((160, 160))
        self._vector = rng.random(100_000)
        self._small = rng.random(16)
        self.samples: List[Tuple[float, float]] = []  # (when, seconds)

    def _kernel(self) -> float:
        started = time.perf_counter()
        self._matrix @ self._matrix
        np.exp(self._vector)
        for _ in range(300):
            np.add(self._small, self._small)
        return time.perf_counter() - started

    def maybe(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` passed since the last probe."""
        now = time.perf_counter()
        if not self.samples or now - self.samples[-1][0] >= PROBE_EVERY_S:
            self.samples.append((time.perf_counter(), self._probe()))

    def _probe(self) -> float:
        # The first call refills caches the workload evicted; the median
        # of the next three times the warm kernel.
        self._kernel()
        return sorted(self._kernel() for _ in range(3))[1]

    def speed(self) -> float:
        """Host speed over the run as a multiple of nominal (median probe)."""
        return float(NOMINAL_S / np.median([t for _, t in self.samples]))
