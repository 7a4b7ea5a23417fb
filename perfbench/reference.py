"""Reference loop that rescales timings to one fixed machine speed.

The benchmark was defined on a 2-core virtual machine whose speed moved by
up to half from one few minutes to the next as other tenants came and
went, much the same for every code path, so raw times wandered more than
any useful bound.  A fixed loop, independent of intraport and mixing the
same kinds of work (interpreted Python, small numpy reshapes, a small
complex matrix-vector product), is timed before every operation.  Timings
are reported as they would read where the loop takes REFERENCE_S:
raw * REFERENCE_S / measured, with "measured" the median of the loops
around each operation (the speed changes within a run too), or of all
loops of a phase for set-up and per-layer figures.  A change to this file
rescales every timing metric, so it is a change to the benchmark.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median loop time on the defining machine in its faster state.
REFERENCE_S = 0.00035

_RNG = np.random.default_rng(20010319)
_MAT = _RNG.normal(size=(576, 64)) + 1j * _RNG.normal(size=(576, 64))
_VEC = _RNG.normal(size=64) + 1j * _RNG.normal(size=64)


def reference_loop() -> float:
    acc = 0
    for i in range(2000):
        acc += i * i
    v = _VEC
    for _ in range(8):
        v = (_MAT @ v)[:64] * 0.125
    t = np.arange(64, dtype=complex)
    for _ in range(20):
        t = t.reshape(8, 2, 4)[:, ::-1, :].reshape(-1) * 0.5 + 1.0
    return acc + float(abs(v[0]) + abs(t[0]))


class Speedometer:
    """Collects reference-loop times; `scale` turns raw seconds into
    seconds at the reference speed."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)

    def local_scale(self, i: int, half: int = 4) -> float:
        """Scale from the samples around sample i: follows the speed as it
        changes within a run."""
        return REFERENCE_S / statistics.median(self.samples[max(0, i - half): i + half + 1])
