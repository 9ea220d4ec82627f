"""The host's speed, sampled by a fixed calibration kernel between ops.

On a shared host the same op's latency swings by up to 1.5x within a minute
while CPU time tracks wall time: the speed of the machine under the process
changes, not the work.  A fixed piece of work of the same kind as the
program's inner loop (numpy and scipy calls on 5x5 blocks, no tvbound code),
timed between ops and in each probe process after its timed part, follows
that speed.  Every time metric is reported at the reference speed: a latency
is multiplied by ``REFERENCE_MS`` over the calibration samples taken around
it, so a host running at half speed doubles both and leaves the product
unchanged, while a change to the program moves the latency and not the
kernel.  The raw times are recorded beside them.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
import scipy.linalg as sla

REFERENCE_MS = 2.5      # the kernel's time at the reference speed
EVERY_S = 0.25          # least time between two samples in a loop
WARM_ROUNDS = 20        # untimed kernel calls before the first sample


class HostSpeed:
    """Calibration samples of one process: (clock at the end, kernel ms)."""

    def __init__(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((5, 5))
        self.a = g @ g.T + 5.0 * np.eye(5)
        c = rng.standard_normal((6, 5, 5))
        self.c = c + c.transpose(0, 2, 1)
        self.samples = []
        for _ in range(WARM_ROUNDS):
            self._kernel()

    def _kernel(self) -> float:
        """One IPM-iteration-like round of small dense linear algebra, ten times."""
        a, c = self.a, self.c
        acc = 0.0
        for _ in range(10):
            chol = np.linalg.cholesky(a)
            w = sla.solve_triangular(chol, c[0], lower=True)
            w = sla.solve_triangular(chol, w.T, lower=True)
            acc += float(np.linalg.eigvalsh(0.5 * (w + w.T))[0])
            x = np.tensordot(c, a, axes=([1, 2], [0, 1]))
            gram = np.tensordot(c, c, axes=([1, 2], [1, 2]))
            t = np.einsum("ab,ibc,cd->iad", chol, c, chol, optimize=True)
            acc += float(np.linalg.norm(x)) + float(gram[0, 0]) + float(t[0, 0, 0])
            acc += min(float(v) for v in x)
        return acc

    def sample(self) -> float:
        """Time the kernel once, with the garbage collector off so that the
        program's heap does not enter the sample; returns milliseconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        ms = (end - start) * 1e3
        self.samples.append((end, ms))
        return ms

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S

    def factors(self) -> list:
        """Per sample, the factor to the reference speed from the median of
        it and its two neighbours, so that one disturbed sample does not
        scale the ops before it."""
        ms = [m for _, m in self.samples]
        return [REFERENCE_MS / statistics.median(ms[max(0, i - 1):i + 2])
                for i in range(len(ms))]


def scale_of(samples_ms: list) -> float:
    """Factor to the reference speed from a probe's own samples."""
    return REFERENCE_MS / statistics.median(samples_ms)
