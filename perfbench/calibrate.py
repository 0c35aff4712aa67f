"""Machine-speed calibration for timings taken on a shared, noisy host.

On the shared 2-vCPU KVM guest (Xeon) this benchmark was built on, the
same work runs up to 1.7x slower in some minutes than in others. Process
CPU time slows with wall time, so no clock can tell the host's contention
apart from the program's cost. A fixed reference computation run next to the work slows by
the same factor, so each timed segment is also reported scaled to a
reference speed: a reference second is a wall second on a host that runs
the reference computation at REF_RATE.

The speed is sampled during the work, not only between library calls:
every SAMPLE_INTERVAL_S of wall time a SIGALRM handler runs one short burst
of the reference computation between the program's bytecodes. That changes
no result, and the work clock (Sampler.clock) leaves the bursts out. Edge
samples alone track the host badly, since its speed changes within one
multi-second call, and a sampler on the other core tracks it worse still,
since the cores do not slow together.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The burst imitates the library's inner loops: small matrix-vector
# products, elementwise transcendental functions and a Python-level
# reduction on 24-wide vectors.
BURST_ITERS = 1000
_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((24, 24)) / 5.0
_X0 = _RNG.standard_normal(24)

# Bursts per second of the reference speed: the fast minutes of the host
# above. It only fixes the unit.
REF_RATE = 200.0

SAMPLE_INTERVAL_S = 0.25


def burst() -> float:
    """Seconds the fixed reference computation takes now."""
    x = _X0.copy()
    t0 = time.perf_counter()
    for _ in range(BURST_ITERS):
        x = np.tanh(_W @ x + 0.5 * x)
        float(x.max())
    return time.perf_counter() - t0


class Sampler:
    """Samples the host's speed while the work runs; use it as a context.

    speeds holds one sample per burst, as reference seconds per wall second.
    """

    def __init__(self):
        self.paused = 0.0
        self.speeds = []
        self._saved = None

    def clock(self) -> float:
        """Wall seconds, less the time spent in bursts."""
        return time.perf_counter() - self.paused

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.speeds.append(1.0 / (REF_RATE * burst()))
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False


class Timeline:
    """Consecutive timed segments of work under one sampler.

    Create it where the first segment starts; call point() where each
    segment ends.
    """

    def __init__(self, sampler: Sampler):
        self._sampler = sampler
        self._start = sampler.clock()
        self._first = len(sampler.speeds)

    def point(self) -> tuple:
        """End the current segment and start the next; returns the ended
        segment as (wall seconds, reference seconds). The segment's speed is
        the mean of the samples taken in it, or the latest sample if it was
        too short to get one."""
        end = self._sampler.clock()
        speeds = self._sampler.speeds
        inside = speeds[self._first:] or speeds[-1:]
        wall = end - self._start
        ref = wall * sum(inside) / len(inside)
        self._start = end
        self._first = len(speeds)
        return wall, ref
