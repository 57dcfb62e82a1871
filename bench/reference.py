"""Fixed reference work that measures how fast the machine runs right now.

The benchmark shares its cores with other tenants, and the speed they leave
it swings by up to 2x within seconds and drifts over minutes, which no
number of repeats averages out.  :class:`SpeedProbe` therefore times a fixed
loop before, during and after the workload, in the same process, and the
benchmark reports every time as the time the workload would take on a
machine that runs one loop step in ``NOMINAL_STEP_S``: wall and engine
times through :meth:`SpeedProbe.nominal_s`, which follows the speed through
the run, and the rest through the run's mean ``speed_scale``.

The loop mimics the simulator's hot path (a numpy draw of 11 words, scalar
float math, one frozen slotted dataclass per step) but runs no collapsim
code, so a change to the program moves the workload and not the reference.
Scaled results are comparable only between runs with the same loop and
constants.
"""

import math
import signal
import time
from dataclasses import dataclass

import numpy as np

# The 2-core Xeon (2.0 GHz, Python 3.11, numpy 2.4) the benchmark was built
# on takes 2.2-4.5 us per step, depending on load from other tenants.
NOMINAL_STEP_S = 3.6e-6
WARM_UP_STEPS = 500
# Before and after the workload: about 40 ms each.
EDGE_STEPS = 10000
# During the workload: about 10 ms every 0.2 s of wall time.
PROBE_STEPS = 2500
PROBE_INTERVAL_S = 0.2


@dataclass(frozen=True, slots=True)
class _Packet:
    center: tuple
    sigma: tuple
    alpha: float


def _steps(n: int) -> float:
    gen = np.random.Generator(np.random.PCG64(12345))
    total = 0.0
    for _ in range(n):
        w = gen.random(11).tolist()
        dt = -math.log1p(-w[0])
        packet = _Packet((w[1], w[2], w[3]), (1.0 + w[4], 1.0 + w[5], 1.0 + w[6]), w[10])
        s1, s2, s3 = packet.sigma
        total += math.sqrt(s1 * s1 + s2 * s2 + s3 * s3) * math.exp(-dt * packet.alpha)
    return total


class SpeedProbe:
    """Context manager that measures the machine's speed around a block.

    It times the loop on entry, on exit and, if ``during`` is true, from a
    ``SIGALRM`` handler every ``PROBE_INTERVAL_S`` while the block runs.
    :meth:`clock` is ``time.perf_counter`` minus the time spent in those
    handlers, so every duration taken with it, spans included, excludes the
    probes.
    """

    def __init__(self, during: bool) -> None:
        self.during = during
        self.steps = 0
        self.seconds = 0.0
        self._interrupted_s = 0.0
        # (clock() when measured, seconds per step): the speed timeline.
        self._points: list[tuple[float, float]] = []

    def _measure(self, n: int) -> None:
        start = time.perf_counter()
        _steps(n)
        elapsed = time.perf_counter() - start
        self.seconds += elapsed
        self.steps += n
        self._points.append((self.clock(), elapsed / n))

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._measure(PROBE_STEPS)
        self._interrupted_s += time.perf_counter() - start

    def clock(self) -> float:
        return time.perf_counter() - self._interrupted_s

    def __enter__(self) -> "SpeedProbe":
        _steps(WARM_UP_STEPS)
        self._measure(EDGE_STEPS)
        if self.during:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._measure(EDGE_STEPS)

    def nominal_s(self, start: float, end: float) -> float:
        """Duration between two :meth:`clock` readings on the nominal machine.

        Each stretch between two speed measurements is scaled by the mean of
        the two, so the result follows speed changes within the block.
        """
        total = 0.0
        for (t0, s0), (t1, s1) in zip(self._points, self._points[1:]):
            lo, hi = max(start, t0), min(end, t1)
            if hi > lo:
                total += (hi - lo) * 2.0 * NOMINAL_STEP_S / (s0 + s1)
        return total

    @property
    def step_s(self) -> float:
        """Mean seconds per loop step over every measurement."""
        return self.seconds / self.steps

    @property
    def speed_scale(self) -> float:
        """Factor that converts a time measured here to the nominal machine."""
        return NOMINAL_STEP_S / self.step_s
