"""Host-speed correction for timings taken on a shared machine.

On a shared host, stretches of seconds to minutes run up to twice as
slow for every process of the container alike, so a raw timing says as
much about the neighbours as about the program. While a timed block
runs, a timer signal interrupts it every ``INTERVAL_S`` for a fixed probe
of interpreter work. The block's time, less the probes, is scaled by
``REFERENCE_PROBE_S`` over the median probe time: the result is the time
the block takes when the probe runs at its reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
# Median probe time on an uncontended core of the 2-core Intel Xeon host
# (Python 3.11) on which the benchmark was set up.
REFERENCE_PROBE_S = 0.00018


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work (dict stores, arithmetic)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(2000):
        table[i & 255] = i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Samples :func:`probe` on a timer signal while the ``with`` block runs.

    One more sample is taken on exit, so a block shorter than the
    interval still has one.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def factor(self) -> float:
        """Reference speed over observed speed; below 1 on a slowed host."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)
