"""Host-speed normalisation of measured times.

The benchmark runs on shared hosts whose other tenants slow this CPU by up
to 2x, for seconds to minutes at a time. While a run executes, SIGALRM
times a fixed pure-Python snippet every ``INTERVAL_S`` of wall time; the
run's time is then rescaled by ``REFERENCE_S`` over the median snippet time,
which gives host seconds at a fixed reference speed (the speed at which the
snippet takes exactly ``REFERENCE_S``). The snippet's own time is taken out
of the run's time first. The snippet does not depend on fedmesh, so a change
to the program moves the normalised time exactly as it moves the raw time.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

INTERVAL_S = 0.02
REFERENCE_S = 1e-4


def _snippet() -> int:
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


def time_snippet() -> float:
    """Seconds one call of the reference snippet takes right now."""
    t0 = time.perf_counter()
    _snippet()
    return time.perf_counter() - t0


@contextmanager
def sampling() -> Iterator[list[float]]:
    """Collect snippet times every INTERVAL_S while the block runs."""
    samples: list[float] = []

    def on_alarm(signum, frame) -> None:
        samples.append(time_snippet())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)


def speed_factor(samples: list[float]) -> float:
    """Multiply a raw time by this to get reference-speed seconds."""
    return REFERENCE_S / statistics.median(samples)


@contextmanager
def timed() -> Iterator[dict[str, float]]:
    """Time a block; yields a dict that receives ``raw_s`` (snippet time
    excluded), ``factor`` and ``seconds`` (= raw_s * factor) on exit."""
    result: dict[str, float] = {}
    before = time_snippet()
    with sampling() as samples:
        t0 = time.perf_counter()
        try:
            yield result
        finally:
            elapsed = time.perf_counter() - t0
    raw = elapsed - sum(samples)
    # Short blocks see few alarms; the snippet timed just before and after
    # them always counts.
    factor = speed_factor(samples + [before, time_snippet()])
    result.update(raw_s=raw, factor=factor, seconds=raw * factor)
