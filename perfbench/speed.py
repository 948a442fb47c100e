"""Machine-speed trace, to take host speed drift out of the timings.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent, both from second to second and over minutes: a fixed
pure-Python loop timed back to back for a minute read 2.8 ms in some
seconds and 5.1 ms in others, and its 30-second averages differed by 35%.

So while a worker runs, a timer signal interrupts it every ``PERIOD_S`` and
times a small fixed probe of the same kind of work as the package does
(dict lookups, tuples, integer arithmetic).  An interval's time is then
reported at reference speed: each stretch of it between probes, less the
probes themselves, is divided by the local slowdown of the probe relative
to ``REFERENCE_PROBE_S``.  On a fixed loop this cut the spread of 150
timings (quartile distance over median) from 0.45 raw to 0.14; on the
first 17 items of W18 it cut the range of the median over six passes from
40% to 6%.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.02
# Each probe's slowdown is the median over this many probes on either side.
SMOOTH = 2
# Probe duration at the reference speed: the unit the timings are scaled to.
REFERENCE_PROBE_S = 0.0005


def probe() -> None:
    acc: dict[tuple[int, int], int] = {}
    for i in range(400):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0) + i * 3
    sorted(acc.items())


def _median(values: list[float]) -> float:
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


class SpeedTrace:
    """Probe timings taken on a timer signal while the process runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._slowdown: list[float] | None = None

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - started)
        self.starts.append(started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling; the trace must be stopped before normalizing."""
        if self._slowdown is not None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(SMOOTH + 1):
            self.sample()
        d = self.durations
        self._slowdown = [_median(d[max(0, k - SMOOTH):k + SMOOTH + 1])
                          / REFERENCE_PROBE_S for k in range(len(d))]

    def normalize(self, start: float, elapsed: float) -> float:
        """An interval's duration at reference speed, probes excluded.

        The interval is cut at every probe inside it; each piece is divided
        by the smoothed slowdown of the probe that begins it (the first
        piece by that of the first probe after the interval starts).
        """
        end = start + elapsed
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        slowdown = self._slowdown[min(first, len(self.starts) - 1)]
        edge, total = start, 0.0
        for k in range(first, last):
            total += (self.starts[k] - edge) / slowdown
            edge = self.starts[k] + self.durations[k]
            slowdown = self._slowdown[k]
        return total + max(end - edge, 0.0) / slowdown
