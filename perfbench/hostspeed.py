"""Host-speed correction for the timed spans of a sample.

The benchmark runs on a few cores of a shared host whose speed, as a
Python process sees it, drifts by up to 2x over minutes and also within
a few hundred milliseconds.  Wall time alone therefore measures the host
as much as the program.  `SpeedProbe` interrupts the sample every
`INTERVAL_S` seconds (SIGALRM) and times a fixed pure-Python reference
loop.  `reference_seconds` converts a wall-clock span into the time it
would have taken on a host where that loop takes `NOMINAL_PROBE_S`: each
stretch between two probes is scaled by the nominal duration over the
local probe duration (a running median of `SMOOTH` probes), and the
probes' own time is left out.

A program change still moves the corrected time by the share it moves
wall time, because the probe loop is not program code.  What the
correction cannot see is a program change that slows the probe itself,
for example by evicting its working set from the caches; with a loop
that touches a 64-entry dict and a short list this effect is small.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.01
REFERENCE_LOOPS = 400
# Duration of one probe on a quiet host of the reference machine (2 vCPUs
# of a 2.0 GHz Xeon, Python 3.11), taken while a simulation runs.
NOMINAL_PROBE_S = 1.3e-4
SMOOTH = 5


def reference(loops: int) -> int:
    """Fixed interpreter work: dict updates, tuple builds, list appends."""
    counts: dict[int, int] = {}
    recent = []
    for i in range(loops):
        key = i & 63
        counts[key] = counts.get(key, 0) + i
        recent.append((key, i))
        if len(recent) > 32:
            recent.clear()
    return len(counts)


class SpeedProbe:
    """Samples host speed from inside the process until stopped."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        reference(REFERENCE_LOOPS)
        self.marks.append((begin, time.perf_counter()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _smoothed(self) -> list[float]:
        durations = [b - a for a, b in self.marks]
        half = SMOOTH // 2
        return [statistics.median(durations[max(0, i - half): i + half + 1]) for i in range(len(durations))]

    def reference_seconds(self, begin: float, end: float) -> float:
        """Span [begin, end] without probe time, rescaled to the nominal host speed."""
        if not self.marks:
            raise RuntimeError("no speed probe fired; the span cannot be corrected")
        smooth = self._smoothed()
        starts = [a for a, _ in self.marks]
        first = bisect.bisect_left(starts, begin)
        total = 0.0
        cursor = begin
        for i in range(first, len(self.marks)):
            a, b = self.marks[i]
            if b > end:
                break
            total += (a - cursor) * NOMINAL_PROBE_S / smooth[i]
            cursor = b
        # The stretch after the last probe inside the span takes the speed
        # of the nearest probe.
        nearest = min(max(bisect.bisect_left(starts, cursor) - 1, 0), len(smooth) - 1)
        total += max(end - cursor, 0.0) * NOMINAL_PROBE_S / smooth[nearest]
        return total

    def probe_median_s(self, begin: float, end: float) -> float:
        """Median probe duration inside [begin, end], or over the whole sample."""
        inside = [b - a for a, b in self.marks if begin <= a and b <= end]
        return statistics.median(inside or [b - a for a, b in self.marks])
