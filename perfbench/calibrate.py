"""Machine-speed calibration: a fixed reference kernel timed inside the ops.

The benchmark runs on shared virtual machines whose cores slow down by
up to half for seconds at a time, with no steal time and CPU time
moving as much as wall time: another tenant on the same physical core.
A timing taken there says as much about the neighbour as about the
program.  So while the ops run, a :class:`Sampler` interrupts the
process every ``PERIOD_S`` seconds of wall time (``SIGALRM``) and times
one pass of a fixed pure-Python :func:`kernel`, shaped like the engines'
event loops, on the same thread.  The kernel samples that fall inside an
interval tell how fast the core ran during it.

An interval is reported at the reference speed: its wall time, less the
kernel passes inside it, times the mean over those passes of
``REFERENCE_S`` ÷ pass time.  The mean is over speeds, not times: work
done is speed integrated over time, and the passes sample time evenly,
so a pass stretched by a pause of the whole process weighs little.  Two
runs on one machine then compare the program, not the neighbours.  The kernel depends on nothing in ``src/``: no change to the
program changes its time.  The raw timings are printed beside the
result line.
"""

from __future__ import annotations

import json
import math
import signal
import statistics
from typing import List, Optional, Tuple

from spans import clock

#: Median kernel pass, in seconds, on the machine the bounds were set on
#: (a 2-vCPU Intel Xeon virtual machine, Python 3.11, undisturbed).  It
#: only fixes the scale timings are reported at.
REFERENCE_S = 0.0010

#: Wall time between kernel passes.
PERIOD_S = 0.025

_TABLE = list(range(1 << 16))


def kernel() -> int:
    """About a millisecond of interpreter work: integer mixing, random
    reads of a 64k-entry list, dict updates and ``math.log``, as the
    engines' event loops do."""
    table = _TABLE
    counts = {}
    state = 1
    acc = 0.0
    for step in range(1500):
        state = (state * 1103515245 + 12345) & 0xFFFF
        value = table[state] & 255
        counts[value] = counts.get(value, 0) + 1
        acc += math.log(step + 1.0)
    return state + len(counts) + int(acc)


class Sampler:
    """Kernel passes ``(start, duration)`` taken on ``SIGALRM`` while
    started.  Must be started and stopped from the main thread."""

    def __init__(self, samples: Optional[List[Tuple[float, float]]] = None):
        self.samples: List[Tuple[float, float]] = list(samples or [])
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = clock()
        kernel()
        self.samples.append((start, clock() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.samples, handle)

    @classmethod
    def load(cls, path: str) -> "Sampler":
        with open(path, encoding="utf-8") as handle:
            return cls([tuple(s) for s in json.load(handle)])

    def median_s(self) -> Optional[float]:
        if not self.samples:
            return None
        return statistics.median(d for _, d in self.samples)

    def at_reference(self, begin: float, end: float) -> float:
        """``end - begin`` at the reference speed.  An interval with no
        kernel pass inside it takes the speed of the whole run; a sampler
        with no pass at all (an interval far shorter than the period)
        leaves it as measured."""
        if not self.samples:
            return end - begin
        inside = [d for s, d in self.samples if begin <= s and s + d <= end]
        speed = statistics.fmean(
            REFERENCE_S / d for d in (inside or [d for _, d in self.samples])
        )
        return (end - begin - sum(inside)) * speed
