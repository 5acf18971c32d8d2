"""A fixed piece of pure-Python work, timed between a workload's
operations, that scales the workload's timings to one machine speed.

The shared VM this benchmark was tuned on runs the same pure-Python code
1.5-2x slower for minutes at a time, so runs of identical work a few
minutes apart disagree by more than any useful bound.  Pooling several
rounds evens out a burst shorter than a round, not a slow stretch as long
as the run.  The probe does: it is timed between operations, in
the same process, so it is slowed by the same stretch, and each timed
operation is multiplied by ``NOMINAL_S`` over the median of the probe
times around it (the sample before it, the one after, and one more on
each side).  The scaled figures read as if the machine ran at the speed at
which the probe takes ``NOMINAL_S``.

A Python program's time is part interpreter dispatch and part waiting on
memory, and the VM's slow stretches hit the two unequally, so the probe
has one part of each: an arithmetic and dict loop, and a walk along a
pseudo-random cycle through 2**18 Python ints spread over about 10 MB
(``i -> (A*i + C) mod 2**18`` visits every index once, since C is odd and
A is 1 mod 4).  Each sample walks the same first WALK_STEPS steps, about
1 MB of list slots and ints, so it fetches again whatever the workload
evicted since the last sample.  Its time is the geometric mean of the
two parts, so each counts equally.  Nothing of the package under test runs in
the probe, so a change to the package moves the scaled timings as it
moves the raw ones, but for what its memory traffic does to the probe's
cache misses.  The probe's structure is resident for the whole run; its
size and build time, measured when it is built, are reported so that
``peak_rss_mb`` and ``setup_s`` can leave them out.
"""

from __future__ import annotations

import math
import statistics
import time

NOMINAL_S = 0.003     # about the probe's median time on the tuning VM
CYCLE_LEN = 1 << 18
A, C = 1103515245, 12345
LOOP_STEPS = 6000
WALK_STEPS = 8000


def _resident_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * 4096 / (1 << 20)


def _loop(steps: int) -> int:
    x, acc, d, row = 12345, 0, {}, [0] * 64
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 255
        acc = (acc + d.get(k, 0)) & 0xFFFFFF
        d[k] = i
        j = x & 63
        row[j] = row[j - 1] + k
    return acc


def _walk(cycle: list, steps: int) -> int:
    i = s = 0
    for _ in range(steps):
        i = cycle[i]
        s += i
    return s


class SpeedProbe:
    """Times the probe on demand and turns a round's samples into the
    factors that scale that round's timed operations."""

    def __init__(self) -> None:
        t0 = time.perf_counter()
        before = _resident_mb()
        self.cycle = [(A * i + C) % CYCLE_LEN for i in range(CYCLE_LEN)]
        self.resident_mb = max(0.0, _resident_mb() - before)
        self.build_s = time.perf_counter() - t0
        self.samples: list[float] = []    # the current round's probe times

    def sample(self) -> float:
        clock = time.perf_counter
        t0 = clock()
        _loop(LOOP_STEPS)
        t1 = clock()
        _walk(self.cycle, WALK_STEPS)
        t2 = clock()
        s = math.sqrt((t1 - t0) * (t2 - t1))
        self.samples.append(s)
        return s

    def factors(self) -> list[float]:
        """The scale factor of each stretch between consecutive samples of
        the current round: NOMINAL_S over the median of the two samples
        bounding it and one more on each side."""
        s = self.samples
        return [NOMINAL_S / statistics.median(s[max(0, c - 1):c + 3])
                for c in range(len(s) - 1)]

    def end_round(self) -> float:
        """The finished round's median probe time; starts the next round's
        samples."""
        median = statistics.median(self.samples)
        self.samples = []
        return median
