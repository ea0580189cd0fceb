"""Run on whichever allowed CPU is currently the fastest.

On a shared host each vCPU is slowed, in spells of seconds to minutes, by
whatever the host runs beside it (on a 2-vCPU Xeon guest a fixed Python loop
took 11.7 ms on one vCPU and 16-17 ms on the other for a minute at a time).
The operating system does not see this and keeps the benchmark on one vCPU
for long stretches, so a whole run can be timed on the slow one.  The
picker times a short fixed loop on each CPU this process may use and pins
the process to the fastest; a child process started afterwards inherits the
pin.  It only narrows this process's own affinity, within the set it
started with.
"""

from __future__ import annotations

import collections
import os
import time

SPIN = 4000  # loop length of one probe: about 0.25 ms on the reference machine
PROBES = 3  # probes per CPU; the fastest counts
EVERY_S = 0.25  # a pick stays in force at least this long


def _spin() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPIN):
        acc += i * i
    return time.perf_counter() - t0


class CpuPicker:
    def __init__(self, every_s: float = EVERY_S):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.every_s = every_s
        self.last = -float("inf")
        self.current = None
        self.picks = collections.Counter()
        self.switches = 0

    def pick(self) -> None:
        """Re-pin to the fastest CPU, unless the last pick is recent."""
        if len(self.cpus) < 2 or time.perf_counter() - self.last < self.every_s:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_spin() for _ in range(PROBES))
        best = min(self.cpus, key=speed.__getitem__)
        os.sched_setaffinity(0, {best})
        self.switches += self.current is not None and best != self.current
        self.current = best
        self.picks[best] += 1
        self.last = time.perf_counter()

    def release(self) -> None:
        """Give the process back every CPU it started with."""
        os.sched_setaffinity(0, set(self.cpus))

    def record(self) -> dict:
        return {"cpus": self.cpus, "picks": {str(c): n for c, n in sorted(self.picks.items())},
                "switches": self.switches}
