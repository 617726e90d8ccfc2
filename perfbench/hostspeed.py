"""How fast the host runs pure-Python work at the moment.

The benchmark shares a few cores of a host whose speed drifts by up to 1.5x
in stretches of tens of seconds to minutes, so raw times of the same code
differ from run to run by more than any useful regression bound. A fixed
reference kernel, timed between the operations of a run, drifts with them.
Times are reported at the reference speed: measured seconds times REF_S
over the mean kernel time of the same stretch. REF_S only fixes the scale;
a program that gets 20% slower reads 20% slower at any REF_S.

Over five seeds of each workload in 40-second runs on a 2-CPU host, while
the mean kernel time ranged from 34 to 51 ms, the quartile distance over
the median of the measured pass time was 0.17 (verify-large), 0.14
(solve-large) and 0.16 (ratio-study), and of the pass time at the reference
speed 0.05, 0.09 and 0.08. The kernel does not drift exactly as each
workload does, so some of the drift stays in.

The kernel belongs to the benchmark and must not change between the two
commits of a comparison.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from fractions import Fraction

# Nominal kernel time: about what it takes on a quiet 2-CPU host of the
# kind the benchmark was written on (Python 3.11).
REF_S = 0.03

# Periods of the small pinwheel-like system whose states the kernel walks.
PERIODS = (4, 5, 7, 9)


@dataclass(frozen=True)
class _Item:
    job: int
    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(self.period)


def kernel() -> tuple[int, Fraction, int]:
    """The kinds of work bamboo's layers do, at a fixed small size: frozen
    dataclasses first-fitted into bins by Fraction density (the scheduler),
    a calendar of (day, job) events sorted and replayed with Fraction
    heights (the verifier's simulation), and a breadth-first search over
    tuple states (the oracle). Returns its results so that tests can pin
    them."""
    items = [_Item(job, 2 ** (job % 9 + 1)) for job in range(160)]
    items.sort(key=lambda it: (it.period, it.job))
    cap = Fraction(1, 2)
    loads: list[Fraction] = []
    for it in items:
        size = Fraction(1, it.period)
        for k in range(len(loads)):
            if loads[k] + size <= cap:
                loads[k] += size
                break
        else:
            loads.append(size)

    rates = [Fraction(1000 + 37 * job, job % 7 + 1) for job in range(48)]
    events: list[tuple[int, int]] = []
    for job in range(48):
        events.extend((day, job) for day in range(job % 13 + 1, 8000, 29 + job))
    events.sort()
    last: dict[int, int] = {}
    best = Fraction(0)
    for day, job in events:
        h = rates[job] * (day - last.get(job, 0))
        if h > best:
            best = h
        last[job] = day

    start = tuple(p - 1 for p in PERIODS)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for i in range(len(state)):
                succ = tuple(PERIODS[j] - 1 if j == i else c - 1 for j, c in enumerate(state))
                if min(succ) >= 0 and succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return len(loads), best, len(seen)


class HostSpeed:
    """Kernel times of one stretch of a run.

    keep_up() runs the kernel until kernel time is `share` of the time since
    the stretch began, so the samples are spread over the stretch as the
    operations are and cost a fixed share of it. Operations and kernel runs
    then see the host's slow and fast spells in the same proportions, which
    is why scale() uses the mean kernel time rather than the median."""

    def __init__(self, share: float) -> None:
        self.share = share
        self.times = array("d")
        self.total = 0.0
        self.start = time.perf_counter()
        for _ in range(3):
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t = time.perf_counter() - t0
        self.times.append(t)
        self.total += t

    def keep_up(self) -> None:
        while self.total < self.share * (time.perf_counter() - self.start):
            self.sample()

    def mean(self) -> float:
        return self.total / len(self.times)

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return REF_S / self.mean()
