"""Constructive schedulers: divides chains, odd/even interleave, solve.

A multiset of periods where each distinct value divides the next (a
divides chain) with density at most 1 always admits a collision-free
schedule in which every job's cycle equals its period. Sorted densest
first, the jobs cut into at most p_min consecutive bins of density 1/p_min,
each exactly full except the last: the blocks of `rounding._cut` at base
p_min. Bin j takes the days congruent to j mod p_min, and its own jobs are
cut the same way within those days.

Rounded two-grid states are combined by parity: the same pass places the
B' chain on the odd days and the C' chain on the even days, each job at
its own period. The certificate y <= 1 guarantees both sides fit their
half of the calendar.

The chains arrive from rounding as sorted (period, job) int pairs. A bin
of one period places its jobs side by side without cutting. Placement
appends each job's id, offset and cycle to three int lists, in placement
order; they become the schedule's int columns
(`PeriodicSchedule.of_columns`, which sorts them by job and is the one
check of job ids); no `ScheduleEntry` is built.

`solve` keeps its stage values as locals, so they are freed when it
returns: its `Solution` holds the answer and the scaled garden, from which
`--explain` builds the same stages again. Its output checks raise
`CertificateViolation`, so `python -O` cannot strip them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import gt, itemgetter

from .model import BgtInstance, InvalidInstance, JobPeriod, PeriodicSchedule, int_period, record
from .reduction import ReductionConfig, ScaledGarden, scaled
from .rounding import (
    CertificateViolation,
    NormalizedState,
    Pairs,
    _cut,
    _grid_weight,
    _runs,
    certificate,
    normalize,
    specialize_instance,
    split_23,
)


class NotAChain(InvalidInstance):
    """Jobs that do not form a divides chain, or have a bad period."""


class Overdense(InvalidInstance):
    """Density exceeds 1, so no schedule can serve every job in time."""


@record
class ChainInstance:
    """Jobs with integral periods forming a divides chain of density <= 1.

    Held as `pairs`, (period, job) int pairs sorted as rounding sorts them.
    `__post_init__` is the one check of the chain rules, in integers and
    once per run of one period, so the scheduling pass below can take them
    for granted: the periods in order and dividing each other. With P the
    largest period, density <= 1 reads sum(P // p) <= P, as every period
    divides P. Job ids are only carried along; the schedule checks them.
    """

    pairs: Pairs

    def __post_init__(self) -> None:
        pairs = self.pairs
        column = list(map(itemgetter(0), pairs))
        # name a period that is no plain int before `_runs` adds 1 to it;
        # of sorted int pairs each run holds one period, checked once
        if not set(map(type, column)) <= {int}:
            for period in column:
                int_period(period, NotAChain)
        # `_runs` bisects on the periods, so they must come in order
        if sorted(column) != column:
            i = next(i for i, (a, b) in enumerate(zip(column, column[1:])) if a > b)
            raise NotAChain(f"pairs are not sorted: {pairs[i + 1]} comes after {pairs[i]}")
        periods = [int_period(period, NotAChain) for period, _, _ in _runs(pairs)]
        for small, big in zip(periods, periods[1:]):
            if big % small != 0:
                raise NotAChain(f"{small} does not divide {big}")
        weight, p_max = _grid_weight(pairs)
        if weight > p_max:
            raise Overdense(f"density {Fraction(weight, p_max)} exceeds 1")

    # perfbench's traced counters read the chain's `JobPeriod`s
    @cached_property
    def jobs(self) -> tuple[JobPeriod, ...]:
        return _job_periods(self.pairs)


def _job_periods(pairs: Pairs) -> tuple[JobPeriod, ...]:
    return tuple(JobPeriod(job, period) for period, job in pairs)


# perfbench's traced counters read each bin's `JobPeriod`s
class Bins:
    """What `partition_bins` returns: the bins as runs of the chain's sorted
    (period, job) pairs (`pairs`). Indexing or iterating gives each bin's
    `JobPeriod`s, built on read."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[Pairs, ...]) -> None:
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, index: int) -> tuple[JobPeriod, ...]:
        return _job_periods(self.pairs[index])


def partition_bins(chain: ChainInstance) -> Bins:
    """Cut the jobs (densest first) into consecutive bins of density 1/p_min,
    the blocks of `_cut` at base p_min: every bin but the last is exactly
    full, which is what first-fit would build, without the search.
    Density <= 1 leaves at most p_min bins.
    """
    if not chain.pairs:
        return Bins(())
    bins = Bins(tuple(_cut(chain.pairs, chain.pairs[0][0])))
    assert len(bins) <= chain.pairs[0][0]
    return bins


def _place(chain: ChainInstance, first: int, spacing: int, columns: tuple[list[int], list[int], list[int]]) -> None:
    # One pass over a stack of (pairs, offset, step) frames: a frame owns the
    # days congruent to offset mod step, and bin j of its jobs takes the days
    # offset + j * step mod the period of the frame's first job. Top-level
    # bin j starts on day first + j * spacing and repeats every p_min days.
    # A frame of one period has a bin per job, and each job owns its bin's
    # days outright: its id, offset and cycle are appended to the columns.
    add_job, add_offset, add_cycle = (column.append for column in columns)
    frames = [(b, first + j * spacing, chain.pairs[0][0]) for j, b in enumerate(partition_bins(chain).pairs)]
    while frames:
        pairs, offset, step = frames.pop()
        period = pairs[0][0]
        if period == pairs[-1][0]:
            for _, job in pairs:
                add_job(job)
                add_offset(offset)
                add_cycle(period)
                offset += step
        else:
            frames.extend((b, offset + j * step, period) for j, b in enumerate(_cut(pairs, period)))


def schedule_chain(chain: ChainInstance) -> PeriodicSchedule:
    """Collision-free schedule with cycle == period for every chain job."""
    columns = [], [], []
    _place(chain, 1, 1, columns)
    return PeriodicSchedule.of_columns(*columns)


def interleave(norm: NormalizedState) -> PeriodicSchedule:
    """Schedule B' on odd days and C' on even days.

    Each side runs the chain pass at its own periods, B' from day 1 and C'
    from day 2, its top-level bins every other day. When either side is
    empty the other side's chain gets the whole calendar. A lone period-3
    job in C' (the only way a 3 survives the density budget) is pinned to
    every even day.

    The certificate y, derived from B' and C', decides alone: with both
    sides non-empty, y <= 1 (6y <= 6 in integers) forces both ceilings to
    1, that is rho(B') <= 1/2 and rho(C') <= 1/3, so each side fits its
    half of the calendar. `ChainInstance` checks each side's chain as it
    is consumed, and the schedule checks the job ids of both sides
    together: an id that B' and C' share is refused there.
    """
    if norm.y_sixths > 6:
        raise CertificateViolation(f"certificate y = {norm.y} exceeds 1; interleave has no calendar for this")
    bp, cp = norm.bp, norm.cp
    if not cp:
        return schedule_chain(ChainInstance(bp))
    if not bp:
        return schedule_chain(ChainInstance(cp))
    columns = [], [], []
    _place(ChainInstance(bp), 1, 2, columns)
    if cp[0][0] == 3:
        assert len(cp) == 1, "a period-3 job only fits the density budget alone"
        for column, value in zip(columns, (cp[0][1], 2, 2)):
            column.append(value)
    else:
        _place(ChainInstance(cp), 2, 2, columns)
    return PeriodicSchedule.of_columns(*columns)


@record
class Solution:
    """A schedule plus its exact accounting: the lower bound L used, the
    analytic max height actually reached, and the promised ceiling
    guarantee = factor * L (equal to L itself for a single bamboo).

    `garden` is the `ScaledGarden` that every stage decided on. The stages
    are a pure function of it, so they are not kept: `specialize_instance`,
    or `split_23`, `normalize` and `certificate`, on `garden.floors()` build
    them again, as `--explain` does."""

    schedule: PeriodicSchedule
    lower_bound: Fraction
    height_bound: Fraction
    guarantee: Fraction
    garden: ScaledGarden


def solve(instance: BgtInstance, config: ReductionConfig | None = None) -> Solution:
    """Full pipeline: reduce, round, normalize, certify, interleave.

    factor 2 skips the two-grid machinery and rounds everything onto
    powers of two; a single bamboo skips the rounding entirely (cut it
    every day). Everything up to the reported values runs on the garden
    scaled to integers, and every job list on (period, job) int pairs.

    The output is checked before it is returned, with CertificateViolation
    (not an assertion, so `python -O` keeps it): one entry per job, no
    offset past its cycle, and a max height within the guarantee.
    """
    garden = scaled(instance, config)
    bound = garden.lower_bound
    guarantee = bound if instance.n == 1 else garden.config.factor * bound

    if instance.n == 1:
        schedule = PeriodicSchedule.of_columns((0,), (1,), (1,))
    elif garden.config.factor == 2:
        schedule = schedule_chain(ChainInstance(specialize_instance(garden.floors(), 2)))
    else:
        norm = normalize(split_23(garden.floors()))
        certificate(norm, garden.density)
        schedule = interleave(norm)

    if not schedule.covers(instance.n):
        raise CertificateViolation(f"the schedule does not hold one entry for each of jobs 0..{instance.n - 1}")
    offsets, cycles = schedule.offsets, schedule.cycles
    if any(map(gt, offsets, cycles)):
        job = next(job for job, late in enumerate(map(gt, offsets, cycles)) if late)
        raise CertificateViolation(f"job {job} is first cut on day {offsets[job]}, after its cycle of {cycles[job]}")
    height = Fraction(max(schedule.peaks(garden.rates)), garden.scale)
    if height > guarantee:
        raise CertificateViolation(f"max height {height} exceeds the guarantee {guarantee}")
    return Solution(schedule, bound, height, guarantee, garden)
