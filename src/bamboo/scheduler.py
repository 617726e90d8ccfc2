"""Constructive schedulers: divides chains, odd/even interleave, solve.

A multiset of periods where each distinct value divides the next (a
divides chain) with density at most 1 always admits a collision-free
schedule in which every job's cycle equals its period. Sorted densest
first, the jobs cut into at most p_min consecutive bins of density 1/p_min,
each exactly full except the last. Bin j takes the days congruent to j mod
p_min, and its own jobs are cut the same way within those days.

Rounded two-grid states are combined by parity: the same pass places the
B' chain on the odd days and the C' chain on the even days, each job at
its own period. The certificate y <= 1 guarantees both sides fit their
half of the calendar.

The chains arrive from rounding as sorted (period, job) int pairs. Jobs
of one period sit in one run, so bins are cut and weighed a run at a
time, and a bin of one period places its jobs side by side without
cutting. Placement writes each job's offset and cycle into per-job int
lists, which become the schedule's int columns
(`PeriodicSchedule.of_columns`); no `ScheduleEntry` is built.

`solve` keeps each stage's value as a typed field of its `Solution`; only
the CLI renders them, for `--explain`. Its output checks raise
`CertificateViolation`, so `python -O` cannot strip them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import gt, itemgetter, mul
from typing import Iterable

from .model import BgtInstance, InvalidInstance, JobPeriod, PeriodicSchedule, PseudoInstance, int_period
from .reduction import DEFAULT_CONFIG, ReductionConfig, bgt_to_pseudo, scaled
from .rounding import (
    CertificateViolation,
    Decomposition,
    NormalizedState,
    Pairs,
    SpecializedState,
    _grid_weight,
    _runs,
    _specialized,
    certificate,
    decompose,
    jobs_field,
    jobs_of,
    normalize,
    pairs_of,
    split_23,
)


class NotAChain(InvalidInstance):
    """Periods do not form a divides chain."""


class Overdense(InvalidInstance):
    """Density exceeds 1, so no schedule can serve every job in time."""


@dataclass(frozen=True, init=False)
class ChainInstance:
    """Jobs with integral periods forming a divides chain of density <= 1.

    Kept as `pairs`, sorted (period, job) int pairs (`rounding.pairs_of`);
    `jobs`, their `JobPeriod`s, is built on first read. `ChainInstance(jobs)`
    sorts the jobs it is given, `of_pairs` takes pairs rounding has sorted
    and refuses periods out of order. Either way `__post_init__` is the one
    check of the lists rounding builds, in integers and once per run of one
    period, so the scheduling pass below can take both properties for
    granted. With P the largest period, density <= 1 reads
    sum(P // p) <= P, as every period divides P.
    """

    pairs: Pairs

    def __init__(self, jobs: Iterable[JobPeriod]) -> None:
        object.__setattr__(self, "pairs", pairs_of(jobs))
        self.__post_init__()

    @classmethod
    def of_pairs(cls, pairs: Pairs) -> ChainInstance:
        chain = cls.__new__(cls)
        object.__setattr__(chain, "pairs", pairs)
        chain.__post_init__()
        return chain

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

    jobs = jobs_field("pairs")


class Bins:
    """What `partition_bins` returns: the bins as runs of the chain's sorted
    (period, job) pairs (`pairs`). Indexing or iterating gives each bin's
    `JobPeriod`s, built on read."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[Pairs, ...]) -> None:
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return tuple(map(jobs_of, self.pairs[index]))
        return jobs_of(self.pairs[index])


def _cut(pairs: Pairs) -> list[Pairs]:
    # pairs is a sorted divides chain: weigh job p as P // p against the bin
    # capacity P // p_min. Each weight divides every earlier one and the
    # capacity, so the open bin's load never overshoots: it fills exactly
    # and the next bin starts right after it. Within a run of one period
    # the bin ends are counted, not summed job by job.
    p_max = pairs[-1][0]
    cap = p_max // pairs[0][0]
    bins = []
    start = load = 0
    for period, first, end in _runs(pairs):
        each = p_max // period
        close = first + (cap - load) // each
        if close > end:
            load += (end - first) * each
            continue
        while close <= end:
            bins.append(pairs[start:close])
            start, close = close, close + cap // each
        load = (end - start) * each
    if start < len(pairs):
        bins.append(pairs[start:])
    return bins


def partition_bins(chain: ChainInstance) -> Bins:
    """Cut the jobs (densest first) into consecutive bins of density 1/p_min.

    Every job density divides the bin capacity, so every bin but the last
    is exactly full; this is what first-fit would build, without the
    search. Density <= 1 leaves at most p_min bins.
    """
    if not chain.pairs:
        return Bins(())
    bins = Bins(tuple(_cut(chain.pairs)))
    assert len(bins) <= chain.pairs[0][0]
    return bins


def _slots(*sides: Pairs) -> tuple[list[int], list[int]]:
    """Offset and cycle lists indexed by job id, up to the largest job on
    the sides, all 0 until a job is placed."""
    size = 1 + max(map(itemgetter(1), itertools.chain(*sides)), default=-1)
    return [0] * size, [0] * size


def _place(chain: ChainInstance, first: int, spacing: int, offsets: list[int], cycles: list[int]) -> None:
    # One pass over a stack of (pairs, offset, step) frames: a frame owns the
    # days congruent to offset mod step, and bin j of its jobs takes the days
    # offset + j * step mod the period of the frame's first job. Top-level
    # bin j starts on day first + j * spacing and repeats every p_min days.
    # A frame of one period has a bin per job, and each job owns its bin's
    # days outright: its offset and cycle go into the per-job lists.
    frames = [(b, first + j * spacing, chain.pairs[0][0]) for j, b in enumerate(partition_bins(chain).pairs)]
    while frames:
        pairs, offset, step = frames.pop()
        period = pairs[0][0]
        if period == pairs[-1][0]:
            for _, job in pairs:
                offsets[job] = offset
                cycles[job] = period
                offset += step
        else:
            frames.extend((b, offset + j * step, period) for j, b in enumerate(_cut(pairs)))


def _schedule(offsets: list[int], cycles: list[int]) -> PeriodicSchedule:
    # the columns in job order; a job id that no chain placed keeps cycle 0
    # and is left out
    placed = [list(itertools.compress(column, cycles)) for column in (range(len(cycles)), offsets, cycles)]
    return PeriodicSchedule.of_columns(*placed)


def schedule_chain(chain: ChainInstance) -> PeriodicSchedule:
    """Collision-free schedule with cycle == period for every chain job."""
    offsets, cycles = _slots(chain.pairs)
    _place(chain, 1, 1, offsets, cycles)
    return _schedule(offsets, cycles)


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
    is consumed.
    """
    if norm.y_sixths > 6:
        raise CertificateViolation(f"certificate y = {norm.y} exceeds 1; interleave has no calendar for this")
    bp, cp = norm.bp_pairs, norm.cp_pairs
    if not cp:
        return schedule_chain(ChainInstance.of_pairs(bp))
    if not bp:
        return schedule_chain(ChainInstance.of_pairs(cp))
    offsets, cycles = _slots(bp, cp)
    _place(ChainInstance.of_pairs(bp), 1, 2, offsets, cycles)
    if cp[0][0] == 3:
        assert len(cp) == 1, "a period-3 job only fits the density budget alone"
        job = cp[0][1]
        offsets[job] = cycles[job] = 2
    else:
        _place(ChainInstance.of_pairs(cp), 2, 2, offsets, cycles)
    return _schedule(offsets, cycles)


@dataclass(frozen=True)
class Solution:
    """A schedule plus its exact accounting: the lower bound L used, the
    analytic max height actually reached, and the promised ceiling
    guarantee = factor * L (equal to L itself for a single bamboo).

    Stage values: the `density` always, and `pseudo`, the fractional
    periods of `instance`, built only when read; `rounded_pairs` on the
    factor-2 path; `split`, `decomposition`, `normalized` and `certified`
    (density <= 7/12, so the certificate checks ran) on the two-grid path.
    Fields a path does not reach stay None or False. Each stage keeps its
    job lists as sorted (period, job) int pairs, the one job order of
    `rounding.pairs_of`, from the stage that built them; the `JobPeriod`
    tuples (`rounded` here, `split.b`, `normalized.bp`, ...) are built on
    first read.
    `ChainInstance` is where the lists are checked, and `normalized.y` is
    derived from B' and C'."""

    schedule: PeriodicSchedule
    lower_bound: Fraction
    height_bound: Fraction
    guarantee: Fraction
    config: ReductionConfig
    instance: BgtInstance
    density: Fraction
    rounded_pairs: Pairs | None = None
    split: SpecializedState | None = None
    decomposition: Decomposition | None = None
    normalized: NormalizedState | None = None
    certified: bool = False

    @cached_property
    def rounded(self) -> tuple[JobPeriod, ...] | None:
        return None if self.rounded_pairs is None else jobs_of(self.rounded_pairs)

    @cached_property
    def pseudo(self) -> PseudoInstance:
        return bgt_to_pseudo(self.instance, self.config)


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
    config = config or DEFAULT_CONFIG
    garden = scaled(instance, config)
    bound = garden.lower_bound
    rho = garden.density
    guarantee = bound if instance.n == 1 else config.factor * bound
    rounded = split = dec = norm = None
    certified = False

    if instance.n == 1:
        schedule = PeriodicSchedule.of_columns((0,), (1,), (1,))
    elif config.factor == 2:
        rounded = _specialized(garden.floors(), 2)
        schedule = schedule_chain(ChainInstance.of_pairs(rounded))
    else:
        split = split_23(garden.floors())
        dec = decompose(split)
        norm = normalize(dec, split)
        certified = certificate(norm, rho)
        schedule = interleave(norm)

    if not schedule.covers(instance.n):
        raise CertificateViolation(f"the schedule does not hold one entry for each of jobs 0..{instance.n - 1}")
    offsets, cycles = schedule.offsets, schedule.cycles
    if any(map(gt, offsets, cycles)):
        job = next(job for job, late in enumerate(map(gt, offsets, cycles)) if late)
        raise CertificateViolation(f"job {job} is first cut on day {offsets[job]}, after its cycle of {cycles[job]}")
    # job i peaks at h_i * max(offset, cycle); with offset <= cycle checked,
    # that is a_i * cycle / D
    height = Fraction(max(map(mul, garden.rates, cycles)), garden.scale)
    if height > guarantee:
        raise CertificateViolation(f"max height {height} exceeds the guarantee {guarantee}")
    return Solution(
        schedule=schedule,
        lower_bound=bound,
        height_bound=height,
        guarantee=guarantee,
        config=config,
        instance=instance,
        density=rho,
        rounded_pairs=rounded,
        split=split,
        decomposition=dec,
        normalized=norm,
        certified=certified,
    )
