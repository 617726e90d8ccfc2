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

`solve` keeps each stage's value as a typed field of its `Solution`; only
the CLI renders them, for `--explain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .model import BgtInstance, InvalidInstance, JobPeriod, PeriodicSchedule, PseudoInstance, ScheduleEntry, int_period
from .reduction import DEFAULT_CONFIG, ReductionConfig, bgt_to_pseudo, scaled
from .rounding import (
    CertificateViolation,
    Decomposition,
    NormalizedState,
    SpecializedState,
    by_period,
    certificate,
    decompose,
    normalize,
    specialize_instance,
    split_23,
)


class NotAChain(InvalidInstance):
    """Periods do not form a divides chain."""


class Overdense(InvalidInstance):
    """Density exceeds 1, so no schedule can serve every job in time."""


@dataclass(frozen=True)
class ChainInstance:
    """Jobs with integral periods forming a divides chain of density <= 1.

    Stored in `by_period` order. This is the pipeline's one check of the
    lists that rounding builds: validation happens on construction, in
    integers, so the scheduling pass below can take both properties for
    granted. With P the largest period, density <= 1 reads
    sum(P // p) <= P, exact because every period divides P.
    """

    jobs: tuple[JobPeriod, ...]

    def __post_init__(self) -> None:
        jobs = by_period(self.jobs)
        object.__setattr__(self, "jobs", jobs)
        for jp in jobs:
            int_period(jp.period, NotAChain)
        for small, big in zip(jobs, jobs[1:]):
            if big.period % small.period != 0:
                raise NotAChain(f"{small.period} does not divide {big.period}")
        p_max = jobs[-1].period if jobs else 1
        weight = sum(p_max // jp.period for jp in jobs)
        if weight > p_max:
            raise Overdense(f"density {Fraction(weight, p_max)} exceeds 1")


def _cut(jobs: tuple[JobPeriod, ...]) -> list[tuple[JobPeriod, ...]]:
    # jobs is a sorted divides chain: weigh job p as P // p against the bin
    # capacity P // p_min. Each weight divides every earlier one and the
    # capacity, so the open bin's load never overshoots: it fills exactly
    # and the next bin starts right after it.
    p_max = jobs[-1].period
    cap = p_max // jobs[0].period
    bins = []
    start = load = 0
    for i, jp in enumerate(jobs):
        load += p_max // jp.period
        if load == cap:
            bins.append(jobs[start : i + 1])
            start, load = i + 1, 0
    if start < len(jobs):
        bins.append(jobs[start:])
    return bins


def partition_bins(chain: ChainInstance) -> tuple[tuple[JobPeriod, ...], ...]:
    """Cut the jobs (densest first) into consecutive bins of density 1/p_min.

    Every job density divides the bin capacity, so every bin but the last
    is exactly full; this is what first-fit would build, without the
    search. Density <= 1 leaves at most p_min bins.
    """
    if not chain.jobs:
        return ()
    bins = tuple(_cut(chain.jobs))
    assert len(bins) <= chain.jobs[0].period
    return bins


def _place(chain: ChainInstance, first: int, spacing: int) -> list[ScheduleEntry]:
    # One pass over a stack of (jobs, offset, step) frames: a frame owns the
    # days congruent to offset mod step, and bin j of its jobs takes the days
    # offset + j * step mod the period of the frame's first job. Top-level
    # bin j starts on day first + j * spacing and repeats every p_min days.
    # A job alone in its bin owns those days outright.
    frames = [(b, first + j * spacing, chain.jobs[0].period) for j, b in enumerate(partition_bins(chain))]
    # entries are made once the pass is over: made inside it, they end up
    # scattered among the freed frames and pin part-empty memory arenas
    leaves: list[tuple[JobPeriod, int]] = []
    while frames:
        jobs, offset, step = frames.pop()
        if len(jobs) == 1:
            assert offset <= jobs[0].period
            leaves.append((jobs[0], offset))
        else:
            frames.extend((b, offset + j * step, jobs[0].period) for j, b in enumerate(_cut(jobs)))
    return [ScheduleEntry(jp.job, offset, jp.period) for jp, offset in leaves]


def schedule_chain(chain: ChainInstance) -> PeriodicSchedule:
    """Collision-free schedule with cycle == period for every chain job."""
    return PeriodicSchedule(tuple(_place(chain, 1, 1)))


def interleave(norm: NormalizedState) -> PeriodicSchedule:
    """Schedule B' on odd days and C' on even days.

    Each side runs the chain pass at its own periods, B' from day 1 and C'
    from day 2, its top-level bins every other day. When either side is
    empty the other side's chain gets the whole calendar. A lone period-3
    job in C' (the only way a 3 survives the density budget) is pinned to
    every even day.

    The certificate y, derived from B' and C', decides alone: with both
    sides non-empty, y <= 1 forces both ceilings to 1, that is
    rho(B') <= 1/2 and rho(C') <= 1/3, so each side fits its half of the
    calendar. `ChainInstance` checks each side's chain as it is consumed.
    """
    if norm.y > 1:
        raise CertificateViolation(f"certificate y = {norm.y} exceeds 1; interleave has no calendar for this")
    bp, cp = norm.bp, norm.cp
    if not cp:
        return schedule_chain(ChainInstance(bp))
    if not bp:
        return schedule_chain(ChainInstance(cp))
    entries = _place(ChainInstance(bp), 1, 2)
    if any(jp.period == 3 for jp in cp):
        assert len(cp) == 1, "a period-3 job only fits the density budget alone"
        entries.append(ScheduleEntry(cp[0].job, 2, 2))
    else:
        entries += _place(ChainInstance(cp), 2, 2)
    return PeriodicSchedule(tuple(entries))


@dataclass(frozen=True)
class Solution:
    """A schedule plus its exact accounting: the lower bound L used, the
    analytic max height actually reached, and the promised ceiling
    guarantee = factor * L (equal to L itself for a single bamboo).

    Stage values: the `density` always, and `pseudo`, the fractional
    periods of `instance`, built only when read; `rounded` on the factor-2
    path; `split`, `decomposition`, `normalized` and `certified` (density
    <= 7/12, so the certificate checks ran) on the two-grid path. Fields a
    path does not reach stay None or False. Each stage's job lists come
    sorted by `rounding.by_period` from the stage that built them;
    `ChainInstance` is where they are checked, and `normalized.y` is
    derived from B' and C'."""

    schedule: PeriodicSchedule
    lower_bound: Fraction
    height_bound: Fraction
    guarantee: Fraction
    config: ReductionConfig
    instance: BgtInstance
    density: Fraction
    rounded: tuple[JobPeriod, ...] | None = None
    split: SpecializedState | None = None
    decomposition: Decomposition | None = None
    normalized: NormalizedState | None = None
    certified: bool = False

    @cached_property
    def pseudo(self) -> PseudoInstance:
        return bgt_to_pseudo(self.instance, self.config)


def solve(instance: BgtInstance, config: ReductionConfig | None = None) -> Solution:
    """Full pipeline: reduce, round, normalize, certify, interleave.

    factor 2 skips the two-grid machinery and rounds everything onto
    powers of two; a single bamboo skips the rounding entirely (cut it
    every day). Everything up to the reported values runs on the garden
    scaled to integers.
    """
    config = config or DEFAULT_CONFIG
    garden = scaled(instance, config)
    bound = garden.lower_bound
    rho = garden.density
    guarantee = bound if instance.n == 1 else config.factor * bound
    rounded = split = dec = norm = None
    certified = False

    if instance.n == 1:
        schedule = PeriodicSchedule((ScheduleEntry(0, 1, 1),))
    elif config.factor == 2:
        rounded = specialize_instance(garden.floors(), 2)
        schedule = schedule_chain(ChainInstance(rounded))
    else:
        split = split_23(garden.floors())
        dec = decompose(split)
        norm = normalize(dec, split)
        certified = certificate(norm, rho)
        schedule = interleave(norm)

    entries = schedule.entries
    assert all(e.offset <= e.cycle for e in entries)
    assert schedule.jobs == tuple(range(instance.n))
    # job i peaks at h_i * max(offset, cycle), that is a_i * max(offset, cycle) / D
    height = Fraction(max(a * max(e.offset, e.cycle) for a, e in zip(garden.rates, entries)), garden.scale)
    assert height <= guarantee
    return Solution(
        schedule=schedule,
        lower_bound=bound,
        height_bound=height,
        guarantee=guarantee,
        config=config,
        instance=instance,
        density=rho,
        rounded=rounded,
        split=split,
        decomposition=dec,
        normalized=norm,
        certified=certified,
    )
