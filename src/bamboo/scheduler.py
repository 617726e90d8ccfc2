"""Constructive schedulers: divides chains, odd/even interleave, solve.

A multiset of periods where each distinct value divides the next (a
divides chain) with density at most 1 always admits a collision-free
schedule in which every job's cycle equals its period. Sorted densest
first, the jobs cut into at most p_min consecutive bins of density 1/p_min,
each exactly full except the last. Bin j takes the days congruent to j mod
p_min, and its own jobs are cut the same way within those days.

Rounded two-grid states are combined by parity: the B' chain (after
halving) runs on odd days, the C' chain on even days. The certificate
y <= 1 guarantees both sides fit their half of the calendar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    BgtInstance,
    JobPeriod,
    PeriodicSchedule,
    ScheduleEntry,
    lower_bound,
)
from .reduction import ReductionConfig, bgt_to_pseudo
from .rounding import (
    CertificateViolation,
    NormalizedState,
    certificate,
    decompose,
    normalize,
    specialize_instance,
    split_23,
)
from .verifier import max_heights


class NotAChain(ValueError):
    """Periods do not form a divides chain."""


class Overdense(ValueError):
    """Density exceeds 1, so no schedule can serve every job in time."""


@dataclass(frozen=True)
class ChainInstance:
    """Jobs with integral periods forming a divides chain of density <= 1.

    Stored sorted by (period, job id); validation happens on construction,
    in integers, so the scheduling pass below can take both properties for
    granted. With P the largest period, density <= 1 reads
    sum(P // p) <= P, exact because every period divides P.
    """

    jobs: tuple[JobPeriod, ...]

    def __post_init__(self) -> None:
        jobs = tuple(sorted(self.jobs, key=lambda jp: (jp.period, jp.job)))
        object.__setattr__(self, "jobs", jobs)
        for jp in jobs:
            if not isinstance(jp.period, int) or jp.period < 1:
                raise NotAChain(f"period {jp.period!r} is not a positive integer")
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


def schedule_chain(chain: ChainInstance) -> PeriodicSchedule:
    """Collision-free schedule with cycle == period for every chain job.

    One pass over a stack of (jobs, offset, step) frames: a frame owns the
    days congruent to offset mod step, and bin j of its jobs takes the days
    offset + j * step mod the period of the frame's first job. A job alone
    in its bin owns those days outright.
    """
    p_min = chain.jobs[0].period if chain.jobs else 1
    frames = [(b, 1 + j, p_min) for j, b in enumerate(partition_bins(chain))]
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
    return PeriodicSchedule(tuple(ScheduleEntry(jp.job, offset, jp.period) for jp, offset in leaves))


def interleave(norm: NormalizedState) -> PeriodicSchedule:
    """Schedule B' on odd days and C' on even days.

    When either side is empty the other side's chain gets the whole
    calendar. A lone period-3 job in C' (the only way a 3 survives the
    density budget) is pinned to every even day.
    """
    if norm.y > 1:
        raise CertificateViolation(f"certificate y = {norm.y} exceeds 1; interleave has no calendar for this")
    bp, cp = norm.bp, norm.cp
    if not bp and not cp:
        return PeriodicSchedule(())
    if not cp:
        return schedule_chain(ChainInstance(bp))
    if not bp:
        return schedule_chain(ChainInstance(cp))
    if norm.rho_bp > Fraction(1, 2) or norm.rho_cp > Fraction(1, 3):
        raise CertificateViolation(
            f"mixed state too dense to interleave: rho(B') = {norm.rho_bp}, rho(C') = {norm.rho_cp}"
        )
    entries: list[ScheduleEntry] = []
    halved_b = ChainInstance(tuple(JobPeriod(jp.job, jp.period // 2) for jp in bp))
    for e in schedule_chain(halved_b).entries:
        entries.append(ScheduleEntry(e.job, 2 * e.offset - 1, 2 * e.cycle))
    if any(jp.period == 3 for jp in cp):
        assert len(cp) == 1, "a period-3 job only fits the density budget alone"
        entries.append(ScheduleEntry(cp[0].job, 2, 2))
    else:
        halved_c = ChainInstance(tuple(JobPeriod(jp.job, jp.period // 2) for jp in cp))
        for e in schedule_chain(halved_c).entries:
            entries.append(ScheduleEntry(e.job, 2 * e.offset, 2 * e.cycle))
    return PeriodicSchedule(tuple(entries))


@dataclass(frozen=True)
class Solution:
    """A schedule plus its exact accounting: the lower bound L used, the
    analytic max height actually reached, and the promised ceiling
    guarantee = factor * L (equal to L itself for a single bamboo)."""

    schedule: PeriodicSchedule
    lower_bound: Fraction
    height_bound: Fraction
    guarantee: Fraction
    config: ReductionConfig
    trace: dict


def _jp_list(items: tuple[JobPeriod, ...]) -> list[dict]:
    return [{"job": jp.job, "period": jp.period} for jp in items]


def solve(instance: BgtInstance, config: ReductionConfig | None = None) -> Solution:
    """Full pipeline: reduce, round, normalize, certify, interleave.

    factor 2 skips the two-grid machinery and rounds everything onto
    powers of two; a single bamboo skips the reduction entirely (cut it
    every day).
    """
    config = config or ReductionConfig()
    bound = lower_bound(instance, config.lb_mode)

    if instance.n == 1:
        schedule = PeriodicSchedule((ScheduleEntry(0, 1, 1),))
        trace = {"path": "single-bamboo", "lower_bound": str(bound), "factor": str(config.factor)}
        guarantee = bound
    else:
        guarantee = config.factor * bound
        pseudo = bgt_to_pseudo(instance, config)
        rho = pseudo.density
        trace = {
            "lower_bound": str(bound),
            "factor": str(config.factor),
            "pseudo_periods": [str(p) for p in pseudo.periods],
            "density": str(rho),
        }
        if config.factor == 2:
            rounded = specialize_instance(pseudo, 2)
            schedule = schedule_chain(ChainInstance(rounded))
            trace["path"] = "power-of-two"
            trace["rounded"] = _jp_list(rounded)
        else:
            state = split_23(pseudo)
            dec = decompose(state)
            norm = normalize(dec, state)
            cert = certificate(norm, rho)
            schedule = interleave(norm)
            trace.update(
                {
                    "path": "two-three",
                    "a2_jobs": sorted(jp.job for jp in state.b),
                    "a3_jobs": sorted(jp.job for jp in state.c),
                    "b": _jp_list(state.b),
                    "c": _jp_list(state.c),
                    "r": dec.r,
                    "s": dec.s,
                    "p": _jp_list(dec.p),
                    "q": _jp_list(dec.q),
                    "case": norm.case,
                    "b_prime": _jp_list(norm.bp),
                    "c_prime": _jp_list(norm.cp),
                    "y": str(norm.y),
                    "certificate_checked": cert.checked,
                }
            )

    assert all(e.offset <= e.cycle for e in schedule.entries)
    height = max(max_heights(schedule, instance))
    assert height <= guarantee
    return Solution(
        schedule=schedule,
        lower_bound=bound,
        height_bound=height,
        guarantee=guarantee,
        config=config,
        trace=trace,
    )
