"""Independent checks on periodic schedules.

Nothing here trusts the builders: collisions are decided by congruence
arithmetic, heights by the closed form h * max(offset, cycle), and both
are cross-checked by a simulation over a finite horizon (`simulate`, one
byte of calendar per day). Every check reads the schedule's int columns
(`jobs`, `offsets`, `cycles`, sorted by job) and is close to linear in
their length but the simulation: collisions are searched only between
cycles whose residue classes meet, and the job set is 0..n-1 when there
are n jobs and the last is n - 1. The checks decide in integers: windows
compare offsets and cycles with the int floors of the periods, and the
per-job peaks stay `int` for an integer garden; a report builds
`Fraction`s only for its maximum and ratio.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, gt
from typing import AbstractSet

from .model import BgtInstance, InvalidInstance, PeriodicSchedule, PseudoInstance
from .reduction import ScaledGarden

DEFAULT_HORIZON_CAP = 10**6

# translate table for one more cut on a calendar day: 0 -> 1, 1 and up -> 2
_INC = bytes([1] + [2] * 255)


class HorizonOverflow(InvalidInstance):
    """Requested simulation horizon exceeds DEFAULT_HORIZON_CAP."""


@dataclass(frozen=True)
class Collision:
    job_a: int
    job_b: int
    day: int


@dataclass(frozen=True)
class CollisionReport:
    collisions: tuple[Collision, ...]

    @property
    def ok(self) -> bool:
        return not self.collisions


def _earliest_shared_day(o1: int, t1: int, o2: int, t2: int) -> int | None:
    """Smallest day in both progressions o + k*t, or None if they miss.

    The progressions intersect iff o1 == o2 (mod gcd(t1, t2)); the day
    itself comes from combining the two congruences.
    """
    g = math.gcd(t1, t2)
    if (o2 - o1) % g != 0:
        return None
    l = t1 // g * t2
    m2 = t2 // g
    k = ((o2 - o1) // g * pow(t1 // g, -1, m2)) % m2 if m2 > 1 else 0
    day = o1 + k * t1
    start = max(o1, o2)
    if day < start:
        day += (start - day + l - 1) // l * l
    return day


def check_collisions(schedule: PeriodicSchedule) -> CollisionReport:
    """Every pair of entries that ever cuts on the same day, in entry order,
    each with the earliest such day.

    Two entries meet iff their offsets agree modulo the gcd of their cycles,
    so entries are grouped by cycle and then by offset % cycle: within a
    cycle, equal residues collide. Across two cycles with gcd g, the sets
    of their residues modulo g are tested for a common class first (a
    cycle's own residues when g is the cycle, otherwise a set built once
    per (cycle, g)), and only a pair of cycles that shares a class is
    searched for its colliding entries. For K distinct cycles that is
    K^2 / 2 set tests, one pass over a cycle's residues per other gcd it
    has (O(K * n) at worst), and work in proportion to the collisions.
    """
    jobs, offsets, cycles = schedule.jobs, schedule.offsets, schedule.cycles
    groups: dict[int, dict[int, list[int]]] = {}
    for i, (o, c) in enumerate(zip(offsets, cycles)):
        groups.setdefault(c, {}).setdefault(o % c, []).append(i)
    pairs: list[tuple[int, int]] = []
    for residues in groups.values():
        for bucket in residues.values():
            if len(bucket) > 1:
                pairs.extend(itertools.combinations(bucket, 2))
    classes: dict[tuple[int, int], frozenset[int]] = {}

    def residue_classes(cycle: int, g: int) -> AbstractSet[int]:
        if g == cycle:
            return groups[cycle].keys()
        cached = classes.get((cycle, g))
        if cached is None:
            cached = classes[cycle, g] = frozenset(r % g for r in groups[cycle])
        return cached

    for (c1, residues1), (c2, residues2) in itertools.combinations(groups.items(), 2):
        g = math.gcd(c1, c2)
        if residue_classes(c1, g).isdisjoint(residue_classes(c2, g)):
            continue
        by_class: dict[int, list[int]] = {}
        for r, bucket in residues1.items():
            by_class.setdefault(r % g, []).extend(bucket)
        for r, bucket in residues2.items():
            for i in by_class.get(r % g, ()):
                pairs.extend((i, j) if i < j else (j, i) for j in bucket)
    pairs.sort()
    found = []
    for i, j in pairs:
        day = _earliest_shared_day(offsets[i], cycles[i], offsets[j], cycles[j])
        found.append(Collision(jobs[i], jobs[j], day))
    return CollisionReport(tuple(found))


def check_windows(schedule: PeriodicSchedule, pseudo: PseudoInstance | ScaledGarden) -> bool:
    """True iff every job fits its fractional window: offset and cycle both
    at most floor(p_i). That is exactly what keeps bamboo i at or below
    h_i * p_i forever. `pseudo` is read through `n` and `floors()` alone,
    so a `PseudoInstance` and a `ScaledGarden` (as `bamboo verify` passes
    it) give the same answer; once the jobs are 0..n-1, the floors line up
    with the columns and two native passes compare ints."""
    jobs = schedule.jobs
    if not schedule.covers(pseudo.n):
        span = f" (jobs {jobs[0]} to {jobs[-1]})" if jobs else ""
        raise InvalidInstance(f"schedule has {len(jobs)} entries{span} but the pseudo-instance has {pseudo.n} jobs")
    floors = pseudo.floors()
    return not (any(map(gt, schedule.offsets, floors)) or any(map(gt, schedule.cycles, floors)))


def _peak_heights(schedule: PeriodicSchedule, instance: BgtInstance) -> list[int | Fraction]:
    # the one home of the height formula: job i peaks at h_i * max(offset,
    # cycle), an int for an integer rate
    rates = instance.rates
    return [rates[j] * (o if o > c else c) for j, o, c in zip(schedule.jobs, schedule.offsets, schedule.cycles)]


def _repeat(view: memoryview, period: int, end: int) -> None:
    """Repeat view[:period] up to view[:end], doubling the copied span each step."""
    while period < end:
        step = period if 2 * period <= end else end - period
        view[period : period + step] = view[:step]
        period += step


@dataclass(frozen=True)
class SimReport:
    max_height: Fraction
    argmax_day: int
    argmax_job: int | None
    double_booked_days: tuple[int, ...]
    horizon: int


def simulate(
    schedule: PeriodicSchedule,
    instance: BgtInstance,
    horizon: int,
) -> SimReport:
    """Cut the garden up to `horizon` days and report the tallest bamboo.

    Heights are observed at the end of each day just before cutting, so a
    bamboo's local maxima occur exactly at its own cut days and at the
    horizon. Every cut is marked on a calendar of one byte per day, and a
    day holding two or more cuts is reported instead of silently merged.
    A job's gaps between cuts are its offset (the first cut), then its
    cycle (from the second cut on, if that falls within the horizon), then
    the tail from its last cut to the horizon; a job with no cut up to the
    horizon, or none in the schedule, has a tail of `horizon`.

    An entry with offset <= cycle is cut on every day >= 1 that is
    congruent to its offset modulo its cycle, so the marks of such entries
    repeat with the lcm of their cycles. Their distinct cycles are taken in
    ascending order while the running lcm fits in horizon + 1 days: the
    marked period is copied forward to the new lcm, and each residue of
    the cycle is marked once on it. That period is then copied out to the
    horizon, day 0 (which stands for the day the period ends) is cleared,
    and the remaining entries (cycles that would carry the lcm past the
    horizon, and offsets past their cycle) are marked over the whole
    horizon one by one. The copies are slice copies within the calendar,
    so memory stays one byte per day.

    Ties: `argmax` is the first (day, job) in calendar order whose cut
    reaches the maximum; a tail wins only if strictly higher than every
    cut, and among tails the lowest job id wins.
    """
    if horizon < 1:
        raise InvalidInstance(f"horizon must be at least 1, got {horizon}")
    if horizon > DEFAULT_HORIZON_CAP:
        raise HorizonOverflow(f"horizon {horizon} exceeds the cap of {DEFAULT_HORIZON_CAP} days")
    n = instance.n
    jobs = schedule.jobs
    # jobs are sorted: if any job is outside the instance, the last is
    if jobs and jobs[-1] >= n:
        job = next(job for job in jobs if job >= n)
        raise InvalidInstance(f"schedule mentions job {job} outside the instance")

    rates = instance.rates
    cal = bytearray(horizon + 1)
    tails = [horizon] * n
    best = 0
    best_day = 0
    best_job: int | None = None
    # offsets by cycle: an entry with offset <= cycle is cut on every day
    # >= 1 that is = offset (mod cycle), a late one only from its offset on
    periodic: dict[int, list[int]] = {}
    late: dict[int, list[int]] = {}
    for job, o, c in zip(jobs, schedule.offsets, schedule.cycles):
        if o > horizon:
            continue
        if o > c:
            late.setdefault(c, []).append(o)
        elif c in periodic:
            periodic[c].append(o)
        else:
            periodic[c] = [o]
        cuts_after_first = (horizon - o) // c
        gap, day = (c, o + c) if cuts_after_first and c > o else (o, o)
        h = rates[job] * gap
        # entries come in job order, so an equal cut wins only on an earlier day
        if h > best or (h == best and day < best_day):
            best, best_day, best_job = h, day, job
        tail = horizon - o - cuts_after_first * c
        # a tail no longer than the job's own cut gap cannot beat every cut
        tails[job] = tail if tail > gap else 0
    for job, tail in enumerate(tails):
        if tail:
            h = rates[job] * tail
            if h > best:
                best, best_day, best_job = h, horizon, job

    if periodic:
        # day 0 stands for the day the period ends; the blank calendar
        # repeats with any period, so the first is the smallest cycle
        cycles = sorted(periodic)
        period = cycles[0]
        view = memoryview(cal)
        for c in cycles:
            wider = math.lcm(period, c)
            if wider > horizon + 1:
                break
            _repeat(view, period, wider)
            period = wider
            for o in periodic.pop(c):
                r = o % c
                cal[r:period:c] = cal[r:period:c].translate(_INC)
        _repeat(view, period, horizon + 1)
        view.release()
        cal[0] = 0
    # the cycles that would carry the period past the horizon, and late entries
    for group in (periodic, late):
        for c, offsets in group.items():
            for o in offsets:
                cal[o::c] = cal[o::c].translate(_INC)

    doubled: list[int] = []
    day = cal.find(2)
    while day != -1:
        doubled.append(day)
        day = cal.find(2, day + 1)
    return SimReport(
        max_height=Fraction(best),
        argmax_day=best_day,
        argmax_job=best_job,
        double_booked_days=tuple(doubled),
        horizon=horizon,
    )


@dataclass(frozen=True)
class VerificationReport:
    collisions: CollisionReport
    jobs_ok: bool
    windows_ok: bool | None
    peaks: tuple[int | Fraction, ...] | None
    analytic_max: Fraction | None
    sim: SimReport
    sim_matches: bool | None
    horizon_conclusive: bool
    lower_bound: Fraction | None
    ratio: Fraction | None

    @property
    def ok(self) -> bool:
        return (
            self.collisions.ok
            and self.jobs_ok
            and self.windows_ok is not False
            and not self.sim.double_booked_days
            and self.sim_matches is not False
        )

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "collision_free": self.collisions.ok,
            "collisions": [
                {"job_a": c.job_a, "job_b": c.job_b, "day": c.day} for c in self.collisions.collisions
            ],
            "jobs_ok": self.jobs_ok,
            "windows_ok": self.windows_ok,
            # str(int) == str(Fraction(int)): an int peak prints as its Fraction would
            "per_job_heights": None if self.peaks is None else list(map(str, self.peaks)),
            "analytic_max_height": None if self.analytic_max is None else str(self.analytic_max),
            "simulated_max_height": str(self.sim.max_height),
            "sim_matches_analytic": self.sim_matches,
            "argmax_day": self.sim.argmax_day,
            "argmax_job": self.sim.argmax_job,
            "double_booked_days": list(self.sim.double_booked_days),
            "horizon": self.sim.horizon,
            "horizon_conclusive": self.horizon_conclusive,
            "lower_bound": None if self.lower_bound is None else str(self.lower_bound),
            "ratio_vs_lower_bound": None if self.ratio is None else str(self.ratio),
        }


def default_horizon(schedule: PeriodicSchedule) -> int:
    """max offset + two hyperperiods (lcm of the cycles), capped at
    DEFAULT_HORIZON_CAP; enough to witness every gap.

    The lcm is folded one distinct cycle at a time and given up as soon as
    it alone carries the horizon to the cap: it only grows from there, and
    the full lcm of thousands of coprime cycles is a huge integer.
    """
    if not schedule.jobs:
        return 1
    start = max(schedule.offsets)
    hyperperiod = 1
    for cycle in set(schedule.cycles):
        hyperperiod = math.lcm(hyperperiod, cycle)
        if start + 2 * hyperperiod >= DEFAULT_HORIZON_CAP:
            return DEFAULT_HORIZON_CAP
    return start + 2 * hyperperiod


def evaluate(
    instance: BgtInstance,
    schedule: PeriodicSchedule,
    pseudo: PseudoInstance | ScaledGarden | None = None,
    lower_bound_value: Fraction | None = None,
    horizon: int | None = None,
) -> VerificationReport:
    """Run every check against one schedule and bundle the outcome. The
    peaks stay native (`int` for an integer garden); only the maximum and
    the ratio are built as Fractions."""
    collisions = check_collisions(schedule)
    jobs_ok = schedule.covers(instance.n)
    windows_ok: bool | None = None
    if pseudo is not None:
        windows_ok = check_windows(schedule, pseudo) if jobs_ok else False
    peaks: tuple[int | Fraction, ...] | None = None
    analytic: Fraction | None = None
    if jobs_ok:
        peaks = tuple(_peak_heights(schedule, instance))
        analytic = Fraction(max(peaks))
    if horizon is None:
        horizon = default_horizon(schedule)
    sim = simulate(schedule, instance, horizon)
    # jobs_ok means one entry per bamboo, so at least one
    conclusive = jobs_ok and max(map(add, schedule.offsets, schedule.cycles)) <= horizon
    sim_matches: bool | None = None
    if conclusive and analytic is not None:
        sim_matches = sim.max_height == analytic
    ratio = None
    if lower_bound_value is not None and analytic is not None:
        ratio = analytic / lower_bound_value
    return VerificationReport(
        collisions=collisions,
        jobs_ok=jobs_ok,
        windows_ok=windows_ok,
        peaks=peaks,
        analytic_max=analytic,
        sim=sim,
        sim_matches=sim_matches,
        horizon_conclusive=conclusive,
        lower_bound=lower_bound_value,
        ratio=ratio,
    )
