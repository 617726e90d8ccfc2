"""Independent checks on periodic schedules, and a tri-state verdict.

Nothing here trusts the builders. Four exact checks decide, in integers
and close to linear in the schedule's int columns: collisions by
congruence arithmetic, job coverage, windows (offsets and cycles against
the int floors of the periods) and heights by the closed form
h * max(offset, cycle), `int` for an integer garden.

A cross-check must agree with the collision check before the verdict is
`ok`. It is a second algorithm over the same congruence fact (o1 + k*t1
and o2 + k*t2 meet iff o1 = o2 mod gcd(t1, t2)), not a second proof: the
chain check, with no horizon, where the cycles form divides chains (every
solver schedule: B' on odd days and C' on even days are each a chain, as
in Holte et al. 1989 and Chan and Chin 1992); otherwise, or when a
horizon is given, the calendar of `simulate`, complete only when its
horizon covers every pair. The verdict is `failed` when an exact check
fails or a cross-check disagrees, `ok` when the exact checks pass and a
complete cross-check agrees, and `inconclusive` otherwise. The calendar's
peaks come from the same gap arithmetic as the closed form, so it does not
cross-check the heights.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from operator import add, gt
from typing import AbstractSet, Iterable

from .model import BgtInstance, InvalidInstance, PeriodicSchedule, PseudoInstance, record
from .reduction import ScaledGarden

DEFAULT_HORIZON_CAP = 10**6

# translate table for one more cut on a calendar day: 0 -> 1, 1 and up -> 2
_INC = bytes([1] + [2] * 255)


class HorizonOverflow(InvalidInstance):
    """Requested simulation horizon exceeds DEFAULT_HORIZON_CAP."""


@record
class Collision:
    job_a: int
    job_b: int
    day: int


@record
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
    per (cycle, g), reduced from the set modulo 2g when that is built and
    from the cycle's residues otherwise; the cycles meet from the largest
    down, so on the solver's doubling grids the set modulo 2g usually
    is), and only a pair of cycles that shares a class is searched for its
    colliding entries. For K distinct cycles that is K^2 / 2 set tests,
    one pass over at most a cycle's residues per other gcd it has
    (O(K * n) at worst), and work in proportion to the collisions.
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
            # the set modulo 2g, once built, has the residues modulo g of all
            # the cycle's residues and is at most 2g long
            source = classes.get((cycle, 2 * g)) or groups[cycle]
            cached = classes[cycle, g] = frozenset(r % g for r in source)
        return cached

    # larger cycles first: each cycle meets the others from the largest down,
    # so on a doubling grid its set modulo 2g is built before the one modulo g
    for (c1, residues1), (c2, residues2) in itertools.combinations(sorted(groups.items(), reverse=True), 2):
        g = math.gcd(c1, c2)
        # only c2 < c1 can give its own residues, a dict view, which
        # isdisjoint would scan in full as the argument
        if residue_classes(c2, g).isdisjoint(residue_classes(c1, g)):
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


def _divides_chain(descending: list[int]) -> bool:
    return all(a % b == 0 for a, b in zip(descending, descending[1:]))


def _chain_check(schedule: PeriodicSchedule) -> bool | None:
    """Whether no two entries ever meet, decided without a horizon; None
    when the cycles have no chain structure.

    The entries form one class when the distinct cycles are a divides
    chain, or else, when every cycle is even, two classes by offset parity:
    2 divides every gcd, so entries of opposite parity never meet. The
    cycles of each class must be a divides chain. Within one, entries with
    cycles c | C meet iff the residue modulo C, reduced modulo c, is the
    other's residue. So from the largest cycle down, the residues of the
    larger cycles are reduced modulo each smaller one (a set of at most c
    members) and tested against its own, which must be distinct.
    """
    offsets, cycles = schedule.offsets, schedule.cycles
    distinct = sorted(set(cycles), reverse=True)
    if _divides_chain(distinct):
        parity = 0
    elif not any(c & 1 for c in distinct):
        parity = 1
    else:
        return None
    classes: tuple[defaultdict[int, list[int]], ...] = (defaultdict(list), defaultdict(list))
    for c, o in zip(cycles, offsets):
        classes[o & parity][c].append(o)
    chains = [sorted(by_cycle, reverse=True) for by_cycle in classes]
    if not all(map(_divides_chain, chains)):
        return None
    for by_cycle, chain in zip(classes, chains):
        taken: set[int] = set()
        for c in chain:
            own = by_cycle[c]
            mine = set(map(c.__rmod__, own))
            taken = set(map(c.__rmod__, taken))
            if len(mine) < len(own) or not taken.isdisjoint(mine):
                return False
            taken |= mine
    return True


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


@record
class WindowViolation:
    job: int
    offset: int
    cycle: int
    floor: int


def _first_window_violation(schedule: PeriodicSchedule, pseudo: PseudoInstance | ScaledGarden) -> WindowViolation:
    """The lowest job whose offset or cycle passes its floor, for a schedule
    that covers the jobs and fails `check_windows`."""
    rows = zip(schedule.jobs, schedule.offsets, schedule.cycles, pseudo.floors())
    return next(WindowViolation(*row) for row in rows if row[1] > row[3] or row[2] > row[3])


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


def _check_jobs_within(schedule: PeriodicSchedule, n: int) -> None:
    jobs = schedule.jobs
    # jobs are sorted: if any job is outside the instance, the last is
    if jobs and jobs[-1] >= n:
        job = next(job for job in jobs if job >= n)
        raise InvalidInstance(f"schedule mentions job {job} outside the instance")


@record
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
    _check_jobs_within(schedule, n)
    jobs = schedule.jobs
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


@record
class VerificationReport:
    collisions: CollisionReport
    chain_collision_free: bool | None
    jobs_ok: bool
    windows_ok: bool | None
    window_violation: WindowViolation | None
    peaks: tuple[int | Fraction, ...] | None
    analytic_max: Fraction | None
    sim: SimReport | None
    gaps_seen: int
    pairs_covered: bool
    lower_bound: Fraction | None
    ratio: Fraction | None

    @property
    def horizon_conclusive(self) -> bool:
        """The calendar ran and its horizon saw every job's first gap and
        cycle; False when it did not run."""
        return self.sim is not None and self.jobs_ok and self.gaps_seen == len(self.peaks)

    @property
    def verdict(self) -> str:
        if not (self.collisions.ok and self.jobs_ok and self.windows_ok is not False):
            return "failed"
        # the exact check found no collision, so a cross-check that found one disagrees
        if self.chain_collision_free is False or (self.sim is not None and self.sim.double_booked_days):
            return "failed"
        if self.chain_collision_free or self.pairs_covered:
            return "ok"
        return "inconclusive"

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    def to_obj(self) -> dict:
        verdict = self.verdict
        obj = {
            "verdict": verdict,
            "ok": verdict == "ok",
            "collision_free": self.collisions.ok,
            "collisions": [
                {"job_a": c.job_a, "job_b": c.job_b, "day": c.day} for c in self.collisions.collisions
            ],
            "chain_collision_free": self.chain_collision_free,
            "jobs_ok": self.jobs_ok,
            "windows_ok": self.windows_ok,
        }
        v = self.window_violation
        if v is not None:
            obj["window_violation"] = {"job": v.job, "offset": v.offset, "cycle": v.cycle, "floor": v.floor}
        # str(int) == str(Fraction(int)): an int peak prints as its Fraction would
        obj["per_job_heights"] = None if self.peaks is None else list(map(str, self.peaks))
        obj["analytic_max_height"] = None if self.analytic_max is None else str(self.analytic_max)
        sim = self.sim
        if sim is not None:
            obj["simulation"] = {
                "horizon": sim.horizon,
                "gaps_seen": self.gaps_seen,
                "pairs_covered": self.pairs_covered,
                "max_height": str(sim.max_height),
                "argmax_day": sim.argmax_day,
                "argmax_job": sim.argmax_job,
                "double_booked_days": list(sim.double_booked_days),
            }
        obj["lower_bound"] = None if self.lower_bound is None else str(self.lower_bound)
        obj["ratio_vs_lower_bound"] = None if self.ratio is None else str(self.ratio)
        return obj


def _lcm_within(cycles: Iterable[int], limit: int) -> int | None:
    """The lcm of the cycles, or None once it passes `limit`. It is folded
    one distinct cycle at a time and given up as soon as it passes: it
    only grows from there, and the full lcm of thousands of coprime cycles
    is a huge integer."""
    hyperperiod = 1
    for cycle in set(cycles):
        hyperperiod = math.lcm(hyperperiod, cycle)
        if hyperperiod > limit:
            return None
    return hyperperiod


def default_horizon(schedule: PeriodicSchedule) -> int:
    """max offset + two hyperperiods (lcm of the cycles), capped at
    DEFAULT_HORIZON_CAP; enough to witness every gap and every shared day."""
    if not schedule.jobs:
        return 1
    start = max(schedule.offsets)
    hyperperiod = _lcm_within(schedule.cycles, (DEFAULT_HORIZON_CAP - start - 1) // 2)
    return DEFAULT_HORIZON_CAP if hyperperiod is None else start + 2 * hyperperiod


def evaluate(
    instance: BgtInstance,
    schedule: PeriodicSchedule,
    pseudo: PseudoInstance | ScaledGarden | None = None,
    lower_bound_value: Fraction | None = None,
    horizon: int | None = None,
) -> VerificationReport:
    """Run every check against one schedule and bundle the outcome; the
    peaks stay native, and only the maximum and the ratio are Fractions.
    The calendar runs only when a `horizon` is given or the cycles have no
    chain structure (then up to `default_horizon`). Entries that meet do so
    by their max offset + lcm - 1, so it covers every pair when the max
    offset + the lcm of all the cycles - 1 fits its horizon."""
    _check_jobs_within(schedule, instance.n)
    collisions = check_collisions(schedule)
    chain = _chain_check(schedule)
    jobs_ok = schedule.covers(instance.n)
    windows_ok: bool | None = None
    violation = None
    if pseudo is not None:
        windows_ok = check_windows(schedule, pseudo) if jobs_ok else False
        if jobs_ok and not windows_ok:
            violation = _first_window_violation(schedule, pseudo)
    peaks: tuple[int | Fraction, ...] | None = None
    analytic: Fraction | None = None
    if jobs_ok:
        peaks = tuple(_peak_heights(schedule, instance))
        analytic = Fraction(max(peaks))
    sim = None
    gaps_seen = 0
    pairs_covered = False
    if horizon is not None or chain is None:
        if horizon is None:
            horizon = default_horizon(schedule)
        sim = simulate(schedule, instance, horizon)
        offsets, cycles = schedule.offsets, schedule.cycles
        gaps_seen = sum(map(horizon.__ge__, map(add, offsets, cycles)))
        pairs_covered = not offsets or _lcm_within(cycles, horizon + 1 - max(offsets)) is not None
    ratio = None
    if lower_bound_value is not None and analytic is not None:
        ratio = analytic / lower_bound_value
    return VerificationReport(
        collisions=collisions,
        chain_collision_free=chain,
        jobs_ok=jobs_ok,
        windows_ok=windows_ok,
        window_violation=violation,
        peaks=peaks,
        analytic_max=analytic,
        sim=sim,
        gaps_seen=gaps_seen,
        pairs_covered=pairs_covered,
        lower_bound=lower_bound_value,
        ratio=ratio,
    )
