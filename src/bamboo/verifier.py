"""Independent checks on periodic schedules, and a tri-state verdict.

Nothing here trusts the builders. Four exact checks decide, in integers
and close to linear in the schedule's int columns: collisions by
congruence arithmetic, job coverage, windows (offsets and cycles against
the int floors of the periods) and heights by the closed form
h * max(offset, cycle), `int` for an integer garden, from the one home of
the height rule, `PeriodicSchedule.peaks`. The collision check and the
chain check read one residue table, which `evaluate` builds once: per
cycle, its entries, their residues offset % cycle and whether one repeats.

A cross-check must agree with the collision check before the verdict is
`ok`. It is a second algorithm over the same congruence fact (o1 + k*t1
and o2 + k*t2 meet iff o1 = o2 mod gcd(t1, t2)), not a second proof: the
chain check, with no horizon, where the cycles form divides chains (every
solver schedule: B' on odd days and C' on even days are each a chain, as
in Holte et al. 1989 and Chan and Chin 1992); otherwise a calendar of the
cuts, one slice per entry, up to a horizon derived from the schedule,
complete only when that horizon is not capped. The verdict is `failed`
when an exact check fails or a cross-check disagrees, `ok` when the exact
checks pass and a complete cross-check agrees, and `inconclusive`
otherwise.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from operator import gt, mod
from typing import AbstractSet

from .model import BgtInstance, InvalidInstance, PeriodicSchedule, PseudoInstance, record
from .reduction import ScaledGarden

DEFAULT_HORIZON_CAP = 10**6

# translate table for one more cut on a calendar day: 0 -> 1, 1 and up -> 2
_INC = bytes([1] + [2] * 255)


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


_Table = tuple[list[int], dict[int, tuple[list[int], set[int], bool]]]


def _residue_table(schedule: PeriodicSchedule) -> _Table:
    """The residue offset % cycle of each entry, and per cycle the indices
    of its entries in entry order, the set of their residues and whether a
    residue repeats: one pass over the int columns, read by the collision
    check and the chain check alike."""
    residues = list(map(mod, schedule.offsets, schedule.cycles))
    members: defaultdict[int, list[int]] = defaultdict(list)
    for i, c in enumerate(schedule.cycles):
        members[c].append(i)
    table = {}
    for c, indices in members.items():
        own = set(map(residues.__getitem__, indices))
        table[c] = (indices, own, len(own) < len(indices))
    return residues, table


def check_collisions(schedule: PeriodicSchedule, table: _Table | None = None) -> CollisionReport:
    """Every pair of entries that ever cuts on the same day, in entry order,
    each with the earliest such day.

    Two entries meet iff their offsets agree modulo the gcd of their cycles,
    so the check reads the schedule's residue table (`evaluate` passes the
    one it builds): within a cycle, equal residues collide. Across two
    cycles with gcd g, the sets of their residues modulo g are tested for a
    common class first (a cycle's own residues when g is the cycle,
    otherwise a set built once per (cycle, g), reduced from the set modulo
    2g when that is built and from the cycle's residues otherwise; the
    cycles meet from the largest down, so on the solver's doubling grids
    the set modulo 2g usually is), and only a pair of cycles that shares a
    class is searched for its colliding entries, in lists of entries built
    for that pair alone. For K distinct cycles that is K^2 / 2 set tests,
    one pass over at most a cycle's residues per other gcd it has
    (O(K * n) at worst), and work in proportion to the collisions.
    """
    residues, by_cycle = table or _residue_table(schedule)
    pairs: list[tuple[int, int]] = []
    for indices, _, repeats in by_cycle.values():
        if repeats:
            buckets: dict[int, list[int]] = {}
            for i in indices:
                buckets.setdefault(residues[i], []).append(i)
            for bucket in buckets.values():
                pairs.extend(itertools.combinations(bucket, 2))
    classes: dict[tuple[int, int], frozenset[int]] = {}

    def residue_classes(cycle: int, g: int) -> AbstractSet[int]:
        if g == cycle:
            return by_cycle[cycle][1]
        cached = classes.get((cycle, g))
        if cached is None:
            # the set modulo 2g, once built, has the residues modulo g of all
            # the cycle's residues and is at most 2g long
            source = classes.get((cycle, 2 * g)) or by_cycle[cycle][1]
            cached = classes[cycle, g] = frozenset(map(g.__rmod__, source))
        return cached

    # larger cycles first: each cycle meets the others from the largest down,
    # so on a doubling grid its set modulo 2g is built before the one modulo g
    for c1, c2 in itertools.combinations(sorted(by_cycle, reverse=True), 2):
        g = math.gcd(c1, c2)
        if residue_classes(c2, g).isdisjoint(residue_classes(c1, g)):
            continue
        by_class: dict[int, list[int]] = {}
        for i in by_cycle[c1][0]:
            by_class.setdefault(residues[i] % g, []).append(i)
        for j in by_cycle[c2][0]:
            for i in by_class.get(residues[j] % g, ()):
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    jobs, offsets, cycles = schedule.jobs, schedule.offsets, schedule.cycles
    found = []
    for i, j in pairs:
        day = _earliest_shared_day(offsets[i], cycles[i], offsets[j], cycles[j])
        found.append(Collision(jobs[i], jobs[j], day))
    return CollisionReport(tuple(found))


def _divides_chain(descending: list[int]) -> bool:
    return all(a % b == 0 for a, b in zip(descending, descending[1:]))


def _chain_check(schedule: PeriodicSchedule, table: _Table | None = None) -> bool | None:
    """Whether no two entries ever meet, decided without a horizon; None
    when the cycles have no chain structure.

    The entries form one class when the distinct cycles are a divides
    chain, or else, when every cycle is even, two classes by residue (and
    so offset) parity: 2 divides every gcd, so entries of opposite parity
    never meet. The cycles of each class must be a divides chain. Within
    one, entries with cycles c | C meet iff the residue modulo C, reduced
    modulo c, is the other's residue. So from the largest cycle down, the
    residues of the larger cycles are reduced modulo each smaller one (a
    set of at most c members) and tested against its own, which must be
    distinct. It reads the collision check's residue table.
    """
    _, by_cycle = table or _residue_table(schedule)
    distinct = sorted(by_cycle, reverse=True)
    if _divides_chain(distinct):
        classes = [[(c, by_cycle[c][1]) for c in distinct]]
    elif not any(c & 1 for c in distinct):
        classes = [[], []]
        for c in distinct:
            own = by_cycle[c][1]
            odd = set(filter((1).__and__, own))
            for chain, mine in zip(classes, (own - odd, odd)):
                if mine:
                    chain.append((c, mine))
        if not all(_divides_chain([c for c, _ in chain]) for chain in classes):
            return None
    else:
        return None
    if any(repeats for _, _, repeats in by_cycle.values()):
        return False
    for chain in classes:
        taken: set[int] = set()
        for c, mine in chain:
            taken = set(map(c.__rmod__, taken))
            if not taken.isdisjoint(mine):
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


def _check_jobs_within(schedule: PeriodicSchedule, n: int) -> None:
    jobs = schedule.jobs
    # jobs are sorted: if any job is outside the instance, the last is
    if jobs and jobs[-1] >= n:
        job = next(job for job in jobs if job >= n)
        raise InvalidInstance(f"schedule mentions job {job} outside the instance")


def _double_booked_days(schedule: PeriodicSchedule, horizon: int) -> tuple[int, ...]:
    """The days from 1 to `horizon` that hold two or more cuts.

    Every cut is marked on a calendar of one byte per day: each entry
    marks the slice of its days offset, offset + cycle, ... up to the
    horizon, through one translation that counts 0, 1, many. The work is
    the number of cuts up to the horizon, and memory is the calendar plus
    one slice and its translation, at most 3 bytes per day.
    """
    cal = bytearray(horizon + 1)
    for o, c in zip(schedule.offsets, schedule.cycles):
        cal[o::c] = cal[o::c].translate(_INC)
    doubled: list[int] = []
    day = cal.find(2)
    while day != -1:
        doubled.append(day)
        day = cal.find(2, day + 1)
    return tuple(doubled)


@record
class SimReport:
    horizon: int
    pairs_covered: bool
    double_booked_days: tuple[int, ...]


def _calendar(schedule: PeriodicSchedule) -> SimReport:
    """The shared days of a non-empty schedule up to max offset + lcm of
    all the cycles - 1, capped at DEFAULT_HORIZON_CAP. Two entries that
    ever meet do so by their larger offset + the lcm of their cycles - 1,
    so the days cover every pair exactly when the cap is not hit. The lcm
    is folded one distinct cycle at a time and given up once it passes
    the cap: it only grows from there, and the full lcm of thousands of
    coprime cycles is a huge integer."""
    start = max(schedule.offsets)
    limit = DEFAULT_HORIZON_CAP + 1 - start
    hyperperiod = 1
    for cycle in set(schedule.cycles):
        hyperperiod = math.lcm(hyperperiod, cycle)
        if hyperperiod > limit:
            break
    covered = hyperperiod <= limit
    horizon = start + hyperperiod - 1 if covered else DEFAULT_HORIZON_CAP
    return SimReport(horizon, covered, _double_booked_days(schedule, horizon))


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
    lower_bound: Fraction | None
    ratio: Fraction | None

    @property
    def horizon_conclusive(self) -> bool:
        """Always False: the calendar marks shared days and measures no
        heights. Kept for callers that read it, such as the benchmark's
        check of clean reports."""
        return False

    @property
    def verdict(self) -> str:
        if not (self.collisions.ok and self.jobs_ok and self.windows_ok is not False):
            return "failed"
        # the exact check found no collision, so a cross-check that found one disagrees
        sim = self.sim
        if self.chain_collision_free is False or (sim is not None and sim.double_booked_days):
            return "failed"
        if self.chain_collision_free or (sim is not None and sim.pairs_covered):
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
                "pairs_covered": sim.pairs_covered,
                "double_booked_days": list(sim.double_booked_days),
            }
        obj["lower_bound"] = None if self.lower_bound is None else str(self.lower_bound)
        obj["ratio_vs_lower_bound"] = None if self.ratio is None else str(self.ratio)
        return obj


def evaluate(
    instance: BgtInstance,
    schedule: PeriodicSchedule,
    pseudo: PseudoInstance | ScaledGarden | None = None,
    lower_bound_value: Fraction | None = None,
) -> VerificationReport:
    """Run every check against one schedule and bundle the outcome; the
    peaks stay native, and only the maximum and the ratio are Fractions.
    The calendar runs only when the cycles have no chain structure."""
    _check_jobs_within(schedule, instance.n)
    table = _residue_table(schedule)
    collisions = check_collisions(schedule, table)
    chain = _chain_check(schedule, table)
    jobs_ok = schedule.covers(instance.n)
    windows_ok: bool | None = None
    violation = None
    if pseudo is not None:
        windows_ok = check_windows(schedule, pseudo) if jobs_ok else False
        if jobs_ok and not windows_ok:
            violation = _first_window_violation(schedule, pseudo)
    peaks = tuple(schedule.peaks(instance.rates)) if jobs_ok else None
    analytic = None if peaks is None else Fraction(max(peaks))
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
        sim=None if chain is not None else _calendar(schedule),
        lower_bound=lower_bound_value,
        ratio=ratio,
    )
