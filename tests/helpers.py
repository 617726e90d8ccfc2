"""Shared generators and reference implementations for the test suite.

Everything here hands back exact rationals; the tests compare with ``==``
on purpose, so no helper is allowed to introduce a float anywhere.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from bamboo import BgtInstance, PseudoInstance
from bamboo.model import InvalidInstance, JobPeriod, PeriodicSchedule, ScheduleEntry, density, int_period
from bamboo.oracle import DEFAULT_STATE_CAP, PinwheelResult, StateSpaceTooLarge, _replay_witness
from bamboo.reduction import DEFAULT_CONFIG, PeriodBelowTwo, ReductionConfig, scaled
from bamboo.rounding import (
    CASE_RS,
    GENERAL_RS,
    SEVEN_TWELFTHS,
    CertificateViolation,
    Decomposition,
    NormalizedState,
    Pairs,
    SpecializedState,
    UnroundablePeriod,
)
from bamboo.scheduler import ChainInstance, NotAChain, Overdense, schedule_chain
from bamboo.verifier import (
    DEFAULT_HORIZON_CAP,
    Collision,
    CollisionReport,
    SimReport,
    VerificationReport,
    WindowViolation,
    _chain_check,
    _double_booked_days,
    _earliest_shared_day,
)


def random_instance(
    rng: random.Random,
    n_lo: int = 2,
    n_hi: int = 12,
    rate_lo: int = 1,
    rate_hi: int = 100,
) -> BgtInstance:
    """A garden with integer growth rates, sorted non-increasing."""
    n = rng.randint(n_lo, n_hi)
    rates = sorted((rng.randint(rate_lo, rate_hi) for _ in range(n)), reverse=True)
    return BgtInstance.from_values(rates)


def split_density(
    total: Fraction,
    parts: int,
    rng: random.Random,
    max_share: Fraction = Fraction(1, 2),
) -> list[Fraction]:
    """Split ``total`` into ``parts`` positive rationals summing to it
    exactly, each at most ``max_share``.

    Integer weights keep the arithmetic exact. Oversized draws are simply
    rejected; equal weights always satisfy the cap (total/parts <= cap is
    checked up front), so the loop cannot run forever in a meaningful way,
    but a deterministic fallback keeps it bounded anyway.
    """
    if parts < 1:
        raise ValueError("need at least one part")
    if total / parts > max_share:
        raise ValueError("cap too small for that many parts")
    for _ in range(1000):
        weights = [rng.randint(1, 12) for _ in range(parts)]
        w = sum(weights)
        shares = [total * wi / w for wi in weights]
        if all(s <= max_share for s in shares):
            return shares
    return [total / parts] * parts


def pseudo_with_density(total: Fraction, parts: int, rng: random.Random) -> PseudoInstance:
    """A pseudo-instance whose density is exactly ``total``.

    Every share is capped at 1/2, so every period comes out >= 2, which is
    what the two-grid rounding front end requires.
    """
    shares = split_density(total, parts, rng)
    return PseudoInstance(tuple(1 / s for s in shares))


def floors(pseudo: PseudoInstance) -> list[int]:
    """floor(p_i) for every period in job-id order, what `split_23` and
    `specialize_instance` take to build their sorted (period, job) pairs."""
    return [math.floor(p) for p in pseudo.periods]


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and m & (m - 1) == 0


def on_two_grid(v: int) -> bool:
    """v is one of 2, 4, 8, ... (the grid of B and B')."""
    return v >= 2 and _is_power_of_two(v)


def on_three_grid(v: int) -> bool:
    """v is one of 3, 6, 12, ... (the grid of C and C')."""
    return v >= 3 and v % 3 == 0 and _is_power_of_two(v // 3)


def tampered(schedule: PeriodicSchedule) -> PeriodicSchedule:
    """The last entry moved onto the first entry's offset: a planted
    same-day pair, or, for a single job, a first cut one day late."""
    first, last = schedule.entries[0], schedule.entries[-1]
    offset = first.offset if len(schedule.entries) > 1 else first.offset + 1
    return PeriodicSchedule(schedule.entries[:-1] + (ScheduleEntry(last.job, offset, last.cycle),))


# ------------------------------------------------- test-only references
#
# Functions that only tests call, kept out of the package: the day test of
# one entry, the entry of one job, the density of a job multiset (through
# `density`, not the grid weights), the inverse reduction from
# integral pinwheel periods, the JSON form of a pseudo-instance and the
# per-job peak heights as Fractions.


def serves(entry: ScheduleEntry, day: int) -> bool:
    """Whether `entry` cuts its job on `day`."""
    return day >= entry.offset and (day - entry.offset) % entry.cycle == 0


def entry_of(schedule: PeriodicSchedule, job: int) -> ScheduleEntry:
    """The entry of `job` in `schedule`."""
    for e in schedule.entries:
        if e.job == job:
            return e
    raise KeyError(job)


def grid_density(pairs: Pairs) -> Fraction:
    """rho of a multiset of (period, job) pairs, as an exact Fraction."""
    return density([period for period, _ in pairs])


def ps_to_bgt(periods: Sequence[int]) -> tuple[BgtInstance, tuple[int, ...]]:
    """Integral pinwheel periods to a trimming instance with rates 1/p_i.

    Rates must come out sorted non-increasing, so the jobs are permuted;
    the returned tuple maps new job id -> position in `periods`.
    """
    if not periods:
        raise InvalidInstance("need at least one period")
    for p in periods:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise InvalidInstance(f"period {p!r} is not a positive integer")
    order = tuple(sorted(range(len(periods)), key=lambda i: (periods[i], i)))
    rates = tuple(Fraction(1, periods[i]) for i in order)
    return BgtInstance(rates), order


def max_heights(schedule: PeriodicSchedule, instance: BgtInstance) -> tuple[Fraction, ...]:
    """Per-job peak height over the infinite schedule, in job-id order.

    Job i peaks at h_i * max(offset, cycle): the first cut happens at the
    end of day offset, and later cuts every cycle days.
    """
    if not schedule.covers(instance.n):
        raise uncovered(schedule, f"the instance has {instance.n} bamboos")
    return tuple(map(Fraction, schedule.peaks(instance.rates)))


def uncovered(schedule: PeriodicSchedule, what: str) -> InvalidInstance:
    """The error for a schedule whose jobs are not 0..n-1, as
    `check_windows` words it: the entry count and the first and last job,
    not every job id."""
    jobs = schedule.jobs
    span = f" (jobs {jobs[0]} to {jobs[-1]})" if jobs else ""
    return InvalidInstance(f"schedule has {len(jobs)} entries{span} but {what}")


def pseudo_to_obj(pseudo: PseudoInstance) -> dict:
    """The JSON object `model.pseudo_from_obj` reads back."""
    return {"periods": [str(p) for p in pseudo.periods]}


# ------------------------------------------------- parsing reference
#
# `parse_rational` on strings as it was before plain digit strings took a
# shortcut to `int`: every string goes through `Fraction`.


def reference_parse_rational(text: str) -> int | Fraction:
    stripped = text.strip()
    _, marker, exponent = stripped.lower().partition("e")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if marker and limit and abs(int(exponent)) >= limit:
            raise ValueError(f"exponent {exponent} gives over {limit} digits")
        value = Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInstance(f"cannot parse a rational from {text!r}") from exc
    return value.numerator if value.denominator == 1 else value


# ------------------------------------------------- schedule references
#
# The schedule check as it was when `PeriodicSchedule` held one
# `ScheduleEntry` per job: fields checked entry by entry in the order
# given, then a stable sort by job, then the negative, offset/cycle and
# duplicate tests in that order. Both return the sorted entries or raise.


def reference_schedule(entries: Iterable[ScheduleEntry]) -> tuple[ScheduleEntry, ...]:
    entries = tuple(entries)
    for e in entries:
        if type(e.job) is not int or type(e.offset) is not int or type(e.cycle) is not int:
            name, v = next((k, v) for k, v in vars(e).items() if type(v) is not int)
            raise InvalidInstance(f'entry field "{name}" must be an integer, got {v!r}')
    entries = tuple(sorted(entries, key=lambda e: e.job))
    if entries and entries[0].job < 0:
        raise InvalidInstance(f"job id {entries[0].job} is negative")
    previous = None
    for e in entries:
        if e.offset < 1 or e.cycle < 1:
            raise InvalidInstance(f"entry for job {e.job} needs offset >= 1 and cycle >= 1")
        if e.job == previous:
            raise InvalidInstance(f"job {e.job} appears twice")
        previous = e.job
    return entries


def reference_schedule_from_obj(obj: object) -> tuple[ScheduleEntry, ...]:
    raw = obj.get("entries") if isinstance(obj, dict) else obj
    if not isinstance(raw, list):
        raise InvalidInstance('schedule JSON must be an entry list or carry an "entries" list')
    entries = []
    for item in raw:
        if not isinstance(item, dict):
            raise InvalidInstance("each schedule entry must be an object")
        try:
            entries.append(ScheduleEntry(item["job"], item["offset"], item["cycle"]))
        except KeyError as exc:
            raise InvalidInstance(f"schedule entry missing key {exc}") from exc
    return reference_schedule(entries)


# ------------------------------------------------- lower-bound reference
#
# The first lower bound, kept as it was, in Fractions over the rates as
# given: `reduction.scaled` must report exactly this.


def reference_lower_bound(instance: BgtInstance, mode: str) -> Fraction:
    """The growth sum H, or the sharper max(2 * h_max, H) rule. For a single
    bamboo both modes give h_max."""
    if mode not in ("sum", "max-rule"):
        raise ValueError(f"unknown lower-bound mode {mode!r}")
    total = sum(instance.rates, Fraction(0))
    if mode == "sum":
        return total
    if instance.n == 1:
        return Fraction(instance.rates[0])
    return max(Fraction(2 * instance.rates[0]), total)


# ------------------------------------------------- verifier references
#
# The verifier's first implementations, kept as they were: one CRT test per
# pair of entries, a replay of the sorted list of every (day, job) cut, and
# an evaluate that compares job sets and builds a Fraction per height. The
# verifier must report exactly what these report.


def reference_check_collisions(schedule: PeriodicSchedule) -> CollisionReport:
    found = []
    entries = schedule.entries
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i], entries[j]
            day = _earliest_shared_day(a.offset, a.cycle, b.offset, b.cycle)
            if day is not None:
                found.append(Collision(a.job, b.job, day))
    return CollisionReport(tuple(found))


def reference_double_booked_days(schedule: PeriodicSchedule, horizon: int) -> tuple[int, ...]:
    """The days from 1 to `horizon` that hold two or more cuts, from every
    cut listed and counted."""
    cuts: dict[int, int] = {}
    for e in schedule.entries:
        for day in range(e.offset, horizon + 1, e.cycle):
            cuts[day] = cuts.get(day, 0) + 1
    return tuple(sorted(day for day, count in cuts.items() if count > 1))


def reference_check_windows(schedule: PeriodicSchedule, pseudo: PseudoInstance) -> bool:
    if set(schedule.jobs) != set(range(pseudo.n)):
        raise uncovered(schedule, f"the pseudo-instance has {pseudo.n} jobs")
    for e in schedule.entries:
        window = math.floor(pseudo.periods[e.job])
        if e.offset > window or e.cycle > window:
            return False
    return True


def reference_max_heights(schedule: PeriodicSchedule, instance: BgtInstance) -> tuple[Fraction, ...]:
    if set(schedule.jobs) != set(range(instance.n)):
        raise uncovered(schedule, f"the instance has {instance.n} bamboos")
    rates = instance.rates
    return tuple(Fraction(rates[e.job] * max(e.offset, e.cycle)) for e in schedule.entries)


def reference_evaluate(
    instance: BgtInstance,
    schedule: PeriodicSchedule,
    pseudo: PseudoInstance | None = None,
    lower_bound_value: Fraction | None = None,
) -> VerificationReport:
    """The set-based evaluate over the all-pairs collision check, with the
    calendar's horizon and pair coverage from the full lcm; the marking of
    the calendar and the chain check are the verifier's own, which have
    their own references."""
    for e in schedule.entries:
        if e.job >= instance.n:
            raise InvalidInstance(f"schedule mentions job {e.job} outside the instance")
    collisions = reference_check_collisions(schedule)
    chain = _chain_check(schedule)
    jobs_ok = set(schedule.jobs) == set(range(instance.n))
    windows_ok: bool | None = None
    violation = None
    if pseudo is not None:
        windows_ok = reference_check_windows(schedule, pseudo) if jobs_ok else False
        if jobs_ok and not windows_ok:
            e = next(e for e in schedule.entries if max(e.offset, e.cycle) > math.floor(pseudo.periods[e.job]))
            violation = WindowViolation(e.job, e.offset, e.cycle, math.floor(pseudo.periods[e.job]))
    heights = reference_max_heights(schedule, instance) if jobs_ok else None
    analytic = max(heights) if heights else None
    sim = None
    if chain is None:
        full = max(schedule.offsets) + math.lcm(*schedule.cycles) - 1
        horizon = min(full, DEFAULT_HORIZON_CAP)
        sim = SimReport(horizon, full == horizon, _double_booked_days(schedule, horizon))
    ratio = None
    if lower_bound_value is not None and analytic is not None:
        ratio = analytic / lower_bound_value
    return VerificationReport(
        collisions=collisions,
        chain_collision_free=chain,
        jobs_ok=jobs_ok,
        windows_ok=windows_ok,
        window_violation=violation,
        peaks=heights,
        analytic_max=analytic,
        sim=sim,
        lower_bound=lower_bound_value,
        ratio=ratio,
    )


# ------------------------------------------------ interleave reference
#
# The first interleave, kept as it was: halve both sides, schedule each
# halved chain on its own calendar, then map day o to 2o - 1 (B') or 2o
# (C') and double every cycle. interleave must build exactly this.


def reference_interleave(norm: NormalizedState) -> PeriodicSchedule:
    if norm.y > 1:
        raise CertificateViolation(f"certificate y = {norm.y} exceeds 1; interleave has no calendar for this")
    bp, cp = norm.bp, norm.cp
    if not bp and not cp:
        return PeriodicSchedule(())
    if not cp:
        return schedule_chain(ChainInstance(bp))
    if not bp:
        return schedule_chain(ChainInstance(cp))
    rho_bp, rho_cp = grid_density(bp), grid_density(cp)
    if rho_bp > Fraction(1, 2) or rho_cp > Fraction(1, 3):
        raise CertificateViolation(
            f"mixed state too dense to interleave: rho(B') = {rho_bp}, rho(C') = {rho_cp}"
        )
    entries: list[ScheduleEntry] = []
    halved_b = ChainInstance(tuple((period // 2, job) for period, job in bp))
    for e in schedule_chain(halved_b).entries:
        entries.append(ScheduleEntry(e.job, 2 * e.offset - 1, 2 * e.cycle))
    if any(period == 3 for period, _ in cp):
        assert len(cp) == 1, "a period-3 job only fits the density budget alone"
        entries.append(ScheduleEntry(cp[0][1], 2, 2))
    else:
        halved_c = ChainInstance(tuple((period // 2, job) for period, job in cp))
        for e in schedule_chain(halved_c).entries:
            entries.append(ScheduleEntry(e.job, 2 * e.offset, 2 * e.cycle))
    return PeriodicSchedule(tuple(entries))


# ------------------------------------------------------ oracle references
#
# The first exhaustive search, kept as it was but for where density
# refutes (on the halved periods, ahead of the cap), what it searches and
# the order of its moves. It is a lasso DFS that memoizes every dead state
# and canonicalizes each successor by sorting its blocks, and an optimum
# that tries every candidate height in increasing order.
# It searches the reduced periods: while the least period k is held by
# exactly k - 1 jobs and other jobs remain, those k - 1 jobs take k - 1 of
# every k days, and the rest keep floor(p / k) on the days left. Its
# witness is expanded back: each day of the reduced witness becomes the
# k - 1 jobs of the step, then that day's job.
# Each day it may serve, of each period, only a job of that period with
# the least deadline (serving a twin with more slack leaves a tighter
# state), and it tries the least urgent first: the highest deadline, then
# the largest period.
# The oracle must return exactly what these return, witnesses and
# refusal messages included.


def reference_pinwheel_feasible(periods: Sequence[int], cap: int = DEFAULT_STATE_CAP) -> PinwheelResult:
    ps: list[int] = []
    for p in periods:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise InvalidInstance(f"period {p!r} is not a positive integer")
        ps.append(p)
    if not ps:
        raise InvalidInstance("need at least one job")
    # density refutes ahead of the cap, taken after each period-2 job is
    # dropped and the other periods floor-halved (an exact reduction)
    halved = sorted(ps)
    while len(halved) > 1 and min(halved) == 2:
        halved.remove(2)
        halved = [p // 2 for p in halved]
    if density(halved) > 1:
        return PinwheelResult(False, None)
    space = 1
    for p in ps:
        space *= p + 1
        if space > cap:
            raise StateSpaceTooLarge(
                f"state space of {'x'.join(str(q + 1) for q in ps)} exceeds the cap of {cap}"
            )

    # the reduction: jobs in period order, and the groups taken out
    order = sorted(range(len(ps)), key=lambda i: (ps[i], i))
    cps = [ps[i] for i in order]
    groups: list[list[int]] = []
    while cps[0] > 1 and cps.count(cps[0]) == cps[0] - 1 and len(cps) > cps[0] - 1:
        k = cps[0]
        groups.append(order[: k - 1])
        order, cps = order[k - 1 :], [p // k for p in cps[k - 1 :]]
    if density(cps) > 1:
        return PinwheelResult(False, None)

    # canonical arrangement: positions sorted by period; the slice holding
    # each equal-period block keeps its deadlines sorted
    blocks: list[tuple[int, int]] = []
    lo = 0
    for i in range(1, len(cps) + 1):
        if i == len(cps) or cps[i] != cps[lo]:
            blocks.append((lo, i))
            lo = i

    def canon(state: tuple[int, ...]) -> tuple[int, ...]:
        out = list(state)
        for a, b in blocks:
            if b - a > 1:
                out[a:b] = sorted(out[a:b])
        return tuple(out)

    def successors(state: tuple[int, ...]) -> list[tuple[tuple[int, int], tuple[int, ...]]]:
        urgent = [i for i, d in enumerate(state) if d == 1]
        if len(urgent) > 1:
            return []  # two jobs due today, only one slot
        if urgent:
            picks = urgent
        else:
            # of each period, a job with the least deadline
            picks = [min(range(a, b), key=lambda i: state[i]) for a, b in blocks]
            picks.sort(key=lambda i: (state[i], cps[i]), reverse=True)  # least urgent first
        out = []
        for i in picks:
            nxt = [d - 1 for d in state]
            nxt[i] = cps[i]
            out.append(((cps[i], state[i]), canon(tuple(nxt))))
        return out

    start = canon(tuple(cps))
    dead: set[tuple[int, ...]] = set()
    on_path: dict[tuple[int, ...], int] = {start: 0}
    frames: list[list] = [[start, successors(start), 0]]
    chosen: list[tuple[int, int]] = []  # move taken out of each stacked state
    lasso: tuple[list, list] | None = None
    while frames:
        state, succ, idx = frames[-1]
        if idx >= len(succ):
            frames.pop()
            dead.add(state)
            del on_path[state]
            if chosen:
                chosen.pop()
            continue
        frames[-1][2] += 1
        move, child = succ[idx]
        if child in dead:
            continue
        if child in on_path:
            depth = on_path[child]
            lasso = (chosen[:depth], chosen[depth:] + [move])
            break
        on_path[child] = len(frames)
        chosen.append(move)
        frames.append([child, successors(child), 0])
    if lasso is None:
        return PinwheelResult(False, None)
    stem, cycle = lasso
    witness = [order[i] for i in _replay_witness(cps, stem, cycle)]
    for group in reversed(groups):
        expanded = []
        for day in witness:
            expanded += group + [day]
        witness = expanded
    return PinwheelResult(True, tuple(witness))


def reference_bgt_opt(instance: BgtInstance, cap: int = DEFAULT_STATE_CAP) -> Fraction:
    # Fraction rates keep v / h exact where a rate is an int
    rates = [Fraction(h) for h in instance.rates]
    bound = reference_lower_bound(instance, "max-rule")
    ceiling = Fraction(12, 7) * bound
    candidates: set[Fraction] = set()
    for h in rates:
        v = max(math.ceil(bound / h), 1) * h
        while v <= ceiling:
            candidates.add(v)
            v += h
    for v in sorted(candidates):
        periods = [math.floor(v / h) for h in rates]
        if any(p < 1 for p in periods):
            continue
        if density(periods) > 1:
            continue
        if reference_pinwheel_feasible(periods, cap).feasible:
            return v
    raise RuntimeError("no candidate up to the pipeline guarantee was feasible; this cannot happen")


def reference_bgt_to_pseudo(instance: BgtInstance, config: ReductionConfig | None = None) -> PseudoInstance:
    config = config or ReductionConfig()
    bound = reference_lower_bound(instance, config.lb_mode)
    periods = tuple(config.factor * bound / h for h in instance.rates)
    smallest = min(periods)
    if smallest < 2 and instance.n > 1:
        raise PeriodBelowTwo(
            f"reduced period {smallest} is below 2 (factor {config.factor}, "
            f"lower bound {bound}, mode {config.lb_mode})"
        )
    return PseudoInstance(periods)


# ---------------------------------------------------------- solve reference
#
# The solve pipeline as it was before the stages moved to (period, job) int
# pairs: every stage list holds `JobPeriod`s, sorted with a key function,
# and the chain pass makes its entries from the leaves. Only unchanged code
# of the package is used: the integer reduction, the model types and the
# exception classes. `solve` must return exactly what this returns, stage
# by stage, and raise what this raises.


def _ref_by_period(items: Iterable[JobPeriod]) -> tuple[JobPeriod, ...]:
    return tuple(sorted(items, key=lambda jp: (jp.period, jp.job)))


def _ref_specialize_single(p: Fraction | int, x: int) -> int:
    if not isinstance(x, int) or x < 1:
        raise ValueError(f"grid base must be a positive integer, got {x!r}")
    m = math.floor(p)
    if m < x:
        raise UnroundablePeriod(f"period {p} lies below the smallest {{{x}, {2*x}, {4*x}, ...}} grid point")
    return x << ((m // x).bit_length() - 1)


def _ref_grid_weight(items: Iterable[JobPeriod]) -> tuple[int, int]:
    periods = [jp.period for jp in items]
    top = max(periods, default=1)
    return sum(top // p for p in periods), top


@dataclass(frozen=True)
class RefSpecializedState:
    b: tuple[JobPeriod, ...]
    c: tuple[JobPeriod, ...]


@dataclass(frozen=True)
class RefDecomposition:
    r: int
    p: tuple[JobPeriod, ...]
    s: int
    q: tuple[JobPeriod, ...]


@dataclass(frozen=True)
class RefNormalizedState:
    bp: tuple[JobPeriod, ...]
    cp: tuple[JobPeriod, ...]
    case: str
    r: int
    s: int

    @cached_property
    def y(self) -> Fraction:
        wb, tb = _ref_grid_weight(self.bp)
        wc, tc = _ref_grid_weight(self.cp)
        return Fraction(-(-2 * wb // tb), 2) + Fraction(-(-3 * wc // tc), 3)


def _ref_split_23(floors: Sequence[int]) -> RefSpecializedState:
    b: list[JobPeriod] = []
    c: list[JobPeriod] = []
    for job, m in enumerate(floors):
        if m < 2:
            raise UnroundablePeriod(f"period of job {job} rounds down to {m}, below 2, and cannot be banded")
        two = 1 << (m.bit_length() - 1)
        three = two + (two >> 1)
        if m < three:
            b.append(JobPeriod(job, two))
        else:
            c.append(JobPeriod(job, three))
    return RefSpecializedState(b=_ref_by_period(b), c=_ref_by_period(c))


def _ref_extract_units(items: tuple[JobPeriod, ...], x: int) -> tuple[int, tuple[JobPeriod, ...]]:
    weight, top = _ref_grid_weight(items)
    count = x * weight // top
    need = count * top // x
    i = taken = 0
    while taken < need:
        taken += top // items[i].period
        i += 1
    assert taken == need, "grid divisibility violated"
    return count, items[i:]


def _ref_normalize(dec: RefDecomposition, state: RefSpecializedState) -> RefNormalizedState:
    wp, tp = _ref_grid_weight(dec.p)
    wq, tq = _ref_grid_weight(dec.q)
    p_num, q_num, den = wp * tq, wq * tp, tp * tq
    v3, w2 = 4 * p_num + 3 * q_num, 2 * p_num + 3 * q_num
    if v3 == 0:
        case = "none"
    elif v3 <= den:
        case = "a"
    elif v3 <= 2 * den:
        case = "b" if w2 <= den else "c"
    else:
        case = "d"

    def without(items, removed):
        gone = {jp.job for jp in removed}
        return tuple(jp for jp in items if jp.job not in gone)

    def regrid(items, x):
        return tuple(JobPeriod(jp.job, _ref_specialize_single(jp.period, x)) for jp in items)

    bp, cp = state.b, state.c
    if case in ("a", "c"):
        bp, cp = without(state.b, dec.p), _ref_by_period(state.c + regrid(dec.p, 3))
    elif case == "b":
        bp, cp = _ref_by_period(state.b + regrid(dec.q, 2)), without(state.c, dec.q)
    return RefNormalizedState(bp=bp, cp=cp, case=case, r=dec.r, s=dec.s)


def _ref_certificate(norm: RefNormalizedState, original_density: Fraction) -> bool:
    original_density = Fraction(original_density)
    checked = original_density <= SEVEN_TWELFTHS
    if checked:
        if norm.y > 1:
            raise CertificateViolation(f"certificate y = {norm.y} > 1 at density {original_density} <= 7/12")
        if (norm.r, norm.s) not in GENERAL_RS:
            raise CertificateViolation(f"(r, s) = ({norm.r}, {norm.s}) is unreachable at density {original_density}")
        if (norm.r, norm.s) not in CASE_RS[norm.case]:
            raise CertificateViolation(f"(r, s) = ({norm.r}, {norm.s}) is unreachable in case {norm.case!r}")
    return checked


def _ref_chain(jobs: Iterable[JobPeriod]) -> tuple[JobPeriod, ...]:
    jobs = _ref_by_period(jobs)
    for jp in jobs:
        int_period(jp.period, NotAChain)
    for small, big in zip(jobs, jobs[1:]):
        if big.period % small.period != 0:
            raise NotAChain(f"{small.period} does not divide {big.period}")
    p_max = jobs[-1].period if jobs else 1
    weight = sum(p_max // jp.period for jp in jobs)
    if weight > p_max:
        raise Overdense(f"density {Fraction(weight, p_max)} exceeds 1")
    return jobs


def _ref_cut(jobs: tuple[JobPeriod, ...]) -> list[tuple[JobPeriod, ...]]:
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


def _ref_place(jobs: tuple[JobPeriod, ...], first: int, spacing: int) -> list[ScheduleEntry]:
    if not jobs:
        return []
    frames = [(b, first + j * spacing, jobs[0].period) for j, b in enumerate(_ref_cut(jobs))]
    leaves: list[tuple[JobPeriod, int]] = []
    while frames:
        part, offset, step = frames.pop()
        if len(part) == 1:
            assert offset <= part[0].period
            leaves.append((part[0], offset))
        else:
            frames.extend((b, offset + j * step, part[0].period) for j, b in enumerate(_ref_cut(part)))
    return [ScheduleEntry(jp.job, offset, jp.period) for jp, offset in leaves]


def _ref_interleave(norm: RefNormalizedState) -> PeriodicSchedule:
    if norm.y > 1:
        raise CertificateViolation(f"certificate y = {norm.y} exceeds 1; interleave has no calendar for this")
    bp, cp = norm.bp, norm.cp
    if not cp:
        return PeriodicSchedule(tuple(_ref_place(_ref_chain(bp), 1, 1)))
    if not bp:
        return PeriodicSchedule(tuple(_ref_place(_ref_chain(cp), 1, 1)))
    entries = _ref_place(_ref_chain(bp), 1, 2)
    if any(jp.period == 3 for jp in cp):
        assert len(cp) == 1, "a period-3 job only fits the density budget alone"
        entries.append(ScheduleEntry(cp[0].job, 2, 2))
    else:
        entries += _ref_place(_ref_chain(cp), 2, 2)
    return PeriodicSchedule(tuple(entries))


@dataclass(frozen=True)
class RefSolution:
    schedule: PeriodicSchedule
    lower_bound: Fraction
    height_bound: Fraction
    guarantee: Fraction
    config: ReductionConfig
    instance: BgtInstance
    density: Fraction
    rounded: tuple[JobPeriod, ...] | None = None
    split: RefSpecializedState | None = None
    decomposition: RefDecomposition | None = None
    normalized: RefNormalizedState | None = None
    certified: bool = False


def reference_solve(instance: BgtInstance, config: ReductionConfig | None = None) -> RefSolution:
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
        rounded = _ref_by_period(JobPeriod(job, _ref_specialize_single(m, 2)) for job, m in enumerate(garden.floors()))
        schedule = PeriodicSchedule(tuple(_ref_place(_ref_chain(rounded), 1, 1)))
    else:
        split = _ref_split_23(garden.floors())
        r, p = _ref_extract_units(split.b, 2)
        s, q = _ref_extract_units(split.c, 3)
        dec = RefDecomposition(r=r, p=p, s=s, q=q)
        norm = _ref_normalize(dec, split)
        certified = _ref_certificate(norm, rho)
        schedule = _ref_interleave(norm)

    entries = schedule.entries
    assert all(e.offset <= e.cycle for e in entries)
    assert schedule.jobs == tuple(range(instance.n))
    height = Fraction(max(a * max(e.offset, e.cycle) for a, e in zip(garden.rates, entries)), garden.scale)
    assert height <= guarantee
    return RefSolution(
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


def _ref_pairs(items: Iterable[JobPeriod]) -> Pairs:
    # in the reference's own order: not re-sorted, so a stage that hands on
    # its jobs out of order does not compare equal
    return tuple((jp.period, jp.job) for jp in items)


def reference_as_pairs(ref: RefSolution) -> RefSolution:
    """`ref` with each stage list as (period, job) pairs in the package's
    stage records, as `solve` returns them."""
    rounded, split, dec, norm = ref.rounded, ref.split, ref.decomposition, ref.normalized
    if rounded is not None:
        rounded = _ref_pairs(rounded)
    if split is not None:
        split = SpecializedState(_ref_pairs(split.b), _ref_pairs(split.c))
        dec = Decomposition(dec.r, _ref_pairs(dec.p), dec.s, _ref_pairs(dec.q))
        norm = NormalizedState(_ref_pairs(norm.bp), _ref_pairs(norm.cp), norm.case, norm.r, norm.s)
    return replace(ref, rounded=rounded, split=split, decomposition=dec, normalized=norm)
