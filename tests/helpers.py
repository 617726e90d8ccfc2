"""Shared generators and reference implementations for the test suite.

Everything here hands back exact rationals; the tests compare with ``==``
on purpose, so no helper is allowed to introduce a float anywhere.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from bamboo import BgtInstance, PseudoInstance
from bamboo.model import InvalidInstance, JobPeriod, PeriodicSchedule, ScheduleEntry, density
from bamboo.oracle import DEFAULT_STATE_CAP, PinwheelResult, StateSpaceTooLarge, _replay_witness
from bamboo.reduction import PeriodBelowTwo, ReductionConfig
from bamboo.rounding import CertificateViolation, NormalizedState
from bamboo.scheduler import ChainInstance, schedule_chain
from bamboo.verifier import (
    DEFAULT_HORIZON_CAP,
    Collision,
    CollisionReport,
    HorizonOverflow,
    SimReport,
    VerificationReport,
    _covers,
    _earliest_shared_day,
    _peak_heights,
    default_horizon,
    simulate,
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
    """floor(p_i) for every period, what `split_23` and
    `specialize_instance` take."""
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


def grid_density(items: Iterable[JobPeriod]) -> Fraction:
    """rho of a multiset of jobs, as an exact Fraction."""
    return density([jp.period for jp in items])


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
    if not _covers(schedule, instance.n):
        raise InvalidInstance(
            f"schedule covers jobs {sorted(schedule.jobs)} but the instance has {instance.n} bamboos"
        )
    return tuple(map(Fraction, _peak_heights(schedule, instance)))


def pseudo_to_obj(pseudo: PseudoInstance) -> dict:
    """The JSON object `model.pseudo_from_obj` reads back."""
    obj: dict = {"periods": [str(p) for p in pseudo.periods]}
    if pseudo.factor is not None:
        obj["factor"] = str(pseudo.factor)
    if pseudo.lower_bound is not None:
        obj["lower_bound"] = str(pseudo.lower_bound)
    return obj


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


def reference_simulate(
    schedule: PeriodicSchedule,
    instance: BgtInstance,
    horizon: int,
) -> SimReport:
    if horizon < 1:
        raise InvalidInstance(f"horizon must be at least 1, got {horizon}")
    if horizon > DEFAULT_HORIZON_CAP:
        raise HorizonOverflow(f"horizon {horizon} exceeds the cap of {DEFAULT_HORIZON_CAP} days")
    for e in schedule.entries:
        if e.job >= instance.n:
            raise InvalidInstance(f"schedule mentions job {e.job} outside the instance")

    events: list[tuple[int, int]] = []
    for e in schedule.entries:
        events.extend((day, e.job) for day in range(e.offset, horizon + 1, e.cycle))
    events.sort()

    last_cut = {job: 0 for job in range(instance.n)}
    best = Fraction(0)
    best_day = 0
    best_job: int | None = None
    doubled: list[int] = []
    i = 0
    while i < len(events):
        j = i
        day = events[i][0]
        while j < len(events) and events[j][0] == day:
            j += 1
        if j - i > 1:
            doubled.append(day)
        for _, job in events[i:j]:
            h = instance.rates[job] * (day - last_cut[job])
            if h > best:
                best, best_day, best_job = h, day, job
            last_cut[job] = day
        i = j
    for job in range(instance.n):
        gap = horizon - last_cut[job]
        if gap > 0:
            h = instance.rates[job] * gap
            if h > best:
                best, best_day, best_job = h, horizon, job
    return SimReport(
        max_height=best,
        argmax_day=best_day,
        argmax_job=best_job,
        double_booked_days=tuple(doubled),
        horizon=horizon,
    )


def reference_check_windows(schedule: PeriodicSchedule, pseudo: PseudoInstance) -> bool:
    if set(schedule.jobs) != set(range(pseudo.n)):
        raise InvalidInstance(
            f"schedule covers jobs {sorted(schedule.jobs)} but the pseudo-instance has {pseudo.n} jobs"
        )
    for e in schedule.entries:
        window = math.floor(pseudo.periods[e.job])
        if e.offset > window or e.cycle > window:
            return False
    return True


def reference_max_heights(schedule: PeriodicSchedule, instance: BgtInstance) -> tuple[Fraction, ...]:
    if set(schedule.jobs) != set(range(instance.n)):
        raise InvalidInstance(
            f"schedule covers jobs {sorted(schedule.jobs)} but the instance has {instance.n} bamboos"
        )
    rates = instance.rates
    return tuple(Fraction(rates[e.job] * max(e.offset, e.cycle)) for e in schedule.entries)


def reference_evaluate(
    instance: BgtInstance,
    schedule: PeriodicSchedule,
    pseudo: PseudoInstance | None = None,
    lower_bound_value: Fraction | None = None,
    horizon: int | None = None,
) -> VerificationReport:
    """The set-based evaluate over the all-pairs collision check; the
    simulation and the horizon are the verifier's own, which have their
    own references."""
    collisions = reference_check_collisions(schedule)
    jobs_ok = set(schedule.jobs) == set(range(instance.n))
    windows_ok: bool | None = None
    if pseudo is not None:
        windows_ok = reference_check_windows(schedule, pseudo) if jobs_ok else False
    heights = reference_max_heights(schedule, instance) if jobs_ok else None
    analytic = max(heights) if heights else None
    if horizon is None:
        horizon = default_horizon(schedule)
    sim = simulate(schedule, instance, horizon)
    conclusive = jobs_ok and all(e.offset + e.cycle <= horizon for e in schedule.entries)
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
        heights=heights,
        analytic_max=analytic,
        sim=sim,
        sim_matches=sim_matches,
        horizon_conclusive=conclusive,
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


# ------------------------------------------------------ oracle references
#
# The first exhaustive search, kept as it was: a lasso DFS that memoizes
# every dead state and canonicalizes each successor by sorting its blocks,
# and an optimum that tries every candidate height in increasing order.
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
    if density(ps) > 1:
        return PinwheelResult(False, None)
    space = 1
    for p in ps:
        space *= p + 1
        if space > cap:
            raise StateSpaceTooLarge(
                f"state space of {'x'.join(str(q + 1) for q in ps)} exceeds the cap of {cap}"
            )

    # canonical arrangement: positions sorted by period; the slice holding
    # each equal-period block keeps its deadlines sorted
    order = sorted(range(len(ps)), key=lambda i: (ps[i], i))
    cps = tuple(ps[i] for i in order)
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
            picks = []
            seen = set()
            for i, d in enumerate(state):
                key = (cps[i], d)
                if key not in seen:
                    seen.add(key)
                    picks.append(i)
            picks.sort(key=lambda i: (state[i], cps[i]))  # most urgent first
        out = []
        for i in picks:
            nxt = [d - 1 for d in state]
            nxt[i] = cps[i]
            out.append(((cps[i], state[i]), canon(tuple(nxt))))
        return out

    start = canon(cps)
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
    return PinwheelResult(True, _replay_witness(ps, stem, cycle))


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
    return PseudoInstance(periods, factor=config.factor, lower_bound=bound)
