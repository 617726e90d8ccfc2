"""Collision analysis, window checks, analytic heights, the chain
cross-check, the calendar and the verdict.

The gcd/CRT collision test is the part most worth distrusting, so it gets a
brute-force shadow: enumerate days over a couple of hyperperiods and compare.
The grouped collision check and the calendar's shared days must also be
exactly what the all-pairs and cut-counting references in `helpers` report,
and the chain check must agree with the collision check wherever it applies.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bamboo.model import (
    BgtInstance,
    InvalidInstance,
    PeriodicSchedule,
    PseudoInstance,
    ScheduleEntry,
)
from bamboo.reduction import PeriodBelowTwo, ReductionConfig, bgt_to_pseudo, scaled
from bamboo.scheduler import solve
from bamboo.verifier import (
    DEFAULT_HORIZON_CAP,
    Collision,
    CollisionReport,
    SimReport,
    VerificationReport,
    WindowViolation,
    _calendar,
    _chain_check,
    _double_booked_days,
    check_collisions,
    check_windows,
    evaluate,
)
from helpers import (
    max_heights,
    random_instance,
    reference_check_collisions,
    reference_check_windows,
    reference_double_booked_days,
    reference_evaluate,
    serves,
    tampered,
)


def sched(*triples):
    return PeriodicSchedule(tuple(ScheduleEntry(j, o, t) for j, o, t in triples))


WORKED = BgtInstance.from_values(["4", "3", "0.1"])


# ---------------------------------------------------------------- collisions


def test_collision_free_chain():
    report = check_collisions(sched((0, 1, 2), (1, 2, 4), (2, 4, 8), (3, 8, 8)))
    assert report.ok and report.collisions == ()


def test_collision_found_with_earliest_day():
    report = check_collisions(sched((0, 1, 2), (1, 3, 4)))
    assert not report.ok
    (c,) = report.collisions
    assert (c.job_a, c.job_b, c.day) == (0, 1, 3)


def test_single_job_never_collides():
    assert check_collisions(sched((0, 1, 1))).ok


@given(st.data())
@settings(max_examples=300)
def test_collision_test_agrees_with_day_enumeration(data):
    n = data.draw(st.integers(min_value=2, max_value=4))
    entries = []
    for j in range(n):
        t = data.draw(st.integers(min_value=1, max_value=6))
        o = data.draw(st.integers(min_value=1, max_value=12))
        entries.append(ScheduleEntry(j, o, t))
    schedule = PeriodicSchedule(tuple(entries))
    report = check_collisions(schedule)

    hyper = math.lcm(*(e.cycle for e in entries))
    horizon = max(e.offset for e in entries) + 2 * hyper
    brute = {}
    for a in range(n):
        for b in range(a + 1, n):
            days = [
                d
                for d in range(1, horizon + 1)
                if serves(entries[a], d) and serves(entries[b], d)
            ]
            if days:
                brute[(a, b)] = days[0]
    got = {(c.job_a, c.job_b): c.day for c in report.collisions}
    assert got == brute


# ---------------------------------------------------------------- windows


def test_windows_against_pseudo_periods():
    pseudo = PseudoInstance((Fraction(24, 7), Fraction(32, 7), Fraction(960, 7)))
    assert check_windows(sched((0, 2, 2), (1, 1, 4), (2, 3, 128)), pseudo)
    # floor(24/7) = 3, so an offset of 4 on job0 is out of its window
    assert not check_windows(sched((0, 4, 2), (1, 1, 4), (2, 3, 128)), pseudo)
    # cycle above the floor is equally bad
    assert not check_windows(sched((0, 2, 4), (1, 1, 4), (2, 3, 128)), pseudo)


def test_windows_requires_matching_job_sets():
    pseudo = PseudoInstance((Fraction(3),))
    with pytest.raises(InvalidInstance) as err:
        check_windows(sched((0, 1, 2), (1, 1, 3)), pseudo)
    assert str(err.value) == "schedule has 2 entries (jobs 0 to 1) but the pseudo-instance has 1 jobs"
    with pytest.raises(InvalidInstance) as err:
        check_windows(sched(), pseudo)
    assert str(err.value) == "schedule has 0 entries but the pseudo-instance has 1 jobs"
    # the message names the count and the ends, not every job id
    many = PeriodicSchedule.of_columns(range(1, 100_001), [1] * 100_000, [2] * 100_000)
    with pytest.raises(InvalidInstance) as err:
        check_windows(many, PseudoInstance((Fraction(3),) * 100_000))
    assert str(err.value) == "schedule has 100000 entries (jobs 1 to 100000) but the pseudo-instance has 100000 jobs"


@st.composite
def window_cases(draw):
    """(garden, config, schedule): a solver schedule for a garden with
    integer or rational rates, under either factor and bound mode, or a copy
    with one job's offset or cycle set to floor(p_i) or floor(p_i) + 1, or
    with the last job dropped or one job too many."""
    n = draw(st.integers(min_value=1, max_value=40))
    spread = draw(st.sampled_from([9, 100, 10**6]))
    if draw(st.booleans()):
        rates = draw(st.lists(st.integers(1, spread), min_size=n, max_size=n))
    else:
        rate = st.builds(Fraction, st.integers(1, spread), st.sampled_from([1, 2, 3, 7, 10, 12]))
        rates = draw(st.lists(rate, min_size=n, max_size=n))
    garden = BgtInstance(tuple(sorted(rates, reverse=True)))
    config = ReductionConfig(draw(st.sampled_from([Fraction(12, 7), Fraction(2)])), draw(st.sampled_from(["max-rule", "sum"])))
    try:
        schedule = solve(garden, config).schedule
    except PeriodBelowTwo:
        return garden, config, None
    jobs, offsets, cycles = map(list, (schedule.jobs, schedule.offsets, schedule.cycles))
    change = draw(st.sampled_from(["none", "offset", "cycle", "drop", "extra"]))
    if change in ("offset", "cycle"):
        job = draw(st.integers(0, n - 1))
        floor = bgt_to_pseudo(garden, config).periods[job] // 1
        (offsets if change == "offset" else cycles)[job] = floor + draw(st.sampled_from([0, 1]))
    elif change == "drop":
        del jobs[-1], offsets[-1], cycles[-1]
    elif change == "extra":
        jobs.append(n)
        offsets.append(1)
        cycles.append(draw(st.integers(1, 4)))
    return garden, config, PeriodicSchedule.of_columns(jobs, offsets, cycles)


def window_outcome(schedule, source):
    try:
        return check_windows(schedule, source)
    except InvalidInstance as exc:
        return type(exc), str(exc)


@given(window_cases())
@example((WORKED, ReductionConfig(), sched((0, 2, 2), (1, 1, 4), (2, 3, 128))))
@example((BgtInstance.from_values([1]), ReductionConfig(), sched((0, 1, 2))))  # floor(12/7) + 1
@example((BgtInstance.from_values([10, 1]), ReductionConfig(Fraction(12, 7), "sum"), None))
@settings(max_examples=200, deadline=None)
def test_windows_agree_across_sources(case):
    garden, config, schedule = case
    if schedule is None:
        # both windows sources refuse the garden with one message
        messages = []
        for source in (scaled, bgt_to_pseudo):
            with pytest.raises(PeriodBelowTwo) as err:
                source(garden, config)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        return
    pseudo = bgt_to_pseudo(garden, config)
    expected = window_outcome(schedule, pseudo)
    assert window_outcome(schedule, scaled(garden, config)) == expected
    try:
        assert reference_check_windows(schedule, pseudo) == expected
    except InvalidInstance as exc:
        assert (type(exc), str(exc)) == expected


# ---------------------------------------------------------------- heights


def test_max_heights_worked_example():
    s = sched((0, 2, 2), (1, 1, 4), (2, 3, 128))
    assert max_heights(s, WORKED) == (8, 12, Fraction(64, 5))


def test_max_heights_small_cases():
    assert max_heights(sched((0, 1, 1)), BgtInstance.from_values([1])) == (1,)
    assert max_heights(
        sched((0, 1, 4), (1, 2, 4)), BgtInstance.from_values([1, 1])
    ) == (4, 4)


# ---------------------------------------------------------------- calendar


def test_simulate_flags_double_booking():
    assert _double_booked_days(sched((0, 1, 2), (1, 3, 4)), 8) == (3, 7)


def test_simulate_memory_is_one_byte_per_day():
    # 64 jobs share cycle 64 at offsets 1..64: no collisions, about 10**6
    # cuts, and a calendar of 10**6 + 1 bytes
    s = PeriodicSchedule(tuple(ScheduleEntry(j, j + 1, 64) for j in range(64)))
    horizon = 10**6
    tracemalloc.start()
    try:
        days = _double_booked_days(s, horizon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 10 * peak < 11 * (horizon + 1)
    assert days == ()


# ------------------------------------------------- equality with references

# fractional rates from a small pool, so ties between bamboos are common
RATES = st.sampled_from([Fraction(3), Fraction(2), Fraction(3, 2), Fraction(1), Fraction(2, 3), Fraction(1, 2)])


@st.composite
def small_schedules(draw, max_jobs=6, max_offset=15, max_cycle=8):
    """(instance, schedule, horizon) with some jobs left out, offsets past
    their cycle and past the horizon, and horizons down to 1."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    rates = sorted(draw(st.lists(RATES, min_size=n, max_size=n)), reverse=True)
    jobs = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n, unique=True))
    entries = tuple(
        ScheduleEntry(
            j,
            draw(st.integers(min_value=1, max_value=max_offset)),
            draw(st.integers(min_value=1, max_value=max_cycle)),
        )
        for j in jobs
    )
    horizon = draw(st.integers(min_value=1, max_value=30))
    return BgtInstance(tuple(rates)), PeriodicSchedule(entries), horizon


# days 6 and 12 are cut three times
TRIPLE = (BgtInstance.from_values([1, 1, 1]), sched((0, 2, 2), (1, 3, 3), (2, 6, 6)), 12)


@given(small_schedules())
@example(TRIPLE)
@example((BgtInstance.from_values([1]), sched((0, 1, 1)), 1))
@example((BgtInstance.from_values([1, 1]), sched(), 3))  # no job in the schedule
@example((BgtInstance.from_values([1, 1]), sched((0, 3, 3), (1, 3, 3)), 3))  # shared on the horizon
@example((BgtInstance.from_values([2, 1, 1]), sched((0, 2, 2), (1, 4, 8), (2, 8, 4)), 20))  # an offset past its cycle
@example((BgtInstance.from_values(["1/2", "1/2"]), sched((1, 5, 2)), 1))  # and past the horizon
@settings(max_examples=600, deadline=None)
def test_simulate_equals_reference(case):
    _, schedule, horizon = case
    assert _double_booked_days(schedule, horizon) == reference_double_booked_days(schedule, horizon)


@given(small_schedules(max_jobs=30, max_offset=40, max_cycle=24))
@example(TRIPLE)
@settings(max_examples=400, deadline=None)
def test_check_collisions_equals_reference(case):
    _, schedule, _ = case
    assert check_collisions(schedule) == reference_check_collisions(schedule)


# cycles 8..47 with two entries each, offsets 1 apart, or 4 apart on the
# multiples of 8: most cycle pairs share a residue class modulo their gcd
# (every coprime pair does) and some do not, so both the pair search and
# the disjoint skip run
MANY_CYCLES = PeriodicSchedule(
    tuple(
        ScheduleEntry(2 * k + i, 1 + 3 * (k % 3) + (4 if c % 8 == 0 else 1) * i, c)
        for k, c in enumerate(range(8, 48))
        for i in (0, 1)
    )
)


def test_check_collisions_equals_reference_over_many_cycles():
    groups: dict[int, set[int]] = {}
    for e in MANY_CYCLES.entries:
        groups.setdefault(e.cycle, set()).add(e.offset % e.cycle)
    meeting = disjoint = 0
    for (c1, r1), (c2, r2) in itertools.combinations(groups.items(), 2):
        g = math.gcd(c1, c2)
        if {r % g for r in r1} & {r % g for r in r2}:
            meeting += 1
        else:
            disjoint += 1
    assert len(groups) >= 30 and meeting > disjoint > 0
    assert check_collisions(MANY_CYCLES) == reference_check_collisions(MANY_CYCLES)


def test_triple_cut_day_is_reported_once():
    _, schedule, horizon = TRIPLE
    assert _double_booked_days(schedule, horizon) == (6, 12)
    assert len(check_collisions(schedule).collisions) == 3


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25, deadline=None)
def test_solver_schedules_equal_reference(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, n_lo=2, n_hi=200, rate_hi=rng.choice([100, 10**6]))
    schedule = solve(inst).schedule
    horizon = min(20_000, max(e.offset + e.cycle for e in schedule.entries))
    for s in (schedule, tampered(schedule)):
        assert check_collisions(s) == reference_check_collisions(s)
        assert _double_booked_days(s, horizon) == reference_double_booked_days(s, horizon)
    assert not check_collisions(tampered(schedule)).ok


# divisor-rich cycles with a few primes among them, so the lcm of a
# schedule's cycles fits the horizon for some draws and passes it for others
PERIODIC_CYCLES = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 5, 7, 11, 13])


@st.composite
def periodic_schedules(draw):
    """(schedule, horizon) for the calendar: offsets from 1 to twice the
    cycle (offset = cycle is residue 0, and an offset past the cycle starts
    late), jobs left out, horizons up to 5,000."""
    n = draw(st.integers(min_value=1, max_value=8))
    jobs = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n, unique=True))
    entries = []
    for j in jobs:
        c = draw(PERIODIC_CYCLES)
        entries.append(ScheduleEntry(j, draw(st.integers(min_value=1, max_value=2 * c)), c))
    horizon = draw(st.integers(min_value=1, max_value=5000))
    return PeriodicSchedule(tuple(entries)), horizon


@given(periodic_schedules())
# days 1, 7, 13, ... are cut three times, every sixth day to the horizon
@example((sched((0, 1, 2), (1, 1, 3), (2, 1, 6)), 30))
@example((sched((0, 4, 4), (1, 6, 6), (2, 12, 12)), 50))  # residue 0 only
@example((sched((0, 1, 4), (1, 6, 6)), 11))  # lcm 12 = horizon + 1
@example((sched((0, 1, 4), (1, 6, 6)), 10))  # and one day past the calendar
# the lcm passes the horizon at the second cycle, 13, and cycle 16 comes after it
@example((sched((0, 3, 8), (1, 5, 13), (2, 7, 16)), 60))
@settings(max_examples=200, deadline=None)
def test_simulate_copy_path_equals_reference(case):
    schedule, horizon = case
    assert _double_booked_days(schedule, horizon) == reference_double_booked_days(schedule, horizon)


def test_solver_schedule_at_default_horizon_equals_reference():
    inst = random_instance(random.Random(7), n_lo=200, n_hi=200, rate_hi=100)
    schedule = solve(inst).schedule
    # the horizon the calendar derives: every pair that meets has met by it
    horizon = min(DEFAULT_HORIZON_CAP, max(schedule.offsets) + math.lcm(*schedule.cycles) - 1)
    assert horizon < DEFAULT_HORIZON_CAP
    for s in (schedule, tampered(schedule)):
        assert _double_booked_days(s, horizon) == reference_double_booked_days(s, horizon)


def test_simulate_memory_is_one_calendar_on_a_solver_schedule():
    # the calendar is 10**6 + 1 bytes; each entry's slice and its
    # translation add 2 / cycle of that, and no cycle here is below 768
    inst = random_instance(random.Random(0), n_lo=1000, n_hi=1000, rate_hi=10**6)
    schedule = solve(inst).schedule
    horizon = 10**6
    tracemalloc.start()
    try:
        _double_booked_days(schedule, horizon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 10 * peak < 11 * (horizon + 1)


def test_calendar_memory_has_no_per_entry_term():
    # the CAPPED schedule of test_cli: cycle 2 at the 10**6-day cap, so the
    # slice of every other day and its translation add 2 / 2 of the calendar
    s = sched((0, 2, 2), (1, 1, 1002), (2, 3, 1038), (3, 5, 1074))
    tracemalloc.start()
    try:
        rep = _calendar(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.horizon == DEFAULT_HORIZON_CAP and rep.double_booked_days == ()
    assert 10 * peak < 21 * (rep.horizon + 1)


# ---------------------------------------------------------------- evaluate


def test_evaluate_worked_example_report():
    sol = solve(WORKED)
    report = evaluate(
        WORKED,
        sol.schedule,
        pseudo=bgt_to_pseudo(WORKED),
        lower_bound_value=sol.lower_bound,
    )
    assert report.ok
    obj = report.to_obj()
    assert obj["ok"] is True
    assert obj["collision_free"] is True
    assert obj["windows_ok"] is True
    assert obj["per_job_heights"] == ["8", "12", "64/5"]
    assert obj["analytic_max_height"] == "64/5"
    assert obj["ratio_vs_lower_bound"] == "8/5"
    # ok from the chain cross-check: no calendar ran
    assert obj["verdict"] == "ok" and obj["chain_collision_free"] is True
    assert "simulation" not in obj and "window_violation" not in obj
    assert report.sim is None and report.horizon_conclusive is False


def test_evaluate_catches_tampering():
    sol = solve(WORKED)
    entries = list(sol.schedule.entries)
    entries[1] = ScheduleEntry(1, 2, 4)  # now lands on job0's days
    bad = PeriodicSchedule(tuple(entries))
    report = evaluate(WORKED, bad, pseudo=bgt_to_pseudo(WORKED))
    assert not report.ok and report.verdict == "failed"
    assert not report.collisions.ok
    assert report.chain_collision_free is False and report.sim is None


def test_evaluate_names_the_lowest_window_violation():
    # floors 3, 4 and 137: jobs 1 and 2 pass theirs, job 0 does not
    bad = sched((0, 2, 2), (1, 1, 8), (2, 3, 256))
    report = evaluate(WORKED, bad, pseudo=bgt_to_pseudo(WORKED))
    assert report.verdict == "failed" and report.windows_ok is False
    assert report.window_violation == WindowViolation(job=1, offset=1, cycle=8, floor=4)
    assert report.to_obj()["window_violation"] == {"job": 1, "offset": 1, "cycle": 8, "floor": 4}
    # a missing job fails the windows without a violation to name
    report = evaluate(WORKED, sched((0, 2, 2), (1, 1, 4)), pseudo=bgt_to_pseudo(WORKED))
    assert report.windows_ok is False and report.window_violation is None


# ---------------------------------------------------------------- chain cross-check

CONFIG_PAIR = (ReductionConfig(), ReductionConfig(Fraction(2), "sum"))


def shifted(schedule: PeriodicSchedule, rng: random.Random) -> PeriodicSchedule:
    """One entry's offset one day earlier or later: its residue off by one."""
    entries = list(schedule.entries)
    i = rng.randrange(len(entries))
    e = entries[i]
    entries[i] = ScheduleEntry(e.job, e.offset + 1 if e.offset == 1 else e.offset + rng.choice((-1, 1)), e.cycle)
    return PeriodicSchedule(entries)


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([9, 100, 10**6]))
@settings(max_examples=150, deadline=None)
def test_chain_check_equals_check_collisions(seed, rate_max):
    """Every solver schedule has chain structure and no collision; a
    tampered copy keeps the structure or loses it, and where it keeps it the
    chain check and the collision check agree."""
    rng = random.Random(seed)
    instance = random_instance(rng, n_lo=1, n_hi=40, rate_hi=rate_max)
    for config in CONFIG_PAIR:
        schedule = solve(instance, config).schedule
        assert _chain_check(schedule) is True
        for copy in (tampered(schedule), shifted(schedule, rng)):
            chain = _chain_check(copy)
            assert chain is None or chain == check_collisions(copy).ok


@st.composite
def chain_schedules(draw):
    """Schedules with chain structure and any offsets: one class, cycles
    base * 2^k, or two parity classes, cycles 2^k and 6 * 2^k, each entry
    on an offset of its class's parity."""
    n = draw(st.integers(min_value=1, max_value=8))
    entries = []
    if draw(st.booleans()):
        base = draw(st.sampled_from([1, 3, 5]))
        for job in range(n):
            cycle = base << draw(st.integers(min_value=0, max_value=4))
            entries.append(ScheduleEntry(job, draw(st.integers(min_value=1, max_value=2 * cycle)), cycle))
    else:
        for job in range(n):
            parity = draw(st.integers(min_value=0, max_value=1))
            cycle = (2 if parity else 6) << draw(st.integers(min_value=0, max_value=3))
            offset = 2 * draw(st.integers(min_value=0, max_value=cycle)) + parity
            entries.append(ScheduleEntry(job, offset or 2, cycle))
    return PeriodicSchedule(entries)


@given(chain_schedules())
@settings(max_examples=300, deadline=None)
def test_chain_check_decides_every_chain_schedule(schedule):
    assert _chain_check(schedule) == check_collisions(schedule).ok


def test_chain_check_mutants():
    # one class: cycles 2 | 4 | 8, residues 1, 2 and 4
    clean = sched((0, 1, 2), (1, 2, 4), (2, 4, 8))
    assert _chain_check(clean) is True
    # a residue off by one: 3 and 5 are 1 modulo 2, job 0's day
    for offset in (3, 5):
        assert _chain_check(sched((0, 1, 2), (1, 2, 4), (2, offset, 8))) is False
    # equal residues within one cycle, and a larger cycle's residue reduced onto a smaller one's
    assert _chain_check(sched((0, 2, 4), (1, 6, 4), (2, 3, 16))) is False
    assert _chain_check(sched((0, 2, 4), (1, 1, 8), (2, 14, 16))) is False
    # parity classes: B' on odd days (4 | 8), C' on even days (6 | 12)
    parity = sched((0, 1, 4), (1, 2, 6), (2, 3, 8), (3, 4, 12))
    assert _chain_check(parity) is True
    assert _chain_check(sched((0, 1, 4), (1, 2, 6), (2, 5, 8), (3, 4, 12))) is False
    assert _chain_check(sched((0, 1, 4), (1, 2, 6), (2, 3, 8), (3, 8, 12))) is False
    # a chain-breaking cycle (10 in the even class) and an odd cycle mixed
    # into the parity classes: no chain structure, so the calendar decides.
    # Odd cycles void the parity argument: 3 | 6 on odd days would be a
    # chain, but job 0 (day 1 mod 3) meets job 2 (day 2 mod 4) on day 10
    for broken in (
        sched((0, 1, 4), (1, 2, 6), (2, 3, 8), (3, 4, 10)),
        sched((0, 1, 4), (1, 2, 6), (2, 3, 8), (3, 5, 9)),
        sched((0, 1, 3), (1, 3, 6), (2, 2, 4)),
    ):
        assert _chain_check(broken) is None
        report = evaluate(BgtInstance.from_values([1] * len(broken.jobs)), broken)
        assert report.chain_collision_free is None and report.sim is not None
        assert report.ok == (report.sim.double_booked_days == ()) == check_collisions(broken).ok


def test_verdict_rules():
    clean, bad = CollisionReport(()), CollisionReport((Collision(0, 1, 2),))
    covered = SimReport(horizon=8, pairs_covered=True, double_booked_days=())
    capped = SimReport(horizon=8, pairs_covered=False, double_booked_days=())
    doubled = SimReport(horizon=8, pairs_covered=False, double_booked_days=(2,))

    def verdict(collisions=clean, chain=True, jobs_ok=True, windows_ok=True, sim=None):
        fields = dict(collisions=collisions, chain_collision_free=chain, jobs_ok=jobs_ok, windows_ok=windows_ok)
        fields.update(window_violation=None, peaks=(4, 4), analytic_max=Fraction(4), sim=sim)
        report = VerificationReport(**fields, lower_bound=None, ratio=None)
        assert report.ok == (report.verdict == "ok") and report.horizon_conclusive is False
        return report.verdict

    assert verdict() == verdict(windows_ok=None) == verdict(chain=None, sim=covered) == "ok"
    # an exact check fails
    assert verdict(collisions=bad, chain=False) == verdict(jobs_ok=False) == verdict(windows_ok=False) == "failed"
    # a cross-check disagrees with the collision check
    assert verdict(chain=False) == verdict(sim=doubled) == verdict(chain=None, sim=doubled) == "failed"
    # nothing failed, and nothing covered every pair
    assert verdict(chain=None, sim=capped) == verdict(chain=None) == "inconclusive"


def test_chain_check_on_a_single_bamboo_and_a_period_three_job():
    # n = 1 (cycle 1), the lone period-3 C' job with its pair, and C' alone
    # on 3 | 6 | 12, which parity classes alone could not check
    for rates, cycles in (([5], (1,)), ([8, 5], (3, 3)), ([8, 3], (3, 6)), ([38, 14, 8], (3, 6, 12))):
        instance = BgtInstance.from_values(rates)
        schedule = solve(instance).schedule
        assert schedule.cycles == cycles
        report = evaluate(instance, schedule, pseudo=bgt_to_pseudo(instance))
        assert report.verdict == "ok" and report.chain_collision_free is True and report.sim is None


@pytest.mark.parametrize("n", [1, 10, 100, 1_000, 5_000, 20_000])
def test_every_solver_schedule_reads_ok_from_the_chain(n):
    for rate_max in (100, 10**6):
        rng = random.Random(f"grid:{n}:{rate_max}")
        instance = BgtInstance.from_values(sorted((rng.randint(1, rate_max) for _ in range(n)), reverse=True))
        for config in CONFIG_PAIR:
            garden = scaled(instance, config)
            report = evaluate(instance, solve(instance, config).schedule, pseudo=garden, lower_bound_value=garden.lower_bound)
            assert report.verdict == "ok" and report.chain_collision_free is True and report.sim is None


# ---------------------------------------------------------------- residue table

# one class: a chain of cycles, or any cycles up to 12
ONE_CLASS = ((1, 2, 4, 8, 16), (3, 6, 12, 24), tuple(range(1, 13)))
# two parity classes, even residues on the first pool and odd on the
# second: both chains, or only the odd one (6 does not divide 8)
PARITY_CLASSES = (((6, 12, 24, 48), (2, 4, 8, 16)), ((6, 8, 12, 16), (2, 4, 8, 16)))


@st.composite
def table_schedules(draw):
    """Schedules whose residue table has repeats and meeting classes: each
    entry takes a fresh residue or one that meets an earlier entry of its
    class (modulo the gcd of the two cycles, so the same residue on the
    same cycle), and its offset may pass its cycle by up to two cycles. In
    the parity shapes an entry's class is its residue parity: every cycle
    is even, so a meeting residue keeps the parity."""
    parity = draw(st.booleans())
    pools = draw(st.sampled_from(PARITY_CLASSES)) if parity else (draw(st.sampled_from(ONE_CLASS)),) * 2
    entries: list[tuple[int, int, int]] = []  # (class, residue, cycle)
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        cls = draw(st.integers(min_value=0, max_value=1)) if parity else 0
        c = draw(st.sampled_from(pools[cls]))
        mates = [e for e in entries if e[0] == cls]
        if mates and draw(st.booleans()):
            _, r_e, c_e = draw(st.sampled_from(mates))
            g = math.gcd(c, c_e)
            r = r_e % g + g * draw(st.integers(min_value=0, max_value=c // g - 1))
        elif parity:
            r = 2 * draw(st.integers(min_value=0, max_value=c // 2 - 1)) + cls
        else:
            r = draw(st.integers(min_value=0, max_value=c - 1))
        entries.append((cls, r, c))
    late = st.integers(min_value=0, max_value=2)
    return PeriodicSchedule(tuple(ScheduleEntry(j, r + c * draw(late) or c, c) for j, (_, r, c) in enumerate(entries)))


def has_chain_structure(schedule: PeriodicSchedule) -> bool:
    """The distinct cycles are one divides chain, or every cycle is even and
    the cycles of each offset parity are one."""

    def is_chain(cycles) -> bool:
        ascending = sorted(set(cycles))
        return all(b % a == 0 for a, b in zip(ascending, ascending[1:]))

    rows = list(zip(schedule.offsets, schedule.cycles))
    if is_chain(schedule.cycles):
        return True
    return all(c % 2 == 0 for _, c in rows) and all(is_chain(c for o, c in rows if o % 2 == p) for p in (0, 1))


@given(table_schedules())
@example(sched((0, 1, 3)))  # a single entry
@example(sched((0, 1, 4), (1, 5, 4), (2, 2, 8), (3, 10, 8), (4, 18, 16)))  # repeats in two cycles
@example(sched((0, 1, 4), (1, 9, 8), (2, 2, 6), (3, 14, 12)))  # a meeting pair in each parity class
@example(sched((0, 1, 4), (1, 3, 8), (2, 2, 6), (3, 4, 8)))  # the odd class a chain, the even one not
@settings(max_examples=300, deadline=None)
def test_evaluate_reads_one_table_for_both_checks(schedule):
    report = evaluate(BgtInstance.from_values([1] * len(schedule.jobs)), schedule)
    assert report.collisions == reference_check_collisions(schedule)
    assert report.chain_collision_free == _chain_check(schedule)
    assert report.chain_collision_free == (report.collisions.ok if has_chain_structure(schedule) else None)


def test_same_cycle_and_cross_cycle_collisions_in_one_report():
    # jobs 0 and 2 meet across cycles 8 and 16 (10 = 2 mod 8), first on day
    # 10; jobs 1 and 3 share residue 1 modulo 4, first on day 5. The
    # same-cycle pair is found first, and the report lists entry order.
    schedule = sched((0, 2, 8), (1, 1, 4), (2, 10, 16), (3, 5, 4))
    expected = (Collision(0, 2, 10), Collision(1, 3, 5))
    assert check_collisions(schedule).collisions == expected == reference_check_collisions(schedule).collisions
    report = evaluate(BgtInstance.from_values([1] * 4), schedule)
    assert report.collisions.collisions == expected
    assert report.chain_collision_free is False and report.verdict == "failed" and report.sim is None
    assert report.to_obj()["collisions"] == [
        {"job_a": 0, "job_b": 2, "day": 10},
        {"job_a": 1, "job_b": 3, "day": 5},
    ]


PERIODS = st.sampled_from([2, 3, Fraction(7, 2), Fraction(13, 3), 5, 8, Fraction(64, 5)])
BOUNDS = st.none() | st.sampled_from([Fraction(1), Fraction(9, 2), 8])


@st.composite
def evaluate_cases(draw):
    """(instance, schedule, keyword arguments) for evaluate: hand-made
    schedules with missing jobs, job ids past n and rational rates, or
    solver schedules for up to 200 bamboos, clean or tampered; with or
    without a pseudo-instance, whose n may differ from the instance's."""
    if draw(st.booleans()):
        instance, schedule, _ = draw(small_schedules())
        if draw(st.booleans()):
            extra = ScheduleEntry(instance.n + draw(st.integers(min_value=0, max_value=2)), 1, 2)
            schedule = PeriodicSchedule(schedule.entries + (extra,))
    else:
        rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
        instance = random_instance(rng, n_lo=1, n_hi=200, rate_hi=rng.choice([100, 10**6]))
        schedule = solve(instance).schedule
        if draw(st.booleans()):
            schedule = tampered(schedule)
    n = instance.n + draw(st.sampled_from([0, 0, 0, -1, 1]))
    pseudo = draw(st.none() | st.lists(PERIODS, min_size=n, max_size=n).map(lambda ps: PseudoInstance(tuple(ps))))
    return instance, schedule, {"pseudo": pseudo, "lower_bound_value": draw(BOUNDS)}


def outcome(fn, instance, schedule, kwargs):
    try:
        return fn(instance, schedule, **kwargs).to_obj()
    except ValueError as exc:
        return type(exc), str(exc)


@given(evaluate_cases())
@example((WORKED, sched((0, 2, 2), (1, 1, 4), (2, 3, 128)), {"pseudo": bgt_to_pseudo(WORKED)}))
@example((WORKED, sched((0, 2, 2), (2, 3, 128)), {"pseudo": bgt_to_pseudo(WORKED)}))  # job 1 missing
@example((WORKED, sched((0, 2, 2), (1, 1, 4), (3, 3, 128)), {}))  # job 3 of 3 bamboos
@example((WORKED, sched((0, 2, 2), (1, 1, 4), (2, 3, 128)), {"pseudo": PseudoInstance((3, 4))}))
@settings(max_examples=150, deadline=None)
def test_evaluate_equals_reference(case):
    instance, schedule, kwargs = case
    assert outcome(evaluate, instance, schedule, kwargs) == outcome(reference_evaluate, instance, schedule, kwargs)


def first_primes(k: int) -> list[int]:
    limit = 90_000  # the 8,000th prime is 81,799
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    primes = [i for i, is_prime in enumerate(sieve) if is_prime]
    assert len(primes) >= k
    return primes[:k]


# 8,000 pairwise-coprime cycles: their lcm has about 35,000 digits
COPRIME = PeriodicSchedule(tuple(ScheduleEntry(j, 1, p) for j, p in enumerate(first_primes(8000))))


def test_default_horizon_formula():
    # cycles 4 and 6 meet on day 7, by 3 + lcm 12 - 1
    assert _calendar(sched((0, 3, 4), (1, 1, 6))) == SimReport(horizon=14, pairs_covered=True, double_booked_days=(7,))
    # the lcm of the primes passes the cap at 19 and is not folded further
    rep = _calendar(COPRIME)
    assert rep.horizon == DEFAULT_HORIZON_CAP and rep.pairs_covered is False
    assert rep.double_booked_days[:3] == (1, 7, 11)


@st.composite
def horizon_schedules(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    cycles = st.integers(min_value=1, max_value=12) | st.integers(min_value=1, max_value=5000)
    offsets = st.integers(min_value=1, max_value=40) | st.integers(min_value=1, max_value=2 * DEFAULT_HORIZON_CAP)
    return PeriodicSchedule(tuple(ScheduleEntry(j, draw(offsets), draw(cycles)) for j in range(n)))


@given(horizon_schedules())
@example(COPRIME)
@example(sched((0, 2, 999_999)))  # max offset + lcm - 1 lands on the cap
@example(sched((0, 3, 999_999)))  # one day past it
@example(sched((0, DEFAULT_HORIZON_CAP + 5, 1)))  # the offset alone passes it
# each example marks a calendar of up to 10**6 days
@settings(max_examples=40, deadline=None)
def test_default_horizon_is_the_capped_formula(schedule):
    full = max(schedule.offsets) + math.lcm(*schedule.cycles) - 1
    rep = _calendar(schedule)
    assert rep.horizon == min(DEFAULT_HORIZON_CAP, full)
    assert rep.pairs_covered == (full <= DEFAULT_HORIZON_CAP)


@given(small_schedules(max_jobs=8, max_offset=40, max_cycle=24))
@example((BgtInstance.from_values([1] * 3), sched((0, 1, 4), (1, 2, 6), (2, 3, 9)), 1))
@settings(max_examples=300, deadline=None)
def test_covering_calendar_sees_every_collision(case):
    """Without chain structure the calendar decides: when its horizon is
    not capped, every collision falls on one of its double-booked days."""
    instance, schedule, _ = case
    assume(_chain_check(schedule) is None)
    report = evaluate(instance, schedule)
    sim = report.sim
    if sim.pairs_covered:
        for c in report.collisions.collisions:
            assert c.day <= sim.horizon and c.day in sim.double_booked_days
    if not (report.collisions.ok and report.jobs_ok):
        assert report.verdict == "failed"
    else:
        assert report.verdict == ("ok" if sim.pairs_covered else "inconclusive")
