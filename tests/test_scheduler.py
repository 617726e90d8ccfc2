"""Divides-chain scheduling, the odd/even interleave, and the full solver."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bamboo.cli import solution_to_obj
from bamboo.model import (
    BgtInstance,
    InvalidInstance,
    JobPeriod,
    PeriodicSchedule,
    PseudoInstance,
    ScheduleEntry,
    schedule_from_obj,
)
from bamboo.reduction import ReductionConfig, bgt_to_pseudo, scaled
from bamboo.rounding import NormalizedState, decompose, normalize, split_23
from bamboo.scheduler import (
    ChainInstance,
    NotAChain,
    Overdense,
    interleave,
    partition_bins,
    schedule_chain,
    solve,
)
from bamboo.verifier import evaluate
from helpers import floors, random_instance, reference_as_pairs, reference_interleave, reference_solve, serves


def chain(*periods):
    return ChainInstance(tuple(sorted((p, i) for i, p in enumerate(periods))))


def entry_triples(schedule):
    return [(e.job, e.offset, e.cycle) for e in schedule.entries]


def day_letters(schedule, horizon):
    out = []
    for day in range(1, horizon + 1):
        served = [e.job for e in schedule.entries if serves(e, day)]
        assert len(served) <= 1, f"day {day} double-booked"
        out.append("ABCDEFGH"[served[0]] if served else ".")
    return "".join(out)


# ---------------------------------------------------------------- chains


def test_chain_instance_validation():
    with pytest.raises(NotAChain):
        chain(2, 3)
    with pytest.raises(Overdense):
        chain(2, 2, 2)
    with pytest.raises(ValueError):
        chain(0, 4)
    # bool is an int subclass; True must not pass as period 1
    with pytest.raises(NotAChain):
        ChainInstance(((True, 0),))


@pytest.mark.parametrize("bad", ["4", 4.0, True, 0])
def test_chain_instance_names_a_bad_period(bad):
    # periods are checked once per run of one period; one that is no plain
    # int is named before the run search adds 1 to it, also inside a run
    first = 1 if bad is True else 4
    makes = [
        lambda: ChainInstance(((bad, 0),)),
        lambda: ChainInstance(((bad, 0), (8, 1))),
    ]
    if bad != 0:
        makes.append(lambda: ChainInstance(((first, 0), (bad, 1), (8, 2))))
    for make in makes:
        with pytest.raises(NotAChain) as err:
            make()
        assert str(err.value) == f"period {bad!r} is not a positive integer"


def test_chain_instance_refuses_unsorted_pairs():
    # unsorted pairs once passed the check and failed later, in `_cut`
    with pytest.raises(NotAChain) as err:
        ChainInstance(((8, 0), (4, 1), (2, 2)))
    assert str(err.value) == "pairs are not sorted: (4, 1) comes after (8, 0)"
    with pytest.raises(NotAChain) as err:
        ChainInstance(((2, 0), (4, 1), (2, 2), (8, 3)))
    assert str(err.value) == "pairs are not sorted: (2, 2) comes after (4, 1)"


def schedule_sides(sides):
    # one side is a chain for schedule_chain; two are B' and C' for interleave
    if len(sides) == 1:
        return schedule_chain(ChainInstance(sides[0]))
    return interleave(NormalizedState(*sides, "none", 0, 0))


@pytest.mark.parametrize(
    "sides, message",
    [
        ([((4, -1),)], "job id -1 is negative"),
        ([((4, 0), (4, 0))], "job 0 appears twice"),
        ([((2, 0), (4, "a"))], "entry field \"job\" must be an integer, got 'a'"),
        ([((2, True), (4, 1))], "entry field \"job\" must be an integer, got True"),
        ([((2, 1), (4, 0), (8, 1))], "job 1 appears twice"),
        ([((4, 0),), ((3, -1),)], "job id -1 is negative"),
        ([((4, 0),), ((6, 0),)], "job 0 appears twice"),
        ([((4, "a"),), ((6, 1),)], "entry field \"job\" must be an integer, got 'a'"),
    ],
    ids=[
        "negative",
        "repeated",
        "str",
        "bool",
        "repeated-across-runs",
        "interleave-negative-period-3",
        "interleave-shared",
        "interleave-str",
    ],
)
def test_builders_refuse_bad_job_ids(sides, message):
    # the schedule is the one check of job ids, on both sides of an
    # interleave at once: a shared id once overwrote the other side's slot,
    # the lone period-3 job of C' went unchecked and a str id raised a bare
    # TypeError; the message is the one schedule JSON gets for the same ids
    with pytest.raises(InvalidInstance) as err:
        schedule_sides(sides)
    assert str(err.value) == message
    entries = [{"job": job, "offset": 1, "cycle": 1} for side in sides for _, job in side]
    with pytest.raises(InvalidInstance) as err:
        schedule_from_obj(entries)
    assert str(err.value) == message


def test_schedule_chain_places_any_int_job_id():
    # placement appends ids: no list is sized by the largest one
    schedule = schedule_chain(ChainInstance(((4, 10**20),)))
    assert (schedule.jobs, schedule.offsets, schedule.cycles) == ((10**20,), (1,), (4,))


def test_partition_bins_examples():
    bins = partition_bins(chain(2, 4, 8, 8))
    assert bins.pairs == (((2, 0),), ((4, 1), (8, 2), (8, 3)))
    bins = partition_bins(chain(3, 6, 6))
    assert bins.pairs == (((3, 0),), ((6, 1), (6, 2)))
    bins = partition_bins(chain(5))
    assert bins.pairs == (((5, 0),),)


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=10))
@settings(max_examples=200)
def test_partition_bins_respects_capacity(exponents):
    periods = sorted(2**j for j in exponents)
    try:
        ch = chain(*periods)
    except Overdense:
        return
    bins = partition_bins(ch).pairs
    cap = Fraction(1, periods[0])
    assert len(bins) <= periods[0]
    for b in bins:
        assert sum(Fraction(1, period) for period, _ in b) <= cap
    # consecutive slices of the sorted chain, every bin but the last full
    assert tuple(pair for b in bins for pair in b) == ch.pairs
    p_min, p_max = periods[0], periods[-1]
    for b in bins[:-1]:
        assert sum(p_max // period for period, _ in b) == p_max // p_min


def test_schedule_chain_examples():
    s = schedule_chain(chain(2, 4, 8, 8))
    assert entry_triples(s) == [(0, 1, 2), (1, 2, 4), (2, 4, 8), (3, 8, 8)]
    assert day_letters(s, 8) == "ABACABAD"

    assert entry_triples(schedule_chain(chain(1))) == [(0, 1, 1)]

    s = schedule_chain(chain(3, 6, 6))
    assert entry_triples(s) == [(0, 1, 3), (1, 2, 6), (2, 5, 6)]

    # bins holding bins: [4], [8, 8] on days 2 mod 4, [16] * 4 on days 3 mod 4
    s = schedule_chain(chain(4, 8, 8, 16, 16, 16, 16))
    assert entry_triples(s) == [(0, 1, 4), (1, 2, 8), (2, 6, 8), (3, 3, 16), (4, 7, 16), (5, 11, 16), (6, 15, 16)]
    assert day_letters(s, 16) == "ABD.ACE.ABF.ACG."

    # four levels of bins: the pair of 32s and the pair of 64s split only at the fourth
    s = schedule_chain(chain(2, 4, 16, 16, 32, 32, 64, 64))
    assert entry_triples(s) == [
        (0, 1, 2), (1, 2, 4), (2, 4, 16), (3, 8, 16), (4, 12, 32), (5, 28, 32), (6, 16, 64), (7, 32, 64),
    ]


@given(st.data())
@settings(max_examples=200)
def test_schedule_chain_is_collision_free_and_window_true(data):
    # build a random divides chain by stacking multiplicative jumps
    base = data.draw(st.integers(min_value=1, max_value=4))
    periods = [base]
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        periods.append(periods[-1] * data.draw(st.sampled_from([1, 2, 3, 4])))
    try:
        ch = chain(*sorted(periods))
    except Overdense:
        return
    s = schedule_chain(ch)
    # cycle equals the period exactly, offset stays within it
    by_job = {job: period for period, job in ch.pairs}
    for e in s.entries:
        assert e.cycle == by_job[e.job]
        assert 1 <= e.offset <= e.cycle
    # pairwise disjoint over a full hyperperiod
    horizon = max(p for p in periods) * 2
    day_letters(s, horizon)


# ---------------------------------------------------------------- interleave


def norm_of(periods):
    ps = PseudoInstance(tuple(Fraction(p) for p in periods))
    state = split_23(floors(ps))
    return normalize(decompose(state), state)


def test_interleave_worked_example():
    s = interleave(norm_of([4, 128, 3]))
    assert entry_triples(s) == [(0, 1, 4), (1, 3, 128), (2, 2, 2)]
    # odd days carry the power-of-two side, even days the lone 3-job
    assert day_letters(s, 8) == "ACBCAC.C"


def test_interleave_single_side_runs_direct_chain():
    s = interleave(norm_of([8, 6]))  # case a folds everything into C'
    assert entry_triples(s) == [(0, 1, 6), (1, 2, 6)]
    s = interleave(norm_of([2]))
    assert entry_triples(s) == [(0, 1, 2)]


def test_interleave_case_d_witness():
    s = interleave(norm_of([4, 8, 16, 32, 12]))
    assert entry_triples(s) == [(0, 1, 4), (1, 3, 8), (2, 7, 16), (3, 15, 32), (4, 2, 12)]
    # odd days carry the power-of-two chain, even days the 12
    letters = day_letters(s, 16)
    assert letters[0::2] == "ABACABAD"  # days 1,3,5,...,15
    assert letters[1] == "E"  # day 2



def _outcome(build, norm):
    try:
        return entry_triples(build(norm))
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)


def test_interleave_matches_reference_on_every_small_state():
    # every B' multiset over {2..32} and C' multiset over {3..48}, five jobs
    # at most: 3003 states, dense ones included, so both the schedules and
    # the refusals must agree with the halve-and-double reference
    grid = [2, 4, 8, 16, 32, 3, 6, 12, 24, 48]
    states = 0
    for size in range(6):
        for periods in itertools.combinations_with_replacement(grid, size):
            pairs = sorted((p, i) for i, p in enumerate(periods))
            bp = tuple(pair for pair in pairs if pair[0] % 3)
            cp = tuple(pair for pair in pairs if pair[0] % 3 == 0)
            norm = NormalizedState(bp=bp, cp=cp, case="none", r=0, s=0)
            assert _outcome(interleave, norm) == _outcome(reference_interleave, norm), periods
            states += 1
    assert states == 3003


# ---------------------------------------------------------------- full solver


def test_solve_worked_example():
    sol = solve(BgtInstance.from_values(["4", "3", "0.1"]))
    assert sol.lower_bound == 8
    assert sol.guarantee == Fraction(96, 7)
    assert sol.height_bound == Fraction(64, 5)
    assert entry_triples(sol.schedule) == [(0, 2, 2), (1, 1, 4), (2, 3, 128)]
    assert sol.normalized.case == "b"
    assert sol.normalized.y == Fraction(5, 6)
    assert sol.rounded is None and sol.certified


def test_solve_single_bamboo():
    sol = solve(BgtInstance.from_values(["1"]))
    assert entry_triples(sol.schedule) == [(0, 1, 1)]
    assert sol.height_bound == 1 and sol.guarantee == 1
    assert scaled(sol.instance, sol.config).periods() == (Fraction(12, 7),)
    assert sol.rounded is None and sol.normalized is None


def test_solve_factor_two_pipeline():
    sol = solve(BgtInstance.from_values([1, 1]), ReductionConfig(Fraction(2), "sum"))
    assert entry_triples(sol.schedule) == [(0, 1, 4), (1, 2, 4)]
    assert sol.height_bound == 4 == 2 * 2
    assert sol.rounded == ((4, 0), (4, 1))
    assert sol.normalized is None


@given(st.lists(st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)), min_size=1, max_size=8))
@example([Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(1, 999_983), Fraction(3, 1_000_003)])
@example([Fraction(7, 1_000_003)])
@settings(max_examples=100, deadline=None)
def test_solve_density_is_the_reduced_density(rates):
    # solve takes the density in closed form, sum(h) / (factor * L); it must
    # equal the sum of reciprocal periods of the reduction, in both configs
    inst = BgtInstance(tuple(sorted(rates, reverse=True)))
    for cfg in (ReductionConfig(), ReductionConfig(Fraction(2), "sum")):
        assert solve(inst, cfg).density == bgt_to_pseudo(inst, cfg).density


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=120, deadline=None)
def test_solve_verifies_and_meets_guarantee(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    for cfg in (ReductionConfig(), ReductionConfig(Fraction(2), "sum")):
        sol = solve(inst, cfg)
        assert sol.height_bound <= sol.guarantee == cfg.factor * sol.lower_bound
        report = evaluate(
            inst,
            sol.schedule,
            pseudo=bgt_to_pseudo(inst, cfg),
            lower_bound_value=sol.lower_bound,
        )
        # ok from the chain cross-check, with no calendar run
        assert report.verdict == "ok" and report.chain_collision_free is True and report.sim is None
        # integer rates stay int inside, per-job peaks included; every
        # reported value is a Fraction
        assert all(type(v) is int for v in report.peaks)
        reported = [sol.lower_bound, sol.guarantee, sol.height_bound, sol.density]
        reported += [report.analytic_max, report.ratio]
        if sol.normalized is not None:
            reported.append(sol.normalized.y)
        assert all(type(v) is Fraction for v in reported)


# ------------------------------------------------- solve against reference

CONFIGS = [ReductionConfig(factor, mode) for factor in (Fraction(12, 7), Fraction(2)) for mode in ("max-rule", "sum")]


def _garden(seed, n, spread, rational):
    rng = random.Random(seed)
    if rational:
        rates = [Fraction(rng.randint(1, spread), rng.choice((1, 2, 3, 7, 10, 12))) for _ in range(n)]
    else:
        rates = [rng.randint(1, spread) for _ in range(n)]
    return sorted(rates, reverse=True)


def _solved(build, instance, config):
    try:
        return build(instance, config)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@given(
    st.builds(_garden, st.integers(0, 10**9), st.integers(1, 300), st.sampled_from((100, 10**6)), st.booleans()),
    st.sampled_from(range(len(CONFIGS))),
)
@example([1, 1], 0)  # B' empty: both jobs in C' = {3, 3}
@example([3, 1, 1], 0)  # B' empty after case a moves P into C'
@example([3, 3, 3, 1], 0)  # C' empty after case b moves Q into B'
@example([1], 0)
@example(["9", "1/2"], 1)  # PeriodBelowTwo in sum mode, raised alike
@settings(max_examples=150, deadline=None)
def test_solve_matches_reference_stage_by_stage(rates, config_index):
    instance = BgtInstance.from_values(rates)
    config = CONFIGS[config_index]
    got, ref = _solved(solve, instance, config), _solved(reference_solve, instance, config)
    if isinstance(ref, tuple):
        assert got == ref
        return
    # the reference's `JobPeriod` lists as pairs in its own order, not
    # re-sorted, so the stage order is compared too
    ref_pairs = reference_as_pairs(ref)
    assert solution_to_obj(got, include_trace=True) == solution_to_obj(ref_pairs, include_trace=True)
    assert got.schedule.entries == ref.schedule.entries
    for name in ("lower_bound", "height_bound", "guarantee", "config", "instance", "density", "rounded", "certified"):
        assert getattr(got, name) == getattr(ref_pairs, name), name
    assert (got.split is None) == (ref.split is None)
    if ref.split is not None:
        assert got.split == ref_pairs.split
        assert got.decomposition == ref_pairs.decomposition
        assert got.normalized == ref_pairs.normalized
        norm = got.normalized
        assert norm.y == ref.normalized.y and type(norm.y) is Fraction
        assert norm.y_sixths == 6 * norm.y
    else:
        assert got.decomposition is ref.decomposition is None
        assert got.normalized is ref.normalized is None


def test_reference_examples_reach_both_empty_sides():
    # the examples above really cover the one-sided interleave branches
    for rates, side in (([1, 1], "bp"), ([3, 1, 1], "bp"), ([3, 3, 3, 1], "cp")):
        norm = solve(BgtInstance.from_values(rates)).normalized
        assert getattr(norm, side) == ()
        assert norm.bp + norm.cp


def test_stage_lists_are_built_on_first_read():
    chain = ChainInstance(((4, 0), (4, 1), (8, 2)))
    assert chain.pairs == ((4, 0), (4, 1), (8, 2))
    assert "jobs" not in vars(chain)
    assert chain.jobs == (JobPeriod(0, 4), JobPeriod(1, 4), JobPeriod(2, 8))
    assert chain.jobs is chain.jobs


def test_views_the_benchmark_reads():
    # perfbench's traced counters and its tamper step read these objects,
    # the JobPeriod and entry views only for it; perfbench is not Tier-1
    ch = chain(2, 4, 8, 8)
    assert ch.jobs[0].period == 2 and ch.jobs[-1].period == 8
    bins = partition_bins(ch)
    assert len(bins) == 2
    assert [[jp.period for jp in b] for b in bins] == [[2], [4, 8, 8]]
    assert bins[1] == (JobPeriod(1, 4), JobPeriod(2, 8), JobPeriod(3, 8))
    instance = BgtInstance.from_values(["4", "3", "0.1"])
    state = split_23(floors(bgt_to_pseudo(instance)))
    assert (len(state.b), len(state.c)) == (2, 1)
    assert normalize(decompose(state), state).case == "b"
    sol = solve(instance)
    entries = sol.schedule.entries
    assert entries == (ScheduleEntry(0, 2, 2), ScheduleEntry(1, 1, 4), ScheduleEntry(2, 3, 128))
    assert PeriodicSchedule(entries) == sol.schedule
    # tamper: the second entry moved onto the first one's offset
    moved = ScheduleEntry(entries[1].job, entries[0].offset, entries[1].cycle)
    tampered = PeriodicSchedule((entries[0], moved, *entries[2:]))
    assert tampered.entries == (entries[0], moved, *entries[2:])
    assert evaluate(instance, sol.schedule, pseudo=bgt_to_pseudo(instance)).ok
    report = evaluate(instance, tampered, pseudo=bgt_to_pseudo(instance), lower_bound_value=sol.lower_bound)
    assert not report.ok and [(c.job_a, c.job_b) for c in report.collisions.collisions] == [(0, 1)]
    assert solution_to_obj(sol)["entries"] == [{"job": e.job, "offset": e.offset, "cycle": e.cycle} for e in entries]


# ------------------------------------------------- output checks under -O

_FAULTY = """
import sys
from bamboo import cli, scheduler
from bamboo.model import BgtInstance, PeriodicSchedule, ScheduleEntry
from bamboo.rounding import CertificateViolation

print("optimize", sys.flags.optimize)
faults = {
    "missing": lambda norm: PeriodicSchedule((ScheduleEntry(0, 1, 2), ScheduleEntry(1, 2, 4))),
    "late": lambda norm: PeriodicSchedule(tuple(ScheduleEntry(job, 5, 4) for job in range(3))),
    "high": lambda norm: PeriodicSchedule(tuple(ScheduleEntry(job, 1, 1000) for job in range(3))),
}
for name, fake in faults.items():
    scheduler.interleave = fake
    try:
        scheduler.solve(BgtInstance.from_values([4, 3, 1]))
    except CertificateViolation as exc:
        print(name, exc)
    else:
        print(name, "returned")
sys.exit(cli.main(["solve", "--input", sys.argv[1]]))
"""


def test_output_checks_raise_under_python_O(tmp_path):
    garden = tmp_path / "garden.json"
    garden.write_text('{"rates": ["4", "3", "1"]}')
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FAULTY, str(garden)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.stdout.splitlines() == [
        "optimize 1",
        "missing the schedule does not hold one entry for each of jobs 0..2",
        "late job 0 is first cut on day 5, after its cycle of 4",
        "high max height 4000 exceeds the guarantee 96/7",
    ]
    # the CLI maps the violation to exit 2, as for every other refusal
    assert proc.returncode == 2
    assert proc.stderr == "internal error: max height 4000 exceeds the guarantee 96/7\n"
