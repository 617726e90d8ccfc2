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
from bamboo.model import BgtInstance, JobPeriod, PseudoInstance
from bamboo.reduction import ReductionConfig, bgt_to_pseudo
from bamboo.rounding import NormalizedState, decompose, normalize, pairs_of, split_23
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
from helpers import floors, random_instance, reference_interleave, reference_solve, serves


def chain(*periods):
    return ChainInstance(tuple(JobPeriod(i, p) for i, p in enumerate(periods)))


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
        ChainInstance((JobPeriod(0, True),))


@pytest.mark.parametrize("bad", ["4", 4.0, True, 0])
def test_chain_instance_names_a_bad_period(bad):
    # periods are checked once per run of one period; one that is no plain
    # int is named before the run search adds 1 to it, also inside a run
    first = 1 if bad is True else 4
    makes = [
        lambda: ChainInstance((JobPeriod(0, bad),)),
        lambda: ChainInstance.of_pairs(((bad, 0),)),
        lambda: ChainInstance.of_pairs(((bad, 0), (8, 1))),
    ]
    if bad != 0:
        makes.append(lambda: ChainInstance.of_pairs(((first, 0), (bad, 1), (8, 2))))
    for make in makes:
        with pytest.raises(NotAChain) as err:
            make()
        assert str(err.value) == f"period {bad!r} is not a positive integer"


def test_chain_instance_of_pairs_refuses_unsorted_pairs():
    # unsorted pairs once passed the check and failed later, in `_cut`
    with pytest.raises(NotAChain) as err:
        ChainInstance.of_pairs(((8, 0), (4, 1), (2, 2)))
    assert str(err.value) == "pairs are not sorted: (4, 1) comes after (8, 0)"
    with pytest.raises(NotAChain) as err:
        ChainInstance.of_pairs(((2, 0), (4, 1), (2, 2), (8, 3)))
    assert str(err.value) == "pairs are not sorted: (2, 2) comes after (4, 1)"


def test_partition_bins_examples():
    bins = partition_bins(chain(2, 4, 8, 8))
    assert [[jp.period for jp in b] for b in bins] == [[2], [4, 8, 8]]
    bins = partition_bins(chain(3, 6, 6))
    assert [[jp.period for jp in b] for b in bins] == [[3], [6, 6]]
    bins = partition_bins(chain(5))
    assert [[jp.period for jp in b] for b in bins] == [[5]]


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=10))
@settings(max_examples=200)
def test_partition_bins_respects_capacity(exponents):
    periods = sorted(2**j for j in exponents)
    try:
        ch = chain(*periods)
    except Overdense:
        return
    bins = partition_bins(ch)
    cap = Fraction(1, periods[0])
    assert len(bins) <= periods[0]
    for b in bins:
        assert sum(Fraction(1, jp.period) for jp in b) <= cap
    # consecutive slices of the sorted chain, every bin but the last full
    assert tuple(jp for b in bins for jp in b) == ch.jobs
    p_min, p_max = periods[0], periods[-1]
    for b in bins[:-1]:
        assert sum(p_max // jp.period for jp in b) == p_max // p_min


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
    by_job = {jp.job: jp.period for jp in ch.jobs}
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
            jobs = [JobPeriod(i, p) for i, p in enumerate(periods)]
            bp = tuple(jp for jp in jobs if jp.period % 3)
            cp = tuple(jp for jp in jobs if jp.period % 3 == 0)
            norm = NormalizedState(bp_pairs=pairs_of(bp), cp_pairs=pairs_of(cp), case="none", r=0, s=0)
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
    assert sol.pseudo.n == 1
    assert sol.rounded is None and sol.normalized is None


def test_solve_factor_two_pipeline():
    sol = solve(BgtInstance.from_values([1, 1]), ReductionConfig(Fraction(2), "sum"))
    assert entry_triples(sol.schedule) == [(0, 1, 4), (1, 2, 4)]
    assert sol.height_bound == 4 == 2 * 2
    assert sol.rounded == (JobPeriod(0, 4), JobPeriod(1, 4))
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
        assert report.ok
        assert report.sim_matches is True
        # integer rates stay int inside; every reported value is a Fraction
        reported = [sol.lower_bound, sol.guarantee, sol.height_bound, sol.density, *report.heights]
        reported += [report.analytic_max, report.ratio, report.sim.max_height]
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
    assert solution_to_obj(got, include_trace=True) == solution_to_obj(ref, include_trace=True)
    assert got.schedule.entries == ref.schedule.entries
    for name in ("lower_bound", "height_bound", "guarantee", "config", "instance", "density", "rounded", "certified"):
        assert getattr(got, name) == getattr(ref, name), name
    assert (got.split is None) == (ref.split is None)
    if ref.split is not None:
        assert (got.split.b, got.split.c) == (ref.split.b, ref.split.c)
        dec, ref_dec = got.decomposition, ref.decomposition
        assert (dec.r, dec.p, dec.s, dec.q) == (ref_dec.r, ref_dec.p, ref_dec.s, ref_dec.q)
        norm, ref_norm = got.normalized, ref.normalized
        assert (norm.bp, norm.cp, norm.case, norm.r, norm.s) == (ref_norm.bp, ref_norm.cp, ref_norm.case, ref_norm.r, ref_norm.s)
        assert norm.y == ref_norm.y and type(norm.y) is Fraction
        assert norm.y_sixths == 6 * norm.y
    else:
        assert got.decomposition is ref.decomposition is None
        assert got.normalized is ref.normalized is None


def test_reference_examples_reach_both_empty_sides():
    # the examples above really cover the one-sided interleave branches
    for rates, side in (([1, 1], "bp_pairs"), ([3, 1, 1], "bp_pairs"), ([3, 3, 3, 1], "cp_pairs")):
        norm = solve(BgtInstance.from_values(rates)).normalized
        assert getattr(norm, side) == ()
        assert norm.bp_pairs + norm.cp_pairs


def test_stage_lists_are_built_on_first_read():
    sol = solve(BgtInstance.from_values([9, 5, 4, 4, 2, 1]))
    for record, names in ((sol.split, "bc"), (sol.decomposition, "pq"), (sol.normalized, ("bp", "cp"))):
        for name in names:
            assert name not in vars(record)
            assert getattr(record, name) == tuple(JobPeriod(job, period) for period, job in getattr(record, f"{name}_pairs"))
            assert getattr(record, name) is getattr(record, name)
    chain = ChainInstance((JobPeriod(2, 8), JobPeriod(0, 4), JobPeriod(1, 4)))
    assert chain.pairs == ((4, 0), (4, 1), (8, 2))
    assert chain == ChainInstance.of_pairs(chain.pairs)
    assert chain.jobs == (JobPeriod(0, 4), JobPeriod(1, 4), JobPeriod(2, 8))


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
