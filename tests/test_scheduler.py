"""Divides-chain scheduling, the odd/even interleave, and the full solver."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bamboo.model import BgtInstance, JobPeriod, PseudoInstance
from bamboo.reduction import ReductionConfig, bgt_to_pseudo
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
from helpers import floors, random_instance, reference_interleave, serves


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
