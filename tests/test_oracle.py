"""Exhaustive pinwheel search, exact trimming optimum, tightness families.

The search is the ground truth everything else is judged against, so its
own tests stick to instances small enough to check by hand, plus a witness
validator that re-plays every claimed schedule. The pruned search and the
bisecting optimum must also return exactly what the first implementations
(`reference_pinwheel_feasible`, `reference_bgt_opt` in helpers.py) return.
Each chain-rounding proof the optimum accepts without a search is rebuilt
as a schedule and checked, and the reference search must agree with it. Every
state the search prunes as overdue is checked dead against a fixed point
computed from scratch.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bamboo.model import BgtInstance, InvalidInstance
from bamboo.oracle import (
    StateSpaceTooLarge,
    _chain_base,
    _overdue,
    bgt_opt,
    opt_tractable,
    pinwheel_feasible,
    tightness_examples,
)
from bamboo.rounding import specialize_single
from bamboo.scheduler import ChainInstance, schedule_chain, solve
from bamboo.verifier import check_collisions
from helpers import reference_bgt_opt, reference_lower_bound, reference_pinwheel_feasible


def assert_valid_witness(periods, witness):
    """Re-play the cyclic day assignment and check every window."""
    k = len(witness)
    assert all(0 <= w < len(periods) for w in witness)
    for i, p in enumerate(periods):
        days = [d for d in range(2 * k) if witness[d % k] == i]
        assert days, f"job {i} never appears"
        assert days[0] + 1 <= p, f"job {i} misses its first window"
        assert all(b - a <= p for a, b in zip(days, days[1:]))


# ---------------------------------------------------------------- search


def test_two_three_twelve_is_infeasible():
    res = pinwheel_feasible([2, 3, 12])
    assert not res.feasible and res.witness is None


def test_two_four_four_is_feasible():
    res = pinwheel_feasible([2, 4, 4])
    assert res.feasible
    assert res.witness == (0, 2, 0, 1)
    assert_valid_witness([2, 4, 4], res.witness)


def test_two_twos_alternate():
    # density exactly 1, still schedulable: alternate the two jobs
    res = pinwheel_feasible([2, 2])
    assert res.feasible
    assert_valid_witness([2, 2], res.witness)


def test_density_above_one_short_circuits():
    assert not pinwheel_feasible([2, 2, 2]).feasible
    assert not pinwheel_feasible([1, 5]).feasible


def test_singleton_and_input_validation():
    res = pinwheel_feasible([1])
    assert res.feasible and res.witness == (0,)
    with pytest.raises(InvalidInstance):
        pinwheel_feasible([])
    with pytest.raises(InvalidInstance):
        pinwheel_feasible([0, 3])
    with pytest.raises(InvalidInstance):
        pinwheel_feasible([True, 3])


def test_state_cap_enforced():
    with pytest.raises(StateSpaceTooLarge):
        pinwheel_feasible([100] * 5, cap=10**3)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_feasibility_monotone_in_periods(periods):
    res = pinwheel_feasible(periods)
    if res.feasible:
        assert_valid_witness(periods, res.witness)
        # loosening any single deadline cannot break a working schedule
        for i in range(len(periods)):
            looser = list(periods)
            looser[i] += 1
            assert pinwheel_feasible(looser).feasible


@given(st.integers(min_value=4, max_value=20))
@settings(max_examples=17, deadline=None)
def test_two_three_m_family_is_never_feasible(m):
    assert not pinwheel_feasible([2, 3, m]).feasible


def outcome(fn, *args):
    """A result, or the refusal message, so refusals compare too."""
    try:
        return fn(*args)
    except StateSpaceTooLarge as exc:
        return f"refused: {exc}"


def test_search_matches_reference_on_every_small_vector():
    # every vector with n <= 4 and periods <= 10, and every sorted one with
    # n = 5: same verdict, same witness
    vectors = [ps for n in range(1, 5) for ps in itertools.product(range(1, 11), repeat=n)]
    vectors += list(itertools.combinations_with_replacement(range(1, 11), 5))
    assert len(vectors) == 11_110 + 2_002
    for ps in vectors:
        assert pinwheel_feasible(ps) == reference_pinwheel_feasible(ps), ps


@given(
    st.lists(st.integers(min_value=2, max_value=14), min_size=5, max_size=6),
    st.sampled_from([10**4, 10**6, 10**7]),
)
@settings(max_examples=100, deadline=None)
def test_search_matches_reference_on_unsorted_vectors(periods, cap):
    # periods from 2 keep most draws at density <= 1, so they are searched
    assert outcome(pinwheel_feasible, periods, cap) == outcome(reference_pinwheel_feasible, periods, cap)


def live_states(ps):
    """Every deadline vector of the game on `ps`, in job order and without
    canonical forms, and the set of those with an infinite schedule: the
    greatest fixed point of "has a live successor"."""
    states = list(itertools.product(*(range(1, p + 1) for p in ps)))
    succ = {
        s: [
            tuple(p if i == j else d - 1 for i, (p, d) in enumerate(zip(ps, s)))
            for j in range(len(ps))
            if all(d > 1 for i, d in enumerate(s) if i != j)
        ]
        for s in states
    }
    live = set(states)
    while True:
        dead = {s for s in live if not any(c in live for c in succ[s])}
        if not dead:
            return states, live
        live -= dead


def test_overdue_states_are_dead():
    # every period multiset with n <= 4 over 2..7 and every deadline vector
    # 1 <= d_i <= p_i: a state the search prunes as overdue has no infinite
    # schedule, so pruning it cannot change the lasso
    seen = dead = pruned = 0
    for n in range(1, 5):
        for ps in itertools.combinations_with_replacement(range(2, 8), n):
            states, live = live_states(ps)
            assert (ps in live) == reference_pinwheel_feasible(ps).feasible, ps
            twos = slice(0, ps.count(2))
            flagged = [s for s in states if _overdue(s, twos)]
            assert not live.intersection(flagged), ps
            seen, dead, pruned = seen + len(states), dead + len(states) - len(live), pruned + len(flagged)
    assert (seen, dead, pruned) == (63_986, 26_775, 21_150)


# ---------------------------------------------------------------- chain rounding


def assert_chain_proof(ps, x, verdicts):
    """Check the shortcut's claim that base x proves `ps` feasible: rounded
    down to x * 2^j, the periods schedule as a chain, every job is cut
    within its own period and never on a day another job has, and the
    reference search agrees (looked up in `verdicts` by multiset)."""
    rounded = [specialize_single(p, x) for p in ps]
    schedule = schedule_chain(ChainInstance(tuple(sorted((q, i) for i, q in enumerate(rounded)))))
    assert check_collisions(schedule).ok, ps
    assert all(max(e.offset, e.cycle) <= ps[e.job] for e in schedule.entries), ps
    key = tuple(sorted(ps))
    if key not in verdicts:
        verdicts[key] = reference_pinwheel_feasible(ps).feasible
    assert verdicts[key], ps


def test_chain_rounding_proofs_hold_on_every_small_vector():
    # every vector over 1..16 with n <= 4, in every order
    verdicts = {}
    accepted = 0
    for n in range(1, 5):
        for ps in itertools.product(range(1, 17), repeat=n):
            x = _chain_base(ps)
            if x is not None:
                assert min(ps) / 2 < x <= min(ps)
                assert_chain_proof(ps, x, verdicts)
                accepted += 1
    # the shortcut proves 3,436 of the 3,488 feasible multisets
    assert (accepted, len(verdicts)) == (47_811, 3_436)


@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.lists(st.integers(n, 13), min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_chain_rounding_proofs_hold_up_to_six_jobs(ps):
    # periods of at least n keep the density at most 1 before rounding
    x = _chain_base(ps)
    if x is not None:
        assert_chain_proof(ps, x, {})


# ---------------------------------------------------------------- exact optimum


def garden(rates):
    return BgtInstance(tuple(sorted(rates, reverse=True)))


rational_gardens = st.lists(
    st.fractions(min_value=Fraction(1, 6), max_value=12, max_denominator=6), min_size=1, max_size=5
).map(garden)


def test_bgt_opt_two_equal_growers():
    # alternate daily cuts: each bamboo is cut every other day, peak 2
    assert bgt_opt(BgtInstance.from_values([1, 1])) == 2


def test_bgt_opt_single():
    assert bgt_opt(BgtInstance.from_values([1])) == 1


def test_bgt_opt_three_to_one():
    # L = max(6, 4) = 6 and floor-periods (2, 6) already schedule
    assert bgt_opt(BgtInstance.from_values([3, 1])) == 6


def test_bgt_opt_never_above_pipeline():
    for rates in ([2, 1], [5, 3, 2], [4, 3, 1], [6, 6, 1]):
        inst = BgtInstance.from_values(rates)
        opt = bgt_opt(inst)
        sol = solve(inst)
        assert opt <= sol.height_bound <= Fraction(12, 7) * opt


def test_bgt_opt_refuses_a_tiny_rate_without_listing_its_candidates():
    # rate 10^-9 puts about 1.4 * 10^9 multiples on the candidate grid;
    # the first searchable one is already over the cap
    inst = BgtInstance.from_values(["1", "1/1000000000"])
    with pytest.raises(StateSpaceTooLarge, match="state space of 3x2000000001 exceeds the cap of 100000"):
        bgt_opt(inst, 10**5)


@given(rational_gardens, st.sampled_from([50, 500, 5000, 10**5]))
@settings(max_examples=150, deadline=None)
def test_bgt_opt_matches_reference(inst, cap):
    assert outcome(bgt_opt, inst, cap) == outcome(reference_bgt_opt, inst, cap)


@given(
    rational_gardens
    | st.lists(
        st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6), min_size=1, max_size=5
    ).map(garden),
    st.sampled_from([50, 500, 5000, 10**5]),
)
@settings(max_examples=150, deadline=None)
def test_opt_tractable_matches_fraction_formula_and_bounds_bgt_opt(inst, cap):
    ceiling = Fraction(12, 7) * reference_lower_bound(inst, "max-rule")
    expected = math.prod(math.floor(ceiling / h) + 1 for h in inst.rates) <= cap
    assert opt_tractable(inst, cap) == expected
    if expected:
        bgt_opt(inst, cap)  # raises nothing


# ---------------------------------------------------------------- tightness


def test_tightness_default_parameters():
    rep = tightness_examples()
    fixed = rep["pseudo"]
    assert fixed["delta"] == "11673/994175"
    assert fixed["delta_positive"] is True
    assert fixed["delta_matches_formula"] is True
    assert fixed["floor_periods"] == [2, 3, 100]
    assert fixed["floors_feasible"] is False

    reduced = rep["reduced"]
    assert reduced["factor"] == "1193/700"
    assert reduced["eps1"] == "3707/280000"
    assert reduced["eps2"] == "3707/210000"
    assert reduced["gamma_ceiling"] == "49/1193"
    assert reduced["gamma_in_range"] is True
    assert reduced["shape_reproduced"] is True
    assert reduced["eps1_matches_formula"] is True
    assert reduced["eps2_matches_formula"] is True
    assert reduced["m_matches_formula"] is True
    assert reduced["floor_periods"] == [2, 3, 1194]
    assert reduced["floors_feasible"] is False


def test_tightness_gamma_out_of_range_reports_shape_loss():
    rep = tightness_examples(gamma=Fraction(1))
    reduced = rep["reduced"]
    assert reduced["gamma_in_range"] is False
    assert reduced["shape_reproduced"] is False
    assert "floor_periods" not in reduced


def test_tightness_parameter_validation():
    with pytest.raises(InvalidInstance):
        tightness_examples(epsilon=Fraction(1))
    with pytest.raises(InvalidInstance):
        tightness_examples(big_m=Fraction(3))
    with pytest.raises(InvalidInstance):
        tightness_examples(eta=Fraction(6, 7))
    with pytest.raises(InvalidInstance):
        tightness_examples(gamma=Fraction(3))
    # parameters go through parse_rational: no binary float, no bool
    with pytest.raises(InvalidInstance):
        tightness_examples(epsilon=0.01)  # type: ignore[arg-type]
    with pytest.raises(InvalidInstance):
        tightness_examples(big_m=True)  # type: ignore[arg-type]
