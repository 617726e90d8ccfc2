"""Exhaustive pinwheel search, exact trimming optimum, tightness families.

The search is the ground truth everything else is judged against, so its
own tests stick to instances small enough to check by hand, plus a witness
validator that re-plays every claimed schedule. The pruned search and the
bisecting optimum must also return exactly what the first implementations
(`reference_pinwheel_feasible`, `reference_bgt_opt` in helpers.py) return.
Each chain-rounding proof the optimum accepts without a search is rebuilt
as a schedule and checked, and the reference search must agree with it. Every
state the search prunes as overdue is checked dead against a fixed point
computed from scratch, and the period-2 halving and the general reduction
must give the search's verdict on every small vector they apply to. The
search's verdict is also checked against that fixed point, which depends on
no move order.
"""

import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bamboo import oracle
from bamboo.model import BgtInstance, InvalidInstance
from bamboo.oracle import (
    StateSpaceTooLarge,
    _chain_base,
    _halve,
    _lasso,
    _overdense,
    _reduce,
    bgt_opt,
    pinwheel_feasible,
    tightness_examples,
)
from bamboo.rounding import specialize_instance, specialize_single
from bamboo.scheduler import ChainInstance, Overdense, schedule_chain, solve
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
    # reduced, (2, 4, 4) is (2, 2): job 0 takes every other day and jobs 1
    # and 2 alternate on the days between, the later-numbered twin first
    res = pinwheel_feasible([2, 4, 4])
    assert res.feasible
    assert res.witness == (0, 2, 0, 1)
    assert_valid_witness([2, 4, 4], res.witness)


def test_witness_is_expanded_from_the_reduced_vector():
    # halved twice, (2, 5, 400000) is (100000,), decided at once where the
    # search of the full vector took seconds; each reduced day becomes the
    # step's k - 1 jobs followed by that day's job
    res = pinwheel_feasible([2, 5, 400_000])
    assert res.witness == (0, 1, 0, 2)
    assert_valid_witness([2, 5, 400_000], res.witness)
    # reduced at k = 3, (3, 3, 7, 7) is (2, 2)
    res = pinwheel_feasible([3, 3, 7, 7])
    assert res.witness == (0, 1, 3, 0, 1, 2)
    assert_valid_witness([3, 3, 7, 7], res.witness)


def test_two_twos_alternate():
    # density exactly 1, still schedulable: alternate the two jobs
    res = pinwheel_feasible([2, 2])
    assert res.feasible
    assert_valid_witness([2, 2], res.witness)


def test_density_above_one_short_circuits():
    assert not pinwheel_feasible([2, 2, 2]).feasible
    assert not pinwheel_feasible([1, 5]).feasible
    # overdense and over the cap: overdensity is tested first, so no refusal
    assert not pinwheel_feasible([2, 2, 2, 10**4, 10**4], cap=10**7).feasible
    # so is the density of the halved periods: (2, 7, 8, 12, 13, 14) halves
    # to (3, 4, 6, 6, 7), of density 89/84, and has 3x8x9x13x14x15 states
    assert pinwheel_feasible([2, 7, 8, 12, 13, 14], cap=10**4) == oracle.PinwheelResult(False, None)


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


def small_vectors():
    """The vectors of the test above."""
    vectors = [ps for n in range(1, 5) for ps in itertools.product(range(1, 11), repeat=n)]
    return vectors + list(itertools.combinations_with_replacement(range(1, 11), 5))


def assert_halving_is_exact(ps):
    # the search's verdict on `ps` is the decision on its halved vector
    if not _overdense(ps):
        halved = _halve(ps)
        assert (not _overdense(halved) and _lasso(halved) is not None) == (_lasso(ps) is not None), ps


def assert_reduction_is_exact(ps):
    # the search's verdict on `ps` is the decision on its reduced vector
    if not _overdense(ps):
        reduced, _ = _reduce(ps)
        assert (not _overdense(reduced) and _lasso(reduced) is not None) == (_lasso(ps) is not None), ps


def test_halving_is_exact_on_every_small_vector_with_a_two():
    for ps in small_vectors():
        if 2 in ps:
            assert_halving_is_exact(ps)
            assert_reduction_is_exact(ps)


@given(st.lists(st.integers(min_value=2, max_value=14), min_size=1, max_size=6).filter(lambda ps: 2 in ps))
@settings(max_examples=200, deadline=None)
def test_halving_is_exact_up_to_six_jobs(ps):
    assert_halving_is_exact(ps)


def reduced_beyond_halving():
    """Every sorted vector with n <= 4 and periods <= 12, or n = 5 and
    periods <= 9, that the reduction shortens with some k >= 3."""
    vectors = [ps for n in range(1, 5) for ps in itertools.combinations_with_replacement(range(1, 13), n)]
    vectors += list(itertools.combinations_with_replacement(range(1, 10), 5))
    return [ps for ps in vectors if any(k > 2 for k in _reduce(ps)[1])]


def test_reduction_is_exact_on_every_small_vector_beyond_halving():
    vectors = reduced_beyond_halving()
    assert len(vectors) == 161
    for ps in vectors:
        assert_reduction_is_exact(ps)


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda k: st.lists(st.integers(min_value=k + 1, max_value=14), min_size=1, max_size=7 - k).map(
            lambda rest: [k] * (k - 1) + rest
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_reduction_is_exact_up_to_six_jobs(ps):
    # k - 1 jobs of the least period k, and one to 7 - k others
    assert_reduction_is_exact(ps)


def test_reduction_matches_the_fixed_point():
    # on the vectors of four jobs or fewer above, the reduced decision is
    # whether the root is live in the game on the full periods
    checked = 0
    for ps in reduced_beyond_halving():
        if len(ps) <= 4:
            reduced, _ = _reduce(ps)
            decided = not _overdense(reduced) and _lasso(reduced) is not None
            assert decided == (ps in live_states(ps)[1]), ps
            checked += 1
    assert checked == 77


def count_lasso_calls(monkeypatch):
    calls = []
    lasso = oracle._lasso
    monkeypatch.setattr(oracle, "_lasso", lambda ps: calls.append(list(ps)) or lasso(ps))
    return calls


def test_two_three_m_is_refuted_without_search(monkeypatch):
    # halved, (2, 3, M) is (1, M // 2), of density above 1; density is tested
    # ahead of the cap, so 3 x 4 x 1,000,001 states over it refute too
    calls = count_lasso_calls(monkeypatch)
    for m in (800_000, 10**6):
        assert pinwheel_feasible([2, 3, m]) == oracle.PinwheelResult(False, None)
    assert calls == []


def test_reduced_density_refutes_ahead_of_the_cap(monkeypatch):
    # reduced at k = 3, (3, 3, 5, M) is (1, M // 3) and (3, 3, 4, 12) is
    # (1, 4), both of density above 1; 4 x 4 x 6 x 1,000,001 and
    # 4 x 4 x 5 x 13 states are over the caps, yet density refutes first
    calls = count_lasso_calls(monkeypatch)
    assert pinwheel_feasible([3, 3, 5, 10**6]) == oracle.PinwheelResult(False, None)
    assert pinwheel_feasible([3, 3, 4, 12], 50) == oracle.PinwheelResult(False, None)
    assert calls == []


def test_density_refutes_a_prefix_of_every_small_grid():
    # the two facts bgt_opt's one density bisection rests on, on every sorted
    # vector with n <= 5 and periods <= 16: overdense stays overdense halved,
    # and raising one period (the last of its block, which keeps the vector
    # sorted) never makes the halved vector overdense; and the fact that
    # lets pinwheel_feasible test the reduced vector alone: overdense halved
    # is overdense reduced
    raises = refuted_both = 0
    for n in range(1, 6):
        for ps in itertools.combinations_with_replacement(range(1, 17), n):
            refuted = _overdense(_halve(ps))
            assert refuted or not _overdense(ps), ps
            if refuted:
                assert _overdense(_reduce(ps)[0]), ps
                refuted_both += 1
                continue
            for i in range(n):
                if i + 1 == n or ps[i] != ps[i + 1]:
                    raised = ps[:i] + (ps[i] + 1,) + ps[i + 1 :]
                    assert not _overdense(_halve(raised)), (ps, i)
                    raises += 1
    assert raises == 46_525
    assert refuted_both == 7_853


def test_bgt_opt_searches_less_when_halving_decides(monkeypatch):
    # halved twice, the periods (2, 4, 12, 12, 24) at height 24 are (3, 3, 6),
    # which the chain rounding proves, and every candidate below is
    # overdense; bare, the first proof is at 27, and 26, 25 and 24 are searched
    inst = BgtInstance.from_values([9, 6, 2, 2, 1])
    calls = count_lasso_calls(monkeypatch)
    assert bgt_opt(inst, 10**5) == 24
    assert calls == []
    monkeypatch.setattr(oracle, "_reduce", lambda ps: (sorted(ps), []))
    assert bgt_opt(inst, 10**5) == 24
    assert calls == [[2, 4, 13, 13, 26], [2, 4, 12, 12, 25], [2, 4, 12, 12, 24]]


def test_bgt_opt_searches_less_when_the_reduction_decides(monkeypatch):
    # reduced at k = 3, twice, the periods (3, 3, 9, 9, 27) at height 27 are
    # (3,), which the chain rounding proves, and every candidate below is
    # overdense halved; halving alone leaves them whole, and the first proof
    # is at 36, so five candidates are searched
    inst = BgtInstance.from_values([9, 9, 3, 3, 1])
    calls = count_lasso_calls(monkeypatch)
    assert bgt_opt(inst, 10**5) == 27
    assert calls == []
    monkeypatch.setattr(oracle, "_reduce", lambda ps: (_halve(ps), []))
    assert bgt_opt(inst, 10**5) == 27
    assert calls == [[3, 3, 11, 11, 35], [3, 3, 10, 10, 31], [3, 3, 9, 9, 29], [3, 3, 9, 9, 28], [3, 3, 9, 9, 27]]


@functools.cache
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


def overdue(state):
    """The rule by which the search drops a child, as `_lasso` inlines it:
    more than t jobs fall due within t <= 3 days. Two are due tomorrow,
    three within two days, or four within three; each job counts once."""
    ones = state.count(1)
    if ones > 1:
        return True
    soon = ones + state.count(2)
    return soon > 2 or soon + state.count(3) > 3


def test_overdue_states_are_dead():
    # every period multiset with n <= 4 over 2..7 and every deadline vector
    # 1 <= d_i <= p_i: a state the search prunes as overdue has no infinite
    # schedule, so pruning it cannot change the lasso
    seen = dead = pruned = 0
    for n in range(1, 5):
        for ps in itertools.combinations_with_replacement(range(2, 8), n):
            states, live = live_states(ps)
            assert (ps in live) == reference_pinwheel_feasible(ps).feasible, ps
            flagged = [s for s in states if overdue(s)]
            assert not live.intersection(flagged), ps
            seen, dead, pruned = seen + len(states), dead + len(states) - len(live), pruned + len(flagged)
    assert (seen, dead, pruned) == (63_986, 26_775, 20_345)


def test_search_verdict_does_not_depend_on_move_order():
    # the move order picks the lasso, not the verdict: on every multiset of
    # density at most 1 with n <= 4 over 1..8, or n = 5 over 2..6, the search
    # finds a lasso iff the root is live in the fixed point, which tries no
    # moves in any order
    vectors = [ps for n in range(1, 5) for ps in itertools.combinations_with_replacement(range(1, 9), n)]
    vectors += list(itertools.combinations_with_replacement(range(2, 7), 5))
    checked = 0
    for ps in vectors:
        if not _overdense(ps):
            assert (_lasso(ps) is not None) == (ps in live_states(ps)[1]), ps
            checked += 1
    assert checked == 246


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


def first_chain_base(ps):
    """The first base in (p_min/2, p_min] at which the rounded periods pass
    `ChainInstance`'s density test, or None."""
    for x in range(min(ps) // 2 + 1, min(ps) + 1):
        try:
            ChainInstance(specialize_instance(ps, x))
        except Overdense:
            continue
        return x
    return None


@given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=7))
@settings(max_examples=300, deadline=None)
def test_chain_base_is_the_first_base_chain_instance_accepts(ps):
    assert _chain_base(ps) == first_chain_base(ps)


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


def test_bgt_opt_refusal_names_the_first_candidate_density_does_not_refute():
    # the periods (2, 3, 12, 25, 25) at 25 are over the cap and of density
    # below 1, but halved they are (1, 6, 12, 12), overdense, and so are
    # those at 26: the first candidate density does not refute is 27
    inst = BgtInstance.from_values([9, 7, 2, 1, 1])
    with pytest.raises(StateSpaceTooLarge, match="^state space of 4x4x14x28x28 exceeds the cap of 100000$"):
        bgt_opt(inst, 10**5)


def test_bgt_opt_refuses_a_large_garden_with_few_density_tests(monkeypatch):
    # 1,000 bamboos: every candidate is over the cap, so the first one that
    # is not overdense is bisected for, not scanned for (a scan made 8,294
    # lcm-of-every-floor tests before it refused)
    rng = random.Random(0)
    inst = BgtInstance.from_values(sorted((rng.randint(1, 10**6) for _ in range(1000)), reverse=True))
    calls = []
    overdense = oracle._overdense
    monkeypatch.setattr(oracle, "_overdense", lambda ps: calls.append(1) or overdense(ps))
    with pytest.raises(StateSpaceTooLarge) as refusal:
        bgt_opt(inst)
    assert len(calls) <= 40
    digest = hashlib.sha256(str(refusal.value).encode()).hexdigest()
    assert digest == "22242a0d0ccb745e6a6dcd96d9c4f3804b4fd368cb1d8a19eff7f2561f2f9712"


@given(rational_gardens, st.sampled_from([50, 500, 5000, 10**5]))
@settings(max_examples=150, deadline=None)
# refused on a grid of about 5 * 10^19 heights, more than `bisect` can take as a range
@example(garden([Fraction(101597909, 678213), Fraction(88993602, 704027), Fraction(51361, 500000)]), 50)
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
# a grid of about 5 * 10^19 heights, more than `bisect` can take as a range
@example(garden([Fraction(101597909, 678213), Fraction(88993602, 704027), Fraction(51361, 500000)]), 10**5)
def test_bgt_opt_never_refuses_within_the_cap_at_the_ceiling(inst, cap):
    # the deadline vectors at the 12/7 ceiling bound every search bgt_opt makes
    ceiling = Fraction(12, 7) * reference_lower_bound(inst, "max-rule")
    if math.prod(math.floor(ceiling / h) + 1 for h in inst.rates) <= cap:
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


def test_tightness_decides_as_eta_goes_to_zero():
    # M' is past 833,332, where the product of (p + 1) passes the cap of
    # 10^7: density of the halved periods refutes both families first
    reduced = tightness_examples(eta=Fraction(1, 10**6), gamma=Fraction(1, 10**7))["reduced"]
    assert reduced["gamma_in_range"] is True
    assert reduced["floor_periods"] == [2, 3, 119_999_931]
    assert reduced["floors_feasible"] is False
    fixed = tightness_examples(big_m=Fraction(10**6))["pseudo"]
    assert fixed["floor_periods"] == [2, 3, 10**6]
    assert fixed["floors_feasible"] is False


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
