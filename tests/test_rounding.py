"""Two-grid rounding, normalization with its r/s/P/Q decomposition, certificate.

The fixed inputs here are small enough to check by hand; the property tests
lean on the exact-rational helpers so every equality is exact.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bamboo.model import InvalidInstance, JobPeriod, PseudoInstance
from bamboo.rounding import (
    CASE_RS,
    GENERAL_RS,
    CertificateViolation,
    NormalizedState,
    UnroundablePeriod,
    _cut,
    _extract_units,
    certificate,
    normalize,
    specialize_instance,
    specialize_single,
    split_23,
)
from helpers import _ref_extract_units, _ref_pairs, floors, grid_density, on_three_grid, on_two_grid, pseudo_with_density


def run_pipeline(ps: PseudoInstance):
    state = split_23(floors(ps))
    return state, normalize(state)


# ---------------------------------------------------------------- single-grid


def test_specialize_single_examples():
    assert specialize_single(96, 2) == 64
    assert specialize_single(8, 3) == 6
    assert specialize_single(2, 2) == 2
    with pytest.raises(UnroundablePeriod):
        specialize_single(Fraction(5, 2), 3)


@pytest.mark.parametrize("base", [True, 0, 2.0])
def test_specialize_single_refuses_a_bad_base(base):
    # bool is an int subclass: True once passed as base 1 and rounded 5 to 4
    message = f"grid base must be a positive integer, got {base!r}"
    with pytest.raises(InvalidInstance) as err:
        specialize_single(5, base)
    assert str(err.value) == message
    with pytest.raises(InvalidInstance) as err:
        specialize_instance([5, 6], base)
    assert str(err.value) == message


@given(
    st.fractions(min_value=Fraction(2), max_value=Fraction(10**6)),
    st.sampled_from([2, 3]),
)
def test_specialize_single_lands_on_grid_within_factor_two(p, x):
    if p < x:
        return
    g = specialize_single(p, x)
    assert g <= p < 2 * g
    q, rem = divmod(g, x)
    assert rem == 0 and q & (q - 1) == 0  # g = x * 2^j


@given(st.lists(st.integers(1, 60) | st.integers(1, 10**6), max_size=8), st.integers(min_value=1, max_value=40))
def test_specialize_instance_rounds_each_job_as_specialize_single(ms, x):
    def outcome(fn):
        try:
            return fn()
        except UnroundablePeriod as exc:
            return str(exc)

    expected = outcome(lambda: tuple(sorted((specialize_single(m, x), j) for j, m in enumerate(ms))))
    assert outcome(lambda: specialize_instance(ms, x)) == expected


def test_specialize_instance_sorts_by_period_then_job():
    ps = PseudoInstance((Fraction(9), Fraction(5), Fraction(31, 7)))
    rounded = specialize_instance(floors(ps), 2)
    assert rounded == ((4, 1), (4, 2), (8, 0))


# ---------------------------------------------------------------- two-grid split


def test_split_23_worked_example():
    ps = PseudoInstance((Fraction(24, 7), Fraction(32, 7), Fraction(960, 7)))
    state = split_23(floors(ps))
    assert state.b == ((4, 1), (128, 2))
    assert state.c == ((3, 0),)
    assert grid_density(state.b) == Fraction(33, 128)
    assert grid_density(state.c) == Fraction(1, 3)


def test_split_23_grid_points():
    state = split_23(floors(PseudoInstance((Fraction(2),))))
    assert state.b == ((2, 0),) and state.c == ()
    state = split_23(floors(PseudoInstance((Fraction(6),))))
    assert state.b == () and state.c == ((6, 0),)


def test_split_23_rejects_short_periods():
    with pytest.raises(UnroundablePeriod):
        split_23(floors(PseudoInstance((Fraction(3, 2),))))


def assert_sorted_on_grid(pairs, on_grid):
    assert list(pairs) == sorted(pairs)
    assert all(on_grid(period) for period, _ in pairs)


@given(st.lists(st.fractions(min_value=Fraction(2), max_value=Fraction(5000)), min_size=1, max_size=10))
# one witness per normalization case: none, a, b, c, d
@example([Fraction(2), Fraction(3)])
@example([Fraction(8), Fraction(6)])
@example([Fraction(12), Fraction(4), Fraction(8)])
@example([Fraction(4), Fraction(8), Fraction(6)])
@example([Fraction(4), Fraction(8), Fraction(16), Fraction(32), Fraction(12)])
def test_split_23_band_membership(periods):
    # no stage re-checks the one before it, so the builders must hand on
    # B, C, B' and C' sorted by (period, job), on their grids, and covering
    # every job exactly once
    ps = PseudoInstance(tuple(periods))
    state = split_23(floors(ps))
    for period, job in state.b:
        assert period <= ps.periods[job] < Fraction(3, 2) * period  # [2*2^j, 3*2^j)
    for period, job in state.c:
        assert period <= ps.periods[job] < Fraction(4, 3) * period  # [3*2^j, 4*2^j)
    norm = normalize(state)
    for b, c in ((state.b, state.c), (norm.bp, norm.cp)):
        assert_sorted_on_grid(b, on_two_grid)
        assert_sorted_on_grid(c, on_three_grid)
        assert sorted(job for _, job in b + c) == list(range(ps.n))


# ---------------------------------------------------------------- decomposition


def split_state(periods_b, periods_c):
    """Build a SpecializedState directly from already-rounded periods."""
    ps = PseudoInstance(tuple(Fraction(p) for p in periods_b + periods_c))
    return split_23(floors(ps))


def test_decompose_examples():
    norm = normalize(split_state([4, 128], [3]))
    assert (norm.r, norm.s) == (0, 1)
    assert tuple(period for period, _ in norm.p) == (4, 128)
    assert norm.q == ()

    norm = normalize(split_state([2], []))
    assert (norm.r, norm.s) == (1, 0)
    assert norm.p == () and norm.q == ()

    norm = normalize(split_state([8], [6]))
    assert (norm.r, norm.s) == (0, 0)
    assert tuple(period for period, _ in norm.p) == (8,)
    assert tuple(period for period, _ in norm.q) == (6,)


def test_decompose_fills_units_from_densest_periods():
    # 1/2 = 1/4 + 1/8 + 1/8: the unit absorbs the three smallest members
    # and the leftover P is the suffix of largest periods.
    norm = normalize(split_state([4, 8, 8, 16, 64], []))
    assert norm.r == 1
    assert tuple(period for period, _ in norm.p) == (16, 64)
    assert grid_density(norm.p) == Fraction(5, 64)


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12),
    st.booleans(),
)
@settings(max_examples=200)
def test_decompose_invariants(exponents, three_side):
    base = 3 if three_side else 2
    periods = [base * 2**j for j in exponents]
    state = split_state(periods if not three_side else [], periods if three_side else [])
    norm = normalize(state)
    if three_side:
        assert grid_density(state.c) == Fraction(norm.s, 3) + grid_density(norm.q)
        assert 0 <= grid_density(norm.q) < Fraction(1, 3)
        leftover = norm.q
        pool = state.c
    else:
        assert grid_density(state.b) == Fraction(norm.r, 2) + grid_density(norm.p)
        assert 0 <= grid_density(norm.p) < Fraction(1, 2)
        leftover = norm.p
        pool = state.b
    # leftover is a sub-multiset, and sits at the large-period end
    pool_periods = sorted(period for period, _ in pool)
    left_periods = sorted(period for period, _ in leftover)
    assert left_periods == pool_periods[len(pool_periods) - len(left_periods):]


def one_grid_pairs(x: int, exponents: list[int]):
    """Sorted (period, job) pairs on the grid {x, 2x, 4x, ...}: job i has
    period x * 2^exponents[i]."""
    return tuple(sorted((x << j, job) for job, j in enumerate(exponents)))


@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=7),
)
@settings(max_examples=300)
def test_cut_makes_exactly_full_blocks_but_the_last(x, exponents, lift):
    # the base is any grid point up to the first period: the grid's own base,
    # as `normalize` passes it, or the first period, as the scheduler does
    pairs = one_grid_pairs(x, exponents)
    base = x << min(lift, *exponents)
    blocks = _cut(pairs, base)
    assert tuple(pair for block in blocks for pair in block) == pairs
    top = pairs[-1][0]
    weights = [sum(top // period for period, _ in block) for block in blocks]
    assert all(block for block in blocks)
    assert all(w == top // base for w in weights[:-1]) and weights[-1] <= top // base


@given(
    st.sampled_from([2, 3]),
    st.lists(st.integers(min_value=0, max_value=9), max_size=20),
)
@example(2, [])
@example(3, [])
@example(2, [0])  # one chunk of 1/2, exactly
@example(2, [1, 1, 0])  # two chunks of 1/2, exactly
@example(3, [0, 1, 1, 2, 2, 2, 2])  # three chunks of 1/3, exactly
@settings(max_examples=300)
def test_extract_units_matches_the_reference(x, exponents):
    pairs = one_grid_pairs(x, exponents)
    count, rest = _extract_units(pairs, x)
    ref_count, ref_rest = _ref_extract_units(tuple(JobPeriod(job, period) for period, job in pairs), x)
    assert (count, rest) == (ref_count, _ref_pairs(ref_rest))


# ---------------------------------------------------------------- normalization


def _without(pairs, removed):
    # the leftover's jobs taken out by id, whatever their place in the side
    gone = {job for _, job in removed}
    return tuple(pair for pair in pairs if pair[1] not in gone)


@given(st.lists(st.integers(min_value=2, max_value=5000) | st.integers(min_value=2, max_value=10**9), max_size=12))
# one witness per normalization case: none, a, b, c, d
@example([2, 3])
@example([8, 6])
@example([12, 4, 8])
@example([4, 8, 6])
@example([4, 8, 16, 32, 12])
@settings(max_examples=300)
def test_leftovers_are_suffixes_so_a_slice_takes_them_off(ms):
    # `normalize` takes a moved leftover off its side by slicing, which is
    # right only if the leftover is that side's suffix
    state = split_23(ms)
    norm = normalize(state)
    assert state.b[len(state.b) - len(norm.p) :] == norm.p
    assert state.c[len(state.c) - len(norm.q) :] == norm.q
    if norm.case in ("a", "c"):
        assert norm.bp == _without(state.b, norm.p)
    elif norm.case == "b":
        assert norm.cp == _without(state.c, norm.q)
    else:
        assert (norm.bp, norm.cp) == (state.b, state.c)


def test_normalize_case_a_witness():
    state = split_state([8], [6])
    norm = normalize(state)
    assert norm.case == "a"
    assert norm.bp == ()
    assert [period for period, _ in norm.cp] == [6, 6]
    assert norm.y == Fraction(1, 3)


def test_normalize_case_b_witness():
    state = split_state([4, 128], [3])
    norm = normalize(state)
    assert norm.case == "b"
    assert [period for period, _ in norm.bp] == [4, 128]
    assert [period for period, _ in norm.cp] == [3]
    assert norm.y == Fraction(5, 6)


def test_normalize_case_c_witness():
    state = split_state([4, 8], [6])
    norm = normalize(state)
    assert norm.case == "c"
    assert norm.bp == ()
    assert [period for period, _ in norm.cp] == [3, 6, 6]
    assert norm.y == Fraction(2, 3)


def test_normalize_case_d_witness():
    state = split_state([4, 8, 16, 32], [12])
    norm = normalize(state)
    assert grid_density(norm.p) == Fraction(15, 32) and grid_density(norm.q) == Fraction(1, 12)
    assert norm.case == "d"
    assert norm.bp == state.b and norm.cp == state.c
    assert norm.y == Fraction(5, 6)


def test_normalize_case_none_when_no_leftover():
    state = split_state([2], [3])
    norm = normalize(state)
    assert norm.case == "none"
    assert norm.bp == state.b and norm.cp == state.c
    assert norm.y == Fraction(5, 6)


# ---------------------------------------------------------------- certificate


def test_certificate_worked_example_passes():
    ps = PseudoInstance((Fraction(24, 7), Fraction(32, 7), Fraction(960, 7)))
    _, norm = run_pipeline(ps)
    assert certificate(norm, ps.density)
    assert norm.y == Fraction(5, 6)
    assert (norm.r, norm.s) == (0, 1)


def test_certificate_empty_instance():
    assert NormalizedState((), (), "none", 0, (), 0, ()).y == 0


def test_certificate_case_d_chunk_counts():
    state = split_state([4, 8, 16, 32], [12])
    norm = normalize(state)
    assert certificate(norm, Fraction(53, 96))
    assert (norm.r, norm.s) == (0, 0)
    assert norm.y == Fraction(5, 6)


def test_certificate_skips_assertions_above_budget():
    # density 1 > 7/12: y may exceed 1 and nothing should raise
    state = split_state([2, 4, 8, 8], [3])
    norm = normalize(state)
    assert not certificate(norm, Fraction(2))
    assert norm.y > 1


def test_certificate_violation_on_fabricated_state():
    # y > 1 with a claimed density within budget must raise, not report
    state = split_state([2, 2], [3])
    norm = normalize(state)
    assert norm.y > 1
    with pytest.raises(CertificateViolation):
        certificate(norm, Fraction(1, 2))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=9))
@settings(max_examples=150)
def test_certificate_theorem_on_exact_budget_splits(seed, parts):
    rng = random.Random(seed)
    ps = pseudo_with_density(Fraction(7, 12), parts, rng)
    state, norm = run_pipeline(ps)
    assert certificate(norm, ps.density)
    assert norm.y <= 1
    assert (norm.r, norm.s) in GENERAL_RS
    assert (norm.r, norm.s) in CASE_RS[norm.case]


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10))
@settings(max_examples=150)
def test_pipeline_keeps_periods_within_factor_two_below_origin(seed, parts):
    # below the budget the same holds; also every final period stays in
    # (origin/2, origin], even after a second regridding move
    rng = random.Random(seed)
    total = Fraction(7, 12) * Fraction(rng.randint(1, 12), 12)
    if total / parts > Fraction(1, 2):
        parts = max(parts, 2)
    ps = pseudo_with_density(total, parts, rng)
    state, norm = run_pipeline(ps)
    certificate(norm, ps.density)
    for period, job in norm.bp + norm.cp:
        assert period <= ps.periods[job] < 2 * period
    assert {job for _, job in norm.bp + norm.cp} == set(range(ps.n))
