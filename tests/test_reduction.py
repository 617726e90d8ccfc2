"""Garden-to-pinwheel reduction and its inverse."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bamboo.model import BgtInstance, InvalidInstance, density
from bamboo.reduction import PeriodBelowTwo, ReductionConfig, bgt_to_pseudo, scaled
from bamboo.scheduler import solve
from helpers import ps_to_bgt, reference_bgt_to_pseudo, reference_lower_bound


def test_config_validation():
    cfg = ReductionConfig()
    assert cfg.factor == Fraction(12, 7)
    assert cfg.lb_mode == "max-rule"
    with pytest.raises(InvalidInstance):
        ReductionConfig(factor=Fraction(1))
    with pytest.raises(InvalidInstance):
        ReductionConfig(factor=1.5)  # type: ignore[arg-type]
    with pytest.raises(InvalidInstance):
        ReductionConfig(lb_mode="median")


def test_worked_reduction_default_config():
    inst = BgtInstance.from_values(["4", "3", "0.1"])
    ps = bgt_to_pseudo(inst)
    assert ps.periods == (Fraction(24, 7), Fraction(32, 7), Fraction(960, 7))
    assert ps.density == Fraction(497, 960)
    assert ps.density <= Fraction(7, 12)
    assert scaled(inst).lower_bound == 8


def test_symmetric_pair_factor_two():
    inst = BgtInstance.from_values([1, 1])
    ps = bgt_to_pseudo(inst, ReductionConfig(factor=Fraction(2), lb_mode="sum"))
    assert ps.periods == (Fraction(4), Fraction(4))
    assert ps.density == Fraction(1, 2)


def test_dominant_bamboo_sum_mode_fails_max_rule_succeeds():
    inst = BgtInstance.from_values([13, 1])
    with pytest.raises(PeriodBelowTwo) as err:
        bgt_to_pseudo(inst, ReductionConfig(lb_mode="sum"))
    assert "24/13" in str(err.value)
    ps = bgt_to_pseudo(inst)  # max-rule default
    assert min(ps.periods) == Fraction(24, 7)


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=12))
def test_max_rule_default_keeps_periods_above_24_sevenths(rates):
    inst = BgtInstance.from_values(sorted(rates, reverse=True))
    ps = bgt_to_pseudo(inst)
    assert min(ps.periods) >= Fraction(24, 7)
    # the shortest period always belongs to the fastest grower
    assert ps.periods[0] == min(ps.periods)


@given(
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=12),
    st.booleans(),
)
def test_density_is_total_rate_over_scaled_bound(rates, use_sum):
    # n = 1 is included: its period is the bare factor, below 2 at 12/7 but
    # never refused, and its density 1/factor is exactly 7/12
    inst = BgtInstance.from_values(sorted(rates, reverse=True))
    mode = "sum" if use_sum else "max-rule"
    cfg = ReductionConfig(lb_mode=mode)
    try:
        ps = bgt_to_pseudo(inst, cfg)
    except PeriodBelowTwo:
        assert mode == "sum"  # max-rule keeps every period >= 24/7 > 2
        return
    lb = reference_lower_bound(inst, mode)
    assert ps.density == sum(inst.rates) / (cfg.factor * lb)
    if mode == "max-rule":
        assert ps.density <= Fraction(7, 12)


def test_single_bamboo_reduces_to_the_bare_factor():
    inst = BgtInstance.from_values(["7/2"])
    for mode in ("sum", "max-rule"):
        for factor in (Fraction(12, 7), Fraction(2)):
            cfg = ReductionConfig(factor=factor, lb_mode=mode)
            assert bgt_to_pseudo(inst, cfg).periods == (factor,)
            assert scaled(inst, cfg).lower_bound == Fraction(7, 2)


def test_ps_to_bgt_examples():
    inst, order = ps_to_bgt([2, 3, 12])
    assert inst.rates == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 12))
    assert order == (0, 1, 2)

    inst, order = ps_to_bgt([1])
    assert inst.rates == (Fraction(1),)

    inst, order = ps_to_bgt([2, 4, 4])
    assert inst.rates == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def test_ps_to_bgt_sorts_and_remembers_positions():
    inst, order = ps_to_bgt([12, 2, 3])
    assert inst.rates == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 12))
    # new job i came from original position order[i]
    assert order == (1, 2, 0)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=10))
def test_ps_to_bgt_round_trip_density(periods):
    inst, order = ps_to_bgt(periods)
    assert sorted(order) == list(range(len(periods)))
    assert sum(inst.rates) == density(periods)


def garden(rates):
    return BgtInstance(tuple(sorted(rates, reverse=True)))


HUGE = 10**40
SCALING_CONFIGS = (
    ReductionConfig(Fraction(12, 7), "max-rule"),
    ReductionConfig(Fraction(12, 7), "sum"),
    ReductionConfig(Fraction(2), "sum"),
    ReductionConfig(Fraction(2), "max-rule"),
)


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=10**6),
            st.fractions(min_value=Fraction(1, HUGE), max_value=10**6, max_denominator=HUGE),
        ).filter(lambda r: r > 0),
        min_size=1,
        max_size=8,
    ).map(garden),
    st.sampled_from(SCALING_CONFIGS),
)
@example(garden([13, 1]), SCALING_CONFIGS[1])
@example(garden([6, 1]), SCALING_CONFIGS[1])  # a shortest period of exactly 2 is kept
@example(garden([Fraction(1, 10**30 + 57), Fraction(1, 10**30 + 1)]), SCALING_CONFIGS[0])
@settings(max_examples=300, deadline=None)
def test_integer_scaling_matches_the_fraction_reduction(inst, cfg):
    # the floors, density, refusals and periods of the integer form equal
    # those of the plain Fraction reduction
    try:
        expected = reference_bgt_to_pseudo(inst, cfg)
    except PeriodBelowTwo as exc:
        for reduce in (scaled, bgt_to_pseudo, solve):
            with pytest.raises(PeriodBelowTwo) as err:
                reduce(inst, cfg)
            assert str(err.value) == str(exc)
        return
    scaled_garden = scaled(inst, cfg)
    assert all(type(a) is int for a in scaled_garden.rates)
    assert scaled_garden.floors() == [math.floor(p) for p in expected.periods]
    assert scaled_garden.density == expected.density
    assert bgt_to_pseudo(inst, cfg) == expected
    assert scaled_garden.periods() == expected.periods
