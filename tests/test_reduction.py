"""Garden-to-pinwheel reduction and its inverse."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bamboo.model import BgtInstance, InvalidInstance, density, lower_bound
from bamboo.reduction import PeriodBelowTwo, ReductionConfig, bgt_to_pseudo, ps_to_bgt


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
    assert ps.factor == Fraction(12, 7)
    assert ps.lower_bound == 8


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
    lb = lower_bound(inst, mode)
    assert ps.density == inst.total_rate / (cfg.factor * lb)
    if mode == "max-rule":
        assert ps.density <= Fraction(7, 12)


def test_single_bamboo_reduces_to_the_bare_factor():
    inst = BgtInstance.from_values(["7/2"])
    for mode in ("sum", "max-rule"):
        for factor in (Fraction(12, 7), Fraction(2)):
            ps = bgt_to_pseudo(inst, ReductionConfig(factor=factor, lb_mode=mode))
            assert ps.periods == (factor,)
            assert ps.lower_bound == Fraction(7, 2)


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
    assert inst.total_rate == density(periods)
