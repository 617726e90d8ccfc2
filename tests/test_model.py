"""Core data model: rational parsing, density, bounds, schedule containers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bamboo.model import (
    BgtInstance,
    InvalidInstance,
    PeriodicSchedule,
    PseudoInstance,
    ScheduleEntry,
    density,
    instance_from_obj,
    instance_to_obj,
    lower_bound,
    parse_rational,
    pseudo_from_obj,
    pseudo_to_obj,
    schedule_from_obj,
    entries_to_obj,
)


# ---------------------------------------------------------------- parsing


def test_parse_rational_accepts_ints_strings_fractions():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("96/7") == Fraction(96, 7)
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational(Fraction(5, 4)) == Fraction(5, 4)
    # integral values come back as int, whatever form they were written in
    for value, expected in ((3, 3), ("12", 12), (" 007 ", 7), ("-4", -4), ("6/3", 2), ("2.0", 2), (Fraction(8, 4), 2)):
        got = parse_rational(value)
        assert got == expected and type(got) is int, value
    for value in ("96/7", "0.1", "1e-3", Fraction(5, 4)):
        assert type(parse_rational(value)) is Fraction, value


def test_parse_rational_rejects_floats():
    with pytest.raises(InvalidInstance) as err:
        parse_rational(0.1)
    assert "0.1" in str(err.value)
    # bool is an int subclass; it must not sneak through as 0 or 1
    with pytest.raises(InvalidInstance):
        parse_rational(True)


def test_parse_rational_rejects_garbage():
    with pytest.raises(InvalidInstance):
        parse_rational("three")
    with pytest.raises(InvalidInstance):
        parse_rational(None)
    # exponents past the integer-string digit limit fail like a written-out
    # number of that length does, before any huge power of ten is built
    for huge in ("1e5000", "1e-5000", "1" + "0" * 5000):
        with pytest.raises(InvalidInstance):
            parse_rational(huge)


# ---------------------------------------------------------------- density


def test_density_examples():
    assert density([2, 3, 12]) == Fraction(11, 12)
    assert density([]) == 0
    assert density([2, 4, 8, 8]) == 1


def test_density_rejects_nonpositive_and_floats():
    with pytest.raises(InvalidInstance):
        density([2, 0])
    with pytest.raises(InvalidInstance):
        density([2.0])


@given(
    st.lists(st.integers(min_value=1, max_value=1000), max_size=8),
    st.lists(st.integers(min_value=1, max_value=1000), max_size=8),
)
def test_density_is_additive_over_disjoint_union(xs, ys):
    assert density(xs + ys) == density(xs) + density(ys)


# ---------------------------------------------------------------- instances


def test_instance_requires_sorted_positive_rates():
    inst = BgtInstance.from_values(["4", "3", "0.1"])
    assert inst.n == 3
    assert inst.max_rate == 4
    assert inst.total_rate == Fraction(71, 10)
    assert [type(r) for r in inst.rates] == [int, int, Fraction]
    assert [type(r) for r in BgtInstance((Fraction(6, 3), Fraction(1, 2))).rates] == [int, Fraction]

    with pytest.raises(InvalidInstance):
        BgtInstance.from_values([])
    with pytest.raises(InvalidInstance):
        BgtInstance.from_values(["3", "4"])  # not non-increasing
    with pytest.raises(InvalidInstance):
        BgtInstance.from_values(["4", "0"])
    with pytest.raises(InvalidInstance):
        BgtInstance((Fraction(4), 0.5))  # type: ignore[arg-type]


@given(
    st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=12)
    | st.lists(st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6), min_size=1, max_size=12)
)
def test_total_rate_is_the_sum_computed_once(rates):
    inst = BgtInstance(tuple(sorted((Fraction(r) for r in rates), reverse=True)))
    assert inst.total_rate == sum(inst.rates)
    assert inst.total_rate is inst.total_rate


def test_lower_bound_examples():
    inst = BgtInstance.from_values(["4", "3", "0.1"])
    assert lower_bound(inst, "max-rule") == 8
    assert lower_bound(inst, "sum") == Fraction(71, 10)
    single = BgtInstance.from_values(["1"])
    assert lower_bound(single, "max-rule") == 1
    assert lower_bound(single, "sum") == 1
    with pytest.raises(ValueError):
        lower_bound(inst, "median")


@given(st.lists(st.integers(min_value=1, max_value=999), min_size=2, max_size=10))
def test_max_rule_formula_and_domination(rates):
    rates = sorted(rates, reverse=True)
    inst = BgtInstance.from_values(rates)
    lb = lower_bound(inst, "max-rule")
    assert lb >= lower_bound(inst, "sum")
    assert lb == max(2 * rates[0], sum(rates))


# ---------------------------------------------------------------- schedules


def test_schedule_entry_serves():
    e = ScheduleEntry(0, 3, 128)
    assert e.serves(3) and e.serves(131) and e.serves(3 + 128 * 5)
    assert not e.serves(2) and not e.serves(4)


def test_periodic_schedule_validation():
    s = PeriodicSchedule((ScheduleEntry(1, 2, 4), ScheduleEntry(0, 1, 2)))
    assert s.jobs == (0, 1)  # stored sorted by job id
    assert s.entry(1).cycle == 4
    assert s.hyperperiod() == 4
    assert s.max_offset() == 2

    with pytest.raises(InvalidInstance):
        PeriodicSchedule((ScheduleEntry(0, 0, 2),))  # day numbering starts at 1
    with pytest.raises(InvalidInstance):
        PeriodicSchedule((ScheduleEntry(0, 1, 0),))
    with pytest.raises(InvalidInstance):
        PeriodicSchedule((ScheduleEntry(0, 1, 2), ScheduleEntry(0, 2, 2)))  # dup job


def test_pseudo_instance_density_and_validation():
    ps = PseudoInstance((Fraction(24, 7), Fraction(32, 7), Fraction(960, 7)))
    assert ps.n == 3
    assert ps.density == Fraction(497, 960)
    with pytest.raises(InvalidInstance):
        PseudoInstance((Fraction(0),))
    with pytest.raises(InvalidInstance):
        PseudoInstance((3.5,))  # type: ignore[arg-type]


# ---------------------------------------------------------------- JSON round trips


def test_instance_json_round_trip():
    inst = BgtInstance.from_values(["4", "3", "1/10"])
    obj = instance_to_obj(inst)
    assert obj == {"rates": ["4", "3", "1/10"]}
    assert instance_from_obj(obj) == inst
    with pytest.raises(InvalidInstance):
        instance_from_obj({"rates": [0.1]})
    with pytest.raises(InvalidInstance):
        instance_from_obj(["not", "a", "dict"])


def test_pseudo_json_round_trip():
    ps = PseudoInstance((Fraction(24, 7), Fraction(4)), factor=Fraction(12, 7), lower_bound=Fraction(8))
    obj = pseudo_to_obj(ps)
    assert obj["periods"] == ["24/7", "4"]
    back = pseudo_from_obj(obj)
    assert back.periods == ps.periods
    assert back.factor == ps.factor and back.lower_bound == ps.lower_bound


def test_schedule_json_round_trip():
    s = PeriodicSchedule((ScheduleEntry(0, 2, 2), ScheduleEntry(1, 1, 4)))
    obj = entries_to_obj(s)
    assert obj == [
        {"job": 0, "offset": 2, "cycle": 2},
        {"job": 1, "offset": 1, "cycle": 4},
    ]
    assert schedule_from_obj(obj) == s
    with pytest.raises(InvalidInstance):
        schedule_from_obj([{"job": 0, "offset": True, "cycle": 2}])
    with pytest.raises(InvalidInstance):
        schedule_from_obj([{"job": 0, "offset": 1}])
