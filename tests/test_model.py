"""Core data model: rational parsing, density, bounds, schedule containers."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bamboo.model import (
    BgtInstance,
    InvalidInstance,
    PeriodicSchedule,
    PseudoInstance,
    ScheduleEntry,
    density,
    instance_from_obj,
    instance_to_obj,
    parse_rational,
    pseudo_from_obj,
    schedule_from_obj,
    entries_to_obj,
)
from bamboo.reduction import ReductionConfig, scaled
from bamboo.rounding import certificate, normalize, specialize_single, split_23
from helpers import (
    entry_of,
    pseudo_to_obj,
    reference_lower_bound,
    reference_parse_rational,
    reference_schedule,
    reference_schedule_from_obj,
    serves,
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


def parsed(parse, text):
    """The value and its type, or the refusal message."""
    try:
        value = parse(text)
    except InvalidInstance as exc:
        return f"refused: {exc}"
    return type(value), value


@given(st.text(alphabet="0123456789_ +-./e\t\u0663\u00b2\uff11", max_size=8))
@example("1_000")
@example(" 12 ")
@example("007")
@example("\u0661\u0662")  # Arabic-Indic "12": digits, but not ASCII
@example("\uff11\uff12")  # fullwidth "12"
@example("\u00b2")  # superscript two: isdigit() holds, int() refuses
@example("+5")
@example("-5")
@example("")
@example("9" * 4300)
@example("9" * 4301)
@example(" " + "1" * 5000 + " ")
def test_parse_rational_digit_strings_match_the_fraction_path(text):
    # plain ASCII digit strings become ints directly; every string must still
    # parse to what Fraction makes of it, or be refused with the same message
    assert parsed(parse_rational, text) == parsed(reference_parse_rational, text)


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
    assert inst.rates == (4, 3, Fraction(1, 10))
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


# The lower bound has one home, `reduction.scaled`; it does not depend on
# the factor, and factor 2 keeps every sum-mode period >= 2, so no garden
# is refused with PeriodBelowTwo before its bound is read.


def scaled_bound(inst: BgtInstance, mode: str) -> Fraction:
    return scaled(inst, ReductionConfig(factor=Fraction(2), lb_mode=mode)).lower_bound


def test_lower_bound_examples():
    inst = BgtInstance.from_values(["4", "3", "0.1"])
    single = BgtInstance.from_values(["1"])
    for garden, mode, expected in (
        (inst, "max-rule", 8),
        (inst, "sum", Fraction(71, 10)),
        (single, "max-rule", 1),
        (single, "sum", 1),
    ):
        assert scaled_bound(garden, mode) == expected == reference_lower_bound(garden, mode)
        assert scaled(garden, ReductionConfig(lb_mode=mode)).lower_bound == expected
    with pytest.raises(InvalidInstance):
        ReductionConfig(lb_mode="median")


@given(st.lists(st.integers(min_value=1, max_value=999), min_size=2, max_size=10))
def test_max_rule_formula_and_domination(rates):
    rates = sorted(rates, reverse=True)
    inst = BgtInstance.from_values(rates)
    lb = scaled_bound(inst, "max-rule")
    assert lb >= scaled_bound(inst, "sum") == reference_lower_bound(inst, "sum")
    assert lb == max(2 * rates[0], sum(rates)) == reference_lower_bound(inst, "max-rule")


# ---------------------------------------------------------------- schedules


def test_schedule_entry_serves():
    e = ScheduleEntry(0, 3, 128)
    assert serves(e, 3) and serves(e, 131) and serves(e, 3 + 128 * 5)
    assert not serves(e, 2) and not serves(e, 4)


def test_periodic_schedule_validation():
    s = PeriodicSchedule((ScheduleEntry(1, 2, 4), ScheduleEntry(0, 1, 2)))
    assert s.jobs == (0, 1)  # stored sorted by job id
    assert entry_of(s, 1).cycle == 4

    with pytest.raises(InvalidInstance):
        PeriodicSchedule((ScheduleEntry(0, 0, 2),))  # day numbering starts at 1
    with pytest.raises(InvalidInstance):
        PeriodicSchedule((ScheduleEntry(0, 1, 0),))
    with pytest.raises(InvalidInstance):
        PeriodicSchedule((ScheduleEntry(0, 1, 2), ScheduleEntry(0, 2, 2)))  # dup job


def test_schedule_entries_are_checked_before_the_sort():
    # unchecked values must not reach sorted() and raise TypeError there
    with pytest.raises(InvalidInstance) as err:
        PeriodicSchedule((ScheduleEntry(0, 1, 2), ScheduleEntry("a", 1, 2)))  # type: ignore[arg-type]
    assert str(err.value) == "entry field \"job\" must be an integer, got 'a'"
    with pytest.raises(InvalidInstance):
        PeriodicSchedule((ScheduleEntry(1, 1, 2), ScheduleEntry(0, 1.0, 2)))  # type: ignore[arg-type]
    with pytest.raises(InvalidInstance) as err:
        schedule_from_obj([{"job": 0, "offset": 1, "cycle": 2}, {"job": None, "offset": 1, "cycle": 2}])
    assert str(err.value) == "entry field \"job\" must be an integer, got None"


def test_bool_is_refused_on_library_and_json_paths():
    # bool is an int subclass; True must not pass as the rational or the day 1,
    # and a float is no exact rational either
    norm = normalize(split_23([4, 128, 3]))
    refused = [
        lambda: BgtInstance((True,)),
        lambda: BgtInstance((3, True)),
        lambda: BgtInstance.from_values(["2", True]),
        lambda: PseudoInstance((True,)),
        lambda: PseudoInstance((Fraction(7, 2), True)),
        lambda: density(["2", True]),
        lambda: ReductionConfig(factor=True),
        lambda: PeriodicSchedule((ScheduleEntry(True, 1, 2),)),
        lambda: PeriodicSchedule((ScheduleEntry(0, True, 2),)),
        lambda: PeriodicSchedule((ScheduleEntry(0, 1, True),)),
        lambda: instance_from_obj({"rates": ["2", True]}),
        lambda: pseudo_from_obj({"periods": ["2", True]}),
        lambda: schedule_from_obj([{"job": True, "offset": 1, "cycle": 2}]),
        lambda: schedule_from_obj([{"job": 0, "offset": 1, "cycle": True}]),
        lambda: specialize_single(True, 1),
        lambda: specialize_single(3.7, 2),
        lambda: certificate(norm, True),
        lambda: certificate(norm, 0.5),
    ]
    for make in refused:
        with pytest.raises(InvalidInstance):
            make()
    # exact rationals still pass, as strings or Fractions
    assert specialize_single("7/2", 2) == specialize_single(Fraction(7, 2), 2) == 2
    assert certificate(norm, "7/12") and certificate(norm, Fraction(497, 960))


def test_pseudo_instance_density_and_validation():
    ps = PseudoInstance((Fraction(24, 7), Fraction(32, 7), Fraction(960, 7)))
    assert ps.n == 3
    assert ps.density == Fraction(497, 960)
    with pytest.raises(InvalidInstance):
        PseudoInstance((Fraction(0),))
    with pytest.raises(InvalidInstance):
        PseudoInstance((3.5,))  # type: ignore[arg-type]


FIELDS = ("job", "offset", "cycle")
HOSTILE = st.sampled_from([0, -1, True, False, "1", 1.0, 2.5, None])


@st.composite
def entry_lists(draw):
    """Schedule entry dicts over jobs 0..6 in any order, most of them valid,
    with up to three changes: a field made hostile (bool, str, float,
    negative or zero), a job repeated (its copy's offset may be 0), a key
    dropped, or an item that is no dict."""
    jobs = draw(st.permutations(range(draw(st.integers(min_value=0, max_value=7)))))
    items: list = [
        {"job": j, "offset": draw(st.integers(min_value=1, max_value=4)), "cycle": draw(st.integers(min_value=1, max_value=4))}
        for j in jobs
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        dicts = [i for i, item in enumerate(items) if isinstance(item, dict)]
        if not dicts:
            break
        i = draw(st.sampled_from(dicts))
        change = draw(st.sampled_from(["field", "field", "repeat", "drop", "not a dict"]))
        if change == "field":
            items[i][draw(st.sampled_from(FIELDS))] = draw(HOSTILE)
        elif change == "repeat":
            copy = {**items[i], "offset": draw(st.integers(min_value=0, max_value=4))}
            items.insert(draw(st.integers(min_value=0, max_value=len(items))), copy)
        elif change == "drop":
            items[i].pop(draw(st.sampled_from(FIELDS)), None)
        else:
            items[i] = draw(st.sampled_from([[], "entry", 3, None]))
    return items


def outcome(make):
    try:
        return "ok", make()
    except InvalidInstance as exc:
        return "error", type(exc), str(exc)


@given(entry_lists(), st.booleans())
@example([{"job": 0, "offset": 1, "cycle": 2}, {"job": 0, "offset": 0, "cycle": 2}], False)
@example([{"job": 1, "offset": 1, "cycle": 2}, {"job": 0, "offset": 0, "cycle": 2}, {"job": 1, "offset": 0, "cycle": 2}], False)
@example([{"job": 2, "offset": 1, "cycle": 2}, {"job": -1, "offset": 0, "cycle": 2}], True)
@example([{"job": 1, "offset": 1, "cycle": 2}, {"job": 0, "offset": 1.0, "cycle": "2"}], False)
@example([{"job": 0, "offset": 1, "cycle": True}, {"job": "0", "offset": 1, "cycle": 2}], False)  # entry order first
@example([{"job": 0, "offset": 1}, 3], True)
@settings(max_examples=300, deadline=None)
def test_schedule_check_matches_reference(items, wrapped):
    # the column check must refuse what the entry-by-entry check refused,
    # with the same error, on every path into a schedule
    obj = {"entries": items} if wrapped else items
    expected = outcome(lambda: reference_schedule_from_obj(obj))
    assert outcome(lambda: schedule_from_obj(obj).entries) == expected
    if not all(isinstance(item, dict) and set(FIELDS) <= item.keys() for item in items):
        return
    entries = [ScheduleEntry(item["job"], item["offset"], item["cycle"]) for item in items]
    columns = [[item[name] for item in items] for name in FIELDS]
    assert outcome(lambda: reference_schedule(entries)) == expected
    assert outcome(lambda: PeriodicSchedule(entries).entries) == expected
    assert outcome(lambda: PeriodicSchedule.of_columns(*columns).entries) == expected
    if expected[0] == "error":
        return
    ref = expected[1]
    schedule = schedule_from_obj(obj)
    assert schedule.jobs == tuple(e.job for e in ref)
    for n in range(9):
        assert schedule.covers(n) == ({e.job for e in ref} == set(range(n)))
    assert schedule == PeriodicSchedule(ref) == PeriodicSchedule(entries[::-1]) == PeriodicSchedule.of_columns(*columns)
    if ref:
        last = ref[-1]
        moved = ref[:-1] + (ScheduleEntry(last.job, last.offset + 1, last.cycle),)
        assert reference_schedule(moved) != ref and PeriodicSchedule(moved) != schedule


def test_schedule_columns_must_have_one_length():
    with pytest.raises(InvalidInstance):
        PeriodicSchedule.of_columns((0, 1), (1, 1), (2,))


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
    ps = PseudoInstance((Fraction(24, 7), Fraction(4)))
    obj = pseudo_to_obj(ps)
    assert obj == {"periods": ["24/7", "4"]}
    back = pseudo_from_obj(obj)
    assert back == ps
    # keys it does not read, such as those a reduction once recorded, are ignored
    assert pseudo_from_obj({**obj, "factor": "12/7", "lower_bound": "8"}) == ps


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
