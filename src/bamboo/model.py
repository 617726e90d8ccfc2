"""Exact-arithmetic domain types shared by every stage of the solver.

Rates and fractional periods are plain `int` when integral and
`fractions.Fraction` otherwise; densities and reported heights are
`Fraction` values; rounded periods, offsets and cycles are plain `int`.
Control flow hinges on exact comparisons (is a density equal to 7/12?
does a period sit on a grid boundary?), so binary floating point and
`bool` are rejected at the boundary instead of being silently converted.
Each boundary rule has one home: `parse_rational` is the one coercion of
rates, periods and factors, `int_period` the one check of an integral
period and `PeriodicSchedule`, which holds a schedule as int columns, the
one check of schedule entries and the one home of the coverage rule
(`covers`). The lower bound lives in `reduction.scaled`, and the horizon
of the verifier's calendar, which runs only on a schedule without chain
structure, in `verifier._calendar`.

Every value class of the package is a `record`: immutable, compared,
hashed and printed by its fields.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import cached_property
from operator import attrgetter, lt
from typing import Iterable, Sequence


class InvalidInstance(ValueError):
    """An instance, pseudo-instance, or schedule violates a basic invariant."""


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other: object) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type | None = None, *, init: bool = True):
    """Make `cls` an immutable value class over its annotated fields, in
    order: equal to a record of the same class with equal fields, hashed
    and printed by them, and refusing to assign or delete an attribute.
    The `__init__` (unless `init=False` keeps the class's own) takes the
    fields positionally or by keyword, defaults from the class body, sets
    each with `object.__setattr__` and then calls `self.__post_init__()`,
    if the class has one; it is looked up on each call, so a hook wrapped
    on the class later runs too. The comparison methods are shared by
    every record and read the field names from `_fields`; only `__init__`
    is compiled, once per class."""
    if cls is None:
        return lambda cls: record(cls, init=init)
    cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
    if init:
        lines = [f"def __init__(self, {', '.join(fields)}):"]
        lines += [f"    _set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace: dict = {}
        exec("\n".join(lines), {"_set": object.__setattr__}, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__defaults__ = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__) or None
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls


def _int_if_integral(value: Fraction) -> int | Fraction:
    return value.numerator if value.denominator == 1 else value


def parse_rational(value: object) -> int | Fraction:
    """Parse an exact rational from an int, a decimal string, or a "p/q" string.

    The result is an `int` when the value is integral ("12", "6/3", "2.0")
    and a `Fraction` otherwise. Floats are rejected on purpose: the float
    0.1 is not the rational 1/10, and a silently converted rate would shift
    every grid boundary downstream.
    """
    if isinstance(value, bool):
        raise InvalidInstance(f"expected a rational value, got bool {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return _int_if_integral(value)
    if isinstance(value, float):
        raise InvalidInstance(
            f"binary float {value!r} rejected; pass the value as a string such as \"0.1\""
        )
    if isinstance(value, str):
        text = value.strip()
        try:
            # what Fraction reads as an int; "1_000" and non-ASCII digits go on
            if text.isascii() and text.isdigit():
                return int(text)
            _, marker, exponent = text.lower().partition("e")
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            # refuse 1e5000 as int() refuses 5001 written-out digits, before
            # Fraction builds the power of ten (a bad exponent fails either way)
            if marker and limit and abs(int(exponent)) >= limit:
                raise ValueError(f"exponent {exponent} gives over {limit} digits")
            return _int_if_integral(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstance(f"cannot parse a rational from {value!r}") from exc
    raise InvalidInstance(f"cannot parse a rational from a {type(value).__name__}")


@record
class BgtInstance:
    """A garden of bamboos: growth rates per day, sorted non-increasing.

    Each rate is an `int` when integral and a `Fraction` otherwise, so an
    integer garden is validated, and later scaled, in plain `int`. Job ids
    are positions into `rates`, so job 0 is the fastest grower.
    """

    rates: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        rates = tuple(map(parse_rational, self.rates))
        object.__setattr__(self, "rates", rates)
        if not rates:
            raise InvalidInstance("an instance needs at least one bamboo")
        if any(r <= 0 for r in rates):
            raise InvalidInstance("growth rates must be positive")
        if any(a < b for a, b in zip(rates, rates[1:])):
            raise InvalidInstance("growth rates must be sorted non-increasing")

    @classmethod
    def from_values(cls, values: Iterable[object]) -> "BgtInstance":
        return cls(tuple(values))

    @property
    def n(self) -> int:
        return len(self.rates)


@record
class PseudoInstance:
    """Fractional pinwheel periods, parallel to the job ids of the source
    instance. Like rates, each period is an `int` when integral and a
    `Fraction` otherwise. `factor` and `lower_bound` record how the periods
    were derived when they came out of a reduction; `None` or a rational,
    parsed like the periods."""

    periods: tuple[int | Fraction, ...]
    factor: int | Fraction | None = None
    lower_bound: int | Fraction | None = None

    def __post_init__(self) -> None:
        periods = tuple(parse_rational(p) for p in self.periods)
        object.__setattr__(self, "periods", periods)
        if self.factor is not None:
            object.__setattr__(self, "factor", parse_rational(self.factor))
        if self.lower_bound is not None:
            object.__setattr__(self, "lower_bound", parse_rational(self.lower_bound))
        for p in periods:
            if p <= 0:
                raise InvalidInstance(f"period {p} is not positive")

    @property
    def n(self) -> int:
        return len(self.periods)

    def floors(self) -> list[int]:
        """floor(p_i) for every job, in job-id order, as `ScaledGarden.floors`
        gives them (an int is its own numerator over 1)."""
        return [p.numerator // p.denominator for p in self.periods]

    @property
    def density(self) -> Fraction:
        """Sum of reciprocals of the periods; 0 for no period."""
        total = Fraction(0)
        for p in self.periods:
            total += Fraction(1, 1) / p
        return total


def density(periods: Iterable[Fraction | int]) -> Fraction:
    """Sum of reciprocals of the given periods. Empty input has density 0."""
    return PseudoInstance(tuple(periods)).density


def int_period(p: object, error: type[InvalidInstance] = InvalidInstance) -> int:
    """The one home of the integral-period rule: `p` if it is a plain `int`
    (not a `bool`) of at least 1, else `error` is raised."""
    if type(p) is not int or p < 1:
        raise error(f"period {p!r} is not a positive integer")
    return p


@record
class JobPeriod:
    """One job paired with an integral period (a rounded or scaled value)."""

    job: int
    period: int


@record
class ScheduleEntry:
    """Job `job` is served on days offset, offset+cycle, offset+2*cycle, ..."""

    job: int
    offset: int
    cycle: int


@record(init=False)
class PeriodicSchedule:
    """One entry per job, held as int columns sorted by job id: `jobs`,
    `offsets` and `cycles`, as `of_columns` takes them. perfbench reads
    the entry forms: `PeriodicSchedule(entries)` takes `ScheduleEntry`s,
    and `entries`, one per job, is built on first read and kept.

    This is the one check of schedule entries (`__post_init__`, on either
    path): every field is a plain `int` (not a `bool`), checked in the
    order given and before the sort by job; job ids are non-negative and
    distinct; offsets and cycles are positive. Each rule is a native pass
    over the columns, and only a failed pass scans them to name the first
    fault. The scheduler's builders hand over their columns in placement
    order, so this is also the one check of the job ids they place. They
    establish offset <= cycle and check it themselves.
    """

    jobs: tuple[int, ...]
    offsets: tuple[int, ...]
    cycles: tuple[int, ...]

    def __init__(self, entries: Iterable[ScheduleEntry]) -> None:
        entries = tuple(entries)
        self._hold(*(tuple(map(attrgetter(name), entries)) for name in ScheduleEntry._fields))
        self.__post_init__()

    @classmethod
    def of_columns(cls, jobs: Sequence[int], offsets: Sequence[int], cycles: Sequence[int]) -> PeriodicSchedule:
        schedule = cls.__new__(cls)
        schedule._hold(jobs, offsets, cycles)
        schedule.__post_init__()
        return schedule

    def _hold(self, *columns: Sequence[int]) -> None:
        for name, column in zip(self._fields, columns):
            object.__setattr__(self, name, column)

    def __post_init__(self) -> None:
        columns = self.jobs, self.offsets, self.cycles
        if len(set(map(len, columns))) > 1:
            raise InvalidInstance("schedule columns differ in length")
        if not set(map(type, itertools.chain(*columns))) <= {int}:
            name, v = next((k, v) for row in zip(*columns) for k, v in zip(ScheduleEntry._fields, row) if type(v) is not int)
            raise InvalidInstance(f'entry field "{name}" must be an integer, got {v!r}')
        jobs = columns[0]
        if not all(map(lt, jobs, jobs[1:])):
            order = sorted(range(len(jobs)), key=jobs.__getitem__)
            columns = [list(map(column.__getitem__, order)) for column in columns]
        jobs, offsets, cycles = map(tuple, columns)
        if jobs and jobs[0] < 0:
            raise InvalidInstance(f"job id {jobs[0]} is negative")
        if jobs and (min(offsets) < 1 or min(cycles) < 1 or not all(map(lt, jobs, jobs[1:]))):
            for i, (job, offset, cycle) in enumerate(zip(jobs, offsets, cycles)):
                if offset < 1 or cycle < 1:
                    raise InvalidInstance(f"entry for job {job} needs offset >= 1 and cycle >= 1")
                if i and job == jobs[i - 1]:
                    raise InvalidInstance(f"job {job} appears twice")
        self._hold(jobs, offsets, cycles)

    @cached_property
    def entries(self) -> tuple[ScheduleEntry, ...]:
        return tuple(map(ScheduleEntry, self.jobs, self.offsets, self.cycles))

    def covers(self, n: int) -> bool:
        """True iff there is exactly one entry for each of jobs 0..n-1: the
        jobs are sorted, distinct and non-negative, so iff there are n of
        them and the last is n - 1."""
        jobs = self.jobs
        return len(jobs) == n and (not jobs or jobs[-1] == n - 1)


# ---------- JSON forms ----------
#
# Rationals serialize as canonical strings ("8", "96/7"); str(Fraction)
# already produces exactly that form.


def instance_to_obj(instance: BgtInstance) -> dict:
    return {"rates": [str(r) for r in instance.rates]}


def instance_from_obj(obj: object) -> BgtInstance:
    if not isinstance(obj, dict) or "rates" not in obj:
        raise InvalidInstance('instance JSON must be an object with a "rates" list')
    rates = obj["rates"]
    if not isinstance(rates, list):
        raise InvalidInstance('"rates" must be a list')
    return BgtInstance.from_values(rates)


def pseudo_from_obj(obj: object) -> PseudoInstance:
    if not isinstance(obj, dict) or "periods" not in obj:
        raise InvalidInstance('pseudo-instance JSON must be an object with a "periods" list')
    periods = obj["periods"]
    if not isinstance(periods, list):
        raise InvalidInstance('"periods" must be a list')
    return PseudoInstance(tuple(periods), factor=obj.get("factor"), lower_bound=obj.get("lower_bound"))


def entries_to_obj(schedule: PeriodicSchedule) -> list[dict]:
    return [{"job": j, "offset": o, "cycle": c} for j, o, c in zip(schedule.jobs, schedule.offsets, schedule.cycles)]


def schedule_from_obj(obj: object) -> PeriodicSchedule:
    # accept either a bare entry list or any object carrying an "entries"
    # list, so a solve output can be fed straight back into verify
    raw = obj.get("entries") if isinstance(obj, dict) else obj
    if not isinstance(raw, list):
        raise InvalidInstance('schedule JSON must be an entry list or carry an "entries" list')
    jobs, offsets, cycles = [], [], []
    for item in raw:
        if not isinstance(item, dict):
            raise InvalidInstance("each schedule entry must be an object")
        try:
            job, offset, cycle = item["job"], item["offset"], item["cycle"]
        except KeyError as exc:
            raise InvalidInstance(f"schedule entry missing key {exc}") from exc
        jobs.append(job)
        offsets.append(offset)
        cycles.append(cycle)
    return PeriodicSchedule.of_columns(jobs, offsets, cycles)
