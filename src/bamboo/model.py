"""Exact-arithmetic domain types shared by every stage of the solver.

Rates are plain `int` when integral and `fractions.Fraction` otherwise.
Fractional periods, densities and reported heights are `Fraction` values;
rounded periods, offsets and cycles are plain `int`. Control flow
hinges on exact comparisons (is a density equal to 7/12? does a period sit
on a grid boundary?), so binary floating point is rejected at the parsing
boundary instead of being silently converted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable


class InvalidInstance(ValueError):
    """An instance, pseudo-instance, or schedule violates a basic invariant."""


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
        _, marker, exponent = text.lower().partition("e")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        try:
            # refuse 1e5000 as int() refuses 5001 written-out digits, before
            # Fraction builds the power of ten (a bad exponent fails either way)
            if marker and limit and abs(int(exponent)) >= limit:
                raise ValueError(f"exponent {exponent} gives over {limit} digits")
            return _int_if_integral(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstance(f"cannot parse a rational from {value!r}") from exc
    raise InvalidInstance(f"cannot parse a rational from a {type(value).__name__}")


def density(periods: Iterable[Fraction | int]) -> Fraction:
    """Sum of reciprocals of the given periods. Empty input has density 0."""
    total = Fraction(0)
    for p in periods:
        if isinstance(p, float):
            raise InvalidInstance(f"binary float period {p!r} rejected")
        p = Fraction(p)
        if p <= 0:
            raise InvalidInstance(f"period {p} is not positive")
        total += Fraction(1, 1) / p
    return total


def _exact_rate(r: object) -> int | Fraction:
    if isinstance(r, float):
        raise InvalidInstance(f"binary float rate {r!r} rejected")
    return _int_if_integral(Fraction(r))


@dataclass(frozen=True)
class BgtInstance:
    """A garden of bamboos: growth rates per day, sorted non-increasing.

    Each rate is an `int` when integral and a `Fraction` otherwise, so an
    integer garden is validated, and later scaled, in plain `int`. Job ids
    are positions into `rates`, so job 0 is the fastest grower.
    """

    rates: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        rates = tuple(r if type(r) is int else _exact_rate(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        if not rates:
            raise InvalidInstance("an instance needs at least one bamboo")
        if any(r <= 0 for r in rates):
            raise InvalidInstance("growth rates must be positive")
        if any(a < b for a, b in zip(rates, rates[1:])):
            raise InvalidInstance("growth rates must be sorted non-increasing")

    @classmethod
    def from_values(cls, values: Iterable[object]) -> "BgtInstance":
        return cls(tuple(parse_rational(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.rates)

    @property
    def max_rate(self) -> int | Fraction:
        return self.rates[0]

    @cached_property
    def total_rate(self) -> Fraction:
        # a Fraction even for an integer garden, as `lower_bound` reports it
        return sum(self.rates, Fraction(0))


def lower_bound(instance: BgtInstance, mode: str = "max-rule") -> Fraction:
    """A height every schedule must reach: the growth-sum H, or the sharper
    max(2*h_max, H) rule. For a single bamboo both modes give h_max."""
    if mode not in ("sum", "max-rule"):
        raise ValueError(f"unknown lower-bound mode {mode!r}")
    if mode == "sum":
        return instance.total_rate
    if instance.n == 1:
        return Fraction(instance.max_rate)
    return max(Fraction(2 * instance.max_rate), instance.total_rate)


@dataclass(frozen=True)
class PseudoInstance:
    """Fractional pinwheel periods, parallel to the job ids of the source
    instance. `factor` and `lower_bound` record how the periods were derived
    when they came out of a reduction."""

    periods: tuple[Fraction, ...]
    factor: Fraction | None = None
    lower_bound: Fraction | None = None

    def __post_init__(self) -> None:
        clean = []
        for p in self.periods:
            if isinstance(p, float):
                raise InvalidInstance(f"binary float period {p!r} rejected")
            p = Fraction(p)
            if p <= 0:
                raise InvalidInstance(f"period {p} is not positive")
            clean.append(p)
        object.__setattr__(self, "periods", tuple(clean))

    @property
    def n(self) -> int:
        return len(self.periods)

    @property
    def density(self) -> Fraction:
        return density(self.periods)


@dataclass(frozen=True)
class JobPeriod:
    """One job paired with an integral period (a rounded or scaled value)."""

    job: int
    period: int


@dataclass(frozen=True)
class ScheduleEntry:
    """Job `job` is served on days offset, offset+cycle, offset+2*cycle, ..."""

    job: int
    offset: int
    cycle: int

    def serves(self, day: int) -> bool:
        return day >= self.offset and (day - self.offset) % self.cycle == 0


@dataclass(frozen=True)
class PeriodicSchedule:
    """One entry per job, stored sorted by job id.

    Offsets and cycles are validated to be positive here; the stronger
    offset <= cycle property is established by the builders and checked
    where they run.
    """

    entries: tuple[ScheduleEntry, ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries, key=lambda e: e.job))
        object.__setattr__(self, "entries", entries)
        seen = set()
        for e in entries:
            if not isinstance(e.job, int) or not isinstance(e.offset, int) or not isinstance(e.cycle, int):
                raise InvalidInstance("schedule entries must be integral")
            if e.job < 0:
                raise InvalidInstance(f"job id {e.job} is negative")
            if e.offset < 1 or e.cycle < 1:
                raise InvalidInstance(f"entry for job {e.job} needs offset >= 1 and cycle >= 1")
            if e.job in seen:
                raise InvalidInstance(f"job {e.job} appears twice")
            seen.add(e.job)

    @property
    def jobs(self) -> tuple[int, ...]:
        return tuple(e.job for e in self.entries)

    def entry(self, job: int) -> ScheduleEntry:
        for e in self.entries:
            if e.job == job:
                return e
        raise KeyError(job)

    def hyperperiod(self) -> int:
        return math.lcm(*(e.cycle for e in self.entries)) if self.entries else 1

    def max_offset(self) -> int:
        return max((e.offset for e in self.entries), default=0)


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


def pseudo_to_obj(pseudo: PseudoInstance) -> dict:
    obj: dict = {"periods": [str(p) for p in pseudo.periods]}
    if pseudo.factor is not None:
        obj["factor"] = str(pseudo.factor)
    if pseudo.lower_bound is not None:
        obj["lower_bound"] = str(pseudo.lower_bound)
    return obj


def pseudo_from_obj(obj: object) -> PseudoInstance:
    if not isinstance(obj, dict) or "periods" not in obj:
        raise InvalidInstance('pseudo-instance JSON must be an object with a "periods" list')
    periods = obj["periods"]
    if not isinstance(periods, list):
        raise InvalidInstance('"periods" must be a list')
    factor = obj.get("factor")
    bound = obj.get("lower_bound")
    return PseudoInstance(
        tuple(parse_rational(p) for p in periods),
        factor=None if factor is None else parse_rational(factor),
        lower_bound=None if bound is None else parse_rational(bound),
    )


def entries_to_obj(schedule: PeriodicSchedule) -> list[dict]:
    return [{"job": e.job, "offset": e.offset, "cycle": e.cycle} for e in schedule.entries]


def schedule_from_obj(obj: object) -> PeriodicSchedule:
    # accept either a bare entry list or any object carrying an "entries"
    # list, so a solve output can be fed straight back into verify
    raw = obj.get("entries") if isinstance(obj, dict) else obj
    if not isinstance(raw, list):
        raise InvalidInstance('schedule JSON must be an entry list or carry an "entries" list')
    entries = []
    for item in raw:
        if not isinstance(item, dict):
            raise InvalidInstance("each schedule entry must be an object")
        try:
            job, offset, cycle = item["job"], item["offset"], item["cycle"]
        except KeyError as exc:
            raise InvalidInstance(f"schedule entry missing key {exc}") from exc
        for name, v in (("job", job), ("offset", offset), ("cycle", cycle)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidInstance(f'entry field "{name}" must be an integer, got {v!r}')
        entries.append(ScheduleEntry(job, offset, cycle))
    return PeriodicSchedule(tuple(entries))
