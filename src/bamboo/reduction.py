"""Reduction between trimming instances and fractional pinwheel periods.

A garden with rates h_i and a target height of `factor * L` (L being a
height lower bound) turns into the pseudo pinwheel instance with periods
p_i = factor * L / h_i: keeping bamboo i below the target is the same as
cutting it at least once in every window of floor(p_i) days. Every
decision after that needs only floor(p_i), the density and the peak
height, each a ratio of integers once the rates are scaled to integers;
`scaled` does that once. `ScaledGarden.periods` is the one home of the
exact p_i, built only for the callers that read them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import BgtInstance, InvalidInstance, PseudoInstance, parse_rational, record


class PeriodBelowTwo(InvalidInstance):
    """The reduction produced a period below 2 for a garden of two or more
    bamboos, which the rounding grids cannot absorb. Happens under ("sum"
    mode, factor 12/7) when one rate dominates the garden."""


@record
class ReductionConfig:
    """Pipeline knobs. factor 12/7 with the max-rule bound is the default
    guarantee; factor 2 with the plain sum is the simpler fallback. Other
    rational factors > 1 are accepted for experiments and promise nothing."""

    factor: Fraction = Fraction(12, 7)
    lb_mode: str = "max-rule"

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", Fraction(parse_rational(self.factor)))
        if self.factor <= 1:
            raise InvalidInstance("the magnification factor must exceed 1")
        if self.lb_mode not in ("sum", "max-rule"):
            raise InvalidInstance(f"unknown lower-bound mode {self.lb_mode!r}")


# built once: each ReductionConfig parses its factor
DEFAULT_CONFIG = ReductionConfig()


@record
class ScaledGarden:
    """A garden and a config in integers, the form the solver decides on.

    With D (`scale`) the least common denominator of the rates (1 for an
    integer garden), `rates` holds a_i = h_i * D, `total` holds A = sum(a_i)
    and `bound` holds L * D: max(2 * a_0, A) in max-rule mode, A in sum
    mode, a_0 for a single bamboo; this is the one home of the lower bound.
    With factor u/v the period p_i = factor * L / h_i is
    u * bound / (v * a_i), so floor(p_i) = `top` // a_i, where
    `top` = floor(factor * L * D).
    """

    scale: int
    rates: tuple[int, ...]
    total: int
    bound: int
    config: ReductionConfig

    @property
    def n(self) -> int:
        return len(self.rates)

    @property
    def top(self) -> int:
        return self.config.factor.numerator * self.bound // self.config.factor.denominator

    def floors(self) -> list[int]:
        """floor(p_i) for every job, in job-id order."""
        top = self.top
        return [top // a for a in self.rates]

    def periods(self) -> tuple[Fraction, ...]:
        """The exact p_i = u * bound / (v * a_i) for every job, in job-id order."""
        u, v = self.config.factor.numerator, self.config.factor.denominator
        return tuple(Fraction(u * self.bound, v * a) for a in self.rates)

    @property
    def lower_bound(self) -> Fraction:
        return Fraction(self.bound, self.scale)

    @property
    def density(self) -> Fraction:
        """sum(1 / p_i) = sum(h_i) / (factor * L)."""
        factor = self.config.factor
        return Fraction(factor.denominator * self.total, factor.numerator * self.bound)


def scaled(instance: BgtInstance, config: ReductionConfig | None = None) -> ScaledGarden:
    """Scale the garden to integers (see ScaledGarden).

    Raises PeriodBelowTwo when n >= 2 and the shortest period, that of the
    fastest grower, lands below 2: floor(p_0) = top // a_0 < 2.
    """
    config = config or DEFAULT_CONFIG
    rates = instance.rates
    scale = math.lcm(*(h.denominator for h in rates))
    if scale == 1:
        scaled_rates = rates
    else:
        scaled_rates = tuple(h.numerator * (scale // h.denominator) for h in rates)
    total = sum(scaled_rates)
    if instance.n == 1:
        bound = scaled_rates[0]
    elif config.lb_mode == "sum":
        bound = total
    else:
        bound = max(2 * scaled_rates[0], total)
    garden = ScaledGarden(scale, scaled_rates, total, bound, config)
    if instance.n > 1 and garden.top // scaled_rates[0] < 2:
        raise PeriodBelowTwo(
            f"reduced period {garden.periods()[0]} is below 2 (factor {config.factor}, "
            f"lower bound {garden.lower_bound}, mode {config.lb_mode})"
        )
    return garden


def bgt_to_pseudo(instance: BgtInstance, config: ReductionConfig | None = None) -> PseudoInstance:
    """Map rates to fractional periods p_i = factor * L / h_i (see
    `ScaledGarden.periods`).

    With the default (12/7, max-rule) config and n >= 2 every period is at
    least 24/7 > 3. Raises PeriodBelowTwo when n >= 2 and any period lands
    below 2. A single bamboo gets the bare factor in both bound modes (L is
    its own rate); a window of floor(factor) days, 1 at 12/7, asks for the
    daily cut that the solver gives it.
    """
    return PseudoInstance(scaled(instance, config).periods())
