"""Reduction between trimming instances and fractional pinwheel periods.

A garden with rates h_i and a target height of `factor * L` (L being a
height lower bound) turns into the pseudo pinwheel instance with periods
p_i = factor * L / h_i: keeping bamboo i below the target is the same as
cutting it at least once in every window of floor(p_i) days.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import BgtInstance, InvalidInstance, PseudoInstance, lower_bound


class PeriodBelowTwo(ValueError):
    """The reduction produced a period below 2 for a garden of two or more
    bamboos, which the rounding grids cannot absorb. Happens under ("sum"
    mode, factor 12/7) when one rate dominates the garden."""


@dataclass(frozen=True)
class ReductionConfig:
    """Pipeline knobs. factor 12/7 with the max-rule bound is the default
    guarantee; factor 2 with the plain sum is the simpler fallback. Other
    rational factors > 1 are accepted for experiments and promise nothing."""

    factor: Fraction = Fraction(12, 7)
    lb_mode: str = "max-rule"

    def __post_init__(self) -> None:
        if isinstance(self.factor, float):
            raise InvalidInstance(f"binary float factor {self.factor!r} rejected")
        object.__setattr__(self, "factor", Fraction(self.factor))
        if self.factor <= 1:
            raise InvalidInstance("the magnification factor must exceed 1")
        if self.lb_mode not in ("sum", "max-rule"):
            raise InvalidInstance(f"unknown lower-bound mode {self.lb_mode!r}")


def bgt_to_pseudo(instance: BgtInstance, config: ReductionConfig | None = None) -> PseudoInstance:
    """Map rates to fractional periods p_i = factor * L / h_i.

    With the default (12/7, max-rule) config and n >= 2 every period is at
    least 24/7 > 3. Raises PeriodBelowTwo when n >= 2 and any period lands
    below 2. A single bamboo gets the bare factor in both bound modes (L is
    its own rate); a window of floor(factor) days, 1 at 12/7, asks for the
    daily cut that the solver gives it.
    """
    config = config or ReductionConfig()
    bound = lower_bound(instance, config.lb_mode)
    periods = tuple(config.factor * bound / h for h in instance.rates)
    smallest = min(periods)
    if smallest < 2 and instance.n > 1:
        raise PeriodBelowTwo(
            f"reduced period {smallest} is below 2 (factor {config.factor}, "
            f"lower bound {bound}, mode {config.lb_mode})"
        )
    return PseudoInstance(periods, factor=config.factor, lower_bound=bound)


def ps_to_bgt(periods: Sequence[int]) -> tuple[BgtInstance, tuple[int, ...]]:
    """Integral pinwheel periods to a trimming instance with rates 1/p_i.

    Rates must come out sorted non-increasing, so the jobs are permuted;
    the returned tuple maps new job id -> position in `periods`.
    """
    if not periods:
        raise InvalidInstance("need at least one period")
    for p in periods:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise InvalidInstance(f"period {p!r} is not a positive integer")
    order = tuple(sorted(range(len(periods)), key=lambda i: (periods[i], i)))
    rates = tuple(Fraction(1, periods[i]) for i in order)
    return BgtInstance(rates), order
