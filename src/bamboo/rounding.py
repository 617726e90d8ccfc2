"""Rounding fractional periods onto doubling grids, plus the certificate.

Every period p >= 2 falls into exactly one band [2*2^j, 3*2^j) or
[3*2^j, 4*2^j). Rounding down to the band's left endpoint puts it on the
{2,4,8,...} grid (multiset B) or on the {3,6,12,...} grid (multiset C)
while losing less than a factor of 2. Whole chunks of density (1/2 from B,
1/3 from C) are split off as r and s; the fractional leftovers P and Q are
then re-rounded from one grid to the other in one of four normalization
cases chosen so that the ceiling certificate

    y = ceil(2*rho(B')) / 2 + ceil(3*rho(C')) / 3

stays at most 1 whenever the input density is at most 7/12. y <= 1 is
exactly what the odd/even interleaving of the two grids needs.
On one grid every period divides the largest, so densities are weighed
as integers over it; `Fraction` only appears in the values reported out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .model import InvalidInstance, JobPeriod, PseudoInstance


class UnroundablePeriod(ValueError):
    """A period too small for the requested grid (p < x has no x*2^j below it)."""


class CertificateViolation(RuntimeError):
    """The certificate failed where theory says it cannot; an implementation bug."""


SEVEN_TWELFTHS = Fraction(7, 12)

# (r, s) pairs reachable before normalization at density <= 7/12, and the
# subsets still possible once each normalization case has fired.
GENERAL_RS = frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)})
CASE_RS: dict[str, frozenset[tuple[int, int]]] = {
    "none": GENERAL_RS,
    "a": frozenset({(0, 0), (0, 1), (0, 2), (1, 0)}),
    "b": frozenset({(0, 0), (0, 1), (1, 0)}),
    "c": frozenset({(0, 0), (0, 1)}),
    "d": frozenset({(0, 0)}),
}


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and m & (m - 1) == 0


def on_two_grid(v: int) -> bool:
    return v >= 2 and _is_power_of_two(v)


def on_three_grid(v: int) -> bool:
    return v >= 3 and v % 3 == 0 and _is_power_of_two(v // 3)


def specialize_single(p: Fraction | int, x: int) -> int:
    """The largest x * 2^j (j >= 0) that does not exceed p. Grid points are
    integers, so 2^j is the top bit of floor(p) // x. Needs p >= x."""
    if not isinstance(x, int) or x < 1:
        raise ValueError(f"grid base must be a positive integer, got {x!r}")
    m = math.floor(p)
    if m < x:
        raise UnroundablePeriod(f"period {p} lies below the smallest {{{x}, {2*x}, {4*x}, ...}} grid point")
    return x << ((m // x).bit_length() - 1)


def _grid_weight(items: Iterable[JobPeriod]) -> tuple[int, int]:
    """Density of a multiset on one grid as (weight, top): rho = weight / top.

    top is the largest period; on one grid every period divides it, so each
    1/p is exactly (top // p) / top. Empty input weighs (0, 1).
    """
    periods = [jp.period for jp in items]
    top = max(periods, default=1)
    return sum(top // p for p in periods), top


def specialize_instance(pseudo: PseudoInstance, x: int) -> tuple[JobPeriod, ...]:
    """Round every period down onto the single grid {x, 2x, 4x, ...}."""
    out = [JobPeriod(job, specialize_single(p, x)) for job, p in enumerate(pseudo.periods)]
    return tuple(sorted(out, key=lambda jp: (jp.period, jp.job)))


@dataclass(frozen=True)
class SpecializedState:
    """Outcome of the two-grid split: B on powers of two, C on 3 * powers of
    two."""

    b: tuple[JobPeriod, ...]
    c: tuple[JobPeriod, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(sorted(self.b, key=lambda jp: (jp.period, jp.job))))
        object.__setattr__(self, "c", tuple(sorted(self.c, key=lambda jp: (jp.period, jp.job))))
        for jp in self.b:
            if not on_two_grid(jp.period):
                raise InvalidInstance(f"B member {jp.period} is not 2 * 2^j")
        for jp in self.c:
            if not on_three_grid(jp.period):
                raise InvalidInstance(f"C member {jp.period} is not 3 * 2^j")

    @property
    def rho_b(self) -> Fraction:
        return Fraction(*_grid_weight(self.b))

    @property
    def rho_c(self) -> Fraction:
        return Fraction(*_grid_weight(self.c))


def split_23(pseudo: PseudoInstance) -> SpecializedState:
    """Assign each period to its band and round down to the band endpoint.

    A period in [2*2^j, 3*2^j) rounds to 2*2^j and joins B; one in
    [3*2^j, 4*2^j) rounds to 3*2^j and joins C. The bands tile [2, oo), so
    2*2^j is the top bit of floor(p), and the band is C exactly when floor(p)
    reaches 3*2^j (grid points are integers, so floor(p) decides as p would).
    """
    b: list[JobPeriod] = []
    c: list[JobPeriod] = []
    for job, p in enumerate(pseudo.periods):
        m = math.floor(p)
        if m < 2:
            raise UnroundablePeriod(f"period {p} of job {job} is below 2 and cannot be banded")
        two = 1 << (m.bit_length() - 1)
        three = two + (two >> 1)
        if m < three:
            b.append(JobPeriod(job, two))
        else:
            c.append(JobPeriod(job, three))
    return SpecializedState(b=tuple(b), c=tuple(c))


@dataclass(frozen=True)
class Decomposition:
    """rho(B) written as r/2 + rho(P) with 0 <= rho(P) < 1/2 (P a sub-multiset
    of B), and rho(C) as s/3 + rho(Q) likewise."""

    r: int
    p: tuple[JobPeriod, ...]
    s: int
    q: tuple[JobPeriod, ...]

    @property
    def rho_p(self) -> Fraction:
        return Fraction(*_grid_weight(self.p))

    @property
    def rho_q(self) -> Fraction:
        return Fraction(*_grid_weight(self.q))


def _extract_units(items: tuple[JobPeriod, ...], x: int) -> tuple[int, tuple[JobPeriod, ...]]:
    """Peel off whole chunks of density 1/x from sorted jobs on the x * 2^j
    grid, densest first.

    Over the top period a chunk weighs top // x and each job weight divides
    the weights before it, so the prefix sums hit count * top // x exactly
    and the leftover is the suffix of largest periods.
    """
    weight, top = _grid_weight(items)
    count = x * weight // top
    need = count * top // x
    i = taken = 0
    while taken < need:
        taken += top // items[i].period
        i += 1
    assert taken == need, "grid divisibility violated"
    return count, items[i:]


def decompose(state: SpecializedState) -> Decomposition:
    r, p = _extract_units(state.b, 2)
    s, q = _extract_units(state.c, 3)
    return Decomposition(r=r, p=p, s=s, q=q)


@dataclass(frozen=True)
class NormalizedState:
    """B' and C' after the leftover densities have been redistributed.

    `case` records which branch fired; r and s are the pre-normalization
    chunk counts, kept for the certificate's reachability check."""

    bp: tuple[JobPeriod, ...]
    cp: tuple[JobPeriod, ...]
    case: str
    y: Fraction
    r: int
    s: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "bp", tuple(sorted(self.bp, key=lambda jp: (jp.period, jp.job))))
        object.__setattr__(self, "cp", tuple(sorted(self.cp, key=lambda jp: (jp.period, jp.job))))
        for jp in self.bp:
            if not on_two_grid(jp.period):
                raise InvalidInstance(f"B' member {jp.period} is not 2 * 2^j")
        for jp in self.cp:
            if not on_three_grid(jp.period):
                raise InvalidInstance(f"C' member {jp.period} is not 3 * 2^j")

    @property
    def rho_bp(self) -> Fraction:
        return Fraction(*_grid_weight(self.bp))

    @property
    def rho_cp(self) -> Fraction:
        return Fraction(*_grid_weight(self.cp))


def _without(items: tuple[JobPeriod, ...], removed: tuple[JobPeriod, ...]) -> tuple[JobPeriod, ...]:
    gone = {jp.job for jp in removed}
    return tuple(jp for jp in items if jp.job not in gone)


def _regrid(items: Iterable[JobPeriod], x: int) -> tuple[JobPeriod, ...]:
    return tuple(JobPeriod(jp.job, specialize_single(jp.period, x)) for jp in items)


def certificate_value(bp: Iterable[JobPeriod], cp: Iterable[JobPeriod]) -> Fraction:
    """y for B' on the {2, 4, 8, ...} grid and C' on the {3, 6, 12, ...} grid."""
    wb, tb = _grid_weight(bp)
    wc, tc = _grid_weight(cp)
    return Fraction(-(-2 * wb // tb), 2) + Fraction(-(-3 * wc // tc), 3)


def normalize(dec: Decomposition, state: SpecializedState) -> NormalizedState:
    """Move P into C, or Q into B, or neither, depending on where the
    leftover density sits. The two test values weigh how much each leftover
    would cost after crossing grids (a move from {2}-land to {3}-land
    multiplies density by at most 4/3, the other direction by at most 3/2).
    """
    # over den = top(P) * top(Q), rho(P) = p_num / den and rho(Q) = q_num / den;
    # then 3 * den * v and 2 * den * w are the integers v3 and w2 below, so
    # v <= 1/3, v <= 2/3 and w <= 1/2 read v3 <= den, v3 <= 2 * den, w2 <= den
    wp, tp = _grid_weight(dec.p)
    wq, tq = _grid_weight(dec.q)
    p_num, q_num, den = wp * tq, wq * tp, tp * tq
    v3, w2 = 4 * p_num + 3 * q_num, 2 * p_num + 3 * q_num
    if v3 == 0:
        case = "none"
    elif v3 <= den:
        case = "a"
    elif v3 <= 2 * den:
        case = "b" if w2 <= den else "c"
    else:
        case = "d"
    bp, cp = state.b, state.c
    if case in ("a", "c"):
        bp, cp = _without(state.b, dec.p), state.c + _regrid(dec.p, 3)
    elif case == "b":
        bp, cp = state.b + _regrid(dec.q, 2), _without(state.c, dec.q)
    return NormalizedState(bp=bp, cp=cp, case=case, y=certificate_value(bp, cp), r=dec.r, s=dec.s)


@dataclass(frozen=True)
class CertificateReport:
    y: Fraction
    case: str
    r_pre: int
    s_pre: int
    r_post: int
    s_post: int
    density: Fraction
    checked: bool

    @property
    def ok(self) -> bool:
        return self.y <= 1


def certificate(norm: NormalizedState, original_density: Fraction) -> CertificateReport:
    """Report normalize's y with the chunk counts of B'/C', and, when the
    original density is within the 7/12 budget, assert everything theory
    promises: y <= 1, and (r, s) inside the reachable set for the case that
    fired. Any failure there raises CertificateViolation rather than
    returning.
    """
    original_density = Fraction(original_density)
    wb, tb = _grid_weight(norm.bp)
    wc, tc = _grid_weight(norm.cp)
    r_post, s_post = 2 * wb // tb, 3 * wc // tc
    checked = original_density <= SEVEN_TWELFTHS
    if checked:
        if norm.y > 1:
            raise CertificateViolation(
                f"certificate y = {norm.y} > 1 at density {original_density} <= 7/12"
            )
        if (norm.r, norm.s) not in GENERAL_RS:
            raise CertificateViolation(
                f"(r, s) = ({norm.r}, {norm.s}) is unreachable at density {original_density}"
            )
        if (norm.r, norm.s) not in CASE_RS[norm.case]:
            raise CertificateViolation(
                f"(r, s) = ({norm.r}, {norm.s}) is unreachable in case {norm.case!r}"
            )
    return CertificateReport(
        y=norm.y,
        case=norm.case,
        r_pre=norm.r,
        s_pre=norm.s,
        r_post=r_post,
        s_post=s_post,
        density=original_density,
        checked=checked,
    )
