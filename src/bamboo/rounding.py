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
as integers over it, and y is tested as the integer 6y; `Fraction` only
appears in the values reported out. `_cut` is the one block cut of such a
chain, into consecutive blocks of one density, each exactly full but the
last: `decompose` peels its whole chunks with it, and the scheduler's
bins are its blocks.

Jobs travel through every stage as (period, job) pairs of plain ints,
sorted where they are built by a native tuple sort: the one job order, by
period, densest first, ties by job id. Each stage record holds its lists
as such pairs under the names the paper gives them (`b`, `p`, `bp`, ...).
Every period is put on its grid by the arithmetic that builds it; no
stage re-checks the order or the grid. `scheduler.ChainInstance` is the
one check of the chain rules, where the lists are consumed; the schedule
they are placed into is the one check of their job ids.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .model import InvalidInstance, record

# jobs as (period, job) int pairs, sorted: period first, ties by job id
Pairs = tuple[tuple[int, int], ...]


class UnroundablePeriod(InvalidInstance):
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


def _check_base(x: int) -> None:
    if type(x) is not int or x < 1:
        raise InvalidInstance(f"grid base must be a positive integer, got {x!r}")


def _below_grid(p: Fraction | int, x: int) -> UnroundablePeriod:
    return UnroundablePeriod(f"period {p} lies below the smallest {{{x}, {2*x}, {4*x}, ...}} grid point")


def specialize_single(p: Fraction | int, x: int) -> int:
    """The largest x * 2^j (j >= 0) that does not exceed p. Grid points are
    integers, so 2^j is the top bit of floor(p) // x. Needs p >= x."""
    _check_base(x)
    m = math.floor(p)
    if m < x:
        raise _below_grid(p, x)
    return x << ((m // x).bit_length() - 1)


def _runs(pairs: Pairs) -> Iterator[tuple[int, int, int]]:
    """(period, start, end) for each run of one period in sorted pairs, so
    that pairs[start:end] holds the jobs of that period. Each run end is
    found by bisection: the cost is per run, not per job."""
    start, size = 0, len(pairs)
    while start < size:
        period = pairs[start][0]
        end = bisect_left(pairs, (period + 1,), start)
        yield period, start, end
        start = end


def _grid_weight(pairs: Pairs) -> tuple[int, int]:
    """Density of sorted pairs on one grid as (weight, top): rho = weight / top.

    top is the largest period, the last; on one grid every period divides
    it, so each 1/p is exactly (top // p) / top. No pairs weigh (0, 1).
    """
    if not pairs:
        return 0, 1
    top = pairs[-1][0]
    return sum((end - start) * (top // period) for period, start, end in _runs(pairs)), top


def specialize_instance(floors: Sequence[int], x: int) -> Pairs:
    """Round every period down onto the single grid {x, 2x, 4x, ...}, given
    floor(p_i) for each job in job-id order (grid points are integers, so
    the floor decides as the period would), as sorted pairs. The base is
    checked once, and each point is `specialize_single`'s."""
    _check_base(x)
    if floors and min(floors) < x:
        raise _below_grid(next(m for m in floors if m < x), x)
    return tuple(sorted([(x << ((m // x).bit_length() - 1), job) for job, m in enumerate(floors)]))


@record
class SpecializedState:
    """Outcome of the two-grid split: B on powers of two, C on 3 * powers of
    two, each as sorted (period, job) pairs (`split_23` builds them so)."""

    b: Pairs
    c: Pairs


def split_23(floors: Sequence[int]) -> SpecializedState:
    """Assign each period to its band and round down to the band endpoint,
    given floor(p_i) for each job in job-id order.

    A period in [2*2^j, 3*2^j) rounds to 2*2^j and joins B; one in
    [3*2^j, 4*2^j) rounds to 3*2^j and joins C. The bands tile [2, oo), so
    the top two bits of floor(p), 10 or 11, name the band and, with the
    bits below them cleared, its endpoint (grid points are integers, so
    floor(p) decides as p would).
    """
    b: list[tuple[int, int]] = []
    c: list[tuple[int, int]] = []
    for job, m in enumerate(floors):
        if m < 2:
            raise UnroundablePeriod(f"period of job {job} rounds down to {m}, below 2, and cannot be banded")
        low = m.bit_length() - 2
        band = m >> low
        (b if band == 2 else c).append((band << low, job))
    b.sort()
    c.sort()
    return SpecializedState(tuple(b), tuple(c))


@record
class Decomposition:
    """rho(B) written as r/2 + rho(P) with 0 <= rho(P) < 1/2 (P a sub-multiset
    of B, its suffix), and rho(C) as s/3 + rho(Q) likewise. P and Q are kept
    as sorted pairs."""

    r: int
    p: Pairs
    s: int
    q: Pairs


def _cut(pairs: Pairs, base: int) -> list[Pairs]:
    """Cut sorted divides-chain pairs, densest first, into consecutive
    blocks of density 1/base; every block but the last is exactly full.

    Over the top period P a job of period p weighs P // p and a block
    P // base. Each weight divides every earlier one and the block's, so
    the open block's load never overshoots: it fills exactly and the next
    block starts right after it. Within a run of one period the block ends
    are counted, not summed job by job.
    """
    p_max = pairs[-1][0]
    cap = p_max // base
    blocks = []
    start = load = 0
    for period, first, end in _runs(pairs):
        each = p_max // period
        close = first + (cap - load) // each
        if close > end:
            load += (end - first) * each
            continue
        while close <= end:
            blocks.append(pairs[start:close])
            start, close = close, close + cap // each
        load = (end - start) * each
    if start < len(pairs):
        blocks.append(pairs[start:])
    return blocks


def _extract_units(pairs: Pairs, x: int) -> tuple[int, Pairs]:
    """Peel off whole chunks of density 1/x from sorted pairs on the x * 2^j
    grid, densest first: the full blocks of `_cut` at base x, whose count
    is x * weight // top; the leftover is the block after them, the suffix
    of largest periods."""
    weight, top = _grid_weight(pairs)
    count = x * weight // top
    blocks = _cut(pairs, x) if pairs else []
    rest = blocks[-1] if len(blocks) > count else ()
    assert x * (weight - _grid_weight(rest)[0]) == count * top, "grid divisibility violated"
    return count, rest


def decompose(state: SpecializedState) -> Decomposition:
    r, p = _extract_units(state.b, 2)
    s, q = _extract_units(state.c, 3)
    return Decomposition(r, p, s, q)


def _sixths(bp: Pairs, cp: Pairs) -> int:
    """6y for B' on the {2, 4, 8, ...} grid and C' on the {3, 6, 12, ...}
    grid: 3 * ceil(2 * rho(B')) + 2 * ceil(3 * rho(C')), an integer."""
    wb, tb = _grid_weight(bp)
    wc, tc = _grid_weight(cp)
    return 3 * -(-2 * wb // tb) + 2 * -(-3 * wc // tc)


@record
class NormalizedState:
    """B' and C' after the leftover densities have been redistributed.

    B' is on the {2, 4, 8, ...} grid and C' on the {3, 6, 12, ...} grid,
    each as sorted (period, job) pairs; `normalize` builds them so and
    nothing here re-checks it. `case` records which branch fired; r and s
    are the pre-normalization chunk counts, kept for the certificate's
    reachability check. The certificate is derived from B' and C', so it
    always agrees with them: `y_sixths` is 6y, the integer the checks
    compare with 6, and `y` the reported `Fraction`."""

    bp: Pairs
    cp: Pairs
    case: str
    r: int
    s: int

    @cached_property
    def y_sixths(self) -> int:
        return _sixths(self.bp, self.cp)

    @cached_property
    def y(self) -> Fraction:
        return Fraction(self.y_sixths, 6)


def _without(pairs: Pairs, removed: Pairs) -> Pairs:
    gone = {job for _, job in removed}
    return tuple(pair for pair in pairs if pair[1] not in gone)


def _regrid(pairs: Pairs, x: int) -> list[tuple[int, int]]:
    # one grid point per run of one period
    out = []
    for period, start, end in _runs(pairs):
        point = specialize_single(period, x)
        out += [(point, job) for _, job in pairs[start:end]]
    return out


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
    # dropping jobs keeps a side sorted; only the side that grows is re-sorted
    bp, cp = state.b, state.c
    if case in ("a", "c"):
        bp, cp = _without(bp, dec.p), tuple(sorted((*cp, *_regrid(dec.p, 3))))
    elif case == "b":
        bp, cp = tuple(sorted((*bp, *_regrid(dec.q, 2)))), _without(cp, dec.q)
    return NormalizedState(bp, cp, case, dec.r, dec.s)


def certificate(norm: NormalizedState, original_density: Fraction) -> bool:
    """Check the certificate y of B' and C' and the pre-normalization chunk
    counts (`norm.y`, `norm.r`, `norm.s`) against what theory promises once
    the original density is within the 7/12 budget: y <= 1, that is
    6y <= 6 in integers, and (r, s) inside the reachable set for the case
    that fired. Any failure there raises CertificateViolation rather than
    returning. Returns whether the checks ran, i.e. whether the density was
    within budget.
    """
    original_density = Fraction(original_density)
    checked = original_density <= SEVEN_TWELFTHS
    if checked:
        if norm.y_sixths > 6:
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
    return checked
