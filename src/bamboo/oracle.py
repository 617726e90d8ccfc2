"""Exhaustive ground truth for small instances.

`pinwheel_feasible` plays the scheduling game on deadline vectors: job i
must be scheduled again within d_i days, scheduling resets d_i to p_i, and
everything else ticks down. The state graph is finite, so an infinite
schedule exists iff the search finds a lasso (a path back to a state
already on the stack). Jobs with identical periods are interchangeable, so
states list the jobs by period and keep the deadlines of each equal-period
block sorted, which collapses all permutations of twins into one state.
A child is built from the parent by slicing: every deadline drops by one
and the job served moves to the end of its block with its full period,
which keeps the block sorted. Each stack frame holds its state, the
decremented deadlines and an iterator over its untried moves, and builds
the child of a move only when the search reaches that move, so a search
that ends early never builds the children it does not visit.

A dead state (one with no infinite schedule) stays dead when any deadline
shrinks, and on sorted blocks that comparison is componentwise. So a move
serves only the head of a block, its most urgent twin: serving another
twin leaves a child componentwise below the head's, live only if that is.
The moves go least urgent first, the highest deadline and then the largest
period, so dead regions are met at high deadlines first and feasible
lassos close sooner. The search keeps a dominance index: for each prefix
(every coordinate but the last, which holds the largest period) the highest
last deadline of a dead state, and it skips every child at or below that.
States on the stack lie on no dead subtree, so the search follows the same
path to the same lasso as a plain dead-state memo would, visiting fewer
dead states on the way.

The search also never enters an overdue child, one where more than t jobs
fall due within t <= 3 days, a test the loop makes inline. Such a child is
dead, and no state of a dead subtree has an edge back to the stack (that
edge would close a cycle through it), so exploring it could only have
popped it again: the live states are visited in the same order and the
lasso is the same. Each job counts once, though one of period 2 due
tomorrow is due again within three days: the search sees only reduced
vectors, which unless overdense hold period 2 only as (2) or (2, 2), where
counting it twice never makes four. When two jobs are due within two days,
every move that serves neither is overdue, so only the moves that serve
one of them are offered.

Periods reduce exactly (`_reduce`): when exactly k - 1 jobs have the least
period k, they fill k - 1 of every k days, and the other jobs share every
k-th day at floor(p/k). The search runs on the reduced vector, whose state
space is far smaller, and `pinwheel_feasible` expands its witness back. At
k = 2 this is the halving of Holte et al. (1989). `pinwheel_feasible` tests
density on the reduced vector, ahead of the state-space cap: a step keeps
an overdense vector overdense (1/floor(q/k) >= k/q), so (2, 3, M) and
(3, 3, 5, M) are refuted at every M.

`bgt_opt` turns that decision procedure into the exact trimming optimum.
It scales the garden to integers and searches the finite grid of heights
any schedule can peak at, since feasibility is monotone along the grid.
It needs no witness, so it proves feasible heights by the chain rounding
of Holte et al. (1989) and Chan and Chin (1992): the first height so
proved bounds the optimum from above, and the search runs only below it,
first on the height just below, where a refutation ends the work.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from .model import BgtInstance, InvalidInstance, density, int_period, parse_rational, record
from .reduction import ReductionConfig, scaled

DEFAULT_STATE_CAP = 10**7


class StateSpaceTooLarge(RuntimeError):
    """The deadline-vector space exceeds the configured cap."""


@record
class PinwheelResult:
    feasible: bool
    # one block of a repeating day assignment (job ids), valid from day 1
    witness: tuple[int, ...] | None = None


def pinwheel_feasible(periods: Sequence[int], cap: int = DEFAULT_STATE_CAP) -> PinwheelResult:
    """Decide integral pinwheel schedulability, with a cyclic witness when
    feasible. The periods reduce first (`_reduce`), and density above 1 of
    the reduced periods refutes; the cap bounds the state space of the full
    periods, since the witness is expanded back to them; the search runs on
    the reduced periods."""
    ps = [int_period(p) for p in periods]
    if not ps:
        raise InvalidInstance("need at least one job")
    qs, ks = _reduce(ps)
    if _overdense(qs):
        return PinwheelResult(False, None)
    refusal = _too_large(ps, cap)
    if refusal is not None:
        raise refusal
    lasso = _lasso(qs)
    if lasso is None:
        return PinwheelResult(False, None)
    # the job ids in period order: each step of the reduction takes the
    # first k - 1 of them out as the group that fills k - 1 of every k days
    ids = sorted(range(len(ps)), key=ps.__getitem__)
    groups = []
    for k in ks:
        groups.append(tuple(ids[: k - 1]))
        ids = ids[k - 1 :]
    witness = [ids[j] for j in _replay_witness(qs, *lasso)]
    for group in reversed(groups):
        witness = [job for day in witness for job in (*group, day)]
    return PinwheelResult(True, tuple(witness))


def _overdense(ps: Sequence[int]) -> bool:
    top = math.lcm(*ps)
    return sum(top // p for p in ps) > top


def _halve(ps: Sequence[int]) -> list[int]:
    """`ps` sorted, with a period-2 job taken out and every other period
    floor-halved while the least period is 2 and other jobs remain. The
    result has a schedule iff `ps` has: the 2-job takes every other day and
    the rest share the days between at the halved periods, and conversely
    no two days a 2-job leaves free are adjacent, so k steps between free
    days span at least 2k days (Holte et al., 1989). Its one caller is
    `bgt_opt`'s bisection: along the grid of heights the halved vectors
    are overdense on a prefix, which the reduced ones need not be."""
    qs = sorted(ps)
    while len(qs) > 1 and qs[0] == 2:
        qs = [q // 2 for q in qs[1:]]
    return qs


def _reduce(ps: Sequence[int]) -> tuple[list[int], list[int]]:
    """`ps` sorted, with the k - 1 jobs of the least period k taken out and
    every other period floor-divided by k, while exactly k - 1 jobs have the
    least period and other jobs remain; and the k of each step. The result
    has a schedule iff `ps` has: the k - 1 jobs fill k - 1 of every k days
    and the rest share every k-th day at the divided periods, and
    conversely any k consecutive days hold all k - 1 of them, so the days
    they leave free are at least k apart. At k = 2 this is `_halve`'s step
    (Holte et al., 1989)."""
    qs = sorted(ps)
    ks = []
    while len(qs) >= (k := qs[0]) > 1 and qs[k - 2] == k != qs[k - 1]:
        qs = [q // k for q in qs[k - 1 :]]
        ks.append(k)
    return qs, ks


def _chain_base(ps: Sequence[int]) -> int | None:
    """A base x in (p_min/2, p_min] whose rounding of `ps` down to x * 2^j
    has density at most 1, the test by which `ChainInstance` raises
    `Overdense`, or None (lower bases round as their doubles). Each p
    rounds to x << (b - 1), with b the bit length of p // x; on the grid of
    the largest, x << (top - 1), that weighs 1 << (top - b)."""
    low = min(ps)
    for x in range(low // 2 + 1, low + 1):
        bits = [(p // x).bit_length() for p in ps]
        top = max(bits)
        if sum([1 << (top - b) for b in bits]) <= x << (top - 1):
            return x
    return None


def _too_large(ps: Sequence[int], cap: int) -> StateSpaceTooLarge | None:
    """The refusal of a search over `ps`, or None when its deadline-vector
    space fits under `cap`."""
    space = 1
    for p in ps:
        space *= p + 1
        if space > cap:
            return StateSpaceTooLarge(f"state space of {'x'.join(str(q + 1) for q in ps)} exceeds the cap of {cap}")
    return None


def _lasso(ps: Sequence[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """The moves of a schedule's stem and of its repeating cycle, each the
    (period, deadline) of the job served that day, or None when no infinite
    schedule exists. `ps` holds positive integers that the caller checked:
    density at most 1 and a state space within the cap."""
    cps = tuple(sorted(ps))
    n = len(cps)
    # end[i]: one past the last position of i's equal-period block
    end = [n] * n
    for i in range(n - 2, -1, -1):
        end[i] = end[i + 1] if cps[i] == cps[i + 1] else i + 1
    heads = [i for i in range(n) if i == 0 or cps[i] != cps[i - 1]]
    full = [(p,) for p in cps]

    def moves(state: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
        # at most one job is due today: two are overdue, and a root that is
        # not overdense has at most one period of 1; it heads its block
        if 1 in state:
            i = state.index(1)
            return iter(((1, cps[i], i),))
        # serving a block's head, its most urgent twin, leaves the block
        # componentwise above serving any other twin; and when two jobs are
        # due within two days, a move that serves neither is overdue
        if state.count(2) > 1:
            picks = [(2, cps[i], i) for i in heads if state[i] == 2]
        else:
            picks = [(state[i], cps[i], i) for i in heads]
        picks.sort(reverse=True)  # least urgent first
        return iter(picks)

    # reach[prefix]: the highest last deadline of a dead state with that prefix
    reach: dict[tuple[int, ...], int] = {}
    on_path: dict[tuple[int, ...], int] = {cps: 0}
    # a frame per state on the path: the state, its deadlines a day later
    # and the moves still to try
    frames = [(cps, tuple([d - 1 for d in cps]), moves(cps))]
    chosen: list[tuple[int, int]] = []  # move taken out of each stacked state
    while frames:
        state, dec, untried = frames[-1]
        for d, p, i in untried:
            # serving i moves it to the end of its block with its full period
            stop = end[i]
            child = dec[:i] + dec[i + 1 : stop] + full[i] + dec[stop:]
            # overdue: two due tomorrow, three within two days, or four
            # within three
            ones = child.count(1)
            if ones > 1:
                continue
            soon = ones + child.count(2)
            if soon > 2 or soon + child.count(3) > 3:
                continue
            if child[-1] <= reach.get(child[:-1], 0):
                continue
            if child in on_path:
                depth = on_path[child]
                return chosen[:depth], chosen[depth:] + [(p, d)]
            on_path[child] = len(frames)
            chosen.append((p, d))
            frames.append((child, tuple([e - 1 for e in child]), moves(child)))
            break
        else:
            frames.pop()
            prefix = state[:-1]
            if state[-1] > reach.get(prefix, 0):
                reach[prefix] = state[-1]
            del on_path[state]
            if chosen:
                chosen.pop()
    return None


def _replay_witness(ps: list[int], stem: list[tuple[int, int]], cycle: list[tuple[int, int]]) -> tuple[int, ...]:
    """Map canonical (period, deadline) moves back onto concrete job ids.

    One pass of the canonical cycle may permute equal-period twins among
    themselves, so the concrete sequence repeats only once the deadline
    vector at a cycle boundary recurs; the block between two recurrences is
    the returned witness.
    """
    n = len(ps)
    deadlines = list(ps)

    def play_day(period: int, due: int, record: list[int] | None) -> None:
        pick = next(j for j in range(n) if ps[j] == period and deadlines[j] == due)
        for j in range(n):
            deadlines[j] -= 1
        deadlines[pick] = ps[pick]
        assert all(d >= 1 for d in deadlines), "witness replay lost a deadline"
        if record is not None:
            record.append(pick)

    for period, due in stem:
        play_day(period, due, None)
    seen: dict[tuple[int, ...], int] = {}
    passes: list[list[int]] = []
    while True:
        key = tuple(deadlines)
        if key in seen:
            days = [d for block in passes[seen[key]:] for d in block]
            return tuple(days)
        seen[key] = len(passes)
        record: list[int] = []
        for period, due in cycle:
            play_day(period, due, record)
        passes.append(record)


def bgt_opt(instance: BgtInstance, cap: int = DEFAULT_STATE_CAP) -> Fraction:
    """Exact minimum, over all schedules, of the tallest height ever seen.

    Any schedule's peak is h_i * (some whole number of days), and staying at
    or below a height V is pinwheel feasibility of floor(V / h_i). That makes
    feasibility monotone in V along a finite candidate grid, bounded below by
    the instance lower bound and above by the 12/7 pipeline guarantee.

    The grid is searched in integers (`reduction.scaled`): with D the
    common denominator of the rates and a_i = h_i * D, the candidates are
    the multiples of some a_i in [L * D, floor(12/7 * L * D)], and a scaled
    height V has periods V // a_i, each at least 1, since L >= h_0.
    Density refutes, then the cap refuses, then the search decides. The
    heights whose halved periods (`_halve`) are overdense form a prefix of
    the grid: raising one period never makes the halved vector overdense
    (while another 2 is left the halved vectors compare componentwise, and
    raising the only 2 leaves density at most 1/3 + 1/2 and nothing to
    halve). One bisection finds where the prefix ends; it tests the halved
    vector only, since at k > 2 the reduced vectors need not form such a
    prefix. The scan runs from there to the first candidate whose full
    periods are over the cap, whose `StateSpaceTooLarge` is raised when no
    candidate below it is feasible.

    Each scanned candidate is decided on its reduced periods (`_reduce`),
    an exact reduction: a proof there, or a refutation, holds for the
    periods themselves. The scan from the bottom stops at the first
    candidate proved by construction, the single-integer reduction of
    Holte et al. (1989) and Chan and Chin (1992): rounded down to x * 2^j,
    the periods form a divides chain, and one of density at most 1
    (`_chain_base`) is served by `schedule_chain` within the rounded
    periods, hence within the given ones. That candidate bounds the optimum
    from above, and no candidate below it has such a proof, so density and
    then the lasso search decide those, on their reduced periods: first the
    one just below the bound (when it is refuted, the bound is the
    optimum), then, when it is feasible, a bisection of the rest. With no
    proof at all, the search starts at the last searchable candidate, and
    a refutation there refutes them all.
    """
    garden = scaled(instance)
    rates, low, high = garden.rates, garden.bound, garden.top

    # bisect for the first height past the prefix (`bisect` takes no range past sys.maxsize)
    start, stop = low, high + 1
    while start < stop:
        mid = (start + stop) // 2
        start, stop = (mid + 1, stop) if _overdense(_halve([mid // a for a in rates])) else (start, mid)
    grid = heapq.merge(*(range(-(-start // a) * a, high + 1, a) for a in rates))
    # below the first candidate with a chain proof: each height and its reduced periods
    searchable: list[tuple[int, list[int]]] = []
    proved = refusal = None
    for v, _ in itertools.groupby(grid):
        ps = [v // a for a in rates]
        refusal = _too_large(ps, cap)
        if refusal is not None:
            break
        qs, _ = _reduce(ps)
        if _chain_base(qs) is not None:
            proved = v
            break
        searchable.append((v, qs))

    def feasible(i: int) -> bool:
        qs = searchable[i][1]
        return not _overdense(qs) and _lasso(qs) is not None

    last = len(searchable) - 1
    if searchable and feasible(last):
        first = bisect.bisect_left(range(last), True, key=feasible)
        return Fraction(searchable[first][0], garden.scale)
    if proved is not None:
        return Fraction(proved, garden.scale)
    if refusal is not None:
        raise refusal
    raise RuntimeError("no candidate up to the pipeline guarantee was feasible; this cannot happen")


def tightness_examples(
    epsilon: Fraction = Fraction(1, 100),
    big_m: Fraction = Fraction(100),
    eta: Fraction = Fraction(1, 100),
    gamma: Fraction = Fraction(1, 100),
    cap: int = DEFAULT_STATE_CAP,
) -> dict:
    """Two families showing the 7/12 density budget has no slack.

    The fixed family is the pseudo-instance (3 - epsilon, 4 - epsilon, M):
    its density exceeds 7/12 by exactly

        delta = epsilon/(9 - 3 epsilon) + epsilon/(16 - 4 epsilon) + 1/M > 0,

    yet integral windows force periods (2, 3, floor(M)), which the search
    refutes. The reduced family reproduces that shape from an actual garden:
    rates (4, 3, gamma) pushed through the reduction at factor 12/7 - eta
    give periods (3 - eps1, 4 - eps2, M') whenever
    0 < gamma < 49 eta / (12 - 7 eta).
    """
    epsilon, big_m, eta, gamma = (Fraction(parse_rational(v)) for v in (epsilon, big_m, eta, gamma))

    if not 0 < epsilon < 1:
        raise InvalidInstance("epsilon must sit strictly between 0 and 1")
    if big_m < 4:
        raise InvalidInstance("big_m must be at least 4")
    if not 0 < eta < Fraction(5, 7):
        raise InvalidInstance("eta must keep the factor strictly between 1 and 12/7")
    if not 0 < gamma < 3:
        raise InvalidInstance("gamma must sit in (0, 3) so the rates stay sorted")
    periods = (3 - epsilon, 4 - epsilon, big_m)
    dens = density(periods)
    delta = dens - Fraction(7, 12)
    delta_formula = epsilon / (9 - 3 * epsilon) + epsilon / (16 - 4 * epsilon) + 1 / big_m
    floors = [math.floor(p) for p in periods]
    fixed = {
        "periods": [str(p) for p in periods],
        "density": str(dens),
        "delta": str(delta),
        "delta_formula": str(delta_formula),
        "delta_positive": delta > 0,
        "delta_matches_formula": delta == delta_formula,
        "floor_periods": floors,
        "floors_feasible": pinwheel_feasible(floors, cap).feasible,
    }

    factor = Fraction(12, 7) - eta
    inst = BgtInstance((Fraction(4), Fraction(3), gamma))
    reduced_garden = scaled(inst, ReductionConfig(factor=factor, lb_mode="sum"))
    reduced_periods = reduced_garden.periods()
    p1, p2, p3 = reduced_periods
    eps1 = 3 - p1
    eps2 = 4 - p2
    gamma_ceiling = 49 * eta / (12 - 7 * eta)
    shape = eps1 > 0 and eps2 > 0
    reduced = {
        "factor": str(factor),
        "rates": [str(r) for r in inst.rates],
        "periods": [str(p) for p in reduced_periods],
        "eps1": str(eps1),
        "eps2": str(eps2),
        "gamma_ceiling": str(gamma_ceiling),
        "gamma_in_range": bool(0 < gamma < gamma_ceiling),
        "shape_reproduced": shape,
        "eps1_matches_formula": eps1 == (7 + gamma) * eta / 4 - 3 * gamma / 7,
        "eps2_matches_formula": eps2 == (7 + gamma) * eta / 3 - 4 * gamma / 7,
        "m_matches_formula": p3 == 12 / gamma + Fraction(12, 7) - (7 + gamma) * eta / gamma,
    }
    if shape:
        reduced["floor_periods"] = reduced_garden.floors()
        reduced["floors_feasible"] = pinwheel_feasible(reduced["floor_periods"], cap).feasible
    return {"pseudo": fixed, "reduced": reduced}
