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
decremented deadlines and its sorted moves, and builds the child of a move
only when the search reaches that move, so a search that ends early never
builds the children it does not visit.

A dead state (one with no infinite schedule) stays dead when any deadline
shrinks, and on sorted blocks that comparison is componentwise. The search
keeps a dominance index: for each prefix (every coordinate but the last,
which holds the largest period) the highest last deadline of a dead state,
and it skips every child at or below that. States on the stack lie on no
dead subtree, so the search follows the same path to the same lasso as a
plain dead-state memo would, visiting fewer dead states on the way.

The search also never enters an overdue child, one whose jobs due within
t <= 3 days need more than t cuts (`_overdue`). Such a child is dead, and
no state of a dead subtree has an edge back to the stack (that edge would
close a cycle through it), so exploring it could only have popped it
again: the live states are visited in the same order and the lasso is the
same.

A job of period 2 halves the rest exactly (`_halve`): it takes every other
day, and the other jobs share the days between at floor(p/2). Density is
tested on the halved vector, ahead of the state-space cap: an overdense
vector stays overdense halved (1/floor(q/2) >= 2/q), and (2, 3, M) is
refuted at every M. `bgt_opt` proves and searches its candidates on the
halved vector too, whose state space is about half as deep.

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
from typing import Sequence

from .model import BgtInstance, InvalidInstance, density, int_period, parse_rational, record
from .reduction import ReductionConfig, scaled
from .rounding import _grid_weight, specialize_instance

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
    feasible. Density above 1, of the halved periods, refutes first."""
    ps = [int_period(p) for p in periods]
    if not ps:
        raise InvalidInstance("need at least one job")
    if _overdense(_halve(ps)):
        return PinwheelResult(False, None)
    refusal = _too_large(ps, cap)
    if refusal is not None:
        raise refusal
    lasso = _lasso(ps)
    if lasso is None:
        return PinwheelResult(False, None)
    stem, cycle = lasso
    return PinwheelResult(True, _replay_witness(ps, stem, cycle))


def _overdense(ps: Sequence[int]) -> bool:
    top = math.lcm(*ps)
    return sum(top // p for p in ps) > top


def _halve(ps: Sequence[int]) -> list[int]:
    """`ps` sorted, with a period-2 job taken out and every other period
    floor-halved while the least period is 2 and other jobs remain. The
    result has a schedule iff `ps` has: the 2-job takes every other day and
    the rest share the days between at the halved periods, and conversely
    no two days a 2-job leaves free are adjacent, so k steps between free
    days span at least 2k days (Holte et al., 1989)."""
    qs = sorted(ps)
    while len(qs) > 1 and qs[0] == 2:
        qs = [q // 2 for q in qs[1:]]
    return qs


def _chain_base(ps: Sequence[int]) -> int | None:
    """A base x in (p_min/2, p_min] whose rounding of `ps` down to x * 2^j
    has density at most 1, the test by which `ChainInstance` raises
    `Overdense`, or None (lower bases round as their doubles)."""
    low = min(ps)
    for x in range(low // 2 + 1, low + 1):
        weight, top = _grid_weight(specialize_instance(ps, x))
        if weight <= top:
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


def _overdue(state: tuple[int, ...], twos: slice) -> bool:
    """Whether the jobs due within t <= 3 days need more than t cuts, which
    leaves `state` dead: two due tomorrow, three due within two days, or
    four within three, where a period-2 job due tomorrow counts twice (it is
    due again on day 3). `twos` holds the positions of the period-2 jobs."""
    ones = state.count(1)
    if ones > 1:
        return True
    soon = ones + state.count(2)
    return soon > 2 or soon + state.count(3) + (ones and state[twos].count(1)) > 3


def _lasso(ps: Sequence[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """The moves of a schedule's stem and of its repeating cycle, each the
    (period, deadline) of the job served that day, or None when no infinite
    schedule exists. `ps` holds positive integers that the caller checked:
    density at most 1 and a state space within the cap."""
    cps = tuple(sorted(ps))
    n = len(cps)
    twos = slice(bisect.bisect_left(cps, 2), bisect.bisect_right(cps, 2))
    # end[i]: one past the last position of i's equal-period block
    end = [n] * n
    for i in range(n - 2, -1, -1):
        end[i] = end[i + 1] if cps[i] == cps[i + 1] else i + 1
    # a child serving i: dec[:i] + dec[i + 1 : end[i]] + (cps[i],) + dec[end[i] :]
    bounds = [(i + 1, end[i], (p,)) for i, p in enumerate(cps)]
    starts = [i == 0 or cps[i] != cps[i - 1] for i in range(n)]

    def frame(state: tuple[int, ...]) -> list:
        # at most one job is due today: two are overdue, and a root that is
        # not overdense has at most one period of 1
        if 1 in state:
            i = state.index(1)
            picks = [(1, cps[i], i)]
        else:
            # one job per distinct (period, deadline), most urgent first
            picks = sorted([(state[i], cps[i], i) for i in range(n) if starts[i] or state[i] != state[i - 1]])
        return [state, tuple([d - 1 for d in state]), picks, 0]

    # reach[prefix]: the highest last deadline of a dead state with that prefix
    reach: dict[tuple[int, ...], int] = {}
    on_path: dict[tuple[int, ...], int] = {cps: 0}
    frames = [frame(cps)]
    chosen: list[tuple[int, int]] = []  # move taken out of each stacked state
    while frames:
        top = frames[-1]
        state, dec, picks, idx = top
        if idx == len(picks):
            frames.pop()
            prefix = state[:-1]
            if state[-1] > reach.get(prefix, 0):
                reach[prefix] = state[-1]
            del on_path[state]
            if chosen:
                chosen.pop()
            continue
        top[3] = idx + 1
        d, p, i = picks[idx]
        rest, stop, full = bounds[i]
        child = dec[:i] + dec[rest:stop] + full + dec[stop:]
        if _overdue(child, twos) or child[-1] <= reach.get(child[:-1], 0):
            continue
        if child in on_path:
            depth = on_path[child]
            return chosen[:depth], chosen[depth:] + [(p, d)]
        on_path[child] = len(frames)
        chosen.append((p, d))
        frames.append(frame(child))
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
    halve). One bisection finds where the prefix ends, and the scan runs
    from there to the first candidate over the cap, whose
    `StateSpaceTooLarge` is raised when no candidate below it is feasible.

    The scan from the bottom stops at the first candidate proved by
    construction, the single-integer reduction of Holte et al. (1989) and
    Chan and Chin (1992): rounded down to x * 2^j, the periods form a
    divides chain, and one of density at most 1 (`_chain_base`) is served
    by `schedule_chain` within the rounded periods, hence within the given
    ones. That candidate bounds the optimum from above, and no candidate
    below it has such a proof, so the lasso search decides those: first
    the one just below the bound (when it is refuted, the bound is the
    optimum), then, when it is feasible, a bisection of the rest. With no
    proof at all, the search starts at the last searchable candidate, and
    a refutation there refutes them all.
    """
    garden = scaled(instance)
    rates, low, high = garden.rates, garden.bound, garden.top

    def halved(v: int) -> list[int]:
        return _halve([v // a for a in rates])

    # bisect for the first height past the prefix (`bisect` takes no range past sys.maxsize)
    start, stop = low, high + 1
    while start < stop:
        mid = (start + stop) // 2
        start, stop = (mid + 1, stop) if _overdense(halved(mid)) else (start, mid)
    grid = heapq.merge(*(range(-(-start // a) * a, high + 1, a) for a in rates))
    searchable: list[int] = []  # below the first candidate with a chain proof
    proved = refusal = None
    for v, _ in itertools.groupby(grid):
        refusal = _too_large([v // a for a in rates], cap)
        if refusal is not None:
            break
        if _chain_base(halved(v)) is not None:
            proved = v
            break
        searchable.append(v)

    def feasible(v: int) -> bool:
        return _lasso(halved(v)) is not None

    if searchable and feasible(searchable[-1]):
        first = bisect.bisect_left(searchable, True, hi=len(searchable) - 1, key=feasible)
        return Fraction(searchable[first], garden.scale)
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
