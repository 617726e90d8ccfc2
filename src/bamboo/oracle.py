"""Exhaustive ground truth for small instances.

`pinwheel_feasible` plays the scheduling game on deadline vectors: job i
must be scheduled again within d_i days, scheduling resets d_i to p_i, and
everything else ticks down. The state graph is finite, so an infinite
schedule exists iff the search finds a lasso (a path back to a state
already on the stack); dead states are memoized and visited once. Jobs
with identical periods are interchangeable, so states keep the deadlines
of each equal-period block sorted, which collapses all permutations of
twins into one state.

`bgt_opt` turns that decision procedure into the exact trimming optimum by
scanning the finite grid of heights any schedule can peak at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import BgtInstance, InvalidInstance, density, lower_bound
from .reduction import ReductionConfig, bgt_to_pseudo

DEFAULT_STATE_CAP = 10**7


class StateSpaceTooLarge(RuntimeError):
    """The deadline-vector space exceeds the configured cap."""


@dataclass(frozen=True)
class PinwheelResult:
    feasible: bool
    # one block of a repeating day assignment (job ids), valid from day 1
    witness: tuple[int, ...] | None = None


def pinwheel_feasible(periods: Sequence[int], cap: int = DEFAULT_STATE_CAP) -> PinwheelResult:
    """Decide integral pinwheel schedulability, with a cyclic witness when
    feasible. Density above 1 is refuted without searching."""
    ps: list[int] = []
    for p in periods:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise InvalidInstance(f"period {p!r} is not a positive integer")
        ps.append(p)
    if not ps:
        raise InvalidInstance("need at least one job")
    if density(ps) > 1:
        return PinwheelResult(False, None)
    space = 1
    for p in ps:
        space *= p + 1
        if space > cap:
            raise StateSpaceTooLarge(
                f"state space of {'x'.join(str(q + 1) for q in ps)} exceeds the cap of {cap}"
            )

    # canonical arrangement: positions sorted by period; the slice holding
    # each equal-period block keeps its deadlines sorted
    order = sorted(range(len(ps)), key=lambda i: (ps[i], i))
    cps = tuple(ps[i] for i in order)
    blocks: list[tuple[int, int]] = []
    lo = 0
    for i in range(1, len(cps) + 1):
        if i == len(cps) or cps[i] != cps[lo]:
            blocks.append((lo, i))
            lo = i

    def canon(state: tuple[int, ...]) -> tuple[int, ...]:
        out = list(state)
        for a, b in blocks:
            if b - a > 1:
                out[a:b] = sorted(out[a:b])
        return tuple(out)

    def successors(state: tuple[int, ...]) -> list[tuple[tuple[int, int], tuple[int, ...]]]:
        urgent = [i for i, d in enumerate(state) if d == 1]
        if len(urgent) > 1:
            return []  # two jobs due today, only one slot
        if urgent:
            picks = urgent
        else:
            picks = []
            seen = set()
            for i, d in enumerate(state):
                key = (cps[i], d)
                if key not in seen:
                    seen.add(key)
                    picks.append(i)
            picks.sort(key=lambda i: (state[i], cps[i]))  # most urgent first
        out = []
        for i in picks:
            nxt = [d - 1 for d in state]
            nxt[i] = cps[i]
            out.append(((cps[i], state[i]), canon(tuple(nxt))))
        return out

    start = canon(cps)
    dead: set[tuple[int, ...]] = set()
    on_path: dict[tuple[int, ...], int] = {start: 0}
    frames: list[list] = [[start, successors(start), 0]]
    chosen: list[tuple[int, int]] = []  # move taken out of each stacked state
    lasso: tuple[list, list] | None = None
    while frames:
        state, succ, idx = frames[-1]
        if idx >= len(succ):
            frames.pop()
            dead.add(state)
            del on_path[state]
            if chosen:
                chosen.pop()
            continue
        frames[-1][2] += 1
        move, child = succ[idx]
        if child in dead:
            continue
        if child in on_path:
            depth = on_path[child]
            lasso = (chosen[:depth], chosen[depth:] + [move])
            break
        on_path[child] = len(frames)
        chosen.append(move)
        frames.append([child, successors(child), 0])
    if lasso is None:
        return PinwheelResult(False, None)
    stem, cycle = lasso
    return PinwheelResult(True, _replay_witness(ps, stem, cycle))


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
    """
    bound = lower_bound(instance, "max-rule")
    ceiling = Fraction(12, 7) * bound
    candidates: set[Fraction] = set()
    for h in instance.rates:
        v = max(math.ceil(bound / h), 1) * h
        while v <= ceiling:
            candidates.add(v)
            v += h
    for v in sorted(candidates):
        periods = [math.floor(v / h) for h in instance.rates]
        if any(p < 1 for p in periods):
            continue
        if density(periods) > 1:
            continue
        if pinwheel_feasible(periods, cap).feasible:
            return v
    raise RuntimeError("no candidate up to the pipeline guarantee was feasible; this cannot happen")


def opt_tractable(instance: BgtInstance, cap: int = DEFAULT_STATE_CAP) -> bool:
    """Whether `bgt_opt` stays within `cap` states: its largest search is
    bounded by the deadline vectors at the 12/7 ceiling."""
    ceiling = Fraction(12, 7) * lower_bound(instance, "max-rule")
    space = 1
    for h in instance.rates:
        space *= math.floor(ceiling / h) + 1
        if space > cap:
            return False
    return True


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
    epsilon, big_m = Fraction(epsilon), Fraction(big_m)
    eta, gamma = Fraction(eta), Fraction(gamma)

    if not 0 < epsilon < 1:
        raise InvalidInstance("epsilon must sit strictly between 0 and 1")
    if big_m < 4:
        raise InvalidInstance("big_m must be at least 4")
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

    if not 0 < eta < Fraction(5, 7):
        raise InvalidInstance("eta must keep the factor strictly between 1 and 12/7")
    if not 0 < gamma < 3:
        raise InvalidInstance("gamma must sit in (0, 3) so the rates stay sorted")
    factor = Fraction(12, 7) - eta
    inst = BgtInstance((Fraction(4), Fraction(3), gamma))
    pseudo = bgt_to_pseudo(inst, ReductionConfig(factor=factor, lb_mode="sum"))
    p1, p2, p3 = pseudo.periods
    eps1 = 3 - p1
    eps2 = 4 - p2
    gamma_ceiling = 49 * eta / (12 - 7 * eta)
    shape = eps1 > 0 and eps2 > 0
    reduced = {
        "factor": str(factor),
        "rates": [str(r) for r in inst.rates],
        "periods": [str(p) for p in pseudo.periods],
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
        floors2 = [math.floor(p) for p in pseudo.periods]
        reduced["floor_periods"] = floors2
        reduced["floors_feasible"] = pinwheel_feasible(floors2, cap).feasible
    return {"pseudo": fixed, "reduced": reduced}
