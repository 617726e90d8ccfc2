"""The ten acceptance gates, in order, one test and one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. Each test
prints exactly one `criterion N: PASS/FAIL` verdict; the assertion carries
the same text so a red run shows the verdict too. Wall-clock budgets are
part of the criteria they belong to.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from bamboo.model import BgtInstance, PseudoInstance
from bamboo.oracle import StateSpaceTooLarge, bgt_opt, pinwheel_feasible, tightness_examples
from bamboo.reduction import PeriodBelowTwo, ReductionConfig, bgt_to_pseudo
from bamboo.rounding import CASE_RS, GENERAL_RS, certificate, decompose, normalize, split_23
from bamboo.scheduler import ChainInstance, NotAChain, Overdense, interleave, schedule_chain, solve
from bamboo.verifier import check_collisions, check_windows, evaluate
from helpers import floors, pseudo_with_density

TWELVE_SEVENTHS = Fraction(12, 7)


def verdict(n, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


# ------------------------------------------------------------ shared corpus


@pytest.fixture(scope="module")
def corpus():
    instances = []
    for i in range(500):
        rng = random.Random(f"acceptance:{i}")
        n = rng.randint(2, 12)
        rates = sorted((rng.randint(1, 100) for _ in range(n)), reverse=True)
        instances.append(BgtInstance.from_values(rates))
    return instances


@pytest.fixture(scope="module")
def solved_default(corpus):
    start = time.monotonic()
    sols = [solve(inst) for inst in corpus]
    return sols, time.monotonic() - start


@pytest.fixture(scope="module")
def solved_doubling(corpus):
    cfg = ReductionConfig(factor=Fraction(2), lb_mode="sum")
    return [solve(inst, cfg) for inst in corpus]


def test_criterion_1_guarantee_twelve_sevenths(corpus, solved_default):
    sols, elapsed = solved_default
    failures = 0
    worst = Fraction(0)
    for inst, sol in zip(corpus, sols):
        bound = max(2 * inst.rates[0], sum(inst.rates))
        if sol.lower_bound != bound or sol.height_bound > TWELVE_SEVENTHS * bound:
            failures += 1
        worst = max(worst, sol.height_bound / bound)
    verdict(
        1,
        failures == 0 and elapsed < 30,
        f"500 instances, worst height/L = {worst} <= 12/7, solved in {elapsed:.1f}s",
    )


def test_criterion_2_guarantee_doubling(corpus, solved_doubling):
    failures = sum(
        1
        for inst, sol in zip(corpus, solved_doubling)
        if sol.height_bound > 2 * sum(inst.rates)
    )
    verdict(2, failures == 0, "500 instances, factor 2 against 2H")


def test_criterion_3_every_schedule_verifies(corpus, solved_default, solved_doubling):
    sols, _ = solved_default
    checked = 0
    failures = 0
    for cfg, sols_for_cfg in (
        (ReductionConfig(), sols),
        (ReductionConfig(factor=Fraction(2), lb_mode="sum"), solved_doubling),
    ):
        for inst, sol in zip(corpus, sols_for_cfg):
            report = evaluate(
                inst,
                sol.schedule,
                pseudo=bgt_to_pseudo(inst, cfg),
                lower_bound_value=sol.lower_bound,
            )
            checked += 1
            # ok from the chain cross-check, with no calendar run
            if not (report.verdict == "ok" and report.windows_ok and report.chain_collision_free and report.sim is None):
                failures += 1
    verdict(3, failures == 0, f"{checked} schedules: collisions, windows, chain cross-check")


def test_criterion_4_certificate_at_exact_budget():
    failures = 0
    for i in range(500):
        rng = random.Random(f"budget:{i}")
        ps = pseudo_with_density(Fraction(7, 12), rng.randint(2, 9), rng)
        state = split_23(floors(ps))
        norm = normalize(decompose(state), state)
        checked = certificate(norm, ps.density)  # raises CertificateViolation on any breach
        if not (
            checked
            and norm.y <= 1
            and (norm.r, norm.s) in GENERAL_RS
            and (norm.r, norm.s) in CASE_RS[norm.case]
        ):
            failures += 1
    verdict(4, failures == 0, "500 pseudo-instances at density exactly 7/12")


def test_criterion_5_normalization_case_coverage():
    witnesses = [
        ((8, 6), "a"),
        ((4, 128, 3), "b"),
        ((4, 8, 6), "c"),
        ((4, 8, 16, 32, 12), "d"),
    ]
    seen = []
    ok = True
    for periods, want in witnesses:
        ps = PseudoInstance(tuple(Fraction(p) for p in periods))
        state = split_23(floors(ps))
        norm = normalize(decompose(state), state)
        seen.append(norm.case)
        schedule = interleave(norm)
        valid = check_collisions(schedule).ok and check_windows(schedule, ps)
        ok = ok and norm.case == want and valid
    verdict(5, ok, f"cases fired: {', '.join(seen)}")


def test_criterion_6_impossible_family():
    ok = True
    slowest = 0.0
    for m in range(4, 21):
        start = time.monotonic()
        feasible = pinwheel_feasible([2, 3, m]).feasible
        took = time.monotonic() - start
        slowest = max(slowest, took)
        ok = ok and not feasible and took < 1
    start = time.monotonic()
    ok = ok and pinwheel_feasible([2, 4, 4]).feasible
    slowest = max(slowest, time.monotonic() - start)
    verdict(6, ok, f"{{2,3,M}} refuted for M=4..20, {{2,4,4}} schedulable, slowest {slowest * 1000:.0f}ms")


def test_criterion_7_chains_constructive_vs_exhaustive():
    start = time.monotonic()
    count = 0
    ok = True
    for size in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(1, 13), size):
            try:
                # combo is sorted, so its (period, job) pairs are too
                chain = ChainInstance(tuple((p, i) for i, p in enumerate(combo)))
            except (NotAChain, Overdense):
                continue
            schedule = schedule_chain(chain)
            count += 1
            by_job = {job: period for period, job in chain.pairs}
            for e in schedule.entries:
                ok = ok and e.cycle == by_job[e.job] and 1 <= e.offset <= e.cycle
            ok = ok and check_collisions(schedule).ok
            ok = ok and pinwheel_feasible(list(combo)).feasible
    elapsed = time.monotonic() - start
    verdict(7, ok and elapsed < 60, f"{count} schedulable chains from {{1..12}}, n<=4, {elapsed:.1f}s")


def test_criterion_8_tightness_reproduction():
    start = time.monotonic()
    rep = tightness_examples()
    elapsed = time.monotonic() - start
    fixed, reduced = rep["pseudo"], rep["reduced"]
    ok = (
        fixed["delta_positive"]
        and fixed["delta_matches_formula"]
        and fixed["floor_periods"] == [2, 3, 100]
        and fixed["floors_feasible"] is False
        and reduced["shape_reproduced"]
        and Fraction(reduced["eps1"]) > 0
        and Fraction(reduced["eps2"]) > 0
        and reduced["floors_feasible"] is False
        and elapsed < 5
    )
    verdict(8, ok, f"delta = {fixed['delta']}, eps1 = {reduced['eps1']}, {elapsed:.1f}s")


def test_criterion_9_ratio_against_exact_optimum():
    start = time.monotonic()
    worst = Fraction(0)
    checked = 0
    skipped = 0
    ok = True
    for combo in itertools.combinations_with_replacement(range(1, 7), 3):
        inst = BgtInstance.from_values(sorted(combo, reverse=True))
        try:
            opt = bgt_opt(inst, 10**7)
        except StateSpaceTooLarge:
            skipped += 1
            continue
        sol = solve(inst)
        ok = ok and sol.height_bound <= TWELVE_SEVENTHS * opt
        worst = max(worst, sol.height_bound / opt)
        checked += 1
    elapsed = time.monotonic() - start
    verdict(
        9,
        ok and elapsed < 600,
        f"{checked} instances checked, {skipped} skipped, worst height/OPT = {worst}, {elapsed:.1f}s",
    )


def test_criterion_10_single_bamboo_and_dominant_grower():
    sol = solve(BgtInstance.from_values(["7/2"]))
    ok = (
        [(e.job, e.offset, e.cycle) for e in sol.schedule.entries] == [(0, 1, 1)]
        and sol.height_bound == Fraction(7, 2)
        and sol.guarantee == Fraction(7, 2)
    )
    heavy = BgtInstance.from_values([13, 1])
    try:
        solve(heavy, ReductionConfig(lb_mode="sum"))
        ok = False
    except PeriodBelowTwo:
        pass
    sol = solve(heavy)  # max-rule default absorbs the dominant grower
    ok = ok and sol.height_bound <= TWELVE_SEVENTHS * sol.lower_bound
    verdict(10, ok, "single bamboo exact, dominant grower shifts by bound mode")
