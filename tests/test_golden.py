"""Golden digest of `bamboo solve` output on a seeded corpus.

The digest is the SHA-256 of the canonical solve JSON (the CLI's
`json.dumps(solution_to_obj(sol), indent=2)` plus a newline) for every
garden below, concatenated in order. It pins the exact schedules, heights
and bounds, so any rewrite of the pipeline must reproduce them byte for
byte. A second digest covers the same solves with `include_trace=True`,
so it also pins the pipeline's internals: the B/C split, r, s, P, Q, the
normalization case (the corpus reaches all five), B', C', y and the
density. A third digest pins `bamboo verify` output: the canonical
`evaluate(...).to_obj()` JSON of every corpus solve, as built and with one
tampered copy. A fourth digest pins the exact optimum: `str(bgt_opt(...))`,
or the `StateSpaceTooLarge` message, for a separate corpus of small
gardens at a state cap of 10^5. A fifth digest pins solve output, with and
without the trace, on rational gardens given as decimal strings, "p/q"
strings with denominators up to 10^6, and integral forms such as "6/3",
so the rates have a common denominator above 1. A sixth digest pins
verify output on the same rational gardens, built as in the third. The
two verify digests are taken twice, once per windows source (the
pseudo-instance and the scaled garden), and must read the same. If a
change to the output is intended, recompute the values with
`golden_digest()`, `golden_verify_digest()`, `golden_opt_digest()`,
`golden_rational_digest()` or `golden_rational_verify_digest()` and say
why in the change log.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

from bamboo.cli import solution_to_obj
from bamboo.model import BgtInstance
from bamboo.oracle import StateSpaceTooLarge, bgt_opt
from bamboo.reduction import ReductionConfig, bgt_to_pseudo, scaled
from bamboo.scheduler import solve
from bamboo.verifier import evaluate
from helpers import tampered

SIZES = (1, 2, 3, 5, 8, 50, 200)
RATE_MAXES = (100, 10**6)
GARDENS_PER_CELL = 3
CONFIGS = (ReductionConfig(Fraction(12, 7), "max-rule"), ReductionConfig(Fraction(2), "sum"))

GOLDEN_SHA256 = "33b9836ee0dadd858987a67a132504b0dec2fee022715022614e5249f19a3c04"
GOLDEN_TRACE_SHA256 = "1f80f64eb1efb0d4c61818775cab6cbb0e42283a27c9670817f7e7b5544db09b"
GOLDEN_VERIFY_SHA256 = "75b733e1e8ff11f00f67b493af4d0388df89bacce71fe5879daced69ebaca3b3"
GOLDEN_OPT_SHA256 = "c73eaa6f24b89f31aa04b0403d4cc598850d11de924bd3315d19dc380b70e2a2"
GOLDEN_RATIONAL_SHA256 = "1315adfdcfa6660b414ab00bafbae91516f4ca34806b4ddf1fb68845a51d757f"
GOLDEN_RATIONAL_VERIFY_SHA256 = "d4854ecb7c1b5107f9a315f760984495df01d227362906cae9962e0e2d0f6467"

OPT_CAP = 10**5
OPT_GARDENS_PER_SIZE = 30
OPT_RATIONAL_GARDENS = 20

RATIONAL_SIZES = (1, 2, 3, 8, 50, 200)
# a garden mixes every form, or uses decimals, "p/q" strings or integral forms only
RATIONAL_STYLES = (("int", "decimal", "ratio", "integral"), ("decimal",), ("ratio",), ("int", "integral"))


def corpus():
    for n in SIZES:
        for rate_max in RATE_MAXES:
            for k in range(GARDENS_PER_CELL):
                rng = random.Random(f"golden:{n}:{rate_max}:{k}")
                yield BgtInstance.from_values(sorted((rng.randint(1, rate_max) for _ in range(n)), reverse=True))


def opt_corpus():
    """Integer gardens with n 2..6 and rates 1..9 (the sizes the exact
    optimum is tractable for), then rational gardens with n 2..4."""
    for n in range(2, 7):
        for k in range(OPT_GARDENS_PER_SIZE):
            rng = random.Random(f"golden-opt:{n}:{k}")
            yield BgtInstance.from_values(sorted((rng.randint(1, 9) for _ in range(n)), reverse=True))
    for k in range(OPT_RATIONAL_GARDENS):
        rng = random.Random(f"golden-opt:rational:{k}")
        rates = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 4))]
        yield BgtInstance(tuple(sorted(rates, reverse=True)))


def _rational_text(rng: random.Random, kind: str) -> object:
    if kind == "int":
        return rng.choice([rng.randint(1, 1000), str(rng.randint(1, 1000))])
    if kind == "decimal":
        return f"{rng.randint(0, 99)}.{rng.randint(1, 999)}"
    if kind == "ratio":
        p, q = rng.randint(1, 10**6), rng.randint(2, 10**6)
        g = math.gcd(p, q)
        return f"{p // g}/{q // g}"
    m, k = rng.randint(2, 9), rng.randint(1, 100)
    return rng.choice([f"{k * m}/{m}", f"{k}.0"])


def rational_corpus():
    """Gardens of every size in `RATIONAL_SIZES`, one per style, with the
    rates given as the strings (or ints) the CLI would read."""
    for n in RATIONAL_SIZES:
        for k, style in enumerate(RATIONAL_STYLES):
            rng = random.Random(f"golden-rational:{n}:{k}")
            texts = [_rational_text(rng, rng.choice(style)) for _ in range(n)]
            texts.sort(key=Fraction, reverse=True)
            yield BgtInstance.from_values(texts)


def _solve_digest(gardens, traces: tuple[bool, ...]) -> str:
    h = hashlib.sha256()
    for instance in gardens:
        for config in CONFIGS:
            sol = solve(instance, config)
            for include_trace in traces:
                text = json.dumps(solution_to_obj(sol, include_trace=include_trace), indent=2) + "\n"
                h.update(text.encode("utf-8"))
    return h.hexdigest()


def golden_digest(include_trace: bool = False) -> str:
    return _solve_digest(corpus(), (include_trace,))


def golden_rational_digest() -> str:
    """Digest of the solve JSON of every `rational_corpus` garden, without
    and then with the trace."""
    return _solve_digest(rational_corpus(), (False, True))


def _verify_digest(gardens, windows) -> str:
    h = hashlib.sha256()
    for instance in gardens:
        for config in CONFIGS:
            schedule = solve(instance, config).schedule
            source = windows(instance, config)
            for s in (schedule, tampered(schedule)):
                report = evaluate(instance, s, pseudo=source, lower_bound_value=source.lower_bound)
                h.update((json.dumps(report.to_obj(), indent=2) + "\n").encode("utf-8"))
    return h.hexdigest()


def golden_verify_digest(windows=bgt_to_pseudo) -> str:
    """Digest of the `bamboo verify` JSON for every corpus solve, as built
    and tampered, evaluated with the CLI's arguments (windows source and
    its lower bound). The windows source is `bgt_to_pseudo`, as the
    library and perfbench pass it, or `scaled`, as `bamboo verify` does;
    both must print the same bytes."""
    return _verify_digest(corpus(), windows)


def golden_rational_verify_digest(windows=bgt_to_pseudo) -> str:
    """`golden_verify_digest` over the `rational_corpus` gardens."""
    return _verify_digest(rational_corpus(), windows)


def golden_opt_digest() -> str:
    """Digest of one line per `opt_corpus` garden: the exact optimum, or
    the refusal message when the search would exceed `OPT_CAP` states."""
    h = hashlib.sha256()
    for instance in opt_corpus():
        try:
            record = str(bgt_opt(instance, OPT_CAP))
        except StateSpaceTooLarge as exc:
            record = str(exc)
        h.update((record + "\n").encode("utf-8"))
    return h.hexdigest()


def test_solve_output_matches_golden_digest():
    assert golden_digest() == GOLDEN_SHA256


def test_solve_trace_matches_golden_digest():
    assert golden_digest(include_trace=True) == GOLDEN_TRACE_SHA256


def test_verify_output_matches_golden_digest():
    assert golden_verify_digest(bgt_to_pseudo) == GOLDEN_VERIFY_SHA256
    assert golden_verify_digest(scaled) == GOLDEN_VERIFY_SHA256


def test_rational_verify_output_matches_golden_digest():
    assert golden_rational_verify_digest(bgt_to_pseudo) == GOLDEN_RATIONAL_VERIFY_SHA256
    assert golden_rational_verify_digest(scaled) == GOLDEN_RATIONAL_VERIFY_SHA256


def test_exact_optimum_matches_golden_digest():
    assert golden_opt_digest() == GOLDEN_OPT_SHA256


def test_rational_solve_output_matches_golden_digest():
    assert golden_rational_digest() == GOLDEN_RATIONAL_SHA256
