"""Golden digest of `bamboo solve` output on a seeded corpus.

The digest is the SHA-256 of the canonical solve JSON (the CLI's
`json.dumps(solution_to_obj(sol), indent=2)` plus a newline) for every
garden below, concatenated in order. It pins the exact schedules, heights
and bounds, so any rewrite of the pipeline must reproduce them byte for
byte. A second digest covers the same solves with `include_trace=True`,
so it also pins the pipeline's internals: the B/C split, r, s, P, Q, the
normalization case (the corpus reaches all five), B', C', y and the
density. If a change to the output is intended, recompute the values with
`golden_digest()` and say why in the change log.
"""

import hashlib
import json
import random
from fractions import Fraction

from bamboo.cli import solution_to_obj
from bamboo.model import BgtInstance
from bamboo.reduction import ReductionConfig
from bamboo.scheduler import solve

SIZES = (1, 2, 3, 5, 8, 50, 200)
RATE_MAXES = (100, 10**6)
GARDENS_PER_CELL = 3
CONFIGS = (ReductionConfig(Fraction(12, 7), "max-rule"), ReductionConfig(Fraction(2), "sum"))

GOLDEN_SHA256 = "33b9836ee0dadd858987a67a132504b0dec2fee022715022614e5249f19a3c04"
GOLDEN_TRACE_SHA256 = "1f80f64eb1efb0d4c61818775cab6cbb0e42283a27c9670817f7e7b5544db09b"


def corpus():
    for n in SIZES:
        for rate_max in RATE_MAXES:
            for k in range(GARDENS_PER_CELL):
                rng = random.Random(f"golden:{n}:{rate_max}:{k}")
                yield BgtInstance.from_values(sorted((rng.randint(1, rate_max) for _ in range(n)), reverse=True))


def golden_digest(include_trace: bool = False) -> str:
    h = hashlib.sha256()
    for instance in corpus():
        for config in CONFIGS:
            sol = solve(instance, config)
            text = json.dumps(solution_to_obj(sol, include_trace=include_trace), indent=2) + "\n"
            h.update(text.encode("utf-8"))
    return h.hexdigest()


def test_solve_output_matches_golden_digest():
    assert golden_digest() == GOLDEN_SHA256


def test_solve_trace_matches_golden_digest():
    assert golden_digest(include_trace=True) == GOLDEN_TRACE_SHA256
