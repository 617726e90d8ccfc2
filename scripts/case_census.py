"""Which normalization cases actually fire, and from where?

Two populations:

  reduced  gardens with random integer rates pushed through the default
           12/7 reduction, i.e. the instances the solver really sees,
           taken as `solve` takes them: the integer floors and the density
           of `reduction.scaled`;
  splits   synthetic pseudo-instances built as exact rational splits of a
           target density (7/12 by default), which explore the state space
           with no reduction structure in the way.

Both populations reach every case, the no-move case (d) included, which
was not obvious in advance for reduced gardens. This census measures how
often each case fires and prints one witness per (population, case) pair.

Usage: python scripts/case_census.py --trials 20000 --seed 7
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

try:
    import bamboo  # noqa: F401
except ImportError:  # running from a checkout without an install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bamboo.model import BgtInstance, PseudoInstance
from bamboo.reduction import scaled
from bamboo.rounding import certificate, normalize, split_23

CASES = ("none", "a", "b", "c", "d")


def case_of(floors: list[int], density: Fraction) -> str:
    norm = normalize(split_23(floors))
    certificate(norm, density)  # raises if the theory is violated
    return norm.case


def random_split(total: Fraction, parts: int, rng: random.Random) -> PseudoInstance | None:
    weights = [rng.randint(1, 12) for _ in range(parts)]
    w = sum(weights)
    shares = [total * wi / w for wi in weights]
    if any(s > Fraction(1, 2) for s in shares):
        return None
    return PseudoInstance(tuple(1 / s for s in shares))


def census_reduced(trials: int, rng: random.Random, n_hi: int, rate_hi: int):
    counts: Counter[str] = Counter()
    witnesses: dict[str, tuple] = {}
    for _ in range(trials):
        n = rng.randint(2, n_hi)
        rates = sorted((rng.randint(1, rate_hi) for _ in range(n)), reverse=True)
        garden = scaled(BgtInstance.from_values(rates))
        case = case_of(garden.floors(), garden.density)
        counts[case] += 1
        witnesses.setdefault(case, tuple(rates))
    return counts, witnesses


def census_splits(trials: int, rng: random.Random, density: Fraction, parts_hi: int):
    counts: Counter[str] = Counter()
    witnesses: dict[str, tuple] = {}
    done = 0
    while done < trials:
        ps = random_split(density, rng.randint(2, parts_hi), rng)
        if ps is None:
            continue
        case = case_of([math.floor(p) for p in ps.periods], ps.density)
        counts[case] += 1
        witnesses.setdefault(case, tuple(str(p) for p in ps.periods))
        done += 1
    return counts, witnesses


def report(label: str, counts: Counter, witnesses: dict, trials: int) -> None:
    print(f"\n{label} ({trials} trials)")
    for case in CASES:
        k = counts.get(case, 0)
        row = f"  case {case:>4}: {k:7d}  ({k / trials:7.2%})"
        if case in witnesses:
            row += f"   e.g. {witnesses[case]}"
        print(row)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-max", type=int, default=12, help="max bamboos per garden")
    ap.add_argument("--rate-max", type=int, default=100)
    ap.add_argument("--parts-max", type=int, default=9, help="max jobs per synthetic split")
    ap.add_argument("--density", default="7/12", help="target density for the splits population")
    args = ap.parse_args()

    density = Fraction(args.density)
    rng = random.Random(args.seed)

    counts_r, wit_r = census_reduced(args.trials, rng, args.n_max, args.rate_max)
    report("reduced gardens (factor 12/7, max-rule)", counts_r, wit_r, args.trials)

    counts_s, wit_s = census_splits(args.trials, rng, density, args.parts_max)
    report(f"synthetic splits at density {density}", counts_s, wit_s, args.trials)

    if counts_r.get("d", 0) == 0:
        print("\ncase (d) never fired from a reduced garden in this run")
    else:
        print(f"\ncase (d) fired from reduced gardens: {wit_r['d']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
