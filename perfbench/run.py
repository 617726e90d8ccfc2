#!/usr/bin/env python3
"""Benchmark of the bamboo package, driven from outside through its public
functions.

    python3 perfbench/run.py --workload solve-large --seed 0 --seconds 40 --trace 0

One process, one thread, a closed loop: each garden is sent only after the
previous one is done. The seed alone fixes the run's corpus of gardens, and
the run passes over that corpus again and again until --seconds is up. Every
output is checked (see the check_* functions), and at the default seed the
solve output must also match the golden digest in perfbench/spec.json.
Between set-ups and operations a fixed reference kernel is timed, and the
end-to-end times are given at its reference speed (perfbench/hostspeed.py).

Human-readable lines go first; the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
they are its per-layer metrics, taken from spans that perfbench/spans.py
records around the package's public functions. The spans are written to
perfbench/out/.

Run from the root of a checkout: the package is imported from ./src only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from hostspeed import REF_S, HostSpeed
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE / "spec.json"
OUT = HERE / "out"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
REF_SHARE = 0.06  # share of a run spent timing the reference kernel
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TWELVE_SEVENTHS = Fraction(12, 7)

# Corpus of each workload; the reasons for these sizes are in BENCHMARK.json
# and perfbench/spec.json. Tests shrink them.
WORKLOADS = {
    "solve-large": {"n": 2000, "spreads": (100, 10**6)},
    "verify-large": {"n": 1000, "spreads": (100, 10**6)},
    "ratio-study": {"gardens": 3000, "n_min": 2, "n_max": 6, "rate_max": 9, "state_cap": 10**5},
}

# Spans whose arguments and results feed the computed counters.
OBSERVED = (
    "scheduler.partition_bins",
    "rounding.split_23",
    "rounding.normalize",
    "verifier.check_collisions",
    "verifier.simulate",
    "oracle.pinwheel_feasible",
)


class CheckFailed(Exception):
    """An output of the package is wrong."""


class PackageMissing(Exception):
    """No bamboo package source next to the benchmark."""


def load_package():
    """Import bamboo from ./src of this checkout, never from elsewhere."""
    if not (SRC / "bamboo" / "__init__.py").is_file():
        raise PackageMissing(f"no package source at {SRC / 'bamboo'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("bamboo")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise PackageMissing(f"bamboo was imported from {package.__file__}, not from {SRC}")
    names = ("cli", "model", "reduction", "scheduler", "verifier", "oracle")
    return argparse.Namespace(**{n: importlib.import_module(f"bamboo.{n}") for n in names})


def time_fresh_import() -> float:
    """Seconds to import the package anew, running every module body again.
    The modules already in use stay in sys.modules."""
    kept = {k: v for k, v in sys.modules.items() if k == "bamboo" or k.startswith("bamboo.")}
    for k in kept:
        del sys.modules[k]
    try:
        t0 = time.perf_counter()
        load_package()
        return time.perf_counter() - t0
    finally:
        for k in [k for k in sys.modules if k == "bamboo" or k.startswith("bamboo.")]:
            del sys.modules[k]
        sys.modules.update(kept)


# ---------------------------------------------------------------- inputs


def large_gardens(seed: int, workload: str, p: dict) -> list[list[int]]:
    """One garden per rate spread, integer rates sorted non-increasing."""
    out = []
    for slot, rate_max in enumerate(p["spreads"]):
        rng = random.Random(f"{seed}:{workload}:{slot}")
        out.append(sorted((rng.randint(1, rate_max) for _ in range(p["n"])), reverse=True))
    return out


def small_gardens(seed: int, p: dict) -> list[list[int]]:
    rng = random.Random(f"{seed}:ratio-study")
    out = []
    for _ in range(p["gardens"]):
        n = rng.randint(p["n_min"], p["n_max"])
        out.append(sorted((rng.randint(1, p["rate_max"]) for _ in range(n)), reverse=True))
    return out


def tamper(pkg, schedule, rng: random.Random):
    """Give one entry the offset of another entry with the same cycle, so the
    two jobs are cut on the same day. Returns the copy and the planted pair."""
    by_cycle: dict[int, list] = {}
    for e in schedule.entries:
        by_cycle.setdefault(e.cycle, []).append(e)
    groups = [g for _, g in sorted(by_cycle.items()) if len(g) > 1]
    if not groups:
        raise CheckFailed("no two entries share a cycle; nothing to tamper with")
    x, y = rng.sample(rng.choice(groups), 2)
    moved = pkg.model.ScheduleEntry(y.job, x.offset, y.cycle)
    entries = tuple(moved if e.job == y.job else e for e in schedule.entries)
    return pkg.model.PeriodicSchedule(entries), (min(x.job, y.job), max(x.job, y.job))


# ---------------------------------------------------------------- checks
#
# These use nothing from the package: lower bound, guarantee, heights and
# collisions are recomputed here from the integer rates and the emitted JSON.


def lower_bound_of(rates: list[int]) -> int:
    return rates[0] if len(rates) == 1 else max(2 * rates[0], sum(rates))


def first_collision(entries: list[tuple[int, int, int]]) -> tuple[int, int] | None:
    """A pair of jobs cut on the same day, or None. Two progressions o + k*c
    meet iff their offsets agree modulo gcd of the cycles; grouping entries by
    cycle makes this O(K^2 * n) for K distinct cycles."""
    groups: dict[int, dict[int, int]] = {}
    for job, offset, cycle in entries:
        residues = groups.setdefault(cycle, {})
        r = offset % cycle
        if r in residues:
            return min(job, residues[r]), max(job, residues[r])
        residues[r] = job
    cycles = sorted(groups)
    for i, c1 in enumerate(cycles):
        for c2 in cycles[i + 1 :]:
            g = math.gcd(c1, c2)
            seen = {r % g: job for r, job in groups[c1].items()}
            for r, job in groups[c2].items():
                if r % g in seen:
                    other = seen[r % g]
                    return min(job, other), max(job, other)
    return None


def check_solution(rates: list[int], obj: dict) -> Fraction:
    """Check one `bamboo solve` output against its garden; returns max_height / L."""
    n = len(rates)
    bound = lower_bound_of(rates)
    guarantee = bound if n == 1 else TWELVE_SEVENTHS * bound
    if Fraction(obj["lower_bound"]) != bound or Fraction(obj["bound"]) != guarantee:
        raise CheckFailed(f"lower bound {obj['lower_bound']} / bound {obj['bound']}, expected {bound} / {guarantee}")
    entries = [(e["job"], e["offset"], e["cycle"]) for e in obj["entries"]]
    if [job for job, _, _ in entries] != list(range(n)):
        raise CheckFailed("entries do not list every job exactly once")
    if any(not 1 <= offset <= cycle for _, offset, cycle in entries):
        raise CheckFailed("an entry has offset outside 1..cycle")
    height = max(rates[job] * max(offset, cycle) for job, offset, cycle in entries)
    if Fraction(obj["max_height"]) != height:
        raise CheckFailed(f"max_height {obj['max_height']} but the entries reach {height}")
    if height > guarantee:
        raise CheckFailed(f"max_height {height} exceeds 12/7 * L = {guarantee}")
    pair = first_collision(entries)
    if pair is not None:
        raise CheckFailed(f"jobs {pair} are cut on the same day")
    return Fraction(height, bound)


def check_clean_report(report, max_height: Fraction, bound: int) -> bool:
    """A solver schedule must verify. Returns whether the horizon was conclusive."""
    if not report.ok:
        raise CheckFailed("a clean schedule was not verified ok")
    if report.analytic_max != max_height:
        raise CheckFailed(f"analytic maximum {report.analytic_max} != solve's max_height {max_height}")
    if max_height > TWELVE_SEVENTHS * bound:
        raise CheckFailed(f"max_height {max_height} exceeds 12/7 * L")
    if report.horizon_conclusive and report.sim.max_height != report.analytic_max:
        raise CheckFailed(f"simulated maximum {report.sim.max_height} != analytic {report.analytic_max}")
    return bool(report.horizon_conclusive)


def check_tampered_report(report, planted: tuple[int, int]) -> None:
    if report.ok:
        raise CheckFailed(f"tampered schedule (jobs {planted} share a day) was verified ok")
    found = {(min(c.job_a, c.job_b), max(c.job_a, c.job_b)) for c in report.collisions.collisions}
    if planted not in found:
        raise CheckFailed(f"planted collision {planted} not among the {len(found)} reported")


def check_opt(opt: Fraction, bound: int, max_height: Fraction) -> None:
    if not bound <= opt <= max_height:
        raise CheckFailed(f"optimum {opt} outside [L, max_height] = [{bound}, {max_height}]")


# ---------------------------------------------------------------- the loop


class NoTracer:
    garden = -1

    def span(self, name: str):
        return contextlib.nullcontext()


class Timings:
    """Per-stage samples of one kind of pass (untraced or traced), per slot.
    Samples sit in flat arrays so that the benchmark's own memory hardly
    grows with the number of passes."""

    def __init__(self) -> None:
        self.by_slot: dict[str, dict[int, array]] = {}
        self.last: dict[int, float] = {}  # slot -> its latest wall time
        self.bamboos: dict[int, int] = {}

    def add(self, slot: int, bamboos: int, times: dict[str, float]) -> None:
        self.bamboos[slot] = bamboos
        self.last[slot] = times["wall"]
        for stage, t in times.items():
            self.by_slot.setdefault(stage, {}).setdefault(slot, array("d")).append(t)

    def pass_time(self, stage: str = "wall") -> float:
        """Measured seconds of one pass over the corpus: the sum over slots
        of the slot's mean time, so every garden counts."""
        slots = self.by_slot.get(stage)
        return sum(sum(xs) / len(xs) for xs in slots.values()) if slots else math.nan

    def samples(self, stage: str = "wall") -> list[float]:
        return [t for xs in self.by_slot.get(stage, {}).values() for t in xs]


class Bench:
    """One workload at one seed: set-up, the closed loop, and its records.

    The corpus is fixed for the run and every pass covers all of it, so each
    corpus item (a slot) is timed once per pass; only the last untraced pass
    may stop early. The reference kernel is timed between set-ups, and
    between operations (see hostspeed.py).
    """

    def __init__(self, pkg, workload: str, seed: int, params: dict) -> None:
        self.pkg, self.workload, self.seed, self.p = pkg, workload, seed, params
        self.timings = {False: Timings(), True: Timings()}  # by traced
        self.passes = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs: dict[int, str] = {}  # slot -> solve output of its first pass
        self.clean_evals = 0
        self.inconclusive = 0
        self.refused = 0
        self.refused_traced = 0
        self.height_ratios: dict[int, Fraction] = {}
        self.opt_ratios: dict[int, Fraction] = {}
        self.emit_bytes = 0
        self.counters: dict[str, int] = {}
        self.setup_times: list[float] = []
        self.setup_imports: list[float] = []
        self.setup_solves: list[float] = []
        self.inputs: dict = {}
        self.tracer: Tracer | None = None
        self.setup_host = HostSpeed(share=0.0)
        self.loop_host: HostSpeed | None = None

    # -------- set-up

    def setup(self) -> None:
        """One timed set-up: a fresh import of the package, a warm-up call of
        every entry point the workload times, and the corpus (for
        verify-large, the solver's schedules). The first set-up's corpus is
        used; later set-ups only add timing samples."""
        for _ in range(2):
            self.setup_host.sample()
        t0 = time.perf_counter()
        import_s = time_fresh_import()
        pkg = self.pkg
        warm = pkg.model.BgtInstance.from_values([5, 3, 2, 1])
        sol = pkg.scheduler.solve(warm)
        pkg.cli.solution_to_obj(sol)
        if self.workload != "solve-large":
            pkg.verifier.evaluate(warm, sol.schedule, pseudo=pkg.reduction.bgt_to_pseudo(warm))
        if self.workload == "ratio-study":
            pkg.oracle.bgt_opt(warm, cap=self.p["state_cap"])
            gardens = small_gardens(self.seed, self.p)
        else:
            gardens = large_gardens(self.seed, self.workload, self.p)
        inputs: dict = {"gardens": gardens, "texts": [json.dumps({"rates": rates}) for rates in gardens]}
        if self.workload == "verify-large":
            solved = []
            for rates, text in zip(gardens, inputs["texts"]):
                t1 = time.perf_counter()
                instance, sol, out = self.solve_path(text, NoTracer())
                self.setup_solves.append(time.perf_counter() - t1)
                check_solution(rates, json.loads(out))
                solved.append((instance, sol, pkg.reduction.bgt_to_pseudo(instance), out))
            inputs["solved"] = solved
        self.setup_times.append(time.perf_counter() - t0)
        self.setup_imports.append(import_s)
        if not self.inputs:
            self.inputs = inputs
            if self.workload == "verify-large":
                self.outputs = {slot: s[3] for slot, s in enumerate(solved)}

    # -------- operations

    def solve_path(self, text: str, tracer):
        """What `bamboo solve` does: parse, solve, emit."""
        pkg = self.pkg
        with tracer.span("cli.parse"):
            instance = pkg.model.instance_from_obj(json.loads(text))
        sol = pkg.scheduler.solve(instance)
        with tracer.span("cli.emit"):
            out = json.dumps(pkg.cli.solution_to_obj(sol), indent=2)
        return instance, sol, out

    def check_output(self, slot: int, rates: list[int], out: str, traced: bool) -> None:
        """Check a slot's first solve output in full; later passes, traced or
        not, must print the same bytes."""
        if slot in self.outputs:
            if out != self.outputs[slot]:
                raise CheckFailed(f"garden {slot}: solve output differs from its first pass")
        else:
            self.height_ratios[slot] = check_solution(rates, json.loads(out))
            self.outputs[slot] = out
        if traced:
            self.emit_bytes += len(out) + 1

    def op(self, method, slot: int, k: int, tracer, traced: bool) -> None:
        """Run one checked operation; a failed check or any exception counts
        as one failed operation."""
        self.loop_host.keep_up()
        self.attempted += 1
        tracer.garden = slot
        try:
            bamboos, times = method(slot, k, tracer, traced)
        except Exception as exc:  # every error is a failed operation, reported below
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        self.timings[traced].add(slot, bamboos, times)

    def solve_op(self, slot: int, k: int, tracer, traced: bool) -> tuple[int, dict]:
        rates = self.inputs["gardens"][slot]
        t0 = time.perf_counter()
        _, _, out = self.solve_path(self.inputs["texts"][slot], tracer)
        t1 = time.perf_counter()
        self.check_output(slot, rates, out, traced)
        return len(rates), {"wall": t1 - t0, "solve": t1 - t0}

    def verify_op(self, slot: int, k: int, tracer, traced: bool) -> tuple[int, dict]:
        """Slot 2g evaluates garden g's schedule, slot 2g+1 a copy tampered
        afresh in each pass."""
        rates = self.inputs["gardens"][slot // 2]
        instance, sol, pseudo, _ = self.inputs["solved"][slot // 2]
        schedule, planted = sol.schedule, None
        if slot % 2:
            schedule, planted = tamper(self.pkg, sol.schedule, random.Random(f"{self.seed}:tamper:{k}:{slot}"))
        t0 = time.perf_counter()
        report = self.pkg.verifier.evaluate(instance, schedule, pseudo=pseudo, lower_bound_value=sol.lower_bound)
        t1 = time.perf_counter()
        if planted is not None:
            check_tampered_report(report, planted)
        else:
            conclusive = check_clean_report(report, sol.height_bound, lower_bound_of(rates))
            self.height_ratios[slot // 2] = report.ratio
            if not traced:
                self.clean_evals += 1
                self.inconclusive += not conclusive
        return instance.n, {"wall": t1 - t0, "verify": t1 - t0}

    def study_op(self, slot: int, k: int, tracer, traced: bool) -> tuple[int, dict]:
        """Solve, verify, and score against the exact optimum."""
        pkg = self.pkg
        rates = self.inputs["gardens"][slot]
        t0 = time.perf_counter()
        instance, sol, out = self.solve_path(self.inputs["texts"][slot], tracer)
        t1 = time.perf_counter()
        report = pkg.verifier.evaluate(
            instance, sol.schedule, pseudo=pkg.reduction.bgt_to_pseudo(instance), lower_bound_value=sol.lower_bound
        )
        t2 = time.perf_counter()
        opt = None
        try:
            opt = pkg.oracle.bgt_opt(instance, cap=self.p["state_cap"])
        except pkg.oracle.StateSpaceTooLarge:
            if traced:
                self.refused_traced += 1
            else:
                self.refused += 1
        t3 = time.perf_counter()
        self.check_output(slot, rates, out, traced)
        bound = lower_bound_of(rates)
        check_clean_report(report, sol.height_bound, bound)
        if opt is not None:
            check_opt(opt, bound, sol.height_bound)
            self.opt_ratios[slot] = sol.height_bound / opt
        return len(rates), {"wall": t3 - t0, "solve": t1 - t0, "verify": t2 - t1, "opt": t3 - t2}

    def one_pass(self, k: int, tracer, traced: bool, deadline: float = math.inf) -> bool:
        """One pass over the corpus. It stops before an operation that would
        end after `deadline` if it takes as long as that slot's last one;
        returns whether it covered the whole corpus."""
        self.passes[traced] += 1
        method = {"solve-large": self.solve_op, "verify-large": self.verify_op, "ratio-study": self.study_op}[self.workload]
        slots = len(self.inputs["gardens"]) * (2 if self.workload == "verify-large" else 1)
        last = self.timings[traced].last
        for slot in range(slots):
            if time.perf_counter() + last.get(slot, 0.0) > deadline:
                return False
            self.op(method, slot, k, tracer, traced)
        return True

    def loop(self, seconds: float, tracer: Tracer | None) -> None:
        """Operations for `seconds`. Untraced, passes follow one another
        until the next operation would end after `seconds`, so the last pass
        may be partial; the first pass always runs whole. With a tracer every
        pass runs twice, untraced and traced, and the run stops at the last
        whole pair that fits, so per-layer figures are per whole pass."""
        self.tracer = tracer
        self.loop_host = HostSpeed(REF_SHARE)
        start = time.perf_counter()
        if tracer is None:
            k = 0
            while self.one_pass(k, NoTracer(), False, start + seconds if k else math.inf):
                k += 1
            return
        k = 0
        while True:
            t0 = time.perf_counter()
            # alternate which copy goes first, so that the first pass's
            # cold-heap cost does not bias trace.overhead_s
            order = (False, True) if k % 2 == 0 else (True, False)
            for traced in order:
                if not traced:
                    self.one_pass(k, NoTracer(), False)
                    continue
                tracer.install()
                try:
                    self.one_pass(k, tracer, True)
                finally:
                    tracer.uninstall()
                self.collect(tracer)
            took = time.perf_counter() - t0
            k += 1
            if time.perf_counter() - start + took > seconds:
                break

    # -------- computed counters, from what the observed spans saw

    def collect(self, tracer) -> None:
        c = self.counters

        def add(key: str, value) -> None:
            c[key] = c.get(key, 0) + value

        for args, _, bins in tracer.take_observed("scheduler.partition_bins"):
            jobs = args[0].jobs
            p_min, p_max = jobs[0].period, jobs[-1].period
            add("bins_opened", len(bins))
            add("bins_full", sum(sum(p_max // jp.period for jp in b) == p_max // p_min for b in bins))
        for _, _, state in tracer.take_observed("rounding.split_23"):
            add("split_calls", 1)
            add("b_size", len(state.b))
            add("c_size", len(state.c))
        for _, _, norm in tracer.take_observed("rounding.normalize"):
            add(f"case.{norm.case}", 1)
        for args, _, report in tracer.take_observed("verifier.check_collisions"):
            n = len(args[0].entries)
            add("pairs_checked", n * (n - 1) // 2)
            add("collisions_found", len(report.collisions))
        for args, kwargs, _ in tracer.take_observed("verifier.simulate"):
            schedule = args[0]
            horizon = args[2] if len(args) > 2 else kwargs["horizon"]
            add("simulate_calls", 1)
            add("horizon_days", horizon)
            add("sim_events", sum((horizon - e.offset) // e.cycle + 1 for e in schedule.entries if e.offset <= horizon))
        for _, _, result in tracer.take_observed("oracle.pinwheel_feasible"):
            add("pinwheel_returned", 1)
            add("pinwheel_feasible", bool(result.feasible))

    def digest(self) -> str | None:
        """SHA-256 over what `bamboo solve` prints for each corpus garden, in
        order; None if some garden has no output."""
        n = len(self.inputs["gardens"])
        if sorted(self.outputs) != list(range(n)):
            return None
        h = hashlib.sha256()
        for slot in range(n):
            h.update(self.outputs[slot].encode("utf-8") + b"\n")
        return h.hexdigest()


# ---------------------------------------------------------------- metrics


def tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile of TAIL_LADDER (nearest rank) with at least
    ten samples above it, or None when there are fewer than 20 samples."""
    xs = sorted(samples)
    best = None
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100 * len(xs))
        if rank >= 1 and len(xs) - rank >= 10:
            best = (f"p{q:g}", xs[rank - 1])
    return best


def decimal(x: Fraction, digits: int = 15) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def end_to_end(bench: Bench) -> tuple[dict, list[str]]:
    """The declared end-to-end metrics, and report lines for these and for
    the per-stage figures that apply to only some workloads. setup_s and
    pass_s are at the reference speed (hostspeed.py); the report lines give
    measured times."""
    timings = bench.timings[False]
    ratios = [bench.height_ratios[k] for k in sorted(bench.height_ratios)]
    mean_ratio = sum(ratios) / len(ratios) if ratios else None
    setup, one_pass = statistics.fmean(bench.setup_times), timings.pass_time()
    setup_host, loop_host = bench.setup_host, bench.loop_host
    metrics = {
        "setup_s": (setup * setup_host.scale(), "s"),
        "pass_s": (one_pass * loop_host.scale(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "height_ratio_mean": (math.nan if mean_ratio is None else float(mean_ratio), "ratio"),
    }
    corpus = timings.bamboos
    ops = len(timings.samples())
    lines = [
        f"passes {bench.passes[False]} (the last may be partial), corpus {len(corpus)} items, "
        f"{sum(corpus.values())} bamboos, operations {ops}",
        f"reference kernel (nominal {REF_S * 1e3:g} ms): mean {setup_host.mean() * 1e3:.4g} ms over "
        f"{len(setup_host.times)} runs among the set-ups, {loop_host.mean() * 1e3:.4g} ms over "
        f"{len(loop_host.times)} runs among the operations; measured times x {setup_host.scale():.4g} "
        f"and x {loop_host.scale():.4g} give setup_s and pass_s",
        f"measured: set-up mean {setup:.6g} s, pass {one_pass:.6g} s (sum over items of the mean time)",
    ]
    for stage in ("solve", "verify", "opt"):
        xs = timings.samples(stage)
        if not xs:
            if stage == "solve" and bench.setup_solves:
                lines.append(f"solve_ms_p50 {statistics.median(bench.setup_solves) * 1e3:.6g} ms  (set-up solves, N={len(bench.setup_solves)})")
            lines.append(f"{stage}_*: n/a (no {stage} call in the timed phase)")
            continue
        n_b = sum(corpus[slot] for slot in timings.by_slot[stage])
        took = timings.pass_time(stage)
        lines.append(f"{stage}_bamboos_per_s {n_b / took:.6g} 1/s  ({n_b} bamboos in {took:.6g} s measured, mean per item)")
        lines.append(f"{stage}_ms_p50 {statistics.median(xs) * 1e3:.6g} ms  (N={len(xs)})")
        t = tail(xs)
        lines.append(
            f"{stage}_ms_tail {t[1] * 1e3:.6g} ms  ({t[0]}, N={len(xs)})" if t else f"{stage}_ms_tail n/a  (N={len(xs)} < 20)"
        )
    lines.append(f"failed_share {bench.failed / max(bench.attempted, 1):.6g}  ({bench.failed} of {bench.attempted})")
    if bench.clean_evals:
        lines.append(
            f"inconclusive_share {bench.inconclusive / bench.clean_evals:.6g}  "
            f"({bench.inconclusive} of {bench.clean_evals} clean evaluations)"
        )
    if mean_ratio is not None:
        lines.append(f"height_ratio_mean {decimal(mean_ratio)}  (exact mean of max_height/L over {len(ratios)} gardens)")
    if bench.workload == "ratio-study":
        if bench.opt_ratios:
            mean = sum(bench.opt_ratios.values()) / len(bench.opt_ratios)
            lines.append(f"opt_ratio_mean {decimal(mean)}  (mean of max_height/opt over {len(bench.opt_ratios)} gardens)")
        lines.append(f"oracle refused {bench.refused} of {ops} gardens (StateSpaceTooLarge)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(bench: Bench, tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, as means per pass."""
    passes = bench.passes[True]
    summ = tracer.summary()
    c = bench.counters

    def incl(name: str) -> float:
        return summ.get(name, (0, 0, 0))[1] / 1e9 / passes

    def self_s(name: str) -> float:
        return summ.get(name, (0, 0, 0))[2] / 1e9 / passes

    def calls(name: str) -> float:
        return summ.get(name, (0, 0, 0))[0] / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {
        "scheduler.interleave_s": (incl("scheduler.interleave"), "s"),
        "scheduler.partition_bins_s": (incl("scheduler.partition_bins"), "s"),
        "scheduler.partition_bins_calls": (calls("scheduler.partition_bins"), "count"),
        "scheduler.bins_opened": (c.get("bins_opened", 0) / passes, "count"),
        "scheduler.bins_full_ratio": (ratio(c.get("bins_full", 0), c.get("bins_opened", 0)), "ratio"),
        "scheduler.chain_validations": (calls("scheduler.ChainInstance"), "count"),
        "scheduler.solve_self_s": (self_s("scheduler.solve"), "s"),
        "model.density_calls": (calls("model.density"), "count"),
        "model.density_s": (incl("model.density"), "s"),
        "reduction.bgt_to_pseudo_s": (incl("reduction.bgt_to_pseudo"), "s"),
        "rounding.split_23_s": (incl("rounding.split_23"), "s"),
        "rounding.decompose_s": (incl("rounding.decompose"), "s"),
        "rounding.normalize_s": (incl("rounding.normalize"), "s"),
        "rounding.certificate_s": (incl("rounding.certificate"), "s"),
        "rounding.specialize_single_calls": (calls("rounding.specialize_single"), "count"),
        "rounding.b_size": (ratio(c.get("b_size", 0), c.get("split_calls", 0)), "count"),
        "rounding.c_size": (ratio(c.get("c_size", 0), c.get("split_calls", 0)), "count"),
    }
    for case in ("none", "a", "b", "c", "d"):
        m[f"rounding.case.{case}"] = (c.get(f"case.{case}", 0) / passes, "count")
    m.update(
        {
            "verifier.check_collisions_s": (incl("verifier.check_collisions"), "s"),
            "verifier.pairs_checked": (c.get("pairs_checked", 0) / passes, "count"),
            "verifier.collisions_found": (c.get("collisions_found", 0) / passes, "count"),
            "verifier.simulate_s": (incl("verifier.simulate"), "s"),
            "verifier.sim_events": (c.get("sim_events", 0) / passes, "count"),
            "verifier.horizon_days": (ratio(c.get("horizon_days", 0), c.get("simulate_calls", 0)), "days"),
            "verifier.max_heights_s": (incl("verifier.max_heights"), "s"),
            "verifier.check_windows_s": (incl("verifier.check_windows"), "s"),
            "verifier.evaluate_self_s": (self_s("verifier.evaluate"), "s"),
            "oracle.bgt_opt_s": (incl("oracle.bgt_opt"), "s"),
            "oracle.pinwheel_feasible_calls": (calls("oracle.pinwheel_feasible"), "count"),
            "oracle.pinwheel_feasible_s": (incl("oracle.pinwheel_feasible"), "s"),
            "oracle.feasible_ratio": (ratio(c.get("pinwheel_feasible", 0), c.get("pinwheel_returned", 0)), "ratio"),
            "oracle.refused": (bench.refused_traced / passes, "count"),
            "cli.parse_s": (incl("cli.parse"), "s"),
            "cli.emit_s": (incl("cli.emit"), "s"),
            "cli.emit_bytes": (bench.emit_bytes / passes, "bytes"),
        }
    )
    layer_self = {layer: summ_self / 1e9 / passes for layer, summ_self in layer_totals(summ).items()}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    plain, traced = bench.timings[False].pass_time(), bench.timings[True].pass_time()
    m["trace.pass_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - plain, "s")

    mean_pass = sum(bench.timings[True].samples()) / passes
    top = max(LAYERS, key=lambda layer: layer_self[layer])
    sched, ver = layer_self["scheduler"], layer_self["verifier"]
    lines = [
        f"traced passes {passes}; figures are means per pass unless they are ratios or sizes",
        "computed, not measured: verifier.pairs_checked = n(n-1)/2 per check_collisions call; "
        "verifier.sim_events = sum over entries of floor((horizon - offset)/cycle) + 1; "
        "scheduler.bins_opened = bins returned by partition_bins",
        f"scheduler.bins_full_ratio = {c.get('bins_full', 0)} full bins / {c.get('bins_opened', 0)} bins opened",
        f"oracle.feasible_ratio = {c.get('pinwheel_feasible', 0)} feasible / "
        f"{c.get('pinwheel_returned', 0)} pinwheel_feasible calls that returned",
        f"rounding.b_size, c_size: mean |B|, |C| over {c.get('split_calls', 0)} split_23 calls; "
        f"verifier.horizon_days: mean over {c.get('simulate_calls', 0)} simulate calls",
        f"trace.overhead_s = traced pass {traced:.6g} s - untraced pass {plain:.6g} s (both measured, mean per item)",
        "layer self time per pass: " + ", ".join(f"{layer} {layer_self[layer]:.4g} s" for layer in LAYERS)
        + f"; traced pass {mean_pass:.4g} s; largest layer: {top}",
    ]
    if bench.workload == "solve-large":
        lines.append(f"purpose: scheduler self {sched / mean_pass:.1%} of the traced pass (> 50%), verifier {ver:.4g} s (0)")
    elif bench.workload == "verify-large":
        lines.append(f"purpose: verifier self {ver / mean_pass:.1%} of the traced pass (> 50%), scheduler {sched:.4g} s (0)")
    else:
        lines.append(f"purpose: largest layer is {top} (oracle expected)")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, lines


def layer_totals(summ: dict[str, tuple[int, int, int]]) -> dict[str, int]:
    """Self nanoseconds per layer; a span's layer is its name up to the first dot."""
    out = {layer: 0 for layer in LAYERS}
    for name, (_, _, own) in summ.items():
        out[name.split(".", 1)[0]] += own
    return out


# ---------------------------------------------------------------- main


def golden_digest(workload: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(SPEC.read_text(encoding="utf-8"))["golden_sha256"].get(workload)


def run(workload: str, seed: int, seconds: float, trace: bool, golden: str | None = None):
    """Run one workload; returns (result object, report lines)."""
    bench = Bench(load_package(), workload, seed, WORKLOADS[workload])
    for _ in range(SETUP_REPEATS):
        bench.setup()
    bench.loop(seconds, Tracer(observe=OBSERVED) if trace else None)
    lines = [
        f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}  (closed loop, 1 process, 1 thread)",
        f"set-ups (ms): {[round(x * 1e3, 1) for x in bench.setup_times]}, "
        f"of which fresh import {[round(x * 1e3, 1) for x in bench.setup_imports]}",
    ]
    found = bench.digest()
    failed = bench.failed
    note = ""
    if golden is not None:
        note = "matches golden" if found == golden else f"DIFFERS from golden {golden}"
        if found != golden:
            failed = bench.attempted
    lines.append(f"solve digest: {found} {note}")
    if trace:
        metrics, more = per_layer(bench, bench.tracer)
        path = OUT / f"spans-{workload}-seed{seed}.json"
        bench.tracer.write(path)
        more.append(f"spans written to {path}")
    else:
        metrics, more = end_to_end(bench)
    lines += more
    lines += [f"error: {e}" for e in bench.errors]
    lines += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="bamboo benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), golden_digest(args.workload, args.seed))
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
