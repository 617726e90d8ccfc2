"""Command-line front end. Exit codes: 0 success, 1 verification failure,
2 input or usage error, 3 verification inconclusive."""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import model, oracle, reduction, scheduler, verifier
from .model import InvalidInstance
from .oracle import StateSpaceTooLarge
from .reduction import PeriodBelowTwo, ReductionConfig
from .rounding import CertificateViolation, Pairs


def _over_digit_limit(exc: ValueError) -> bool:
    # int() and str() raise this past sys.get_int_max_str_digits() digits
    return "integer string conversion" in str(exc)


def _read_json(path: str) -> object:
    source = "stdin" if path == "-" else path
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        # a ValueError too, so it is caught before the clause below re-raises it
        raise InvalidInstance(f"cannot decode {source}: {exc}") from exc
    except ValueError as exc:
        if not _over_digit_limit(exc):
            raise
        limit = sys.get_int_max_str_digits()
        raise InvalidInstance(f"{source} holds an integer of more than {limit} digits") from exc
    except RecursionError as exc:
        raise InvalidInstance(f"{source} is nested too deeply to parse") from exc


# The lists that grow with n: solve's entries and verify's long fields.
# json.dumps(indent=2) falls back to the pure-Python encoder, which costs as
# much as building the schedule, so these are formatted directly.
_LONG_LISTS = frozenset(("entries", "collisions", "per_job_heights", "double_booked_days"))


def _render_list(items: list, indent: str) -> str:
    """json.dumps(items, indent=2) for a list that is the value of a key of
    an object at `indent`: ints, strs, or flat dicts of ints that share one
    key order."""
    if not items:
        return "[]"
    inner = indent + "    "
    first = items[0]
    if isinstance(first, dict):
        fmt = "{\n" + ",\n".join(f"{inner}  {json.dumps(k)}: %d" for k in first) + f"\n{inner}}}"
        lines = [fmt % tuple(d.values()) for d in items]
    elif isinstance(first, str):
        lines = map(encode_basestring_ascii, items)
    else:
        lines = map(str, items)
    return f"[\n{inner}" + f",\n{inner}".join(lines) + f"\n{indent}  ]"


def _render(obj: dict, indent: str = "") -> str:
    """Exactly json.dumps(obj, indent=2) for a non-empty dict whose
    top-level object starts at `indent`, with the long lists formatted by
    `_render_list` and non-empty dicts by `_render` itself."""
    inner = indent + "  "
    fields = []
    for key, value in obj.items():
        if key in _LONG_LISTS and isinstance(value, list):
            text = _render_list(value, indent)
        elif isinstance(value, dict) and value:
            text = _render(value, inner)
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n" + inner)
        fields.append(f"{inner}{json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + f"\n{indent}}}"


def _emit(obj: dict) -> None:
    print(_render(obj))


def _state_cap() -> int:
    raw = os.environ.get("BAMBOO_STATE_CAP")
    if raw is None:
        return oracle.DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidInstance(f"BAMBOO_STATE_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InvalidInstance(f"BAMBOO_STATE_CAP must be at least 1, got {cap}")
    return cap


def _config(args: argparse.Namespace) -> ReductionConfig:
    return ReductionConfig(factor=args.factor, lb_mode=args.lower_bound)


def _jp_list(pairs: Pairs) -> list[dict]:
    return [{"job": job, "period": period} for period, job in pairs]


def trace_to_obj(sol: scheduler.Solution) -> dict:
    """The `--explain` trace, rendered from the stage values `solve` kept."""
    head = {"lower_bound": str(sol.lower_bound), "factor": str(sol.config.factor)}
    if sol.instance.n == 1:
        return {"path": "single-bamboo", **head}
    head["pseudo_periods"] = [str(p) for p in sol.pseudo.periods]
    head["density"] = str(sol.density)
    if sol.rounded is not None:
        return {**head, "path": "power-of-two", "rounded": _jp_list(sol.rounded)}
    split, dec, norm = sol.split, sol.decomposition, sol.normalized
    return {
        **head,
        "path": "two-three",
        "a2_jobs": sorted(job for _, job in split.b),
        "a3_jobs": sorted(job for _, job in split.c),
        "b": _jp_list(split.b),
        "c": _jp_list(split.c),
        "r": dec.r,
        "s": dec.s,
        "p": _jp_list(dec.p),
        "q": _jp_list(dec.q),
        "case": norm.case,
        "b_prime": _jp_list(norm.bp),
        "c_prime": _jp_list(norm.cp),
        "y": str(norm.y),
        "certificate_checked": sol.certified,
    }


def solution_to_obj(sol: scheduler.Solution, include_trace: bool = False) -> dict:
    obj = {
        "lower_bound": str(sol.lower_bound),
        "bound": str(sol.guarantee),
        "max_height": str(sol.height_bound),
        "factor": str(sol.config.factor),
        "lb_mode": sol.config.lb_mode,
        "entries": model.entries_to_obj(sol.schedule),
    }
    if include_trace:
        obj["trace"] = trace_to_obj(sol)
    return obj


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = model.instance_from_obj(_read_json(args.input))
    sol = scheduler.solve(instance, _config(args))
    _emit(solution_to_obj(sol, include_trace=args.explain))
    return 0


_VERIFY_EXIT = {"ok": 0, "failed": 1, "inconclusive": 3}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.input == "-" and args.schedule == "-":
        raise InvalidInstance("--input and --schedule are both stdin; only one of them can read it")
    instance = model.instance_from_obj(_read_json(args.input))
    schedule = model.schedule_from_obj(_read_json(args.schedule))
    # the window floors and the lower bound in integers, as solve takes them
    garden = reduction.scaled(instance, _config(args))
    report = verifier.evaluate(instance, schedule, pseudo=garden, lower_bound_value=garden.lower_bound)
    _emit(report.to_obj())
    return _VERIFY_EXIT[report.verdict]


def _cmd_density(args: argparse.Namespace) -> int:
    pseudo = model.pseudo_from_obj(_read_json(args.input))
    _emit({"density": str(pseudo.density)})
    return 0


def _cmd_oracle_pinwheel(args: argparse.Namespace) -> int:
    result = oracle.pinwheel_feasible(list(args.periods), cap=_state_cap())
    obj: dict = {"periods": list(args.periods), "feasible": result.feasible}
    if result.witness is not None:
        obj["witness"] = list(result.witness)
    _emit(obj)
    return 0


def _cmd_oracle_opt(args: argparse.Namespace) -> int:
    instance = model.instance_from_obj(_read_json(args.input))
    opt = oracle.bgt_opt(instance, cap=_state_cap())
    _emit({**model.instance_to_obj(instance), "opt": str(opt)})
    return 0


def _cmd_oracle_tightness(args: argparse.Namespace) -> int:
    _emit(
        oracle.tightness_examples(
            epsilon=args.epsilon,
            big_m=args.big_m,
            eta=args.eta,
            gamma=args.gamma,
            cap=_state_cap(),
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.seeds < 0:
        raise InvalidInstance(f"--seeds must be >= 0, got {args.seeds}")
    if args.n < 1:
        raise InvalidInstance(f"--n must be >= 1, got {args.n}")
    if args.rate_min < 1:
        raise InvalidInstance(f"--rate-min must be >= 1, got {args.rate_min}")
    if args.rate_min > args.rate_max:
        raise InvalidInstance(f"--rate-min {args.rate_min} exceeds --rate-max {args.rate_max}")
    config = _config(args)
    cap = _state_cap()
    rows = []
    worst_lb = Fraction(0)
    total_lb = Fraction(0)
    worst_opt = Fraction(0)
    total_opt = Fraction(0)
    opt_checked = 0
    opt_skipped = 0
    for i in range(args.seeds):
        rng = random.Random(f"{args.seed}:{i}")
        rates = sorted((rng.randint(args.rate_min, args.rate_max) for _ in range(args.n)), reverse=True)
        instance = model.BgtInstance.from_values(rates)
        sol = scheduler.solve(instance, config)
        ratio = sol.height_bound / sol.lower_bound
        worst_lb = max(worst_lb, ratio)
        total_lb += ratio
        row = {
            "index": i,
            **model.instance_to_obj(instance),
            "lower_bound": str(sol.lower_bound),
            "max_height": str(sol.height_bound),
            "ratio": str(ratio),
        }
        if args.opt:
            if oracle.opt_tractable(instance, cap):
                opt = oracle.bgt_opt(instance, cap=cap)
                vs_opt = sol.height_bound / opt
                worst_opt = max(worst_opt, vs_opt)
                total_opt += vs_opt
                opt_checked += 1
                row["opt"] = str(opt)
                row["ratio_vs_opt"] = str(vs_opt)
            else:
                opt_skipped += 1
        rows.append(row)
    summary: dict = {
        "instances": args.seeds,
        "worst_ratio_vs_lower_bound": str(worst_lb) if args.seeds else None,
        "mean_ratio_vs_lower_bound": str(total_lb / args.seeds) if args.seeds else None,
    }
    if args.opt:
        summary["opt_checked"] = opt_checked
        summary["opt_skipped"] = opt_skipped
        if opt_checked:
            summary["worst_ratio_vs_opt"] = str(worst_opt)
            summary["mean_ratio_vs_opt"] = str(total_opt / opt_checked)
    _emit(
        {
            "params": {
                "seeds": args.seeds,
                "n": args.n,
                "rate_min": args.rate_min,
                "rate_max": args.rate_max,
                "seed": args.seed,
                "factor": str(config.factor),
                "lb_mode": config.lb_mode,
            },
            "rows": rows,
            "summary": summary,
        }
    )
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--factor", choices=["12/7", "2"], default="12/7", help="magnification factor")
    p.add_argument(
        "--lower-bound",
        choices=["sum", "max-rule"],
        default="max-rule",
        dest="lower_bound",
        help="height lower bound: plain growth sum, or max(2*h_max, sum)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bamboo",
        description="Periodic cutting schedules for bamboo gardens, with verifiers and exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="build a schedule for an instance")
    p_solve.add_argument("--input", "-i", default="-", help="instance JSON path, or - for stdin")
    _add_config_flags(p_solve)
    p_solve.add_argument("--explain", action="store_true", help="include the pipeline trace")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a schedule against an instance")
    p_verify.add_argument("--input", "-i", default="-", help="instance JSON path, or - for stdin")
    p_verify.add_argument("--schedule", required=True, help="schedule JSON path, or - for stdin")
    _add_config_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_density = sub.add_parser("density", help="exact density of a pseudo-instance")
    p_density.add_argument("--input", "-i", default="-", help='JSON with a "periods" list')
    p_density.set_defaults(func=_cmd_density)

    p_oracle = sub.add_parser("oracle", help="exhaustive ground truth for small inputs")
    osub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_pin = osub.add_parser("pinwheel", help="decide integral pinwheel feasibility")
    p_pin.add_argument("periods", nargs="+", type=int)
    p_pin.set_defaults(func=_cmd_oracle_pinwheel)
    p_opt = osub.add_parser("bgt-opt", help="exact optimal max height of an instance")
    p_opt.add_argument("input", nargs="?", default="-", help="instance JSON path, or - for stdin")
    p_opt.set_defaults(func=_cmd_oracle_opt)
    p_tight = osub.add_parser("tightness", help="density-budget tightness witnesses")
    p_tight.add_argument("--epsilon", default="1/100")
    p_tight.add_argument("--big-m", default="100", dest="big_m")
    p_tight.add_argument("--eta", default="1/100")
    p_tight.add_argument("--gamma", default="1/100")
    p_tight.set_defaults(func=_cmd_oracle_tightness)

    p_bench = sub.add_parser("bench", help="solve seeded random instances and report ratios")
    p_bench.add_argument("--seeds", type=int, default=50, help="number of instances")
    p_bench.add_argument("--n", type=int, default=8, help="bamboos per instance")
    p_bench.add_argument("--rate-min", type=int, default=1, dest="rate_min")
    p_bench.add_argument("--rate-max", type=int, default=100, dest="rate_max")
    p_bench.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_bench.add_argument("--opt", action="store_true", help="also compare against the exact optimum where tractable")
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PeriodBelowTwo as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: use --lower-bound max-rule", file=sys.stderr)
        return 2
    except (InvalidInstance, StateSpaceTooLarge, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # exact arithmetic can grow a result past the digit limit from input
        # that parsed within it
        if not _over_digit_limit(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has more than {limit} digits and cannot be printed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
