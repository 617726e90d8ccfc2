"""End-to-end CLI behavior: JSON shapes, exit codes, determinism, env knobs.

Everything drives `main(argv)` in-process; stdout is parsed back as JSON so
these double as schema tests for downstream tooling.
"""

import io
import json
import math
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bamboo import BgtInstance
from bamboo.cli import _render, main, solution_to_obj
from bamboo.model import PeriodicSchedule
from bamboo.reduction import bgt_to_pseudo
from bamboo.scheduler import solve
from bamboo.verifier import DEFAULT_HORIZON_CAP, evaluate
from helpers import tampered


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


WORKED = {"rates": ["4", "3", "0.1"]}


# ---------------------------------------------------------------- solve


def test_solve_worked_example(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", WORKED)
    code, out, _ = run(capsys, "solve", "-i", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["lower_bound"] == "8"
    assert obj["bound"] == "96/7"
    assert obj["max_height"] == "64/5"
    assert obj["factor"] == "12/7"
    assert obj["lb_mode"] == "max-rule"
    assert obj["entries"] == [
        {"job": 0, "offset": 2, "cycle": 2},
        {"job": 1, "offset": 1, "cycle": 4},
        {"job": 2, "offset": 3, "cycle": 128},
    ]
    assert "trace" not in obj


def test_solve_is_deterministic(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", WORKED)
    _, first, _ = run(capsys, "solve", "-i", path)
    _, second, _ = run(capsys, "solve", "-i", path)
    assert first == second


def test_solve_explain_flag_includes_trace(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", WORKED)
    code, out, _ = run(capsys, "solve", "-i", path, "--explain")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace["path"] == "two-three"
    assert trace["pseudo_periods"] == ["24/7", "32/7", "960/7"]
    assert trace["case"] == "b"
    assert trace["y"] == "5/6"
    assert trace["certificate_checked"] is True


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(WORKED)))
    code, out, _ = run(capsys, "solve")
    assert code == 0
    assert json.loads(out)["bound"] == "96/7"


def test_readme_solve_sample_is_what_the_cli_prints(capsys, monkeypatch):
    # the README shows `$ echo '<input>' | bamboo solve` and its output in
    # one fenced block; both are taken from the README, byte for byte
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    command = re.search(r"^\$ echo '(.*)' \| bamboo solve\n(.*?)^```", readme, re.M | re.S)
    assert command, "README has no `echo ... | bamboo solve` sample"
    monkeypatch.setattr("sys.stdin", io.StringIO(command.group(1)))
    code, out, _ = run(capsys, "solve")
    assert code == 0
    assert out == command.group(2)


def test_solve_factor_two(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", {"rates": ["1", "1"]})
    code, out, _ = run(capsys, "solve", "-i", path, "--factor", "2", "--lower-bound", "sum")
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == "4"
    assert obj["entries"] == [
        {"job": 0, "offset": 1, "cycle": 4},
        {"job": 1, "offset": 2, "cycle": 4},
    ]


# ---------------------------------------------------------------- output


def small_lists(items):
    return st.lists(items, max_size=3)


def records(*keys):
    # dicts of ints with the key order of the report's own literals
    return st.tuples(*(INTS for _ in keys)).map(lambda values: dict(zip(keys, values)))


INTS = st.integers(min_value=0, max_value=10**30)
# verify's nested objects: the long lists at the second and third level
SIMULATIONS = st.fixed_dictionaries(
    {"horizon": INTS, "pairs_covered": st.booleans(), "double_booked_days": small_lists(INTS)},
    optional={"inner": st.fixed_dictionaries({"collisions": small_lists(records("job_a", "job_b", "day"))})},
)
SHAPES = st.tuples(
    st.booleans(),
    small_lists(records("job_a", "job_b", "day")),
    records("job", "offset", "cycle", "floor") | st.just({}),
    st.none() | small_lists(st.text()),
    small_lists(INTS),
    SIMULATIONS,
    small_lists(records("job", "offset", "cycle")),
    st.dictionaries(st.text(max_size=4), st.none() | st.text() | small_lists(INTS), max_size=3),
).map(
    lambda values: dict(
        zip(
            (
                "ok",
                "collisions",
                "window_violation",
                "per_job_heights",
                "double_booked_days",
                "simulation",
                "entries",
                "trace",
            ),
            values,
        )
    )
)


@given(SHAPES)
@settings(max_examples=300)
def test_render_is_json_dumps_indent_2(obj):
    # empty lists print as [], strings are escaped as json escapes them
    assert _render(obj) == json.dumps(obj, indent=2)


@given(st.integers(min_value=0, max_value=10**9), st.booleans())
@settings(max_examples=60, deadline=None)
def test_solve_and_verify_output_is_json_dumps_indent_2(seed, explain):
    rng = random.Random(seed)
    rates = sorted((rng.randint(1, rng.choice([9, 10**6])) for _ in range(rng.randint(1, 12))), reverse=True)
    inst = BgtInstance.from_values(rates)
    sol = solve(inst)
    objs = [solution_to_obj(sol, include_trace=explain)]
    pseudo = bgt_to_pseudo(inst)
    schedule = sol.schedule
    non_chain = inst.n > 1 and rng.random() < 0.5
    if non_chain:
        # the last cycle made odd and past every other one: no chain
        # structure, so the calendar's object and its list are printed too
        cycles = schedule.cycles
        schedule = PeriodicSchedule.of_columns(schedule.jobs, schedule.offsets, cycles[:-1] + (2 * max(cycles[:-1]) + 1,))
    for s in (schedule, tampered(schedule)):
        report = evaluate(inst, s, pseudo=pseudo, lower_bound_value=pseudo.lower_bound)
        objs.append(report.to_obj())
    assert ("simulation" in objs[1]) == non_chain
    if inst.n > 1:
        assert objs[-1]["ok"] is False  # the tampered schedule collides
    for obj in objs:
        assert _render(obj) == json.dumps(obj, indent=2)


# ---------------------------------------------------------------- verify


def test_solve_then_verify_round_trip(tmp_path, capsys):
    inst = write_json(tmp_path, "inst.json", WORKED)
    _, out, _ = run(capsys, "solve", "-i", inst)
    sched = write_json(tmp_path, "sched.json", json.loads(out)["entries"])
    code, out, _ = run(capsys, "verify", "-i", inst, "--schedule", sched)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["ratio_vs_lower_bound"] == "8/5"


def test_solve_then_verify_single_bamboo(tmp_path, capsys):
    inst = write_json(tmp_path, "inst.json", {"rates": ["7/2"]})
    for mode in ("max-rule", "sum"):
        _, out, _ = run(capsys, "solve", "-i", inst, "--lower-bound", mode)
        sched = write_json(tmp_path, "sched.json", json.loads(out)["entries"])
        code, out, _ = run(capsys, "verify", "-i", inst, "--schedule", sched, "--lower-bound", mode)
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_verify_flags_tampered_schedule(tmp_path, capsys):
    inst = write_json(tmp_path, "inst.json", WORKED)
    _, out, _ = run(capsys, "solve", "-i", inst)
    entries = json.loads(out)["entries"]
    entries[1] = {"job": 1, "offset": 2, "cycle": 4}  # steps on job0's days
    sched = write_json(tmp_path, "bad.json", entries)
    code, out, _ = run(capsys, "verify", "-i", inst, "--schedule", sched)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["collisions"] == [{"job_a": 0, "job_b": 1, "day": 2}]
    assert report["verdict"] == "failed" and report["chain_collision_free"] is False
    assert "simulation" not in report


# six bamboos of rate 1: every window floor is 10 (12/7 * 6 = 72/7). Cycles
# 6 and 9 form no divides chain and 9 is odd, so only the calendar can
# cross-check it; no two entries meet, and they would by day 6 + 18 - 1.
NON_CHAIN = [
    {"job": 0, "offset": 1, "cycle": 6},
    {"job": 1, "offset": 2, "cycle": 9},
    {"job": 2, "offset": 3, "cycle": 6},
    {"job": 3, "offset": 4, "cycle": 6},
    {"job": 4, "offset": 6, "cycle": 6},
    {"job": 5, "offset": 5, "cycle": 9},
]


def test_verify_non_chain_schedule_needs_a_covering_calendar(tmp_path, capsys):
    inst = write_json(tmp_path, "inst.json", {"rates": ["1"] * 6})
    sched = write_json(tmp_path, "sched.json", NON_CHAIN)
    code, out, _ = run(capsys, "verify", "-i", inst, "--schedule", sched)
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "ok"
    assert report["chain_collision_free"] is None
    assert report["simulation"] == {"horizon": 6 + 18 - 1, "pairs_covered": True, "double_booked_days": []}


def test_verify_names_the_first_window_violation(tmp_path, capsys):
    inst = write_json(tmp_path, "inst.json", {"rates": ["1"] * 6})
    entries = [dict(e) for e in NON_CHAIN]
    entries[4]["cycle"] = entries[5]["cycle"] = 12  # floor 10; job 4 stays collision-free
    entries[5]["offset"] = 11
    sched = write_json(tmp_path, "sched.json", entries)
    code, out, _ = run(capsys, "verify", "-i", inst, "--schedule", sched)
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "failed" and report["windows_ok"] is False
    assert report["window_violation"] == {"job": 4, "offset": 6, "cycle": 12, "floor": 10}


def test_verify_refuses_two_inputs_on_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(WORKED)))
    code, out, err = run(capsys, "verify", "--schedule", "-")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "stdin" in err


# four bamboos, window floors 548, 1096, 1096 and 1096 (12/7 * 320): the
# windows pass and no two entries meet, but cycles 2, 1002, 1038 and 1074
# have lcm 6 * 167 * 173 * 179, so the calendar stops at the cap
CAPPED = [
    {"job": 0, "offset": 2, "cycle": 2},
    {"job": 1, "offset": 1, "cycle": 1002},
    {"job": 2, "offset": 3, "cycle": 1038},
    {"job": 3, "offset": 5, "cycle": 1074},
]


def test_verify_horizon_cap(tmp_path, capsys):
    inst = write_json(tmp_path, "inst.json", {"rates": ["320", "1", "1", "1"]})
    sched = write_json(tmp_path, "sched.json", CAPPED)
    code, out, _ = run(capsys, "verify", "-i", inst, "--schedule", sched)
    report = json.loads(out)
    assert code == 3 and report["verdict"] == "inconclusive" and report["ok"] is False
    assert report["collision_free"] is True and report["windows_ok"] is True
    assert report["simulation"] == {"horizon": DEFAULT_HORIZON_CAP, "pairs_covered": False, "double_booked_days": []}
    # the horizon is derived, not asked for
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-i", inst, "--schedule", sched, "--horizon", "5"])
    assert exc.value.code == 2
    assert "--horizon" in capsys.readouterr().err


# ---------------------------------------------------------------- density and oracle


def test_density_command(tmp_path, capsys):
    path = write_json(tmp_path, "ps.json", {"periods": ["24/7", "32/7", "960/7"]})
    code, out, _ = run(capsys, "density", "-i", path)
    assert code == 0
    assert json.loads(out) == {"density": "497/960"}


def test_oracle_pinwheel_infeasible(capsys):
    code, out, _ = run(capsys, "oracle", "pinwheel", "2", "3", "12")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"periods": [2, 3, 12], "feasible": False}


def test_oracle_pinwheel_feasible_with_witness(capsys):
    code, out, _ = run(capsys, "oracle", "pinwheel", "2", "4", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["feasible"] is True
    assert obj["witness"] == [0, 2, 0, 1]


def test_oracle_bgt_opt(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", {"rates": ["3", "1"]})
    code, out, _ = run(capsys, "oracle", "bgt-opt", path)
    assert code == 0
    assert json.loads(out) == {"rates": ["3", "1"], "opt": "6"}


def test_oracle_bgt_opt_refuting_paths(tmp_path, capsys, monkeypatch):
    # both recorded with the lowest candidate searched first, so they pin
    # the answer, not the search order
    monkeypatch.setenv("BAMBOO_STATE_CAP", "100000")
    # no candidate has a chain proof, so the search alone finds the optimum
    path = write_json(tmp_path, "found.json", {"rates": ["6", "4", "2", "2", "1"]})
    code, out, _ = run(capsys, "oracle", "bgt-opt", path)
    assert code == 0
    assert json.loads(out)["opt"] == "18"
    # every searchable candidate is refuted
    path = write_json(tmp_path, "refused.json", {"rates": ["7", "6", "6", "1", "1"]})
    code, out, err = run(capsys, "oracle", "bgt-opt", path)
    assert code == 2 and out == ""
    assert err == "error: state space of 5x5x5x29x29 exceeds the cap of 100000\n"


def test_oracle_tightness_defaults(capsys):
    code, out, _ = run(capsys, "oracle", "tightness")
    assert code == 0
    obj = json.loads(out)
    assert obj["pseudo"]["delta"] == "11673/994175"
    assert obj["reduced"]["floors_feasible"] is False


def test_oracle_tightness_checks_parameters_before_searching(capsys):
    # the fixed family's search over 3x4x1000001 states is over the cap; a
    # bad eta must be named before any search runs
    code, out, err = run(capsys, "oracle", "tightness", "--big-m", "1000000", "--eta", "5")
    assert code == 2 and out == ""
    assert err == "error: eta must keep the factor strictly between 1 and 12/7\n"
    code, out, err = run(capsys, "oracle", "tightness", "--big-m", "1000000", "--gamma", "3")
    assert code == 2 and out == ""
    assert err == "error: gamma must sit in (0, 3) so the rates stay sorted\n"


def test_state_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("BAMBOO_STATE_CAP", "10")
    code, _, err = run(capsys, "oracle", "pinwheel", "100", "100", "100")
    assert code == 2
    assert "exceeds the cap of 10" in err

    monkeypatch.setenv("BAMBOO_STATE_CAP", "lots")
    code, _, err = run(capsys, "oracle", "pinwheel", "2", "2")
    assert code == 2
    assert "BAMBOO_STATE_CAP" in err

    # a cap below 1 would make bench --opt skip every garden and still pass
    for raw in ("0", "-3"):
        monkeypatch.setenv("BAMBOO_STATE_CAP", raw)
        code, out, err = run(capsys, "bench", "--seeds", "1", "--n", "2", "--opt")
        assert code == 2 and out == ""
        assert "BAMBOO_STATE_CAP" in err


# ---------------------------------------------------------------- bench


def test_bench_deterministic_and_summarized(capsys):
    argv = [
        "bench", "--seeds", "3", "--n", "3",
        "--rate-min", "2", "--rate-max", "9", "--opt",
    ]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    obj = json.loads(first)
    assert len(obj["rows"]) == 3
    summary = obj["summary"]
    assert summary["opt_checked"] + summary["opt_skipped"] == 3
    assert "worst_ratio_vs_lower_bound" in summary
    for row in obj["rows"]:
        if "ratio_vs_opt" in row:
            num, _, den = row["ratio_vs_opt"].partition("/")
            assert int(num) <= int(den or num) * 2  # sanity: ratio <= 2


# ---------------------------------------------------------------- errors


def test_period_below_two_reports_hint(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", {"rates": ["13", "1"]})
    code, _, err = run(capsys, "solve", "-i", path, "--lower-bound", "sum")
    assert code == 2
    assert "24/13" in err
    assert "hint: use --lower-bound max-rule" in err
    # verify reduces the garden the same way and refuses it with the same words
    sched = write_json(tmp_path, "sched.json", [{"job": 0, "offset": 1, "cycle": 2}, {"job": 1, "offset": 2, "cycle": 2}])
    assert run(capsys, "verify", "-i", path, "--schedule", sched, "--lower-bound", "sum") == (2, "", err)


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "solve", "-i", str(path))
    assert code == 2
    assert "error:" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "solve", "-i", "/nonexistent/inst.json")
    assert code == 2
    assert "error:" in err


def test_instance_with_floats_rejected(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", {"rates": [0.1]})
    code, _, err = run(capsys, "solve", "-i", str(path))
    assert code == 2
    assert "0.1" in err


def test_solve_rejects_huge_decimal_exponent(tmp_path, capsys):
    for rate in ("1e3000000", "1e-5000"):
        path = write_json(tmp_path, "inst.json", {"rates": [rate]})
        code, out, err = run(capsys, "solve", "-i", path)
        assert code == 2 and out == ""
        assert err.startswith("error:")


def test_solve_rejects_results_too_long_to_print(tmp_path, capsys):
    # each input parses within the digit limit; the results grow past it
    big = 10**2200
    for rates, mode in (
        (["9" * 4000 + "e1000"], "max-rule"),
        ([f"1/{big + 1}", f"1/{big + 3}"], "sum"),
    ):
        path = write_json(tmp_path, "inst.json", {"rates": rates})
        code, out, err = run(capsys, "solve", "-i", path, "--lower-bound", mode)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def first_primes(k, limit=30000):
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    primes = [p for p in range(limit) if sieve[p]]
    assert len(primes) >= k
    return primes[:k]


def test_hostile_garden_of_coprime_denominators_fails_fast(tmp_path, capsys):
    # rates 1/p over the first 3000 primes: the common denominator has about
    # 12,000 digits, so the lower bound cannot be printed; no step may
    # compare or divide such numbers once per bamboo pair on the way there
    primes = first_primes(3000)
    garden = write_json(tmp_path, "garden.json", {"rates": [f"1/{p}" for p in primes]})
    sched = write_json(tmp_path, "sched.json", [{"job": i, "offset": i + 1, "cycle": 4096} for i in range(3000)])
    for argv in (["solve", "-i", garden], ["verify", "-i", garden, "--schedule", sched]):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        took = time.monotonic() - start
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
        assert took < 3, (argv, took)


def test_input_integer_over_digit_limit_names_the_input(tmp_path, capsys):
    digits = "9" * 5000
    inst = write_json(tmp_path, "inst.json", WORKED)
    garden = tmp_path / "garden.json"
    garden.write_text('{"rates": [%s]}' % digits, encoding="utf-8")
    sched = tmp_path / "sched.json"
    sched.write_text('[{"job": 0, "offset": 1, "cycle": %s}]' % digits, encoding="utf-8")
    for argv, named in (
        (["solve", "-i", str(garden)], garden),
        (["verify", "-i", str(garden), "--schedule", inst], garden),
        (["verify", "-i", inst, "--schedule", str(sched)], sched),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
        assert str(named) in err and "printed" not in err, argv


def test_input_not_utf8_names_the_input(tmp_path, capsys):
    # a UnicodeDecodeError is a ValueError: it must not escape as a traceback
    # with exit 1, the code of a failed verification
    inst = write_json(tmp_path, "inst.json", WORKED)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for argv in (["solve", "-i", str(binary)], ["verify", "-i", inst, "--schedule", str(binary)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
        assert str(binary) in err, argv


def test_input_nested_too_deeply_names_the_input(tmp_path, capsys, monkeypatch):
    # json.load raises RecursionError past the interpreter's nesting limit,
    # which must read as an input error, not as a failed verification
    inst = write_json(tmp_path, "inst.json", WORKED)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for argv in (["solve", "-i", str(deep)], ["verify", "-i", inst, "--schedule", str(deep)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: {deep} is nested too deeply to parse\n", argv
    monkeypatch.setattr("sys.stdin", io.StringIO(deep.read_text(encoding="utf-8")))
    code, out, err = run(capsys, "solve")
    assert code == 2 and out == "" and err == "error: stdin is nested too deeply to parse\n"


def test_other_value_errors_still_raise(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr("bamboo.scheduler.solve", boom)
    path = write_json(tmp_path, "inst.json", WORKED)
    with pytest.raises(ValueError, match="boom"):
        main(["solve", "-i", path])


def test_bench_rejects_bad_arguments(capsys):
    for argv in (
        ["--rate-min", "10", "--rate-max", "5"],
        ["--seeds", "-1"],
        ["--n", "0"],
        ["--rate-min", "0"],
    ):
        code, out, err = run(capsys, "bench", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:"), argv
