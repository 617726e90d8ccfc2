"""End-to-end CLI behavior: JSON shapes, exit codes, determinism, env knobs.

Everything drives `main(argv)` in-process; stdout is parsed back as JSON so
these double as schema tests for downstream tooling.
"""

import io
import json

from bamboo.cli import main


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
    assert trace["case"] == "b"
    assert trace["y"] == "5/6"
    assert trace["certificate_checked"] is True


def test_explain_subcommand(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", WORKED)
    code, out, _ = run(capsys, "explain", "-i", path)
    assert code == 0
    trace = json.loads(out)
    assert trace["path"] == "two-three"
    assert trace["pseudo_periods"] == ["24/7", "32/7", "960/7"]


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(WORKED)))
    code, out, _ = run(capsys, "solve")
    assert code == 0
    assert json.loads(out)["bound"] == "96/7"


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
    assert report["double_booked_days"][:1] == [2]


def test_verify_horizon_cap(tmp_path, capsys):
    inst = write_json(tmp_path, "inst.json", WORKED)
    _, out, _ = run(capsys, "solve", "-i", inst)
    sched = write_json(tmp_path, "sched.json", json.loads(out)["entries"])
    code, _, err = run(capsys, "verify", "-i", inst, "--schedule", sched, "--horizon", str(10**9))
    assert code == 2
    assert "error:" in err


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


def test_oracle_tightness_defaults(capsys):
    code, out, _ = run(capsys, "oracle", "tightness")
    assert code == 0
    obj = json.loads(out)
    assert obj["pseudo"]["delta"] == "11673/994175"
    assert obj["reduced"]["floors_feasible"] is False


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
