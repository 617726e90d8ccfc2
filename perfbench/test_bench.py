"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import hostspeed
import run
from spans import Tracer

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "solve-large": {"n": 30, "spreads": (100, 10**6)},
    "verify-large": {"n": 30, "spreads": (100, 10**6)},
    "ratio-study": {"gardens": 5, "n_min": 2, "n_max": 4, "rate_max": 9, "state_cap": 10**5},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, params in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, params)
    monkeypatch.setattr(run, "OUT", tmp_path)


def digest_line(lines: list[str]) -> str:
    return next(line.split()[2] for line in lines if line.startswith("solve digest:"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_declared_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value == value
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines[:-1])


def test_golden_digest_at_default_seed_only(tiny):
    assert run.golden_digest("solve-large", run.DEFAULT_SEED) is not None
    assert run.golden_digest("solve-large", run.DEFAULT_SEED + 1) is None


def test_changed_digest_fails_every_operation(tiny):
    result, lines = run.run("ratio-study", 0, 0.1, False)
    assert result["correct"]
    good = digest_line(lines)
    result, _ = run.run("ratio-study", 0, 0.1, False, golden=good)
    assert result["correct"] and result["failed"] == 0
    wrong = "0" * 64
    for trace in (False, True):
        result, _ = run.run("ratio-study", 0, 0.1, trace, golden=wrong)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] >= 1


def test_tampered_schedule_is_caught():
    pkg = run.load_package()
    rates = run.large_gardens(1, "test", {"n": 40, "spreads": (100,)})[0]
    instance = pkg.model.BgtInstance.from_values(rates)
    sol = pkg.scheduler.solve(instance)
    bad, planted = run.tamper(pkg, sol.schedule, random.Random(1))
    report = pkg.verifier.evaluate(instance, bad, lower_bound_value=sol.lower_bound)
    run.check_tampered_report(report, planted)
    with pytest.raises(run.CheckFailed):
        run.check_clean_report(report, sol.height_bound, run.lower_bound_of(rates))
    entries = [(e.job, e.offset, e.cycle) for e in bad.entries]
    assert run.first_collision(entries) == planted


def test_a_verifier_that_misses_the_planted_collision_is_a_failure():
    planted = (3, 7)
    quiet = SimpleNamespace(ok=True, collisions=SimpleNamespace(collisions=()))
    with pytest.raises(run.CheckFailed):
        run.check_tampered_report(quiet, planted)
    other = SimpleNamespace(ok=False, collisions=SimpleNamespace(collisions=(SimpleNamespace(job_a=1, job_b=2, day=5),)))
    with pytest.raises(run.CheckFailed):
        run.check_tampered_report(other, planted)


def test_first_collision_agrees_with_the_verifier():
    pkg = run.load_package()
    rng = random.Random(7)
    for _ in range(300):
        entries = []
        for job in range(rng.randint(2, 6)):
            cycle = rng.randint(1, 12)
            entries.append((job, rng.randint(1, cycle), cycle))
        schedule = pkg.model.PeriodicSchedule(tuple(pkg.model.ScheduleEntry(*e) for e in entries))
        pair = run.first_collision(entries)
        found = {(c.job_a, c.job_b) for c in pkg.verifier.check_collisions(schedule).collisions}
        assert (pair is None) == (not found)
        assert pair is None or pair in found


def test_check_solution_rejects_a_wrong_height():
    pkg = run.load_package()
    rates = [9, 5, 4, 1]
    obj = pkg.cli.solution_to_obj(pkg.scheduler.solve(pkg.model.BgtInstance.from_values(rates)))
    run.check_solution(rates, obj)
    obj["max_height"] = "1"
    with pytest.raises(run.CheckFailed):
        run.check_solution(rates, obj)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 19) is None
    assert run.tail([float(i) for i in range(20)]) == ("p50", 9.0)
    assert run.tail([float(i) for i in range(100)]) == ("p90", 89.0)


def test_tracer_captures_nested_calls_and_restores_the_package():
    pkg = run.load_package()
    original = pkg.scheduler.partition_bins
    tracer = Tracer(observe=("scheduler.partition_bins",))
    tracer.install()
    try:
        pkg.scheduler.solve(pkg.model.BgtInstance.from_values([9, 5, 4, 4, 2, 1]))
    finally:
        tracer.uninstall()
    assert pkg.scheduler.partition_bins is original
    summary = tracer.summary()
    assert summary["scheduler.solve"][0] == 1
    assert summary["scheduler.partition_bins"][0] == len(tracer.observed["scheduler.partition_bins"]) >= 1
    for rec in tracer.spans:
        assert rec[1] <= rec[2]
        if tracer.names[rec[0]] == "scheduler.partition_bins":
            parent = rec
            while parent[3] >= 0:
                parent = tracer.spans[parent[3]]
            assert tracer.names[parent[0]] == "scheduler.solve"
    calls, inclusive, own = summary["scheduler.solve"]
    assert 0 <= own <= inclusive


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "ratio-study", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_kernel_does_fixed_work():
    bins, best, states = hostspeed.kernel()
    assert hostspeed.kernel() == (bins, best, states)
    assert (bins, best, states) == (36, 181334, 382)


def test_host_speed_spends_its_share_and_scales_to_the_reference():
    host = hostspeed.HostSpeed(share=0.5)
    assert len(host.times) == 3
    time.sleep(0.2)
    host.keep_up()
    assert host.total >= 0.5 * (time.perf_counter() - host.start) - host.times[-1]
    assert host.mean() == pytest.approx(sum(host.times) / len(host.times))
    assert host.scale() == pytest.approx(hostspeed.REF_S / host.mean())
