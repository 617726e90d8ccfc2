"""`record`, the one value-class form of the package: equality, hashing and
printing by field, immutability, constructor arguments, the validation hook,
cached views, and an import that compiles no more than each `__init__`."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bamboo import model, oracle, reduction, rounding, scheduler, verifier
from bamboo.model import BgtInstance, InvalidInstance, JobPeriod, PeriodicSchedule, PseudoInstance, ScheduleEntry
from bamboo.oracle import PinwheelResult
from bamboo.reduction import ReductionConfig
from bamboo.scheduler import ChainInstance, NotAChain, Overdense, Solution, solve
from bamboo.verifier import Collision

RECORDS = {
    model: ("BgtInstance", "PseudoInstance", "JobPeriod", "ScheduleEntry", "PeriodicSchedule"),
    reduction: ("ReductionConfig", "ScaledGarden"),
    oracle: ("PinwheelResult",),
    verifier: ("Collision", "CollisionReport", "WindowViolation", "SimReport", "VerificationReport"),
    rounding: ("SpecializedState", "Decomposition", "NormalizedState"),
    scheduler: ("ChainInstance", "Solution"),
}


def test_every_value_class_is_a_record():
    for module, names in RECORDS.items():
        for name in names:
            cls = getattr(module, name)
            assert cls._fields == tuple(cls.__annotations__), name
    assert sum(map(len, RECORDS.values())) == 18


def test_equal_by_value_within_one_class():
    assert JobPeriod(3, 8) == JobPeriod(period=8, job=3)
    assert JobPeriod(3, 8) != JobPeriod(3, 4)
    # another record class, or a tuple, with the same values is not equal
    entry, collision = ScheduleEntry(0, 1, 2), Collision(0, 1, 2)
    assert entry.__eq__(collision) is NotImplemented
    assert entry != collision and not entry == collision
    assert JobPeriod(3, 8).__eq__((3, 8)) is NotImplemented
    assert JobPeriod(3, 8) != (3, 8)


def test_hash_and_repr_follow_the_fields():
    assert hash(JobPeriod(3, 8)) == hash(JobPeriod(3, 8))
    assert len({ReductionConfig(), ReductionConfig("12/7", "max-rule"), ReductionConfig(2)}) == 2
    assert repr(JobPeriod(3, 8)) == "JobPeriod(job=3, period=8)"
    assert repr(ReductionConfig()) == "ReductionConfig(factor=Fraction(12, 7), lb_mode='max-rule')"
    assert repr(PinwheelResult(True, (0, 1))) == "PinwheelResult(feasible=True, witness=(0, 1))"
    assert repr(PeriodicSchedule.of_columns([0], [1], [2])) == "PeriodicSchedule(jobs=(0,), offsets=(1,), cycles=(2,))"


def test_fields_cannot_be_assigned_or_deleted():
    for obj, name in (
        (JobPeriod(3, 8), "job"),
        (ReductionConfig(), "factor"),
        (PeriodicSchedule.of_columns([0], [1], [2]), "jobs"),
    ):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        JobPeriod(3, 8).extra = 1


def test_positional_keyword_and_default_arguments():
    assert PinwheelResult(True).witness is None
    assert PinwheelResult(True, (0, 1)) == PinwheelResult(witness=(0, 1), feasible=True)
    # the messages a frozen dataclass's generated __init__ gave
    with pytest.raises(TypeError, match=r"__init__\(\) missing 1 required positional argument: 'feasible'"):
        PinwheelResult()
    with pytest.raises(TypeError, match=r"__init__\(\) takes from 2 to 3 positional arguments but 4 were given"):
        PinwheelResult(True, None, None)
    with pytest.raises(TypeError, match=r"__init__\(\) got an unexpected keyword argument 'cycle'"):
        PinwheelResult(True, cycle=None)

    assert PseudoInstance(("7/2", 4)).periods == (Fraction(7, 2), 4)
    assert PseudoInstance((3,)) == PseudoInstance(periods=(3,))

    assert ReductionConfig() == ReductionConfig(Fraction(12, 7), "max-rule")
    assert ReductionConfig(2).lb_mode == "max-rule"
    assert ReductionConfig(lb_mode="sum").factor == Fraction(12, 7)

    sol = solve(BgtInstance((4, 3, Fraction(1, 10))))
    assert Solution(**{name: getattr(sol, name) for name in Solution._fields}) == sol
    plain = Solution(*(getattr(sol, name) for name in Solution._fields[:7]))
    assert [getattr(plain, name) for name in Solution._fields[7:]] == [None, None, None, None, False]


def test_post_init_refusals_keep_their_messages():
    for build, error, message in (
        (lambda: BgtInstance(()), InvalidInstance, "an instance needs at least one bamboo"),
        (lambda: BgtInstance((3, 4)), InvalidInstance, "growth rates must be sorted non-increasing"),
        (lambda: PseudoInstance((0,)), InvalidInstance, "period 0 is not positive"),
        (lambda: ReductionConfig(1), InvalidInstance, "the magnification factor must exceed 1"),
        (lambda: ReductionConfig(lb_mode="median"), InvalidInstance, "unknown lower-bound mode 'median'"),
        (lambda: ChainInstance(((2, 0), (3, 1))), NotAChain, "2 does not divide 3"),
        (lambda: ChainInstance(((2, 0), (2, 1), (2, 2))), Overdense, "density 3/2 exceeds 1"),
        (lambda: PeriodicSchedule.of_columns([0, 0], [1, 2], [2, 2]), InvalidInstance, "job 0 appears twice"),
    ):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


def test_cached_views_are_built_once():
    sol = solve(BgtInstance((4, 3, Fraction(1, 10))))
    state = sol.normalized
    assert state.y is state.y
    assert state.y == Fraction(state.y_sixths, 6)
    assert sol.schedule.entries is sol.schedule.entries
    assert sol.schedule.entries[0] == ScheduleEntry(sol.schedule.jobs[0], sol.schedule.offsets[0], sol.schedule.cycles[0])
    chain = ChainInstance(((2, 0), (4, 1), (4, 2)))
    assert chain.jobs is chain.jobs
    assert chain.jobs == (JobPeriod(0, 2), JobPeriod(1, 4), JobPeriod(2, 4))
    # a cached view is no field: it takes no part in equality
    assert chain == ChainInstance(((2, 0), (4, 1), (4, 2)))


def test_import_loads_no_code_generation_modules():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    code = (
        "import sys; before = set(sys.modules); import bamboo.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
