"""The value-record contract of every record class under ``src/regsync``
(every decorated class there): equal (and equally hashed, where the field
values hash) when of the same class with equal compared fields; frozen,
with no instance ``__dict__``; usable with dataclasses.replace, fields and
asdict; kept whole by copy, deepcopy and pickle; and with the repr a
dataclass of the same fields has."""

import ast
import copy
import dataclasses
import inspect
import json
import pickle
from pathlib import Path

import pytest

from regsync import engine
from regsync.liveness import (
    EpochRecord,
    LockEvent,
    NodeInfo,
    SimConfig,
    SimState,
    gen_adversarial_schedule,
    run_until_drained,
)
from regsync.locales import Morphism, SymmetricMorphism
from regsync.modelcheck import Counterexample, ModelCheckResult
from regsync.preservation import DomainStateMap
from regsync.priority import AuthorityLevel, RegRequest
from regsync.records import record
from regsync.regulatory import RegAction, RegState
from regsync.report import ValidationReport, Violation
from regsync.scenario import Scenario, SyncCommand
from regsync.sm_core import StateMachineSpec

from conftest import make_state


def asset_state():
    return engine.AssetState("a1", RegState.ACTIVE, "o")


def global_state():
    return engine.GlobalState({"c1": {"a1": asset_state()}}, frozenset({"a1"}))


def sim_config():
    """A config of one honest and one Byzantine node, told apart by is_honest."""
    cfg = SimConfig((NodeInfo(0, True), NodeInfo(1, False)), 1, 2, 3, seed=7)
    assert cfg.is_honest(0) and not cfg.is_honest(1)
    return cfg


def command():
    return SyncCommand("c1", RegAction.FREEZE, "a1", "ok")


def counterexample():
    return Counterexample("lock_respected", global_state(), (command(),), "")


def spec():
    # One-member sets, so that no repr depends on the hash seed.
    return StateMachineSpec.make({"s"}, {"go"}, {("s", "go"): "s"})


def morphism():
    return Morphism(spec(), spec(), {"s": "s"}, {"go": "go"})


def violation():
    return Violation("sync_isolation", ("c1", "a1"), "changed")


REQUEST = RegRequest(1, AuthorityLevel.NATIONAL, 0, RegAction.FREEZE, "a1")

# The reprs of the records above, spelled out once for the cases below.
GLOBAL_STATE = ("GlobalState(chains={'c1': {'a1': AssetState(asset_id='a1', "
                "reg_state=<RegState.ACTIVE: 'ACTIVE'>, owner='o')}}, locks=frozenset({'a1'}))")
REQUEST_REPR = ("RegRequest(node_id=1, authority=<AuthorityLevel.NATIONAL: 'National'>, "
                "timestamp=0, action=<RegAction.FREEZE: 'FREEZE'>, asset='a1')")
SIM_CONFIG = ("SimConfig(nodes=(NodeInfo(node_id=0, honest=True), NodeInfo(node_id=1, "
              "honest=False)), f_max=1, lock_timeout=2, fairness_bound=3, seed=7)")
COMMAND = "SyncCommand(source='c1', action=<RegAction.FREEZE: 'FREEZE'>, asset='a1', expect='ok')"
COUNTEREXAMPLE = f"Counterexample(rule='lock_respected', initial={GLOBAL_STATE}, steps=({COMMAND},), detail='')"
SPEC = ("StateMachineSpec(states=frozenset({'s'}), actions=frozenset({'go'}), "
        "transitions={('s', 'go'): 's'}, terminal=frozenset())")
MORPHISM = f"Morphism(source={SPEC}, target={SPEC}, state_map={{'s': 's'}}, action_map={{'go': 'go'}})"
VIOLATION = "Violation(rule='sync_isolation', witness=('c1', 'a1'), detail='changed')"

# Per type: a builder of equal records from fresh field objects, whether
# the records hash, a field change for replace, and the expected repr.
CASES = {
    "AssetState": (
        asset_state, True, {"owner": "p"},
        "AssetState(asset_id='a1', reg_state=<RegState.ACTIVE: 'ACTIVE'>, owner='o')",
    ),
    "GlobalState": (
        global_state, False, {"locks": frozenset()},
        "GlobalState(chains={'c1': {'a1': AssetState(asset_id='a1', "
        "reg_state=<RegState.ACTIVE: 'ACTIVE'>, owner='o')}}, locks=frozenset({'a1'}))",
    ),
    "SyncResult": (
        lambda: engine.SyncResult(reason=engine.SyncFailure.LOCKED), True,
        {"reason": engine.SyncFailure.INVALID_TRANSITION},
        "SyncResult(state=None, reason=<SyncFailure.LOCKED: 'Locked'>)",
    ),
    "DomainStateMap": (
        lambda: DomainStateMap(frozenset({"d1"}), {("d1", "a1"): RegState.ACTIVE}), False,
        {"table": {}},
        "DomainStateMap(domains=frozenset({'d1'}), "
        "table={('d1', 'a1'): <RegState.ACTIVE: 'ACTIVE'>})",
    ),
    "LockEvent": (
        lambda: LockEvent("a1", "acquire", 3), True, {"event": "expire"},
        "LockEvent(asset='a1', event='acquire', epoch=3)",
    ),
    "EpochRecord": (
        lambda: EpochRecord(3, 1, True, 2, 1, "n1-t0-FREEZE-a1",
                            (LockEvent("a1", "acquire", 3), LockEvent("a1", "release", 3)), "ok"),
        True, {"outcome": "Locked"},
        "EpochRecord(epoch=3, leader=1, honest=True, pending_before=2, pending_after=1, "
        "processed='n1-t0-FREEZE-a1', lock_events=(LockEvent(asset='a1', event='acquire', "
        "epoch=3), LockEvent(asset='a1', event='release', epoch=3)), outcome='ok')",
    ),
    "SimState": (
        lambda: SimState(2, (REQUEST,), global_state(), {"a1": 1}), False, {"epoch": 5},
        "SimState(epoch=2, pending=(RegRequest(node_id=1, authority=<AuthorityLevel.NATIONAL: "
        "'National'>, timestamp=0, action=<RegAction.FREEZE: 'FREEZE'>, asset='a1'),), "
        "global_state=GlobalState(chains={'c1': {'a1': AssetState(asset_id='a1', "
        "reg_state=<RegState.ACTIVE: 'ACTIVE'>, owner='o')}}, locks=frozenset({'a1'})), "
        "lock_times={'a1': 1})",
    ),
    "NodeInfo": (
        lambda: NodeInfo(1, True), True, {"honest": False}, "NodeInfo(node_id=1, honest=True)",
    ),
    "SimConfig": (sim_config, True, {"seed": 8}, SIM_CONFIG),
    "RegRequest": (
        lambda: RegRequest(1, AuthorityLevel.NATIONAL, 0, RegAction.FREEZE, "a1"), True,
        {"timestamp": 5}, REQUEST_REPR,
    ),
    "SyncCommand": (command, True, {"expect": None}, COMMAND),
    "Scenario": (
        lambda: Scenario(global_state(), [command()], [REQUEST], sim_config()), False,
        {"sim": None},
        f"Scenario(state={GLOBAL_STATE}, sync=[{COMMAND}], requests=[{REQUEST_REPR}], "
        f"sim={SIM_CONFIG})",
    ),
    "Counterexample": (counterexample, False, {"detail": "held"}, COUNTEREXAMPLE),
    "ModelCheckResult": (
        lambda: ModelCheckResult(3, 42, [counterexample()]), False, {"syncs_checked": 0},
        f"ModelCheckResult(states_explored=3, syncs_checked=42, counterexamples=[{COUNTEREXAMPLE}])",
    ),
    "Morphism": (morphism, False, {"state_map": {}}, MORPHISM),
    "SymmetricMorphism": (
        lambda: SymmetricMorphism(morphism(), morphism()), False,
        {"backward": Morphism(spec(), spec(), {}, {})},
        f"SymmetricMorphism(forward={MORPHISM}, backward={MORPHISM})",
    ),
    "StateMachineSpec": (spec, False, {"terminal": frozenset({"s"})}, SPEC),
    "Violation": (violation, True, {"detail": ""}, VIOLATION),
    "ValidationReport": (
        lambda: ValidationReport([violation()]), False, {"violations": []},
        f"ValidationReport(violations=[{VIOLATION}])",
    ),
}
all_records = pytest.mark.parametrize("name", sorted(CASES))


class TestRecordContract:
    @all_records
    def test_assigning_or_deleting_a_field_raises(self, name):
        """Every record is frozen and has no ``__dict__`` to take any other
        attribute."""
        build = CASES[name][0]
        rec = build()
        assert not hasattr(rec, "__dict__")
        for f in dataclasses.fields(rec):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.extra = None
        assert rec == build()

    @all_records
    def test_equal_fields_give_equal_records(self, name):
        build, hashable, _, _ = CASES[name]
        a, b = build(), build()
        assert a == b and not a != b
        # Only a record of the very same class compares, not its field tuple.
        compared = tuple(getattr(a, f.name) for f in dataclasses.fields(a) if f.compare)
        assert a != compared and a.__eq__(compared) is NotImplemented
        if hashable:
            assert hash(a) == hash(b) == hash(compared)
            assert len({a, b}) == 1
        else:
            with pytest.raises(TypeError):
                hash(a)

    @all_records
    def test_replace_and_fields(self, name):
        build, _, change, _ = CASES[name]
        rec = build()
        changed = dataclasses.replace(rec, **change)
        (field, value), = change.items()
        assert getattr(changed, field) == value and changed != rec
        assert rec == build()
        names = [f.name for f in dataclasses.fields(rec)]
        assert field in names
        for other in names:
            if other != field:
                assert getattr(changed, other) is getattr(rec, other)
        assert dataclasses.replace(rec) == rec
        assert type(rec).__match_args__ == tuple(names)
        assert list(dataclasses.asdict(rec)) == names

    @all_records
    def test_copy_deepcopy_and_pickle_keep_the_record(self, name):
        rec = CASES[name][0]()
        copies = [copy.copy(rec), copy.deepcopy(rec)] + [
            pickle.loads(pickle.dumps(rec, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for other in copies:
            assert type(other) is type(rec) and other is not rec
            assert other == rec and repr(other) == repr(rec)
            assert not hasattr(other, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(other, dataclasses.fields(rec)[0].name, None)

    @all_records
    def test_repr(self, name):
        assert repr(CASES[name][0]()) == CASES[name][3]


def test_defaults_are_the_declared_ones():
    assert engine.SyncResult() == engine.SyncResult(None, None)
    record = EpochRecord(0, 1, False, 2, 2, None, ())
    assert record.outcome is None
    with pytest.raises(TypeError):
        SimState(0, (), global_state())
    assert SimState(0, (), global_state(), {}).ranking is None
    # A default factory gives each record a fresh value.
    assert ModelCheckResult() == ModelCheckResult(0, 0, [])
    assert ModelCheckResult().counterexamples is not ModelCheckResult().counterexamples
    assert ValidationReport().violations == [] and ValidationReport().ok
    scenario = Scenario(global_state())
    assert (scenario.sync, scenario.requests, scenario.sim) == ([], [], None)
    assert spec().terminal == frozenset()
    assert (SimConfig((), 0, 1, 1).seed, Violation("r").witness, Violation("r").detail) == (
        0, None, "")


def test_a_ranking_is_not_part_of_the_value():
    """SimState.ranking is neither compared nor shown."""
    state = SimState(2, (REQUEST,), global_state(), {"a1": 1})
    ranked = dataclasses.replace(state, ranking=object())
    assert ranked == state and repr(ranked) == repr(state)


def test_the_cases_name_every_record_class():
    """Every decorated class under ``src/regsync`` is a record class, and
    each one has a case above."""
    package = Path(__file__).resolve().parent.parent / "src" / "regsync"
    decorated = {
        node.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.decorator_list
    }
    assert decorated == set(CASES)


# The record classes without a docstring; each has dataclass's ``Name()``.
UNDOCUMENTED = ["AssetState", "Counterexample", "EpochRecord", "LockEvent", "ModelCheckResult",
                "NodeInfo", "RegRequest", "Scenario", "SimConfig", "SymmetricMorphism",
                "SyncCommand", "Violation"]


@pytest.mark.parametrize("name", UNDOCUMENTED)
def test_an_undocumented_record_class_is_documented_by_its_name(name):
    assert type(CASES[name][0]()).__doc__ == f"{name}()"


@pytest.mark.parametrize("doc", [None, "A point."], ids=["undocumented", "documented"])
def test_no_record_class_computes_a_signature(monkeypatch, doc):
    """Defining a record class costs no ``inspect.signature`` call, which
    dataclass makes for an undocumented class only to write its doc."""
    def signature(*args, **kwargs):
        raise AssertionError("inspect.signature called")

    monkeypatch.setattr(inspect, "signature", signature)
    body = {"__annotations__": {"x": int, "y": str}, "y": "", **({"__doc__": doc} if doc else {})}
    Point = record(type("Point", (), body))
    assert Point.__doc__ == (doc or "Point()")
    assert Point(1) == Point(1, "") and repr(Point(1)) == "Point(x=1, y='')"


def test_epoch_record_to_json_is_asdict_on_a_seeded_drain():
    """to_json gives what dataclasses.asdict gives (with the lock events
    in a list) on every record of a drain with expiries, locks taken and
    failed syncs."""
    nodes = tuple(NodeInfo(i, honest=i >= 1) for i in range(4))
    cfg = SimConfig(nodes, 1, 2, 3, seed=7)
    actions = [RegAction.FREEZE, RegAction.UNFREEZE, RegAction.SEIZE]
    reqs = tuple(
        RegRequest(i % 3, AuthorityLevel.NATIONAL, i, actions[i % 3], f"a{i % 8}")
        for i in range(24)
    )
    placement = {c: {f"a{i}": RegState.ACTIVE for i in range(8)} for c in ("c1", "c2")}
    s0 = SimState(0, reqs, make_state(placement), {})
    horizon = len(reqs) * 5
    trace = run_until_drained(s0, gen_adversarial_schedule(cfg, horizon), cfg)
    events = {ev.event for r in trace for ev in r.lock_events}
    outcomes = {r.outcome for r in trace}
    assert events == {"acquire", "release", "expire"}
    assert {"ok", "InvalidTransition", None} <= outcomes
    for record in trace:
        doc = dataclasses.asdict(record)
        assert record.to_json() == {**doc, "lock_events": list(doc["lock_events"])}
        assert json.dumps(record.to_json(), sort_keys=True) == json.dumps(doc, sort_keys=True)
