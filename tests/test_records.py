"""The value-record contract of engine.AssetState, GlobalState and
SyncResult, of liveness.LockEvent, EpochRecord and SimState and of
preservation.DomainStateMap: frozen,
equal (and equally hashed, where hashable) when their fields are equal,
usable with dataclasses.replace and fields, and with the repr a frozen
dataclass of the same fields has."""

import dataclasses
import json

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
from regsync.preservation import DomainStateMap
from regsync.priority import AuthorityLevel, RegRequest
from regsync.regulatory import RegAction, RegState

from conftest import make_state


def asset_state():
    return engine.AssetState("a1", RegState.ACTIVE, "o")


def global_state():
    return engine.GlobalState({"c1": {"a1": asset_state()}}, frozenset({"a1"}))


REQUEST = RegRequest(1, AuthorityLevel.NATIONAL, 0, RegAction.FREEZE, "a1")

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
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestRecordContract:
    def test_assigning_or_deleting_a_field_raises(self, name):
        build = CASES[name][0]
        rec = build()
        for f in dataclasses.fields(rec):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rec, f.name)
        assert rec == build()

    def test_equal_fields_give_equal_records(self, name):
        build, hashable, _, _ = CASES[name]
        a, b = build(), build()
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
        else:
            with pytest.raises(TypeError):
                hash(a)

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

    def test_repr(self, name):
        assert repr(CASES[name][0]()) == CASES[name][3]


def test_defaults_are_the_declared_ones():
    assert engine.SyncResult() == engine.SyncResult(None, None)
    record = EpochRecord(0, 1, False, 2, 2, None, ())
    assert record.outcome is None
    with pytest.raises(TypeError):
        SimState(0, (), global_state())
    assert SimState(0, (), global_state(), {}).ranking is None


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
