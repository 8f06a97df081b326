"""Class coverage (ROADMAP item 32): the local classes of a sync that each
pinned run exercises. A local class is (the source holds the asset, the
asset's state, its lock is held, the action): 2 * 5 * 2 * 7 = 140 in all.
Each run's set is pinned exactly, so a change that widens or narrows one
fails here, and says so when it updates the pin. The class table (ROADMAP
item 31) checks one sync per class against what REG_TRANSITIONS says."""

import contextlib
import importlib.util
import json
import os

import pytest

from regsync import cli, engine
from regsync.engine import SyncFailure
from regsync.modelcheck import run_modelcheck
from regsync.regulatory import REG_TRANSITIONS, RegAction, RegState

from test_scripts import ROOT

CLASSES = {(holds, state, held, action) for holds in (False, True) for state in RegState
           for held in (False, True) for action in RegAction}
LOCK_FREE = {c for c in CLASSES if not c[2]}
SOURCE_HELD_LOCK_FREE = {c for c in LOCK_FREE if c[0]}
# The held classes of the locked replay. The held assets, a1 and a7, stay
# FROZEN and SEIZED, since every sync of them fails; each (source holds,
# state) pair misses one action.
LOCKED_REPLAY_HELD = {
    (holds, state, True, action)
    for (holds, state), missed in {
        (False, RegState.FROZEN): RegAction.RESTRICT,
        (False, RegState.SEIZED): RegAction.SEIZE,
        (True, RegState.FROZEN): RegAction.CONFISCATE,
        (True, RegState.SEIZED): RegAction.CONFISCATE,
    }.items()
    for action in RegAction if action is not missed
}


def test_the_class_universe():
    assert (len(CLASSES), len(LOCK_FREE), len(SOURCE_HELD_LOCK_FREE)) == (140, 70, 35)
    assert len(LOCKED_REPLAY_HELD) == 24


def _spy(covered, sync=engine.sync):
    """``sync``, adding the local class of each call to ``covered``. The
    asset's holders must agree on its state, which is that class's state."""

    def spy(source, action, aid, gs):
        [state] = {table[aid].reg_state for table in gs.chains.values() if aid in table}
        covered.add((aid in gs.chains.get(source, ()), state, aid in gs.locks, action))
        return sync(source, action, aid, gs)

    return spy


def _bench_scenario(kind, path):
    """The bench's seed-1 ``kind`` scenario document, written to ``path`` as
    bench/gen.py writes it."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    doc = getattr(gen, f"{kind}_scenario")(1)[0]
    gen.write_scenario(doc, path)
    return doc


def _covered(monkeypatch, *argv):
    """The classes ``regsync *argv`` exercises; it must exit 0. Its stdout
    is dropped."""
    covered = set()
    monkeypatch.setattr(engine, "sync", _spy(covered))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert cli.main(list(argv)) == 0
    return covered


def _class_state(holds, state, held):
    """One state of a class: a1 in ``state`` on c2, and on c1 iff the source
    holds it, its lock held iff ``held``; a2 FROZEN on c1 and c3. Each cell's
    owner names its chain, so a sync that mixes up owners shows."""
    places = {"c1": ["a1", "a2"] if holds else ["a2"], "c2": ["a1"], "c3": ["a2"]}
    return engine.GlobalState(
        {c: {aid: engine.AssetState(aid, state if aid == "a1" else RegState.FROZEN, f"o{c}")
             for aid in aids} for c, aids in places.items()},
        frozenset({"a1"} if held else ()))


def _specified(holds, state, held, action, gs):
    """What a correct sync of a1 from c1 does in the class, read from
    REG_TRANSITIONS alone in the paper's step order, as (failure, successor):
    each holder's a1 cell takes the target state and keeps its owner, and
    no other cell, lock or chain changes."""
    target = REG_TRANSITIONS.get((state, action))
    if not holds:
        return SyncFailure.ASSET_NOT_FOUND, None
    if target is None:
        return SyncFailure.INVALID_TRANSITION, None
    if held:
        return SyncFailure.LOCKED, None
    chains = {c: {aid: engine.AssetState(aid, target, rec.owner) if aid == "a1" else rec
                  for aid, rec in table.items()} for c, table in gs.chains.items()}
    return None, (chains, gs.locks)


def _failed_classes(sync_fn):
    """The classes on whose state ``sync_fn`` does not do what _specified says."""
    failed = set()
    for holds, state, held, action in CLASSES:
        gs = _class_state(holds, state, held)
        result = sync_fn("c1", action, "a1", gs)
        got = result.reason, result.state and (result.state.chains, result.state.locks)
        if got != _specified(holds, state, held, action, gs):
            failed.add((holds, state, held, action))
    return failed


def _ignore_lock(source, action, aid, gs):
    return engine.sync(source, action, aid, engine.GlobalState(gs.chains, gs.locks - {aid}))


def _lock_first(source, action, aid, gs):
    if aid in gs.locks:
        return engine.SyncResult.failure(SyncFailure.LOCKED)
    return engine.sync(source, action, aid, gs)


def test_the_engine_meets_the_class_table():
    """engine.sync does in each of the 140 classes, the 70 held ones among
    them, what the table derived from REG_TRANSITIONS says (ROADMAP item
    31's class check); the check syncs once in every class."""
    covered = set()
    assert _failed_classes(_spy(covered)) == set()
    assert covered == CLASSES


@pytest.mark.parametrize("mutant, failed", [
    (_ignore_lock, {(True, s, True, a) for s, a in REG_TRANSITIONS}),
    (_lock_first, {c for c in CLASSES
                   if c[2] and (not c[0] or (c[1], c[3]) not in REG_TRANSITIONS)}),
], ids=["ignore_lock", "lock_first"])
def test_the_class_table_fails_each_lock_mutant(mutant, failed):
    """A sync that ignores the lock fails the 12 held classes with a defined
    move; one that checks the lock before reading the source fails the 58
    held classes whose outcome comes first: 35 where the source lacks the
    asset and 23 with an undefined move. run_modelcheck(3, 2, 2) passes both,
    as it syncs on no held lock (ROADMAP item 3)."""
    assert len(failed) == {_ignore_lock: 12, _lock_first: 35 + 23}[mutant]
    assert _failed_classes(mutant) == failed
    result = run_modelcheck(3, 2, 2, sync_fn=mutant)
    assert (result.states_explored, result.syncs_checked, result.ok) == (1225, 51450, True)


def test_the_model_checker_exercises_every_lock_free_class():
    """run_modelcheck(3, 2, 2) exercises the 70 lock-free classes and no
    held one: every initial state is lock-free and every success releases
    its lock (ROADMAP item 3)."""
    covered = set()
    assert run_modelcheck(3, 2, 2, sync_fn=_spy(covered)).ok
    assert covered == LOCK_FREE


@pytest.mark.parametrize("schedule", [[], ["--adversarial"]], ids=["fair", "adversarial"])
def test_a_sim_drain_exercises_the_source_held_lock_free_classes(monkeypatch, tmp_path,
                                                                 schedule):
    """Fair and adversarial, the bench sim drain exercises the same 35
    classes: the source holds the asset and its lock is free. The other 105
    are unreachable by design: an honest leader syncs from the least holder
    of an asset and skips every asset whose lock is held."""
    _bench_scenario("sim", tmp_path / "sim.json")
    covered = _covered(monkeypatch, "simulate", str(tmp_path / "sim.json"), *schedule)
    assert covered == SOURCE_HELD_LOCK_FREE


def test_the_replay_exercises_every_lock_free_class(monkeypatch, tmp_path):
    """The bench replay scenario exercises the 70 lock-free classes, as the
    model checker does, and holds no lock."""
    _bench_scenario("replay", tmp_path / "replay.json")
    assert _covered(monkeypatch, "sync", str(tmp_path / "replay.json")) == LOCK_FREE


def test_the_locked_replay_adds_24_held_classes(monkeypatch, tmp_path):
    """The seed-1 replay with the locks of a1 and a7 held and no expect
    tags, as CI builds it, exercises 94 classes: the 70 lock-free ones and
    24 held ones, the only held classes any pinned run reaches."""
    doc = _bench_scenario("replay", tmp_path / "replay.json")
    doc["state"]["locks"] = {"a1": True, "a7": True}
    for table in doc["state"]["chains"].values():
        for aid in doc["state"]["locks"]:
            if aid in table:
                table[aid]["locked"] = True
    for step in doc["sync"]:
        del step["expect"]
    (tmp_path / "locked.json").write_text(json.dumps(doc))
    covered = _covered(monkeypatch, "sync", str(tmp_path / "locked.json"))
    assert covered == LOCK_FREE | LOCKED_REPLAY_HELD
    assert len(covered) == 94
