"""Class coverage (ROADMAP item 32): the local classes of a sync that each
pinned run exercises. A local class is (the source holds the asset, the
asset's state, its lock is held, the action): 2 * 5 * 2 * 7 = 140 in all.
Each run's set is pinned exactly, so a change that widens or narrows one
fails here, and says so when it updates the pin.

ROADMAP item 31's three checks of the engine also live here. The class
table checks one sync per class against what REG_TRANSITIONS says. Two
premises make those 140 syncs stand for a sync at any number of chains D
and assets A: locality (a sync reads and writes only its asset's cells and
lock) and symmetry (no chain name and no holder count matters). Given
both, every state's sync on an asset is its class's sync, renamed. Both
premises are checked at bounded scopes only: locality at D <= 3 with
A = 2 and at D = 2 with A = 3, symmetry on single-asset states at D <= 5.
That is evidence for every D and A, not a proof. The soundness matrix
pins which of the three checks kills each model-checker mutant."""

import contextlib
import itertools
import os

import pytest

from regsync import cli, engine, modelcheck
from regsync.engine import SyncFailure
from regsync.modelcheck import run_modelcheck
from regsync.regulatory import REG_TRANSITIONS, RegAction, RegState

import pinned_inputs
from test_acceptance import _mutant_allow_seized_freeze, _mutant_skip_release, _mutant_skip_target
from test_modelcheck import (
    SYNC_FNS, _accept_undefined, _add_chain, _appear_on_bare_chain, _change_owner,
    _change_owner_when_frozen, _drop_chains, _fail_freeze, _flip_neighbour, _lock_neighbour,
    _rename_asset, _touch_neighbour,
)

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
    path = pinned_inputs.write("sim-1", tmp_path)
    covered = _covered(monkeypatch, "simulate", str(path), *schedule)
    assert covered == SOURCE_HELD_LOCK_FREE


def test_the_replay_exercises_every_lock_free_class(monkeypatch, tmp_path):
    """The bench replay scenario exercises the 70 lock-free classes, as the
    model checker does, and holds no lock."""
    path = pinned_inputs.write("replay-1", tmp_path)
    assert _covered(monkeypatch, "sync", str(path)) == LOCK_FREE


def test_the_locked_replay_adds_24_held_classes(monkeypatch, tmp_path):
    """The seed-1 replay with the locks of a1 and a7 held and no expect
    tags, the input CI pins, exercises 94 classes: the 70 lock-free ones and
    24 held ones, the only held classes any pinned run reaches."""
    path = pinned_inputs.write("replay-1-locked", tmp_path)
    covered = _covered(monkeypatch, "sync", str(path))
    assert covered == LOCK_FREE | LOCKED_REPLAY_HELD
    assert len(covered) == 94


def _locality_witness(sync_fn, scopes):
    """The first sync at which ``sync_fn`` is not local, as (what broke,
    state, step), or None. Each (D, A) of ``scopes`` gives every initial
    state under every set of held locks, and each state every step. A sync
    on asset a must leave the chain set, every other asset's cells and
    every other lock as they were, and its outcome, a's new cells by chain
    and whether a stays locked must be one function of (source, action, a,
    a's holder cells by chain, a's lock), shared by all the scopes."""
    seen = {}
    for n_chains, n_assets in scopes:
        assets = modelcheck.asset_names(n_assets)
        lock_sets = [frozenset(held) for k in range(n_assets + 1)
                     for held in itertools.combinations(assets, k)]
        steps = [(c, action, aid) for c in modelcheck.chain_names(n_chains)
                 for action in RegAction for aid in assets]
        for initial in modelcheck.enumerate_initial_states(n_chains, n_assets):
            holder_cells = {aid: tuple((c, t[aid]) for c, t in initial.chains.items() if aid in t)
                            for aid in assets}
            for locks in lock_sets:
                gs = engine.GlobalState(initial.chains, locks)
                for step in steps:
                    aid = step[2]
                    result = sync_fn(*step, gs)
                    new = result.state
                    if new is None:
                        outcome = result.reason
                    else:
                        if new.chains.keys() != gs.chains.keys() or new.locks - {aid} != locks - {aid}:
                            return "chain or lock", gs, step
                        for c, table in new.chains.items():
                            old = gs.chains[c]
                            if table is not old and (
                                    {b: r for b, r in table.items() if b != aid}
                                    != {b: r for b, r in old.items() if b != aid}):
                                return "other cell", gs, step
                        outcome = ({c: t[aid] for c, t in new.chains.items() if aid in t},
                                   aid in new.locks)
                    if seen.setdefault((*step, holder_cells[aid], aid in locks), outcome) != outcome:
                        return "not a function of the asset's cells and lock", gs, step
    return None


def _renamed(gs, renaming):
    """``gs`` with its chains renamed; a chain ``renaming`` lacks keeps its name."""
    return engine.GlobalState({renaming.get(c, c): t for c, t in gs.chains.items()}, gs.locks)


def _symmetry_witness(sync_fn, max_chains):
    """The first sync at which ``sync_fn`` is not symmetric, as (what broke,
    state, step), or None. Every single-asset initial state at D <= ``max_chains``,
    its lock held or not, gets every step. Renaming the chains must commute
    with the sync, for two renamings: the cycle c1 -> c2 -> ... -> cD -> c1
    and the swap of c1 and c2. They generate every permutation of the
    chains, and the states are closed under renaming, so the sync commutes
    with every permutation. And a class's outcome, the set of the asset's
    new cells and whether it stays locked, must not depend on D or on how
    many chains hold the asset."""
    seen = {}
    for n_chains in range(1, max_chains + 1):
        chains = modelcheck.chain_names(n_chains)
        renamings = [dict(zip(chains, chains[1:] + chains[:1])),
                     dict(zip(chains, chains[1::-1] + chains[2:]))] if n_chains > 1 else []
        for initial in modelcheck.enumerate_initial_states(n_chains, 1):
            [state] = {t["a1"].reg_state for t in initial.chains.values() if "a1" in t}
            for locks in (frozenset(), frozenset({"a1"})):
                gs = engine.GlobalState(initial.chains, locks)
                for source, action in itertools.product(chains, RegAction):
                    step = (source, action, "a1")
                    result = sync_fn(*step, gs)
                    for r in renamings:
                        image = sync_fn(r[source], action, "a1", _renamed(gs, r))
                        if (image.reason, image.state) != (
                                result.reason, result.state and _renamed(result.state, r)):
                            return "renaming", gs, step
                    new = result.state
                    outcome = result.reason, new and (
                        {t["a1"] for t in new.chains.values() if "a1" in t}, "a1" in new.locks)
                    key = ("a1" in gs.chains[source], state, bool(locks), action)
                    if seen.setdefault(key, outcome) != outcome:
                        return "class outcome", gs, step
    return None


def test_the_engine_is_local():
    """Item 31's premise 1 at its scopes: 205,800 syncs at D <= 3, A = 2
    and 1,134,000 at D = 2, A = 3, every set of held locks included."""
    assert _locality_witness(engine.sync, [(1, 2), (2, 2), (3, 2), (2, 3)]) is None


def test_the_engine_is_symmetric():
    """Item 31's premise 2 on single-asset states at D <= 5."""
    assert _symmetry_witness(engine.sync, 5) is None


# Each check at the scope the matrix runs it at. The smaller premise scopes
# kill the same mutants as the tests above do.
CHECKS = {
    "locality": lambda sync_fn: _locality_witness(sync_fn, [(1, 2), (2, 2)]) is not None,
    "symmetry": lambda sync_fn: _symmetry_witness(sync_fn, 3) is not None,
    "class": lambda sync_fn: bool(_failed_classes(sync_fn)),
}
LOCALITY, SYMMETRY, CLASS = ({name} for name in CHECKS)
SOUNDNESS = {
    "engine": (engine.sync, set()),
    "fail_freeze": (_fail_freeze, CLASS),
    "touch_neighbour": (_touch_neighbour, LOCALITY | CLASS),
    "skip_release": (_mutant_skip_release, CLASS),
    "lock_neighbour": (_lock_neighbour, LOCALITY | CLASS),
    "accept_undefined": (_accept_undefined, CLASS),
    "change_owner": (_change_owner, CLASS),
    "appear_on_bare_chain": (_appear_on_bare_chain, LOCALITY | SYMMETRY | CLASS),
    "flip_neighbour": (_flip_neighbour, LOCALITY | CLASS),
    "skip_target": (_mutant_skip_target, SYMMETRY | CLASS),
    "allow_seized_freeze": (_mutant_allow_seized_freeze, CLASS),
    "change_owner_when_frozen": (_change_owner_when_frozen, CLASS),
    "add_chain": (_add_chain, LOCALITY | CLASS),
    "drop_chains": (_drop_chains, LOCALITY),
    "rename_asset": (_rename_asset, CLASS),
    "ignore_lock": (_ignore_lock, CLASS),
    "lock_first": (_lock_first, CLASS),
}


def test_the_soundness_matrix_covers_every_mutant():
    assert [fn for fn, _ in SOUNDNESS.values()] == [*SYNC_FNS, _ignore_lock, _lock_first]


@pytest.mark.parametrize("sync_fn, killed_by", SOUNDNESS.values(), ids=SOUNDNESS)
def test_the_soundness_matrix(sync_fn, killed_by):
    """The engine passes all three checks and every mutant fails one. The
    class state has no empty chain, so only locality kills drop_chains;
    skip_target's stale holder shows once an asset has two, so symmetry and
    the class check kill it and locality, which reads the same holders, does
    not."""
    assert {name for name, fails in CHECKS.items() if fails(sync_fn)} == killed_by
