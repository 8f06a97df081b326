"""Each rule of the model checker can fire, and the budget is decided before
anything is built."""

import itertools
from collections import Counter
from dataclasses import replace
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from regsync import engine, modelcheck
from regsync.engine import SyncFailure, SyncResult
from regsync.locales import check_multi_domain, check_sequential_preservation, identity_morphism
from regsync.modelcheck import initial_state_count, run_modelcheck
from regsync.preservation import DomainStateMap, disagreements, sync_all
from regsync.regulatory import RegAction, RegState, reg_machine_spec, reg_transition
from regsync.report import BudgetExceededError
from regsync.scenario import SyncCommand
from regsync.sm_core import StateMachineSpec

from test_acceptance import _mutant_allow_seized_freeze, _mutant_skip_release, _mutant_skip_target


def _succeeded(mutate):
    """A sync_fn that runs the real engine and hands each success to
    ``mutate(aid, new_state)``."""

    def sync_fn(source, action, aid, gs):
        result = engine.sync(source, action, aid, gs)
        return SyncResult.success(mutate(aid, result.state)) if result.ok else result

    return sync_fn


def _fail_freeze(source, action, aid, gs):
    if action is RegAction.FREEZE:
        return SyncResult.failure(SyncFailure.LOCKED)
    return engine.sync(source, action, aid, gs)


def _accept_undefined(source, action, aid, gs):
    result = engine.sync(source, action, aid, gs)
    if result.reason is SyncFailure.INVALID_TRANSITION:
        return SyncResult.success(gs)
    return result


def _rewrite(gs, touch, **change):
    """``gs`` with ``change`` made to the cells of each asset ``touch`` accepts."""
    chains = {
        c: {a: replace(rec, **change) if touch(a) else rec for a, rec in table.items()}
        for c, table in gs.chains.items()
    }
    return engine.GlobalState(chains, gs.locks)


_touch_neighbour = _succeeded(lambda aid, gs: _rewrite(gs, lambda a: a != aid, owner="thief"))
_change_owner = _succeeded(lambda aid, gs: _rewrite(gs, lambda a: a == aid, owner="thief"))
# Every other check reads a cell by its table key; only asset_id_untouched
# reads the record's own asset_id.
_rename_asset = _succeeded(lambda aid, gs: _rewrite(gs, lambda a: a == aid, asset_id="zz"))
_lock_neighbour = _succeeded(
    lambda aid, gs: engine.GlobalState(gs.chains, gs.locks | {"a1" if aid == "a2" else "a2"})
)


def _with_cell(gs, c, rec):
    """``gs`` with ``rec`` put on chain ``c``; every other table is shared."""
    table = {**gs.chains.get(c, {}), rec.asset_id: rec}
    return engine.GlobalState({**gs.chains, c: table}, gs.locks)


def _appear(aid, gs):
    """Copy the synced cell onto the first chain that does not hold it."""
    bare = [c for c in sorted(gs.chains) if aid not in gs.chains[c]]
    cell = next(table[aid] for table in gs.chains.values() if aid in table)
    return _with_cell(gs, bare[0], cell) if bare else gs


def _flip(aid, gs):
    """Flip the state of another asset on the first chain that holds one."""
    for c in sorted(gs.chains):
        for other, rec in sorted(gs.chains[c].items()):
            if other != aid:
                flipped = RegState.FROZEN if rec.reg_state is RegState.ACTIVE else RegState.ACTIVE
                return _with_cell(gs, c, replace(rec, reg_state=flipped))
    return gs


def _steal_frozen(aid, gs):
    """Rewrite the synced cell's owner, but only where the sync left it FROZEN."""
    frozen = any(t[aid].reg_state is RegState.FROZEN for t in gs.chains.values() if aid in t)
    return _rewrite(gs, lambda a: a == aid, owner="thief") if frozen else gs


def _add_empty_chain(aid, gs):
    return engine.GlobalState({**gs.chains, "zz": {}}, gs.locks)


def _drop_empty_chains(aid, gs):
    return engine.GlobalState({c: t for c, t in gs.chains.items() if t}, gs.locks)


def _drop_c2(source, action, aid, gs):
    """Succeed on every sync, with chain c2 dropped: once c2 is gone, a sync
    from c2 succeeds from a chain its pre-state lacks."""
    chains = {c: t for c, t in gs.chains.items() if c != "c2"}
    return SyncResult.success(engine.GlobalState(chains, gs.locks))


_appear_on_bare_chain = _succeeded(_appear)
_flip_neighbour = _succeeded(_flip)
# Only the moves to FROZEN leave the initial set, so the prescribed
# successes that follow them are of states no initial state is.
_change_owner_when_frozen = _succeeded(_steal_frozen)
# A sync that adds or drops a chain holding no cell changes no cell.
_add_chain = _succeeded(_add_empty_chain)
_drop_chains = _succeeded(_drop_empty_chains)


def rules(result):
    return {ce.rule for ce in result.counterexamples}


@pytest.mark.parametrize(
    "sync_fn, bounds, fired",
    [
        pytest.param(_fail_freeze, (1, 1, 1), {"combined_success"}, id="combined_success"),
        pytest.param(_touch_neighbour, (1, 2, 1), {"sync_isolation"}, id="sync_isolation"),
        pytest.param(
            _mutant_skip_release, (1, 1, 1), {"lock_released", "valid_state_preservation"},
            id="lock_released",
        ),
        pytest.param(
            _lock_neighbour, (1, 2, 1), {"valid_state_preservation"},
            id="valid_state_preservation",
        ),
        pytest.param(
            _accept_undefined, (1, 1, 1), {"generic_agreement", "cross_domain_consistency"},
            id="generic_agreement",
        ),
        pytest.param(_change_owner, (2, 1, 1), {"owner_untouched"}, id="owner_untouched"),
        pytest.param(_rename_asset, (2, 1, 1), {"asset_id_untouched"}, id="asset_id_untouched"),
        # These two can change a table the engine would have shared with its
        # input; the checker must still compare it.
        pytest.param(
            _appear_on_bare_chain, (2, 1, 1), {"sync_isolation", "generic_agreement"},
            id="cell_appeared",
        ),
        pytest.param(
            _flip_neighbour, (2, 2, 1),
            {"sync_isolation", "generic_agreement", "valid_agreement"},
            id="projections_differ",
        ),
        pytest.param(_add_chain, (2, 1, 1), {"domain_set_changed"}, id="chain_added"),
        pytest.param(_drop_chains, (2, 1, 1), {"domain_set_changed"}, id="chains_dropped"),
        # The generic layer has no source to sync from, so it must not agree.
        pytest.param(
            _drop_c2, (2, 1, 2),
            {"generic_agreement", "cross_domain_consistency", "domain_set_changed",
             "owner_untouched"},
            id="source_chain_dropped",
        ),
    ],
)
def test_rule_fires(sync_fn, bounds, fired):
    assert rules(run_modelcheck(*bounds, sync_fn=sync_fn)) == fired


SMALL_BOUNDS = [(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 1)]
SYNC_FNS = [
    engine.sync, _fail_freeze, _touch_neighbour, _mutant_skip_release, _lock_neighbour,
    _accept_undefined, _change_owner, _appear_on_bare_chain, _flip_neighbour,
    _mutant_skip_target, _mutant_allow_seized_freeze, _change_owner_when_frozen, _add_chain,
    _drop_chains, _rename_asset,
]


@pytest.mark.parametrize("bounds", SMALL_BOUNDS)
@pytest.mark.parametrize("sync_fn", SYNC_FNS)
def test_prescribed_successor_changes_no_verdict(monkeypatch, sync_fn, bounds):
    """With no prescribed successor every success is diagnosed rule by rule;
    the counterexamples must be the same, in the same order."""
    fast = run_modelcheck(*bounds, sync_fn=sync_fn)
    monkeypatch.setattr(modelcheck, "_prescribed", lambda *_: None)
    diagnosed = run_modelcheck(*bounds, sync_fn=sync_fn)
    assert (fast.states_explored, fast.syncs_checked) == (
        diagnosed.states_explored, diagnosed.syncs_checked
    )
    assert fast.counterexamples == diagnosed.counterexamples


def _recording_explore(monkeypatch, handed):
    """Make run_modelcheck's explorer append to ``handed`` each state it
    asks the key of: each one a visitor yields. The initial states are
    drawn, not keyed."""
    explore = modelcheck.explore

    def recording(initial, steps, depth, budget, key, visit):
        return explore(initial, steps, depth, budget,
                       lambda gs: handed.append(gs) or key(gs), visit)

    monkeypatch.setattr(modelcheck, "explore", recording)


def test_the_engine_run_keys_no_state(monkeypatch):
    """Every state of the engine's run at D=3/A=2 is an initial state. Each
    of the 10,080 successful syncs gives its prescribed successor, an
    initial state too, so none is handed to explore: the run is 51,450
    syncs, and neither _key nor _state_key runs. A mutant that leaves
    holders disagreeing leaves the initial set, and its states are keyed
    by _state_key."""
    log, handed = [], []
    state_key, key = modelcheck._state_key, modelcheck._key
    monkeypatch.setattr(modelcheck, "_state_key", lambda gs: log.append("state") or state_key(gs))
    monkeypatch.setattr(modelcheck, "_key", lambda gs, *space: log.append("key") or key(gs, *space))
    _recording_explore(monkeypatch, handed)

    def sync_fn(*args):
        log.append("sync")
        return engine.sync(*args)

    result = run_modelcheck(3, 2, 2, sync_fn=sync_fn)
    assert (result.states_explored, result.syncs_checked, result.ok) == (1225, 51450, True)
    assert log == ["sync"] * 51450 and handed == []
    run_modelcheck(2, 1, 2, sync_fn=_mutant_skip_target)
    assert "state" in log and handed


def _scope(n_chains, n_assets):
    """The chain and asset names run_modelcheck hands _key at these bounds."""
    return frozenset(modelcheck.chain_names(n_chains)), frozenset(modelcheck.asset_names(n_assets))


@pytest.mark.parametrize("bounds", [(d, a) for d in (1, 2, 3) for a in (1, 2)])
def test_a_sync_from_an_initial_state_gives_an_initial_state(bounds):
    """The closure the visitor relies on when it hands back no prescribed
    success of an initial state: every successful engine.sync from every
    initial state gives a state that _key, like every initial state's,
    gives no key."""
    space = _scope(*bounds)
    initial = list(modelcheck.enumerate_initial_states(*bounds))
    assert all(modelcheck._key(gs, *space) is None for gs in initial)
    steps = [(c, a, aid) for c in modelcheck.chain_names(bounds[0]) for a in RegAction
             for aid in modelcheck.asset_names(bounds[1])]
    successors = [result.state for gs in initial for step in steps
                  if (result := engine.sync(*step, gs)).ok]
    assert successors and all(modelcheck._key(gs2, *space) is None for gs2 in successors)


@pytest.mark.parametrize("bounds", [(d, a) for d in (1, 2, 3) for a in (1, 2)])
def test_key_gives_no_key_to_the_initial_states_alone(monkeypatch, bounds):
    """The key run_modelcheck hands explore is None on every enumerated
    state and on no variant of one that holds a lock, has another owner, a
    state outside RegState, a cell whose asset_id is not its table key, an
    extra chain, an asset outside the scope or holders that disagree, or
    lacks a chain or an asset; it is None on a twin whose states are plain
    strs. The enumerated states are initial_state_count distinct states."""
    keys = []
    monkeypatch.setattr(modelcheck, "explore", lambda initial, steps, depth, budget, key, visit: (
        keys.append(key) or (0, 0)))
    run_modelcheck(*bounds, 1)
    [key] = keys
    initial = list(modelcheck.enumerate_initial_states(*bounds))
    assert all(key(gs) is None for gs in initial)
    outside, assets = engine.AssetState("zz", RegState.ACTIVE, "owner"), _scope(*bounds)[1]
    for gs in initial:
        holder, a1 = next((c, table["a1"]) for c, table in gs.chains.items() if "a1" in table)
        other = engine.AssetState("a1", next(s for s in RegState if s != a1.reg_state), "owner")
        variants = [engine.GlobalState(gs.chains, frozenset({aid})) for aid in assets] + [
            _rewrite(gs, lambda a: a == "a1", owner="thief"),
            _rewrite(gs, lambda a: a == "a1", reg_state="UNKNOWN"),
            _rewrite(gs, lambda a: a == "a1", asset_id="zz"),
            engine.GlobalState(dict(list(gs.chains.items())[1:]), gs.locks),
            engine.GlobalState({**gs.chains, "c9": {}}, gs.locks),  # an extra chain
            _with_cell(gs, holder, outside),  # an asset outside the scope
            engine.GlobalState({c: {a: rec for a, rec in t.items() if a != "a1"}
                                for c, t in gs.chains.items()}, gs.locks),  # a1 held nowhere
        ] + [_with_cell(gs, c, other) for c in gs.chains if c != holder]  # disagreeing holders
        assert all(key(v) == modelcheck._state_key(v) for v in variants)
        text = engine.GlobalState({c: {a: replace(rec, reg_state=rec.reg_state.value)
                                       for a, rec in t.items()} for c, t in gs.chains.items()},
                                  gs.locks)
        assert {type(rec.reg_state) for t in text.chains.values() for rec in t.values()} == {str}
        assert text == gs and key(text) is None
    assert len({modelcheck._state_key(gs) for gs in initial}) == initial_state_count(*bounds)


def test_the_initial_level_is_streamed(monkeypatch):
    """run_modelcheck hands explore the initial states as an iterator, which
    it draws once: each state only after the syncs of the one before, so
    the initial states are never all held at once."""
    log, enumerate_initial_states = [], modelcheck.enumerate_initial_states

    def drawn(*bounds):
        for gs in enumerate_initial_states(*bounds):
            log.append("draw")
            yield gs

    def sync_fn(*args):
        log.append("sync")
        return engine.sync(*args)

    monkeypatch.setattr(modelcheck, "enumerate_initial_states", drawn)
    result = run_modelcheck(2, 1, 2, sync_fn=sync_fn)
    n, per_state = initial_state_count(2, 1), 2 * len(RegAction)
    assert (result.states_explored, result.syncs_checked, result.ok) == (n, n * per_state, True)
    assert log == (["draw"] + ["sync"] * per_state) * n


def test_a_plain_str_twin_agrees_as_its_member_twin_does():
    """Agreement is compared by value in every layer: a state with a1 as
    RegState.ACTIVE on c1 and c2, and its twin with the plain str "ACTIVE"
    on c2, are both valid, both free of disagreements in the judge's scan,
    both initial (no key) and share one _state_key."""
    member = engine.AssetState("a1", RegState.ACTIVE, "owner")
    text = engine.AssetState("a1", RegState.ACTIVE.value, "owner")
    gs = engine.GlobalState({"c1": {"a1": member}, "c2": {"a1": member}}, frozenset())
    twin = engine.GlobalState({"c1": {"a1": member}, "c2": {"a1": text}}, frozenset())
    assert type(text.reg_state) is str and twin == gs
    for state in (twin, gs):
        assert engine.valid_state(state)
        assert disagreements(modelcheck.to_domain_state_map(state)) == {}
        assert modelcheck._key(state, *_scope(2, 1)) is None
    assert modelcheck._state_key(twin) == modelcheck._state_key(gs)


def test_state_keys_are_equal_exactly_when_the_states_are(monkeypatch):
    """_state_key(a) == _state_key(b) exactly when a == b: over the initial
    states, over the states explore is handed on runs whose successors
    leave the initial set (disagreeing holders, held locks, changed owners,
    added cells, a released lock kept, a seized asset frozen), and over
    hand-built states no sync reaches, twins among them."""
    handed = []
    _recording_explore(monkeypatch, handed)
    for mutant in (_mutant_skip_target, _mutant_skip_release, _change_owner, _appear_on_bare_chain):
        run_modelcheck(2, 2, 2, sync_fn=mutant)
    for mutant in (_mutant_skip_target, _mutant_skip_release, _mutant_allow_seized_freeze):
        run_modelcheck(2, 1, 2, sync_fn=mutant)
    assert any(gs.locks for gs in handed)
    a1 = engine.AssetState("a1", RegState.ACTIVE, "owner")
    a2 = engine.AssetState("a2", RegState.FROZEN, "owner")
    text_a1 = engine.AssetState("a1", "ACTIVE", "owner")
    table = {"a1": a1, "a2": a2}
    text = {**table, "a1": text_a1}
    renamed = {**table, "a1": engine.AssetState("zz", RegState.ACTIVE, "owner")}
    twins = [
        engine.GlobalState({"c1": table, "c2": table}, frozenset()),
        engine.GlobalState({"c2": dict(reversed(table.items())), "c1": table}, frozenset()),
        engine.GlobalState({"c1": text, "c2": text}, frozenset()),  # a str-valued state
        engine.GlobalState({"c1": renamed, "c2": renamed}, frozenset()),  # an asset_id twin
    ]
    # A held lock on a2, which one chain holds: the same state with its
    # chains in reverse, its c1 table in reverse, and a str-valued a1.
    locked = [
        engine.GlobalState({"c1": table, "c2": {"a1": a1}}, frozenset({"a2"})),
        engine.GlobalState({"c2": {"a1": a1}, "c1": table}, frozenset({"a2"})),
        engine.GlobalState({"c1": {"a2": a2, "a1": a1}, "c2": {"a1": a1}}, frozenset({"a2"})),
        engine.GlobalState({"c1": {"a1": text_a1, "a2": a2}, "c2": {"a1": text_a1}},
                           frozenset({"a2"})),
    ]
    hand_built = twins + locked + [
        engine.GlobalState({"c1": table, "c2": table, "c3": table}, frozenset()),  # an extra chain
        engine.GlobalState({"c1": table, "c2": {}}, frozenset()),  # an empty chain
        engine.GlobalState({"c1": table}, frozenset()),  # a missing chain
        engine.GlobalState({"c1": table, "c2": {}}, frozenset({"a3"})),  # a lock on no held asset
        engine.GlobalState({"c1": {"a1": a1}, "c2": {}}, frozenset({"a2"})),  # a2 unheld
        # Empty chains, free and held locks on an asset no chain holds.
        engine.GlobalState({"c1": {}}, frozenset()),
        engine.GlobalState({"c1": {}, "c2": {}}, frozenset()),
        engine.GlobalState({"c1": {}}, frozenset({"a1"})),
    ]
    keys = [modelcheck._state_key(gs) for gs in twins]
    assert keys[0] == keys[1] == keys[2] != keys[3] and twins[0] == twins[2] != twins[3]
    assert len({modelcheck._state_key(gs) for gs in locked}) == 1
    by_key: dict = {}
    initial = [*modelcheck.enumerate_initial_states(2, 2), *modelcheck.enumerate_initial_states(2, 1)]
    for gs in [*initial, *handed, *hand_built]:
        by_key.setdefault(modelcheck._state_key(gs), []).append(gs)
    assert all(gs == same[0] for same in by_key.values() for gs in same)
    # Equal states hold the same assets on the same chains under the same
    # locks, so only states of distinct keys that do are compared.
    shapes: dict = {}
    for gs, *_ in by_key.values():
        shape = frozenset((c, frozenset(t)) for c, t in gs.chains.items()), gs.locks
        shapes.setdefault(shape, []).append(gs)
    assert not any(a == b for same in shapes.values() for a, b in itertools.combinations(same, 2))


@pytest.mark.parametrize("bounds, outcomes", [
    ((3, 2, 2), {"ok": 10_080, "InvalidTransition": 19_320, "AssetNotFound": 22_050, "Locked": 0}),
    ((2, 2, 3), {"ok": 1_440, "InvalidTransition": 2_760, "AssetNotFound": 2_100, "Locked": 0}),
])
def test_sync_outcomes_of_the_lock_free_run(bounds, outcomes):
    """The outcome of every sync the checker runs on the engine. None fails
    with Locked: every initial state is lock-free and every success releases
    its lock, so the lock premise of guaranteed success always holds and is
    never tested (vacuous). ROADMAP items 3 and 14 close this with a second,
    held-lock initial set."""
    seen = Counter()

    def recording(source, action, aid, gs):
        result = engine.sync(source, action, aid, gs)
        seen["ok" if result.ok else result.reason.value] += 1
        return result

    assert run_modelcheck(*bounds, sync_fn=recording).ok
    assert {outcome: seen[outcome] for outcome in outcomes} == outcomes
    assert sum(seen.values()) == sum(outcomes.values())


def _recording(sync_fn, successes):
    """``sync_fn``, appending each successful result to ``successes``."""

    def recording(source, action, aid, gs):
        result = sync_fn(source, action, aid, gs)
        if result.ok:
            successes.append(result)
        return result

    return recording


def test_a_generic_layer_fault_is_caught_on_every_success(monkeypatch):
    """The generic layer is consulted once per move, but a fault in it is
    still reported for each successful sync of that move."""

    def flipped(*args):
        result = sync_all(*args)
        if result is None:
            return None
        cell = min(result.table)
        state = "FROZEN" if result.table[cell] == "ACTIVE" else "ACTIVE"
        return DomainStateMap(result.domains, {**result.table, cell: state})

    monkeypatch.setattr(modelcheck, "sync_all", flipped)
    successes = []
    result = run_modelcheck(2, 1, 1, sync_fn=_recording(engine.sync, successes))
    verdicts = [(ce.rule, ce.detail) for ce in result.counterexamples]
    assert verdicts == [("generic_agreement", "projections differ")] * 48
    assert len(successes) == 48


def test_a_renamed_asset_id_makes_another_state():
    """A state that differs from an initial one only in a cell's asset_id
    is not that initial state: at D=1/A=1, _rename_asset's successes of
    the 5 initial states reach the 5 states that rename a1's record."""
    assert run_modelcheck(1, 1, 2, sync_fn=_rename_asset).states_explored == 10


@pytest.mark.parametrize("sync_fn, diagnosed_share, broken", [
    (engine.sync, 0, set()), (_rename_asset, 1, {"asset_id_untouched"}),
], ids=["engine", "asset_id_renamed"])
def test_only_a_mismatch_is_diagnosed(monkeypatch, sync_fn, diagnosed_share, broken):
    """The engine's successes all match their prescribed successors. A
    successor that differs only in the synced cell's asset_id never
    matches: each of its successes is diagnosed, and breaks
    asset_id_untouched alone."""
    diagnosed, violations = [], modelcheck._violations

    def diagnosis(*args):
        diagnosed.append(args)
        return violations(*args)

    monkeypatch.setattr(modelcheck, "_violations", diagnosis)
    successes = []
    result = run_modelcheck(2, 2, 1, sync_fn=_recording(sync_fn, successes))
    assert rules(result) == broken
    assert successes and len(diagnosed) == diagnosed_share * len(successes)


def _split_assets(gs: engine.GlobalState) -> list[str]:
    """The assets of ``gs`` whose holders read more than one state, sorted."""
    states: dict = {}
    for table in gs.chains.values():
        for aid, rec in table.items():
            states.setdefault(aid, set()).add(rec.reg_state)
    return sorted(aid for aid, seen in states.items() if len(seen) > 1)


def reference_violations(
    gs: engine.GlobalState,
    valid: bool,
    projection: DomainStateMap,
    step: SyncCommand,
    result: engine.SyncResult,
    spec: StateMachineSpec,
) -> Iterator[tuple[str, str]]:
    """The (rule, detail) of each guarantee that one sync from ``gs``
    breaks; a success on a held lock breaks lock_respected. ``valid`` and
    ``projection`` are ``engine.valid_state(gs)`` and
    ``modelcheck.to_domain_state_map(gs)``, computed once per explored state.
    It states every rule itself, reading neither preservation.judge nor
    modelcheck._prescribed, and compares states with ``!=``, as judge does.
    Agreement closure (valid_agreement, once per asset the sync splits)
    asks only that every asset agree before; valid_state_preservation asks
    that ``gs`` be valid and reads only the locks the sync left held."""
    current = engine.get_reg_state(gs, step.source, step.asset)
    expected = None if current is None else reg_transition(current, step.action)
    was_locked = step.asset in gs.locks
    premises = valid and expected is not None and not was_locked
    if not result.ok:
        if premises:
            yield "combined_success", f"sync failed with {result.reason.value}"
        return

    gs2 = result.state
    for c in sorted(engine.connected_chains(gs, step.asset)):
        if engine.get_reg_state(gs2, c, step.asset) != expected:
            yield "cross_domain_consistency", f"chain {c} disagrees"
    for c, table in gs.chains.items():
        for aid, rec in table.items():
            if aid != step.asset and gs2.chains.get(c, {}).get(aid) != rec:
                yield "sync_isolation", f"cell ({c}, {aid}) changed"
    for c, table in gs2.chains.items():
        for aid in table:
            if aid not in gs.chains.get(c, {}):
                yield "sync_isolation", f"cell ({c}, {aid}) appeared"
    if gs2.chains.keys() != gs.chains.keys():
        yield "domain_set_changed", f"chains {sorted(gs.chains)} became {sorted(gs2.chains)}"
    if not _split_assets(gs):
        for _ in _split_assets(gs2):
            yield "valid_agreement", ""
    for c, table in gs.chains.items():
        if step.asset in table:
            after = gs2.chains.get(c, {}).get(step.asset)
            if after is None or after.owner != table[step.asset].owner:
                yield "owner_untouched", f"cell ({c}, {step.asset})"
            if after is not None and after.asset_id != step.asset:
                yield "asset_id_untouched", f"cell ({c}, {step.asset})"
    if step.asset in gs2.locks:
        yield "lock_released", ""
    if valid and gs2.locks:
        yield "valid_state_preservation", ""

    # Generic/concrete agreement on the multi-domain projection.
    if was_locked:
        yield "lock_respected", ""
    elif step.source in gs.chains:
        # ``_value_`` equals ``.value`` without the Python-level descriptor call.
        generic = sync_all(projection, step.source, step.action._value_, step.asset, spec)
        if generic is None:
            yield "generic_agreement", "generic sync_all failed where sync succeeded"
        elif dict(generic.table) != dict(modelcheck.to_domain_state_map(gs2).table):
            yield "generic_agreement", "projections differ"
    else:  # sync_all has no source chain to sync from
        yield "generic_agreement", "generic sync_all failed where sync succeeded"


CHAINS, ASSETS = ("c1", "c2", "c3"), ("a1", "a2", "a3")
STATES = st.sampled_from(list(RegState))
OWNERS = st.sampled_from(["o", "p"])


@st.composite
def checked_states(draw):
    """States over few names: valid ones, and ones with held locks, cells
    that disagree across chains, or empty chains."""
    agreed = {aid: draw(STATES) for aid in ASSETS}
    consistent = draw(st.booleans())
    chains = {
        c: {
            aid: engine.AssetState(aid, agreed[aid] if consistent else draw(STATES), draw(OWNERS))
            for aid in draw(st.lists(st.sampled_from(ASSETS), unique=True))
        }
        for c in draw(st.lists(st.sampled_from(CHAINS), unique=True))
    }
    locks = draw(st.just(frozenset()) | st.frozensets(st.sampled_from(ASSETS)))
    return engine.GlobalState(chains, locks)


# The checker's scope: the names of CHAINS and ASSETS.
SPACE = frozenset(CHAINS), frozenset(ASSETS)


@st.composite
def scope_states(draw):
    """States over exactly CHAINS and ASSETS whose cells are enumerated
    records: each asset on a non-empty set of chains, in one state, owned by
    "owner", its lock held or free."""
    chains = {c: {} for c in CHAINS}
    for aid in ASSETS:
        cell = engine.AssetState(aid, draw(STATES), "owner")
        for c in draw(st.lists(st.sampled_from(CHAINS), min_size=1, unique=True)):
            chains[c][aid] = cell
    return engine.GlobalState(chains, draw(st.frozensets(st.sampled_from(ASSETS))))


# One edit of a successor: put, drop or lock a cell, put a cell whose
# asset_id is not its key, or drop a chain.
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["put", "remove", "lock", "unlock", "rename", "drop_chain"]),
        st.sampled_from(CHAINS), st.sampled_from(ASSETS), STATES, OWNERS,
    ),
    max_size=3,
)


def _edited(gs, edits):
    """``gs`` after ``edits``; each edit copies only the table it touches."""
    chains, locks = dict(gs.chains), gs.locks
    for kind, c, aid, state, owner in edits:
        if kind in ("put", "rename"):
            rec = engine.AssetState(aid if kind == "put" else "zz", state, owner)
            chains[c] = {**chains.get(c, {}), aid: rec}
        elif kind == "remove" and aid in chains.get(c, {}):
            chains[c] = {a: rec for a, rec in chains[c].items() if a != aid}
        elif kind == "lock":
            locks = locks | {aid}
        elif kind == "unlock":
            locks = locks - {aid}
        elif kind == "drop_chain":
            chains.pop(c, None)
    return engine.GlobalState(chains, locks)


def _results(gs, step, edits):
    """What a sync_fn may return for ``step`` from ``gs``: the engine's
    result, its result with the asset's lock ignored, each failure, and
    hand-made successors of the engine's state (of ``gs`` where the engine
    fails)."""
    real = engine.sync(step.source, step.action, step.asset, gs)
    unlocked = engine.GlobalState(gs.chains, gs.locks - {step.asset})
    base = real.state or gs
    successors = [
        engine.GlobalState(base.chains, base.locks),  # every table shared
        engine.GlobalState({c: dict(t) for c, t in base.chains.items()}, base.locks),  # rebuilt
        engine.GlobalState(base.chains, base.locks | {step.asset}),  # the lock left held
        _edited(base, edits),
    ]
    return [real, engine.sync(step.source, step.action, step.asset, unlocked)] + [
        SyncResult.failure(r) for r in SyncFailure
    ] + [SyncResult.success(s) for s in successors]


def _prescription(gs, step):
    """The (chains, locks) the rules prescribe for ``step`` from ``gs``: each
    holder's cell of the asset takes the target state. None where the sync
    must fail: the move is undefined or the asset's lock is held."""
    current = engine.get_reg_state(gs, step.source, step.asset)
    target = None if current is None else reg_transition(current, step.action)
    if target is None or step.asset in gs.locks:
        return None
    chains = {
        c: {**t, step.asset: replace(t[step.asset], reg_state=target)} if step.asset in t else t
        for c, t in gs.chains.items()
    }
    return chains, gs.locks


@settings(max_examples=150, deadline=None)
@given(checked_states() | scope_states(), EDITS)
def test_checker_matches_the_reference(gs, edits):
    """run_modelcheck's per-state checker reports, in order, exactly what
    the full rule scan reports, for every step and every kind of result,
    each through a visitor built over that one step. It yields each
    successor with its step, but for the prescribed successor of an
    initial state (a state _key gives no key, which explore draws with
    an empty trail), which is an initial state itself and which it does
    not yield. Any other state is visited one step past its initial state."""
    spec = reg_machine_spec()
    valid, projection = engine.valid_state(gs), modelcheck.to_domain_state_map(gs)
    found, pending = [], []
    initial = modelcheck._key(gs, *SPACE) is None
    trail = () if initial else (SyncCommand("c1", RegAction.FREEZE, "a1"),)

    def checked(step, result):
        found.clear()
        pending.append(result)
        visit = modelcheck._visitor(lambda *_: pending.pop(), found, [step])
        got, gs2 = list(visit(gs, (gs, trail))), result.state
        if gs2 is None:
            assert got == []
        elif initial and _prescription(gs, step) == (gs2.chains, gs2.locks):
            assert got == []
            assert engine.valid_state(gs2) and modelcheck._key(gs2, *SPACE) is None
        else:
            [(taken, got_state)] = got
            assert taken is step and got_state is gs2
        assert all(ce.initial is gs and ce.steps == trail + (step,) for ce in found)
        return [(ce.rule, ce.detail) for ce in found]

    for c, action, aid in itertools.product(CHAINS, RegAction, ASSETS):
        step = SyncCommand(c, action, aid)
        for result in _results(gs, step, edits):
            expected = list(reference_violations(gs, valid, projection, step, result, spec))
            assert checked(step, result) == expected, (step, result)


def test_a_success_on_a_held_lock_breaks_lock_respected():
    """A held lock has no prescribed success. Where engine.sync fails with
    Locked, each success of a sync_fn that ignores the lock is reported."""
    cell = engine.AssetState("a1", RegState.ACTIVE, "owner")
    gs = engine.GlobalState({"c1": {"a1": cell}, "c2": {"a1": cell}}, frozenset({"a1"}))
    steps = [SyncCommand(c, a, "a1") for c in ("c1", "c2") for a in RegAction]

    def ignore_locks(source, action, aid, gs):
        return engine.sync(source, action, aid, engine.GlobalState(gs.chains, frozenset()))

    found = []
    successes = [step for step, _ in modelcheck._visitor(ignore_locks, found, steps)(gs, (gs, ()))]
    assert successes
    assert all(engine.sync(s.source, s.action, s.asset, gs).reason is SyncFailure.LOCKED
               for s in successes)
    assert [(ce.rule, ce.steps) for ce in found] == [
        ("lock_respected", (step,)) for step in successes
    ]


class TestCombinedSuccess:
    """The combined guarantee: when the state is valid, the transition is
    defined and the asset is unlocked, the sync succeeds."""

    def test_fires_for_a_failed_sync_whose_premises_hold(self):
        assert run_modelcheck(2, 1, 1).ok
        result = run_modelcheck(2, 1, 1, sync_fn=_fail_freeze)
        ce = result.counterexamples[0]
        assert (ce.rule, ce.detail) == ("combined_success", "sync failed with Locked")
        steps = [(s.source, s.action, s.asset) for s in ce.steps]
        assert steps == [("c1", RegAction.FREEZE, "a1")]

    def test_silent_on_a_locked_asset(self):
        reasons = []

        def recording(source, action, aid, gs):
            result = _mutant_skip_release(source, action, aid, gs)
            reasons.append(result.reason)
            return result

        # The mutant leaves each synced asset locked, so every defined
        # transition from those states fails with Locked; its premises
        # (no lock held) are unmet and nothing is reported for them.
        result = run_modelcheck(2, 1, 2, sync_fn=recording)
        assert SyncFailure.LOCKED in reasons
        assert "combined_success" not in rules(result)

    def test_silent_on_an_undefined_transition(self):
        reasons = []

        def recording(source, action, aid, gs):
            result = engine.sync(source, action, aid, gs)
            reasons.append(result.reason)
            return result

        assert run_modelcheck(2, 1, 1, sync_fn=recording).ok
        assert SyncFailure.INVALID_TRANSITION in reasons


@pytest.mark.parametrize("bounds", [(1, 1, 0), (1, 1, -3), (0, 1, 2), (1, 0, 2)])
def test_bounds_below_one_are_refused(bounds):
    # Each of these would check no sync and report ok.
    with pytest.raises(ValueError, match="at least 1"):
        run_modelcheck(*bounds)


def test_budget_is_decided_before_anything_is_built(monkeypatch):
    def built(*_):
        raise AssertionError("built a step or an initial state before the budget check")

    monkeypatch.setattr(modelcheck, "chain_names", built)
    monkeypatch.setattr(modelcheck, "enumerate_initial_states", built)
    with pytest.raises(BudgetExceededError) as info:
        run_modelcheck(10**6, 10**6, 1, budget=10)
    assert info.value.budget == 10


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_the_checkers_ignore_regsync_budget(monkeypatch, raw):
    """Only ``regsync modelcheck`` reads REGSYNC_BUDGET: a checker called
    without a budget takes the default whatever the variable holds."""
    spec = reg_machine_spec()
    ds = DomainStateMap(frozenset({"d1", "d2"}),
                        {("d1", "a1"): RegState.ACTIVE, ("d2", "a1"): RegState.ACTIVE})

    def checks():
        return (run_modelcheck(1, 1, 1), check_multi_domain(ds, spec, 2),
                check_sequential_preservation(identity_morphism(spec), 2))

    monkeypatch.delenv("REGSYNC_BUDGET", raising=False)
    unset = checks()
    monkeypatch.setenv("REGSYNC_BUDGET", raw)
    assert checks() == unset


def test_budget_decision_matches_the_exact_count():
    """The check raises exactly when the first level's syncs exceed the
    budget, naming a count past the budget and within the true one, or
    none, only where the holder subsets alone exceed it."""
    for d in range(1, 6):
        for a in range(1, 4):
            needed = initial_state_count(d, a) * d * len(RegAction) * a
            for budget in (needed - 1, needed, needed + 1, 0, 10):
                if needed <= budget:
                    modelcheck._check_budget(d, a, budget)
                    continue
                with pytest.raises(BudgetExceededError) as raised:
                    modelcheck._check_budget(d, a, budget)
                reached = raised.value.needed
                if reached is None:
                    assert 2**d - 1 > budget, (d, a, budget)
                else:
                    assert budget < reached <= needed, (d, a, budget)


def _initial_states_through_make(n_chains, n_assets):
    """The initial states as first enumerated: each one passed through
    GlobalState.make, which copies every table and resets every asset_id."""
    chains = modelcheck.chain_names(n_chains)
    subsets = [
        combo for size in range(1, n_chains + 1) for combo in itertools.combinations(chains, size)
    ]
    per_asset = [(subset, state) for subset in subsets for state in RegState]
    for assignment in itertools.product(per_asset, repeat=n_assets):
        tables = {c: {} for c in chains}
        for aid, (subset, state) in zip(modelcheck.asset_names(n_assets), assignment):
            for c in subset:
                tables[c][aid] = engine.AssetState(aid, state, owner="owner")
        yield engine.GlobalState.make(tables)


@pytest.mark.parametrize("bounds", [(2, 2), (3, 1)])
def test_initial_states_equal_the_make_built_ones(bounds):
    built = list(modelcheck.enumerate_initial_states(*bounds))
    reference = list(_initial_states_through_make(*bounds))
    assert len(built) == initial_state_count(*bounds)
    assert [modelcheck._state_key(gs) for gs in built] == [
        modelcheck._state_key(gs) for gs in reference
    ]
    assert built == reference
    assert all(
        rec.asset_id == aid for gs in built for table in gs.chains.values()
        for aid, rec in table.items()
    )


def test_initial_states_share_one_record_per_asset_and_state():
    states = list(modelcheck.enumerate_initial_states(3, 2))
    records = {id(rec) for gs in states for table in gs.chains.values() for rec in table.values()}
    assert len(records) == 2 * len(RegState)


def test_the_holders_of_a_prescribed_successor_share_one_cell():
    gs = next(
        gs for gs in modelcheck.enumerate_initial_states(3, 1)
        if len(engine.connected_chains(gs, "a1")) == 3
        and gs.chains["c1"]["a1"].reg_state is RegState.ACTIVE
    )
    step = SyncCommand("c2", RegAction.FREEZE, "a1")
    chains, _ = modelcheck._prescribed(
        gs, modelcheck.to_domain_state_map(gs), step, RegState.FROZEN, reg_machine_spec(),
        engine.connected_chains(gs, "a1"),
    )
    cells = [table["a1"] for table in chains.values()]
    assert len(cells) == 3 and all(cell is cells[0] for cell in cells)
    assert cells[0] is engine.cell("a1", RegState.FROZEN, "owner")
    assert cells[0] == engine.AssetState("a1", RegState.FROZEN, "owner")


def test_prescribed_cells_are_built_once_per_value():
    """_prescribed gives every successor whose new cell has one (asset_id,
    state, owner) the same record: engine.cell's."""
    active = [gs for gs in modelcheck.enumerate_initial_states(2, 1)
              if engine.get_reg_state(gs, "c1", "a1") is RegState.ACTIVE]
    step, spec = SyncCommand("c1", RegAction.FREEZE, "a1"), reg_machine_spec()
    made = [modelcheck._prescribed(gs, modelcheck.to_domain_state_map(gs), step, RegState.FROZEN,
                                   spec, engine.connected_chains(gs, "a1"))[0]["c1"]["a1"]
            for gs in active]
    assert len(made) == 2 and made[0] is made[1]
    assert made[0] is engine.cell("a1", RegState.FROZEN, "owner")


def test_the_visitor_scans_an_assets_holders_once_per_state(monkeypatch):
    """In one run, modelcheck scans an asset's holders at most once per
    explored state, however many of the state's moves on that asset need a
    prescription. The engine's own scans, inside engine.sync, are not
    counted: only modelcheck's view of the engine is wrapped."""
    scans = Counter()

    class CountingEngine:
        def __getattr__(self, name):
            return getattr(engine, name)

        def connected_chains(self, gs, aid):
            scans[modelcheck._state_key(gs), aid] += 1
            return engine.connected_chains(gs, aid)

    monkeypatch.setattr(modelcheck, "engine", CountingEngine())
    result = run_modelcheck(3, 2, 1)
    assert (result.states_explored, result.syncs_checked, result.ok) == (1225, 51450, True)
    assert scans and max(scans.values()) == 1


def _fresh_cells(sync_fn):
    """``sync_fn`` with each cell its success changed rebuilt as a fresh
    AssetState of the same fields, never one from engine.cell."""

    def fresh(source, action, aid, gs):
        result = sync_fn(source, action, aid, gs)
        if not result.ok:
            return result
        chains = {
            c: {a: rec if rec is gs.chains.get(c, {}).get(a)
                else engine.AssetState(rec.asset_id, rec.reg_state, rec.owner)
                for a, rec in table.items()}
            for c, table in result.state.chains.items()
        }
        return SyncResult.success(engine.GlobalState(chains, result.state.locks))

    return fresh


def test_a_correct_engine_with_fresh_cells_matches_by_value(monkeypatch):
    """Identity is only a shortcut: successes whose new cells are equal to
    the prescribed ones but other objects all match, by value, and the
    run reads as with the engine's own cells."""
    diagnosed, violations, synced, fresh = [], modelcheck._violations, [], _fresh_cells(engine.sync)
    monkeypatch.setattr(modelcheck, "_violations",
                        lambda *args: diagnosed.append(args) or violations(*args))

    def recording(source, action, aid, gs):
        result = fresh(source, action, aid, gs)
        if result.ok:
            synced.extend(table[aid] for table in result.state.chains.values() if aid in table)
        return result

    result = run_modelcheck(3, 2, 2, sync_fn=recording)
    assert (result.states_explored, result.syncs_checked, len(result.counterexamples)) == (
        1_225, 51_450, 0
    )
    assert diagnosed == [] and len(synced) > 10_080
    assert not any(rec is engine.cell(rec.asset_id, rec.reg_state, rec.owner) for rec in synced)


@pytest.mark.parametrize("mutant", [
    _mutant_skip_target, _mutant_skip_release, _mutant_allow_seized_freeze,
])
def test_acceptance_mutants_with_fresh_cells_are_still_caught(mutant):
    plain = run_modelcheck(2, 1, 2, sync_fn=mutant)
    fresh = run_modelcheck(2, 1, 2, sync_fn=_fresh_cells(mutant))
    assert not fresh.ok and fresh.counterexamples == plain.counterexamples
