import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from regsync import engine, modelcheck
from regsync.engine import SyncFailure
from regsync.locales import check_consistent_init
from regsync.preservation import sync_all
from regsync.priority import AuthorityLevel
from regsync.regulatory import RegAction, RegState, reg_machine_spec, reg_transition

from conftest import make_state


def snapshot_locked(gs, c, aid):
    """The ``locked`` flag the JSON form shows for cell (c, aid)."""
    return engine.to_json_dict(gs)["chains"][c][aid]["locked"]


def snapshot_agrees_with_locks(gs):
    """Every cell sits under its own asset id and its JSON ``locked`` flag
    says whether the lock set holds its asset."""
    doc = engine.to_json_dict(gs)["chains"]
    return all(
        rec.asset_id == aid and doc[c][aid]["locked"] == (aid in gs.locks)
        for c, table in gs.chains.items()
        for aid, rec in table.items()
    )


class TestReads:
    def test_get_reg_state(self, two_chain_active):
        assert engine.get_reg_state(two_chain_active, "c1", "a1") is RegState.ACTIVE

    def test_absent_asset(self, two_chain_active):
        assert engine.get_reg_state(two_chain_active, "c2", "a2") is None

    def test_unknown_chain(self, two_chain_active):
        assert engine.get_reg_state(two_chain_active, "c9", "a1") is None

    def test_connected_chains(self, two_chain_active):
        assert engine.connected_chains(two_chain_active, "a1") == ["c1", "c2"]
        assert engine.connected_chains(two_chain_active, "a2") == ["c1"]
        assert engine.connected_chains(two_chain_active, "nowhere") == []
        # The holders come in the state's chain order, not in name order.
        gs = make_state({"c3": {"a1": RegState.ACTIVE}, "c1": {"a1": RegState.ACTIVE},
                         "c2": {"a2": RegState.ACTIVE}})
        assert engine.connected_chains(gs, "a1") == ["c3", "c1"]


class TestLocks:
    def test_acquire_then_release(self, two_chain_active):
        locked = engine.acquire_lock(two_chain_active, "a1")
        assert "a1" in locked.locks
        assert snapshot_locked(locked, "c1", "a1")
        # reg states untouched
        for c in ("c1", "c2"):
            assert locked.chains[c]["a1"].reg_state is RegState.ACTIVE
        released = engine.release_lock(locked, "a1")
        assert "a1" not in released.locks
        assert not snapshot_locked(released, "c1", "a1")

    def test_double_acquire_fails(self, two_chain_active):
        locked = engine.acquire_lock(two_chain_active, "a1")
        assert engine.acquire_lock(locked, "a1") is None

    def test_lock_is_per_asset(self, two_chain_active):
        locked = engine.acquire_lock(two_chain_active, "a2")
        assert "a1" not in locked.locks

    def test_release_of_free_lock_is_identity(self, two_chain_active):
        assert engine.release_lock(two_chain_active, "a1") == two_chain_active

    def test_input_never_mutated(self, two_chain_active):
        engine.acquire_lock(two_chain_active, "a1")
        assert "a1" not in two_chain_active.locks

    def test_mirror_consistency(self, two_chain_active):
        locked = engine.acquire_lock(two_chain_active, "a1")
        assert snapshot_agrees_with_locks(locked)
        assert snapshot_agrees_with_locks(engine.release_lock(locked, "a1"))

    def test_lock_steps_share_the_chain_tables(self, two_chain_active):
        locked = engine.acquire_lock(two_chain_active, "a1")
        assert locked.chains is two_chain_active.chains
        released = engine.release_lock(locked, "a1")
        assert released.chains is two_chain_active.chains
        assert released.locks == frozenset()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_release_undoes_acquire(self, data):
        gs = data.draw(made_states() | stepped_states())
        free = sorted({aid for table in gs.chains.values() for aid in table} - gs.locks)
        if free:
            aid = data.draw(st.sampled_from(free))
            assert engine.release_lock(engine.acquire_lock(gs, aid), aid) == gs


class TestUpdateAllChains:
    def test_updates_exactly_targets(self, two_chain_active):
        updated = engine.update_all_chains(
            two_chain_active, "a1", RegState.FROZEN, frozenset({"c1", "c2"})
        )
        assert updated.chains["c1"]["a1"].reg_state is RegState.FROZEN
        assert updated.chains["c2"]["a1"].reg_state is RegState.FROZEN
        assert updated.chains["c1"]["a2"] == two_chain_active.chains["c1"]["a2"]

    def test_empty_targets_is_identity(self, two_chain_active):
        assert (
            engine.update_all_chains(two_chain_active, "a1", RegState.FROZEN, frozenset())
            == two_chain_active
        )

    def test_missing_target_asserts(self, two_chain_active):
        with pytest.raises(AssertionError):
            engine.update_all_chains(
                two_chain_active, "a2", RegState.FROZEN, frozenset({"c2"})
            )

    def test_keeps_a_held_lock_mirrored(self, two_chain_active):
        locked = engine.acquire_lock(two_chain_active, "a1")
        updated = engine.update_all_chains(locked, "a1", RegState.FROZEN, frozenset({"c1"}))
        assert snapshot_locked(updated, "c1", "a1")
        assert snapshot_agrees_with_locks(updated)

    def test_holders_that_share_a_record_share_one_new_record(self, monkeypatch):
        """A sync of an asset whose three holders share one record makes
        one engine.cell call, and its record is each holder's new cell."""
        rec, calls, cell = engine.AssetState("a1", RegState.ACTIVE, "o"), [], engine.cell
        monkeypatch.setattr(engine, "cell", lambda *args: calls.append(args) or cell(*args))
        gs = engine.GlobalState({c: {"a1": rec} for c in ("c1", "c2", "c3")}, frozenset())
        updated = engine.sync("c1", RegAction.FREEZE, "a1", gs).state
        assert calls == [("a1", RegState.FROZEN, "o")]
        assert all(table["a1"] is cell(*calls[0]) for table in updated.chains.values())


class TestSync:
    def test_sync_keeps_no_closure_cell(self):
        """A comprehension in sync that reads ``aid`` would make ``aid`` a
        cell variable, which slows every failed sync on CPython 3.11."""
        assert engine.sync.__code__.co_cellvars == ()
        assert engine.sync.__code__.co_freevars == ()

    def test_successful_freeze(self, two_chain_active):
        result = engine.sync("c1", RegAction.FREEZE, "a1", two_chain_active)
        assert result.ok
        gs = result.state
        assert engine.get_reg_state(gs, "c1", "a1") is RegState.FROZEN
        assert engine.get_reg_state(gs, "c2", "a1") is RegState.FROZEN
        assert "a1" not in gs.locks
        assert engine.valid_state(gs)

    def test_asset_not_found(self, two_chain_active):
        result = engine.sync("c2", RegAction.FREEZE, "a2", two_chain_active)
        assert result.reason is SyncFailure.ASSET_NOT_FOUND

    def test_invalid_transition(self):
        gs = make_state({"c1": {"a1": RegState.CONFISCATED}})
        for action in RegAction:
            result = engine.sync("c1", action, "a1", gs)
            assert result.reason is SyncFailure.INVALID_TRANSITION

    def test_locked(self, two_chain_active):
        locked = engine.acquire_lock(two_chain_active, "a1")
        result = engine.sync("c1", RegAction.FREEZE, "a1", locked)
        assert result.reason is SyncFailure.LOCKED
        assert "a1" in locked.locks  # input untouched

    @pytest.mark.parametrize("source, action, aid, lock, reason", [
        ("c2", RegAction.FREEZE, "a2", False, SyncFailure.ASSET_NOT_FOUND),
        ("c1", RegAction.UNFREEZE, "a1", False, SyncFailure.INVALID_TRANSITION),
        ("c1", RegAction.FREEZE, "a1", True, SyncFailure.LOCKED),
    ])
    def test_a_failure_is_the_shared_result_of_its_reason(
        self, two_chain_active, source, action, aid, lock, reason
    ):
        """sync returns its failures from module globals; each must be the
        one result SyncResult.failure gives for its reason."""
        gs = engine.acquire_lock(two_chain_active, aid) if lock else two_chain_active
        result = engine.sync(source, action, aid, gs)
        assert result is engine.SyncResult.failure(reason)
        assert result.reason is reason and result.state is None

    @pytest.mark.parametrize("source, action, aid, lock, reason, steps", [
        ("c1", RegAction.FREEZE, "a1", False, None,
         ["reg_transition", "acquire_lock", "update_all_chains", "release_lock"]),
        ("c2", RegAction.FREEZE, "a2", False, SyncFailure.ASSET_NOT_FOUND, []),
        ("c1", RegAction.UNFREEZE, "a1", False, SyncFailure.INVALID_TRANSITION,
         ["reg_transition"]),
        ("c1", RegAction.FREEZE, "a1", True, SyncFailure.LOCKED,
         ["reg_transition", "acquire_lock"]),
        # The move is validated before the lock is tried: an undefined move
        # on a held lock fails InvalidTransition and never touches the lock.
        ("c1", RegAction.UNFREEZE, "a1", True, SyncFailure.INVALID_TRANSITION,
         ["reg_transition"]),
    ])
    def test_sync_calls_each_step_it_takes_once(
        self, monkeypatch, two_chain_active, source, action, aid, lock, reason, steps
    ):
        """sync reaches its steps through the engine module's attributes, one
        call per step taken, so a tracer that patches them sees each step."""
        gs = engine.acquire_lock(two_chain_active, aid) if lock else two_chain_active
        expected, calls = engine.sync(source, action, aid, gs), []
        for name in ("reg_transition", "acquire_lock", "update_all_chains", "release_lock"):
            def counted(*args, name=name, step=getattr(engine, name)):
                calls.append(name)
                return step(*args)
            monkeypatch.setattr(engine, name, counted)
        result = engine.sync(source, action, aid, gs)
        assert result == expected and result.reason is reason
        assert calls == steps

    def test_other_assets_bit_identical(self, two_chain_active):
        result = engine.sync("c1", RegAction.SEIZE, "a1", two_chain_active)
        assert result.state.chains["c1"]["a2"] == two_chain_active.chains["c1"]["a2"]

    def test_owner_untouched(self, two_chain_active):
        result = engine.sync("c1", RegAction.SEIZE, "a1", two_chain_active)
        assert result.state.chains["c1"]["a1"].owner == "owner"

    def test_chains_without_the_asset_keep_their_tables(self):
        gs = make_state({
            "c1": {"a1": RegState.ACTIVE, "a2": RegState.ACTIVE},
            "c2": {"a1": RegState.ACTIVE},
            "c3": {"a2": RegState.ACTIVE},
            "c4": {},
        })
        result = engine.sync("c1", RegAction.FREEZE, "a2", gs)
        assert result.ok
        for c in ("c2", "c4"):
            assert result.state.chains[c] is gs.chains[c]
        for c in ("c1", "c3"):
            assert result.state.chains[c] is not gs.chains[c]


class TestValidState:
    def test_agreeing_unlocked_state(self, two_chain_active):
        assert engine.valid_state(two_chain_active)

    def test_disagreement_fails(self):
        gs = make_state({"c1": {"a1": RegState.ACTIVE}, "c2": {"a1": RegState.FROZEN}})
        assert not engine.valid_state(gs)

    def test_held_lock_fails(self, two_chain_active):
        assert not engine.valid_state(engine.acquire_lock(two_chain_active, "a1"))


class TestGenericBridge:
    def test_projection_is_consistent(self, two_chain_active):
        assert check_consistent_init(modelcheck.to_domain_state_map(two_chain_active)).ok

    def test_sync_agrees_with_generic_sync_all(self, two_chain_active):
        sm = reg_machine_spec()
        for action in RegAction:
            concrete = engine.sync("c1", action, "a1", two_chain_active)
            generic = sync_all(
                modelcheck.to_domain_state_map(two_chain_active), "c1", action.value, "a1", sm
            )
            assert concrete.ok == (generic is not None)
            if concrete.ok:
                assert dict(modelcheck.to_domain_state_map(concrete.state).table) == dict(
                    generic.table
                )


class TestCanonicalJson:
    def test_round_trip(self, two_chain_active):
        text = engine.canonical_dumps(two_chain_active)
        parsed = engine.from_json_dict(__import__("json").loads(text))
        assert engine.canonical_dumps(parsed) == text
        assert parsed == two_chain_active

    def test_keys_sorted(self, two_chain_active):
        text = engine.canonical_dumps(two_chain_active)
        assert text.index('"chains"') < text.index('"locks"')
        assert text.endswith("\n")


class TestStoredEnumValues:
    """A member's stored ``_value_``, its public ``.value`` and the text the
    JSON form and the generic projection carry must never differ."""

    @pytest.mark.parametrize("enum_type", [RegState, RegAction, SyncFailure])
    def test_stored_value_is_the_public_value(self, enum_type):
        for member in enum_type:
            assert member._value_ == member.value

    STATE_NAMES = ["ACTIVE", "FROZEN", "SEIZED", "CONFISCATED", "RESTRICTED"]

    def test_json_form_and_projection_carry_the_state_names(self):
        assert [s.value for s in RegState] == self.STATE_NAMES
        table = {f"a{i}": engine.AssetState(f"a{i}", s, "o") for i, s in enumerate(RegState)}
        gs = engine.GlobalState({"c1": table}, {})
        cells = engine.to_json_dict(gs)["chains"]["c1"]
        assert [cells[f"a{i}"]["state"] for i in range(5)] == self.STATE_NAMES
        projection = modelcheck.to_domain_state_map(gs).table
        assert [projection[("c1", f"a{i}")] for i in range(5)] == self.STATE_NAMES

    def test_state_line_table_is_the_json_dumps_form(self):
        assert set(engine._STATE_LINES) == {s.value for s in RegState}
        for s in RegState:
            line = f'        "state": {json.dumps(s.value)}\n'
            assert engine._STATE_LINES[s.value] == line
            gs = engine.GlobalState({"c1": {"a1": engine.AssetState("a1", s, "o")}}, {})
            assert line in reference_canonical_dumps(gs)


def reference_canonical_dumps(gs):
    """The canonical form as first defined, through the stdlib encoder;
    engine.canonical_dumps must match it byte for byte."""
    return json.dumps(engine.to_json_dict(gs), sort_keys=True, indent=2) + "\n"


# Names mix plain identifiers, characters JSON must escape, non-ASCII text,
# astral-plane characters and lone surrogates (json.loads yields those too).
NAMES = st.one_of(
    st.sampled_from(["c1", "a1", "", '"', "\\", "\n", "\x00", "\x7f", "é", "😀", "\ud800"]),
    st.text(st.characters(exclude_categories=()), max_size=6),
)
REG_STATES = st.sampled_from(list(RegState))
TABLES = st.dictionaries(NAMES, st.tuples(REG_STATES, NAMES), max_size=4)


@st.composite
def made_states(draw):
    """States built through GlobalState.make, with held, explicit-false
    and absent lock entries."""
    chains = draw(st.dictionaries(NAMES, TABLES, max_size=4))
    assets = sorted({aid for table in chains.values() for aid in table})
    lock_keys = st.sampled_from(assets) | NAMES if assets else NAMES
    locks = draw(st.dictionaries(lock_keys, st.booleans(), max_size=4))
    return engine.GlobalState.make(
        {
            c: {aid: engine.AssetState(aid, reg, owner) for aid, (reg, owner) in table.items()}
            for c, table in chains.items()
        },
        locks,
    )


@st.composite
def stepped_states(draw):
    """States built as GlobalState(chains, locks) and then moved by
    acquire_lock, update_all_chains and release_lock."""
    chains = draw(st.dictionaries(NAMES, TABLES, max_size=4))
    gs = engine.GlobalState(
        {
            c: {aid: engine.AssetState(aid, reg, owner) for aid, (reg, owner) in table.items()}
            for c, table in chains.items()
        },
        frozenset(),
    )
    assets = sorted({aid for table in chains.values() for aid in table})
    if not assets:
        return gs
    ops = st.tuples(st.sampled_from(["acquire", "update", "release"]),
                    st.sampled_from(assets), REG_STATES)
    for op, aid, reg in draw(st.lists(ops, max_size=8)):
        if op == "acquire":
            gs = engine.acquire_lock(gs, aid) or gs
        elif op == "update":
            gs = engine.update_all_chains(gs, aid, reg, engine.connected_chains(gs, aid))
        else:
            gs = engine.release_lock(gs, aid)
    return gs


def reference_sync(source, action, aid, gs):
    """engine.sync composed from the public steps, one call per step."""
    current = engine.get_reg_state(gs, source, aid)
    if current is None:
        return engine.SyncResult.failure(SyncFailure.ASSET_NOT_FOUND)
    new_state = reg_transition(current, action)
    if new_state is None:
        return engine.SyncResult.failure(SyncFailure.INVALID_TRANSITION)
    locked = engine.acquire_lock(gs, aid)
    if locked is None:
        return engine.SyncResult.failure(SyncFailure.LOCKED)
    updated = engine.update_all_chains(locked, aid, new_state, engine.connected_chains(gs, aid))
    return engine.SyncResult.success(engine.release_lock(updated, aid))


@st.composite
def sync_calls(draw):
    """A state, held locks and empty tables included, and a sync on it whose
    source and asset may be absent from it."""
    gs = draw(made_states() | stepped_states())
    assets = {aid for table in gs.chains.values() for aid in table} | gs.locks
    source = draw(st.sampled_from(sorted(gs.chains) + ["no such chain"]))
    aid = draw(st.sampled_from(sorted(assets) + ["no such asset"]))
    return source, draw(st.sampled_from(list(RegAction))), aid, gs


def _cells(state, *holders):
    return {c: {"a1": engine.AssetState("a1", state, "o")} for c in holders}


class TestSyncMatchesTheStepComposition:
    @settings(max_examples=400, deadline=None)
    @given(sync_calls())
    # One call per outcome: ok with a chain that does not hold the asset,
    # Locked, InvalidTransition, and AssetNotFound on an empty state.
    @example(("c1", RegAction.FREEZE, "a1",
              engine.GlobalState({**_cells(RegState.ACTIVE, "c1", "c2"), "c3": {}}, frozenset())))
    @example(("c2", RegAction.FREEZE, "a1",
              engine.GlobalState(_cells(RegState.ACTIVE, "c1", "c2"), frozenset({"a1"}))))
    @example(("c1", RegAction.UNFREEZE, "a1",
              engine.GlobalState(_cells(RegState.ACTIVE, "c1"), frozenset())))
    @example(("c1", RegAction.FREEZE, "a1", engine.GlobalState({}, frozenset())))
    def test_same_outcome_and_unchanged_tables_shared(self, call):
        source, action, aid, gs = call
        got, expected = engine.sync(*call), reference_sync(*call)
        assert (got.state, got.reason) == (expected.state, expected.reason)
        if got.ok:
            for c, table in gs.chains.items():
                if aid not in table:
                    assert got.state.chains[c] is table


class TestCanonicalDumpsMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(made_states() | stepped_states())
    @example(engine.GlobalState({}, {}))
    @example(engine.GlobalState.make({"c1": {}, "c2": {}}, {"a1": False}))
    def test_byte_identical(self, gs):
        assert engine.canonical_dumps(gs) == reference_canonical_dumps(gs)


# Asset ids and owners that JSON must escape, or that are non-ASCII or a
# lone surrogate, beside plain ones.
STREAM_ASSETS = ['"', "\\", "é", "\udc80"] + [f"a{i}" for i in range(32)]
STREAM_OWNERS = ['o"', "o\\", "é", "\ud800", "o"]
STREAM_CHAINS = ["c1", "c2", "c3", "c4"]
STREAM_ACTIONS = [a for a in RegAction if a is not RegAction.CONFISCATE]


def snapshot_stream(seed, steps=2000):
    """The initial state and the state after each of ``steps`` seeded steps,
    with the failure reason of each failed sync. Each asset sits on a random
    non-empty subset of 4 chains, with an owner drawn per chain, and 4 locks
    start held. Four steps in five are syncs, mostly from a holder and with
    a defined action; the rest are lock acquires and releases. CONFISCATE,
    which ends an asset's life, is drawn rarely."""
    rng = random.Random(seed)
    chains, holders = {c: {} for c in STREAM_CHAINS}, {}
    for aid in STREAM_ASSETS:
        reg = rng.choice(list(RegState))
        holders[aid] = rng.sample(STREAM_CHAINS, rng.randint(1, len(STREAM_CHAINS)))
        for c in holders[aid]:
            chains[c][aid] = engine.AssetState(aid, reg, rng.choice(STREAM_OWNERS))
    gs = engine.GlobalState(chains, frozenset(rng.sample(STREAM_ASSETS, 4)))
    states, failures = [gs], []
    for _ in range(steps):
        aid, draw = rng.choice(STREAM_ASSETS), rng.random()
        if draw < 0.8:
            source = rng.choice(holders[aid] if rng.random() < 0.9 else STREAM_CHAINS)
            reg = engine.get_reg_state(gs, source, aid)
            defined = [a for a in STREAM_ACTIONS if reg and reg_transition(reg, a)]
            action = rng.choice(defined if defined and rng.random() < 0.7 else STREAM_ACTIONS)
            if rng.random() < 0.005:
                action = RegAction.CONFISCATE
            result = engine.sync(source, action, aid, gs)
            if result.ok:
                gs = result.state
            else:
                failures.append(result.reason)
        elif draw < 0.87:
            gs = engine.acquire_lock(gs, aid) or gs
        else:
            gs = engine.release_lock(gs, aid)
        states.append(gs)
    return states, failures


def rendered_cells(gs):
    """The ``(aid, locked, owner, state)`` of every cell of ``gs``'s JSON form."""
    return {
        (aid, cell["locked"], cell["owner"], cell["state"])
        for table in engine.to_json_dict(gs)["chains"].values()
        for aid, cell in table.items()
    }


def separator(gs, c, aid):
    """The separator after cell ``aid`` of chain ``c`` in the snapshot of
    ``gs``: the chain's closing brace after its last cell in key order."""
    return "\n    }" if aid == max(gs.chains[c]) else ",\n"


def rendered_pieces(gs):
    """The ``_cell_text`` arguments of every cell of ``gs``'s JSON form: its
    ``rendered_cells`` fields and the separator after it."""
    return {
        (aid, cell["locked"], cell["owner"], cell["state"], separator(gs, c, aid))
        for c, table in engine.to_json_dict(gs)["chains"].items()
        for aid, cell in table.items()
    }


@pytest.fixture
def cell_renders(monkeypatch):
    """The arguments of each engine._cell_text call, in order: one call per
    cell text canonical_dumps renders."""
    calls, cell_text = [], engine._cell_text

    def recording(*args):
        calls.append(args)
        return cell_text(*args)

    monkeypatch.setattr(engine, "_cell_text", recording)
    return calls


class TestCellTextCache:
    """canonical_dumps renders a cell's text only when the cell changed; a
    warm memo must render what a cold one does, and render each distinct
    cell seen."""

    def test_cold_and_warm_snapshots_match_the_reference(self, cell_renders):
        states, failures = snapshot_stream(seed=7)
        # The stream reaches every sync outcome and shows held locks.
        assert set(failures) == set(SyncFailure)
        assert any(locked for gs in states for _, locked, _, _ in rendered_cells(gs))
        engine._LAST_SNAPSHOT.clear()
        expected, cold = [], []
        for gs in states:
            expected.append(reference_canonical_dumps(gs))
            cell_renders.clear()
            assert engine.canonical_dumps(gs) == expected[-1]
            cold.append(len(cell_renders))
        warm = []
        for gs, text in zip(states, expected):
            cell_renders.clear()
            assert engine.canonical_dumps(gs) == text
            warm.append(len(cell_renders))
        # The cold pass renders every cell of the first state; from the
        # second state on, both passes render the same cells anew.
        assert cold[0] == sum(map(len, states[0].chains.values()))
        assert warm[1:] == cold[1:]

    def test_cache_holds_one_entry_per_distinct_cell(self, cell_renders):
        """Each distinct cell, with the separator after it, is rendered."""
        states, _ = snapshot_stream(seed=8)
        engine._LAST_SNAPSHOT.clear()
        for gs in states:
            engine.canonical_dumps(gs)
        distinct = set().union(*map(rendered_pieces, states))
        assert {args[4] for args in cell_renders} == {",\n", "\n    }"}
        assert set(cell_renders) == distinct


@pytest.fixture
def rendered(monkeypatch):
    """One entry per cell text canonical_dumps renders, in order, by either
    path (spliced from a record or read from a to_json_dict call): the
    sorted tuple of the ``(chain, aid)`` cells whose piece is that text. A
    text is traced to the indices of the pieces it fills, which the memo
    entry's ``positions`` map to their cells. A splice writes into the
    memoised piece list, swapped before each call for one that notes the
    cell at each index written; a full render leaves its texts in the new
    entry's pieces."""
    calls, texts, spliced = [], [], {}
    cell_text, dumps = engine._cell_text, engine.canonical_dumps

    def cells(positions):
        return {i: (c, aid) for c, at in positions.items() for aid, (i, _) in at.items()}

    class Pieces(list):
        def __init__(self, pieces, positions):
            super().__init__(pieces)
            self.cells = cells(positions)

        def __setitem__(self, i, piece):
            spliced.setdefault(id(piece), []).append(self.cells.get(i))
            super().__setitem__(i, piece)

    def recording(*args):
        texts.append(cell_text(*args))
        return texts[-1]

    def tracing(gs):
        memo = engine._LAST_SNAPSHOT
        if memo:
            last, keys, positions, pieces, text = memo[0]
            memo[0] = (last, keys, positions, Pieces(pieces, positions), text)
        texts.clear()
        spliced.clear()
        out = dumps(gs)
        _, _, positions, pieces, _ = memo[0]
        written, at = cells(positions), {}
        for i, piece in enumerate(pieces):
            at.setdefault(id(piece), []).append(written.get(i))
        calls.extend(tuple(sorted(spliced.get(id(t)) or at[id(t)])) for t in texts)
        return out

    monkeypatch.setattr(engine, "_cell_text", recording)
    monkeypatch.setattr(engine, "canonical_dumps", tracing)
    return calls


def written_cells(rendered):
    """The sorted ``(chain, aid)`` cells that the texts in ``rendered`` fill."""
    return sorted(cell for cells in rendered for cell in cells)


@pytest.fixture
def renders(monkeypatch):
    """The set of chain names of each engine.to_json_dict call, in order;
    canonical_dumps makes one call, on the whole state, when it renders in
    full (no memo entry, changed chain names or lock set, or a table whose
    key set changed or was reordered), and none when it splices dirty cells from
    their records."""
    calls, to_json_dict = [], engine.to_json_dict

    def recording(gs):
        calls.append(set(gs.chains))
        return to_json_dict(gs)

    monkeypatch.setattr(engine, "to_json_dict", recording)
    return calls


class TestChainTextMemo:
    """canonical_dumps memoises the last document it wrote; a hit or a
    splice must render what a full render does, and the memo must hold
    exactly one entry: the last state rendered."""

    def test_states_in_random_order_match_the_reference(self):
        states, _ = snapshot_stream(seed=9, steps=1000)
        random.Random(9).shuffle(states)
        for gs in states:
            assert engine.canonical_dumps(gs) == reference_canonical_dumps(gs)

    def test_interleaved_streams_match_the_reference(self):
        first, _ = snapshot_stream(seed=10, steps=1000)
        second, _ = snapshot_stream(seed=11, steps=1000)
        for pair in zip(first, second):
            for gs in pair:
                assert engine.canonical_dumps(gs) == reference_canonical_dumps(gs)

    def test_a_lock_step_misses_on_the_held_locks(self, rendered):
        gs = snapshot_stream(seed=12, steps=0)[0][0]
        aid = next(a for a in STREAM_ASSETS if a not in gs.locks)
        locked = engine.acquire_lock(gs, aid)
        released = engine.release_lock(locked, aid)
        # Lock steps share every chain table.
        assert all(locked.chains[c] is gs.chains[c] is released.chains[c] for c in gs.chains)
        expected = [reference_canonical_dumps(s) for s in (gs, locked, released)]
        cells = []
        for s, text in zip((gs, locked, released), expected):
            rendered.clear()
            assert engine.canonical_dumps(s) == text
            cells.append(sorted(rendered))
        every_cell = sorted(((c, a),) for c, table in gs.chains.items() for a in table)
        # A changed lock set renders the whole state, one text per cell.
        assert cells == [every_cell, every_cell, every_cell]
        assert expected[1] != expected[0] == expected[2]

    def test_a_lock_on_no_chain_renders_in_full(self, renders):
        gs = snapshot_stream(seed=12, steps=0)[0][0]
        locked = engine.acquire_lock(gs, "held by no chain")
        expected = reference_canonical_dumps(locked)
        engine.canonical_dumps(gs)
        renders.clear()
        assert engine.canonical_dumps(locked) == expected
        assert renders == [set(gs.chains)]

    def test_a_changed_chain_set_matches_the_reference(self, renders):
        gs = snapshot_stream(seed=13, steps=0)[0][0]
        c1, c2, c3, c4 = (gs.chains[c] for c in STREAM_CHAINS)
        states = [
            engine.GlobalState({"c1": c1, "c2": c2}, gs.locks),
            engine.GlobalState({"c1": c1, "c2": c2, "c3": c3}, gs.locks),  # c3 added
            engine.GlobalState({"c1": c1}, gs.locks),  # c2 absent
            engine.GlobalState({"c1": c1, "c2": c4}, gs.locks),  # c2 another table
            engine.GlobalState({"c2": c4, "c1": c1}, gs.locks),  # reordered
            engine.GlobalState({}, gs.locks),
        ]
        expected = [reference_canonical_dumps(s) for s in states]
        engine._LAST_SNAPSHOT.clear()
        renders.clear()
        assert [engine.canonical_dumps(s) for s in states] == expected
        # A changed chain-name set renders the whole state from one call;
        # the reordered mapping keeps the names and tables, so it renders
        # nothing.
        assert renders == [{"c1", "c2"}, {"c1", "c2", "c3"}, {"c1"}, {"c1", "c2"}, set()]

    def test_memo_holds_the_last_state_rendered(self):
        states, _ = snapshot_stream(seed=14, steps=500)
        renamed = [
            engine.GlobalState({f"{c}/{i % 3}": t for c, t in gs.chains.items()}, gs.locks)
            for i, gs in enumerate(states)
        ]
        engine._LAST_SNAPSHOT.clear()
        for gs in states + renamed:
            text = engine.canonical_dumps(gs)
            [(last, *_, last_text)] = engine._LAST_SNAPSHOT
            assert last is gs and last_text is text

    def test_a_snapshot_re_renders_only_what_its_sync_changed(self, rendered):
        rng = random.Random(15)
        gs = snapshot_stream(seed=15, steps=0)[0][0]
        engine.canonical_dumps(gs)
        outcomes = set()
        for _ in range(400):
            aid = rng.choice(STREAM_ASSETS + ["held by no chain"])
            action = rng.choice(list(RegAction))
            result = engine.sync(rng.choice(STREAM_CHAINS), action, aid, gs)
            after = result.state or gs
            expected = reference_canonical_dumps(after)
            rendered.clear()
            assert engine.canonical_dumps(after) == expected
            if result.ok:
                holders = engine.connected_chains(gs, aid)
                assert written_cells(rendered) == sorted((c, aid) for c in holders)
            else:
                # The state is the one just rendered: no chain and no cell.
                assert after is gs
                assert rendered == []
            outcomes.add(result.reason or "ok")
            gs = after
        assert outcomes == {"ok", *SyncFailure}


@pytest.fixture
def cell_sets(monkeypatch):
    """The ``(chain, aid)`` cells of each engine.to_json_dict call, in order;
    canonical_dumps makes one call for every cell of the state when it
    renders in full, and none for the dirty cells it splices (see
    ``rendered``)."""
    calls, to_json_dict = [], engine.to_json_dict

    def recording(gs):
        calls.append({(c, aid) for c, table in gs.chains.items() for aid in table})
        return to_json_dict(gs)

    monkeypatch.setattr(engine, "to_json_dict", recording)
    return calls


class TestCellSplice:
    """A state with the memoised lock set whose tables are the memoised
    ones or keep their keys in their order re-renders only its dirty cells,
    from their records, and
    splices them into the memoised pieces; any other miss renders the whole
    document in full, through to_json_dict."""

    def test_a_success_renders_one_cell_per_holder(self, rendered):
        """A success renders one text per record and separator of the synced
        asset's holder cells, written at each of them: one text in all
        when its holders share a record and a separator."""
        rng = random.Random(16)
        gs = snapshot_stream(seed=16, steps=0)[0][0]
        engine.canonical_dumps(gs)
        outcomes, shared = [], 0
        for _ in range(400):
            aid, source = rng.choice(STREAM_ASSETS), rng.choice(STREAM_CHAINS)
            reg = engine.get_reg_state(gs, source, aid)
            defined = [a for a in STREAM_ACTIONS if reg and reg_transition(reg, a)]
            result = engine.sync(source, rng.choice(defined or STREAM_ACTIONS), aid, gs)
            after = result.state or gs
            expected, rendered[:] = reference_canonical_dumps(after), []
            assert engine.canonical_dumps(after) == expected
            if result.ok:
                texts = {}
                for c in engine.connected_chains(gs, aid):
                    piece = id(after.chains[c][aid]), separator(after, c, aid)
                    texts.setdefault(piece, []).append((c, aid))
                assert sorted(rendered) == sorted(map(tuple, texts.values()))
                shared += any(len(cells) > 1 for cells in rendered)
            else:
                assert rendered == []
            outcomes.append(result.ok)
            gs = after
        assert outcomes.count(True) >= 100 and shared >= 50

    def test_a_lock_step_renders_every_cell(self, rendered):
        gs = snapshot_stream(seed=17, steps=0)[0][0]
        engine.canonical_dumps(gs)
        # Every asset is released if held and acquired if not, then back.
        for aid in STREAM_ASSETS + STREAM_ASSETS:
            step = engine.release_lock if aid in gs.locks else engine.acquire_lock
            after = step(gs, aid)
            expected, rendered[:] = reference_canonical_dumps(after), []
            assert engine.canonical_dumps(after) == expected
            assert sorted(rendered) == sorted(((c, a),) for c, t in gs.chains.items() for a in t)
            gs = after

    @pytest.mark.parametrize("change", ["gain", "lose", "swap"])
    def test_a_changed_key_set_renders_the_chain_in_full(self, cell_sets, change):
        gs = snapshot_stream(seed=18, steps=0)[0][0]
        engine.canonical_dumps(gs)
        table = dict(gs.chains["c1"])
        present = min(table)
        absent = next(a for a in STREAM_ASSETS if a not in table)
        if change != "gain":
            del table[present]
        if change != "lose":
            table[absent] = engine.AssetState(absent, RegState.ACTIVE, "o")
        after = engine.GlobalState({**gs.chains, "c1": table}, gs.locks)
        expected, cell_sets[:] = reference_canonical_dumps(after), []
        assert engine.canonical_dumps(after) == expected
        # The whole document, the other chains' cells too.
        assert cell_sets == [{(c, aid) for c, t in after.chains.items() for aid in t}]

    def test_the_same_keys_in_another_order_render_the_chain_in_full(self, cell_sets):
        """The dirty-cell scan pairs records by position, so a reordered
        table renders the whole document, like a changed key set. Here the
        first two assets trade records and places, so every position keeps
        its record."""
        gs = snapshot_stream(seed=19, steps=0)[0][0]
        engine.canonical_dumps(gs)
        c = max(STREAM_CHAINS, key=lambda c: len(gs.chains[c]))
        old = gs.chains[c]
        first, second = list(old)[:2]
        table = {second: old[first], first: old[second]}
        table.update((a, rec) for a, rec in old.items() if a not in table)
        after = engine.GlobalState({**gs.chains, c: table}, gs.locks)
        assert reference_canonical_dumps(after) != reference_canonical_dumps(gs)
        expected, cell_sets[:] = reference_canonical_dumps(after), []
        assert engine.canonical_dumps(after) == expected
        every_cell = {(name, a) for name, t in after.chains.items() for a in t}
        assert len(table) > 1 and cell_sets == [every_cell]

    @pytest.mark.parametrize("second", ["changed", "equal copy"])
    def test_the_splice_trusts_no_hint(self, rendered, renders, second):
        """A successor that, on one holder chain, changes a second asset's
        cell besides the synced one, or swaps in an equal record object for
        it, as a misbehaving sync_fn could: every changed cell is rendered,
        from its record, and the bytes are the reference's."""
        gs = snapshot_stream(seed=20, steps=0)[0][0]
        aid = next(a for a in STREAM_ASSETS if a not in gs.locks
                   and len(engine.connected_chains(gs, a)) > 1)
        c = min(engine.connected_chains(gs, aid))
        other = next(a for a in gs.chains[c] if a != aid)
        reg = engine.get_reg_state(gs, c, aid)
        action = next(a for a in STREAM_ACTIONS if reg_transition(reg, a))
        synced = engine.sync(c, action, aid, gs).state
        table = dict(synced.chains[c])
        rec = table[other]
        state = rec.reg_state
        if second == "changed":
            state = next(s for s in RegState if s is not state)
        table[other] = engine.AssetState(other, state, rec.owner)
        assert list(table) == list(gs.chains[c])
        after = engine.GlobalState({**synced.chains, c: table}, synced.locks)
        engine.canonical_dumps(gs)
        expected, rendered[:], renders[:] = reference_canonical_dumps(after), [], []
        assert engine.canonical_dumps(after) == expected
        holder_cells = [(h, aid) for h in engine.connected_chains(gs, aid)]
        assert written_cells(rendered) == sorted(holder_cells + [(c, other)])
        # One text per record and separator: the other cell's text is its own.
        pieces = {(id(after.chains[h][a]), separator(after, h, a)) for h, a in holder_cells}
        assert ((c, other),) in rendered and len(rendered) == len(pieces) + 1
        assert renders == []
        if second == "equal copy":
            assert expected == reference_canonical_dumps(synced)

    @settings(max_examples=300, deadline=None)
    @given(made_states() | stepped_states())
    @example(snapshot_stream(seed=21, steps=0)[0][0])
    def test_the_two_renderers_agree_on_every_cell(self, gs):
        """Every record swapped for an equal fresh one, keys kept in their
        order: every cell is spliced from its record, none goes through
        to_json_dict, and the bytes are the reference's, warm and cold."""
        fresh = engine.GlobalState(
            {c: {a: engine.AssetState(rec.asset_id, rec.reg_state, rec.owner)
                 for a, rec in table.items()}
             for c, table in gs.chains.items()},
            gs.locks,
        )
        expected = reference_canonical_dumps(fresh)
        engine.canonical_dumps(gs)
        calls, to_json_dict = [], engine.to_json_dict
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "to_json_dict", lambda s: calls.append(s) or to_json_dict(s))
            assert engine.canonical_dumps(fresh) == expected
        assert calls == []
        engine._LAST_SNAPSHOT.clear()
        assert engine.canonical_dumps(fresh) == expected

    WALK_STEPS = st.tuples(
        st.sampled_from(["sync", "lock", "put", "drop", "copy"]),
        st.sampled_from(STREAM_ASSETS),
        st.sampled_from(STREAM_CHAINS),
        st.sampled_from(STREAM_CHAINS),
        st.sampled_from(list(RegAction)),
        st.sampled_from(STREAM_OWNERS),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.lists(WALK_STEPS, max_size=40))
    def test_a_warm_walk_matches_the_reference(self, seed, steps):
        """Syncs, lock steps, a cell put or dropped, and a chain given
        another chain's table, each rendered on a warm memo."""
        gs = snapshot_stream(seed=seed, steps=0)[0][0]
        engine.canonical_dumps(gs)
        for op, aid, c, other, action, owner in steps:
            if op == "sync":
                gs = engine.sync(c, action, aid, gs).state or gs
            elif op == "lock":
                step = engine.release_lock if aid in gs.locks else engine.acquire_lock
                gs = step(gs, aid)
            else:
                table = dict(gs.chains[other] if op == "copy" else gs.chains[c])
                if op == "put":
                    table[aid] = engine.AssetState(aid, RegState.ACTIVE, owner)
                elif op == "drop":
                    table.pop(aid, None)
                gs = engine.GlobalState({**gs.chains, c: table}, gs.locks)
            assert engine.canonical_dumps(gs) == reference_canonical_dumps(gs)

    def test_an_exception_leaves_no_stale_memo(self, monkeypatch):
        """A splice that raises midway, after writing one cell, leaves the
        memo empty: the next snapshots of the state it was writing and of
        the state before are the reference's."""
        gs = snapshot_stream(seed=22, steps=0)[0][0]
        aid = next(a for a in STREAM_ASSETS if a not in gs.locks
                   and len(engine.connected_chains(gs, a)) > 1)
        c = min(engine.connected_chains(gs, aid))
        reg = engine.get_reg_state(gs, c, aid)
        after = engine.sync(c, next(a for a in STREAM_ACTIONS if reg_transition(reg, a)),
                            aid, gs).state
        cell_text, to_json_dict, calls = engine._cell_text, engine.to_json_dict, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("second cell")
            return cell_text(*args)

        engine.canonical_dumps(gs)
        monkeypatch.setattr(engine, "_cell_text", failing)
        with pytest.raises(RuntimeError, match="second cell"):
            engine.canonical_dumps(after)
        assert len(calls) == 2 and engine._LAST_SNAPSHOT == []
        monkeypatch.setattr(engine, "_cell_text", lambda *a: calls.append(a) or cell_text(*a))
        monkeypatch.setattr(engine, "to_json_dict", lambda s: calls.append(s) or to_json_dict(s))
        for s in (after, gs):
            assert engine.canonical_dumps(s) == reference_canonical_dumps(s)
        # The state last rendered is a memo hit: no cell and no to_json_dict.
        expected, calls[:] = reference_canonical_dumps(gs), []
        assert engine.canonical_dumps(gs) == expected
        assert calls == []

    def test_distinct_owners_leave_no_cache_behind(self):
        def one_cell(i):
            cell = engine.AssetState("a1", RegState.ACTIVE, f"owner {i}")
            return engine.GlobalState({"c1": {"a1": cell}}, frozenset())

        engine._LAST_SNAPSHOT.clear()
        engine.canonical_dumps(one_cell(-1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(5000):
                engine.canonical_dumps(one_cell(i))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(engine._LAST_SNAPSHOT) == 1
        assert grown < 256 * 1024


A, F = RegState.ACTIVE, RegState.FROZEN


class TestSeparators:
    """Each cell's piece ends with the separator after it: a comma, or the
    chain's closing brace after its last cell. A splice writes each changed
    cell with its own separator, and the bytes are the reference's on a
    warm memo and on a cold one."""

    @staticmethod
    def warm_and_cold(before, after, rendered, renders):
        """The texts a warm snapshot of ``after``, spliced on the memo of
        ``before``, renders (see ``rendered``); both that snapshot and a
        cold one must be the reference's."""
        expected = reference_canonical_dumps(after)
        engine._LAST_SNAPSHOT.clear()
        assert engine.canonical_dumps(before) == reference_canonical_dumps(before)
        rendered.clear()
        renders.clear()
        assert engine.canonical_dumps(after) == expected
        assert renders == []  # spliced, not rendered in full
        warm = sorted(rendered)
        engine._LAST_SNAPSHOT.clear()
        assert engine.canonical_dumps(after) == expected
        return warm

    def test_a_synced_asset_last_on_one_chain_and_in_the_middle_of_another(
        self, rendered, renders
    ):
        gs = make_state({"c1": {"a1": A, "a2": A}, "c2": {"a1": A, "a2": A, "a3": F}})
        after = engine.sync("c1", RegAction.FREEZE, "a2", gs).state
        # One record, two separators: one text per separator.
        assert after.chains["c1"]["a2"] is after.chains["c2"]["a2"]
        assert self.warm_and_cold(gs, after, rendered, renders) == [
            (("c1", "a2"),), (("c2", "a2"),)]

    def test_a_chain_that_holds_one_cell(self, rendered, renders):
        gs = make_state({"c1": {"a1": A}, "c2": {"a1": A, "a2": A}})
        after = engine.sync("c2", RegAction.FREEZE, "a1", gs).state
        assert self.warm_and_cold(gs, after, rendered, renders) == [
            (("c1", "a1"),), (("c2", "a1"),)]

    def test_an_empty_chain(self, rendered, renders):
        gs = make_state({"c1": {}, "c2": {"a1": A, "a2": A}, "c3": {}})
        after = engine.sync("c2", RegAction.FREEZE, "a2", gs).state
        assert self.warm_and_cold(gs, after, rendered, renders) == [(("c2", "a2"),)]
        # An empty chain given a fresh empty table has no cell to splice.
        fresh = engine.GlobalState({**after.chains, "c1": {}}, after.locks)
        assert self.warm_and_cold(after, fresh, rendered, renders) == []

    def test_a_hand_built_state_that_changes_two_assets_in_one_table(self, rendered, renders):
        """The two changed cells hold one record object and the same
        separator, but each key gets its own text: its key and lock flag."""
        gs = make_state({"c1": {"a1": A, "a2": A, "a3": A}, "c2": {"a2": A}}, {"a2": True})
        shared = engine.AssetState("a1", F, "owner")
        table = {**gs.chains["c1"], "a1": shared, "a2": shared}
        after = engine.GlobalState({**gs.chains, "c1": table}, gs.locks)
        assert self.warm_and_cold(gs, after, rendered, renders) == [
            (("c1", "a1"),), (("c1", "a2"),)]


def replay_scenario(seed, steps=1000):
    """The initial state and ``steps`` sync steps of a replay shaped like
    the bench's: 32 assets on 4 chains, asset i on i % 4 + 1 chains drawn
    at random, one owner, and ~80% valid steps (a defined action from a
    holder; CONFISCATE rarely). The rest are split between an undefined
    action and a source chain that does not hold the asset."""
    rng = random.Random(seed)
    holders = {f"a{i + 1}": sorted(rng.sample(STREAM_CHAINS, i % 4 + 1)) for i in range(32)}
    states = {aid: rng.choice([s for s in RegState if s is not RegState.CONFISCATED])
              for aid in holders}
    gs = make_state({c: {aid: states[aid] for aid in holders if c in holders[aid]}
                     for c in STREAM_CHAINS})
    partial = [aid for aid in holders if len(holders[aid]) < len(STREAM_CHAINS)]
    script = []
    for _ in range(steps):
        draw, aid = rng.random(), rng.choice(list(holders))
        defined = [a for a in RegAction if reg_transition(states[aid], a)]
        if draw < 0.8 and defined:
            safe = [a for a in defined if a is not RegAction.CONFISCATE]
            action = rng.choice(defined if rng.random() < 0.002 or not safe else safe)
            states[aid] = reg_transition(states[aid], action)
            script.append((rng.choice(holders[aid]), action, aid))
        elif draw < 0.9:
            undefined = [a for a in RegAction if a not in defined]
            script.append((rng.choice(holders[aid]), rng.choice(undefined), aid))
        else:
            aid = rng.choice(partial)
            missing = [c for c in STREAM_CHAINS if c not in holders[aid]]
            script.append((rng.choice(missing), rng.choice(list(RegAction)), aid))
    return gs, script


class TestReplaySnapshots:
    @pytest.mark.parametrize("locks", [(), ("a1", "a7")], ids=["free", "locked"])
    def test_every_step_matches_the_reference(self, locks):
        """Each snapshot of a bench-shaped replay, as ``regsync sync`` writes
        them, equals the reference; the locked variant holds two locks, so
        their assets' syncs fail with Locked and their cells show it."""
        gs, script = replay_scenario(seed=23)
        gs = engine.GlobalState(gs.chains, frozenset(locks))
        engine._LAST_SNAPSHOT.clear()
        outcomes = []
        for source, action, aid in script:
            result = engine.sync(source, action, aid, gs)
            gs = result.state or gs
            assert engine.canonical_dumps(gs) == reference_canonical_dumps(gs)
            outcomes.append(result.reason or "ok")
        expected = {"ok", *SyncFailure} if locks else {"ok", *SyncFailure} - {SyncFailure.LOCKED}
        assert set(outcomes) == expected
        assert 0.7 <= outcomes.count("ok") / len(script) <= 0.85


class TestSnapshotLockFlag:
    @settings(max_examples=300, deadline=None)
    @given(made_states() | stepped_states())
    def test_cell_flag_is_is_locked(self, gs):
        assert snapshot_agrees_with_locks(gs)


class TestFromJsonDictRejects:
    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"chains": []},
            {"chains": {"c1": []}},
            {"chains": {"c1": {"a1": "ACTIVE"}}},
            {"chains": {"c1": {"a1": {"state": "ACTIVE", "owner": 5}}}},
            {"chains": {}, "locks": ["a1"]},
        ],
    )
    def test_wrong_shape_is_a_type_error(self, doc):
        with pytest.raises(TypeError):
            engine.from_json_dict(doc)


def reference_update_all_chains(gs, aid, new_state, targets):
    """update_all_chains with one new record per target, however the
    targets share records; the engine's result must equal it."""
    chains = dict(gs.chains)
    for c in targets:
        table = chains.get(c, {})
        assert aid in table, f"target {c} does not hold {aid}"
        rec = table[aid]
        chains[c] = {**table, aid: engine.AssetState(rec.asset_id, new_state, rec.owner)}
    return engine.GlobalState(chains, gs.locks)


HOLDER_CHAINS = ["c1", "c2", "c3", "c4"]


@st.composite
def holder_states(draw):
    """A state whose holders of ``"a"`` share one record, hold distinct
    equal records, or hold records whose ``asset_id`` or owner differ per
    chain, beside other assets and a chain without ``"a"``; and targets,
    a subset of the holders."""
    pool = draw(st.lists(
        st.builds(engine.AssetState, st.sampled_from(["a", "b"]), REG_STATES,
                  st.sampled_from(["o1", "o2"])),
        min_size=1, max_size=3,
    ))
    holders = draw(st.lists(st.sampled_from(HOLDER_CHAINS), min_size=1, unique=True))
    chains = {}
    for c in HOLDER_CHAINS + ["c5"]:
        others = draw(st.dictionaries(st.sampled_from(["b", "x"]), REG_STATES, max_size=2))
        chains[c] = {aid: engine.AssetState(aid, reg, "o") for aid, reg in others.items()}
    for c in holders:
        rec = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            rec = engine.AssetState(rec.asset_id, rec.reg_state, rec.owner)  # equal, not shared
        chains[c]["a"] = rec
    locks = frozenset(draw(st.lists(st.sampled_from(["a", "b"]), unique=True)))
    targets = frozenset(draw(st.lists(st.sampled_from(holders), unique=True)))
    return engine.GlobalState(chains, locks), targets


class TestUpdateAllChainsMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(holder_states(), REG_STATES)
    def test_same_chains_and_each_target_keeps_its_record_fields(self, state, new_state):
        gs, targets = state
        updated = engine.update_all_chains(gs, "a", new_state, targets)
        assert updated == reference_update_all_chains(gs, "a", new_state, targets)
        for c, table in gs.chains.items():
            new_table = updated.chains[c]
            if c not in targets:
                assert new_table is table
                continue
            old = table["a"]
            assert new_table["a"] == engine.AssetState(old.asset_id, new_state, old.owner)
            assert all(new_table[aid] is rec for aid, rec in table.items() if aid != "a")
        # Two targets' new records are one object iff they are equal.
        for c1 in targets:
            for c2 in targets:
                new1, new2 = updated.chains[c1]["a"], updated.chains[c2]["a"]
                assert (new1 is new2) == (new1 == new2)

    def test_sync_leaves_holders_of_one_record_holding_one_new_record(self):
        rec = engine.AssetState("a1", RegState.ACTIVE, "owner")
        gs = engine.GlobalState({c: {"a1": rec} for c in ("c1", "c2", "c3")}, frozenset())
        result = engine.sync("c2", RegAction.FREEZE, "a1", gs)
        cells = {id(table["a1"]) for table in result.state.chains.values()}
        assert len(cells) == 1
        assert result.state.chains["c1"]["a1"] == engine.AssetState("a1", RegState.FROZEN, "owner")


class TestCell:
    def test_a_record_holds_its_arguments(self):
        for state in RegState:
            rec = engine.cell("a1", state, "o")
            assert type(rec) is engine.AssetState
            assert (rec.asset_id, rec.reg_state, rec.owner) == ("a1", state, "o")
            assert type(rec.reg_state) is RegState

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=4), REG_STATES, st.text(max_size=4))
    def test_equal_arguments_give_one_object(self, aid, state, owner):
        rec = engine.cell(aid, state, owner)
        assert rec == engine.AssetState(aid, state, owner)
        # Equal arguments, built afresh.
        assert engine.cell("".join(list(aid)), RegState(str(state)), "".join(list(owner))) is rec

    @pytest.mark.parametrize("order", [(RegState.FROZEN, "FROZEN"), ("FROZEN", RegState.FROZEN)],
                             ids=["member_first", "str_first"])
    def test_a_str_state_never_shares_a_members_record(self, order):
        aid = f"typed-{type(order[0]).__name__}"
        first, second = (engine.cell(aid, s, "o") for s in order)
        assert first == second and first is not second
        assert [type(rec.reg_state) for rec in (first, second)] == [type(s) for s in order]

    def test_the_table_stays_bounded(self):
        maxsize = engine.cell.cache_info().maxsize
        for i in range(maxsize + 100):
            engine.cell("bounded", RegState.ACTIVE, f"owner {i}")
        assert engine.cell.cache_info().currsize <= maxsize


@pytest.mark.parametrize("cls", [RegState, RegAction, AuthorityLevel])
class TestJsonMember:
    def test_a_value_or_member_reads_its_member(self, cls):
        for member in cls:
            assert engine.json_member(cls, str(member)) is member
            assert engine.json_member(cls, member) is member

    @pytest.mark.parametrize("value", ["BOGUS", "", "active", 5, 2.0, True, None, [1], {"a": 1}])
    def test_any_other_value_raises_what_the_call_raises(self, cls, value):
        with pytest.raises(ValueError) as called:
            cls(value)
        with pytest.raises(ValueError) as read:
            engine.json_member(cls, value)
        assert str(read.value) == str(called.value)
        assert read.value.__context__ is None
