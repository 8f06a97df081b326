"""Global multi-chain state and the atomic lock-validate-update-unlock sync.

Every operation is pure: it returns a fresh GlobalState and never mutates
its input, so failed syncs leave no partial writes behind. Fresh states
share what did not change: acquiring or releasing a lock copies only the
lock set, and an update copies only the asset tables of its target chains.
An update builds one record per new cell value, shared by the holder chains
that shared the old one; the records are frozen dataclasses with slots,
built through their slot descriptors (see records.frozen_record).

canonical_dumps relies on that purity: no chain table is mutated in place
after it has been rendered, so it memoises each chain's text and re-renders
only the cells a step changed, straight from their records. A chain it has
not seen, or whose keys changed or moved, is rendered in full through
to_json_dict, which defines a snapshot's fields (see its docstring).
"""

from __future__ import annotations

from dataclasses import replace
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import is_not
from typing import Mapping, Optional

from .preservation import DomainStateMap
from .records import frozen_record
from .regulatory import RegAction, RegState, TextEnum, reg_transition

ChainId = str
AssetKey = str


@frozen_record
class AssetState:
    asset_id: AssetKey
    reg_state: RegState
    owner: str


@frozen_record
class GlobalState:
    """Per-chain asset tables plus the set of assets whose lock is held.

    ``locks`` is the only lock state; the cells carry none. The JSON form
    derives each cell's ``"locked"`` flag from it (see to_json_dict).
    """

    chains: Mapping[ChainId, Mapping[AssetKey, AssetState]]
    locks: frozenset[AssetKey]

    @staticmethod
    def make(
        chains: Mapping[ChainId, Mapping[AssetKey, AssetState]],
        locks: Optional[Mapping[AssetKey, bool]] = None,
    ) -> "GlobalState":
        """A state over fresh copies of ``chains``, with every cell's asset_id
        set to its key, holding the locks whose ``locks`` entry is true."""
        fixed = {
            c: {aid: replace(rec, asset_id=aid) for aid, rec in table.items()}
            for c, table in chains.items()
        }
        return GlobalState(fixed, frozenset(a for a, held in (locks or {}).items() if held))


class SyncFailure(TextEnum):
    ASSET_NOT_FOUND = "AssetNotFound"
    INVALID_TRANSITION = "InvalidTransition"
    LOCKED = "Locked"


@frozen_record
class SyncResult:
    """Success carries the new GlobalState; failure carries a reason tag."""

    state: Optional[GlobalState] = None
    reason: Optional[SyncFailure] = None

    @property
    def ok(self) -> bool:
        return self.state is not None

    @staticmethod
    def success(gs: GlobalState) -> "SyncResult":
        return SyncResult(gs)

    @staticmethod
    def failure(reason: SyncFailure) -> "SyncResult":
        """The one shared result for ``reason``; a failure carries no state."""
        return _FAILURES[reason]


_FAILURES = {reason: SyncResult(reason=reason) for reason in SyncFailure}
# sync's three results, read as globals: an enum member lookup costs ~115 ns.
_NOT_FOUND, _INVALID, _LOCKED = (_FAILURES[r] for r in SyncFailure)


def get_reg_state(gs: GlobalState, c: ChainId, aid: AssetKey) -> Optional[RegState]:
    table = gs.chains.get(c)
    rec = None if table is None else table.get(aid)
    return None if rec is None else rec.reg_state


def asset_exists(gs: GlobalState, c: ChainId, aid: AssetKey) -> bool:
    return get_reg_state(gs, c, aid) is not None


def connected_chains(gs: GlobalState, aid: AssetKey) -> frozenset[ChainId]:
    return frozenset(c for c, table in gs.chains.items() if aid in table)


def is_locked(gs: GlobalState, aid: AssetKey) -> bool:
    return aid in gs.locks


def acquire_lock(gs: GlobalState, aid: AssetKey) -> Optional[GlobalState]:
    if aid in gs.locks:
        return None
    return GlobalState(gs.chains, gs.locks | {aid})


def release_lock(gs: GlobalState, aid: AssetKey) -> GlobalState:
    if aid not in gs.locks:
        return gs
    return GlobalState(gs.chains, gs.locks - {aid})


def update_all_chains(
    gs: GlobalState, aid: AssetKey, new_state: RegState, targets: frozenset[ChainId]
) -> GlobalState:
    """``gs`` with every target's cell of ``aid`` in ``new_state``, built
    once per distinct old record object."""
    chains, built = dict(gs.chains), {}
    for c in targets:
        table = chains.get(c)
        assert table is not None and aid in table, f"target {c} does not hold {aid}"
        rec = table[aid]
        if id(rec) not in built:
            built[id(rec)] = AssetState(rec.asset_id, new_state, rec.owner)
        chains[c] = table = table.copy()
        table[aid] = built[id(rec)]
    return GlobalState(chains, gs.locks)


def sync(source: ChainId, action: RegAction, aid: AssetKey, gs: GlobalState) -> SyncResult:
    """Atomically propagate one regulatory transition to all connected chains.

    Five steps in order: read state at the source, validate the transition,
    acquire the per-asset lock, update every connected chain, release the
    lock. Any failure aborts with no partial state.
    """
    # get_reg_state, inlined: the model checker's syncs are ~80% failures.
    table = gs.chains.get(source)
    rec = None if table is None else table.get(aid)
    if rec is None:
        return _NOT_FOUND
    new_state = reg_transition(rec.reg_state, action)
    if new_state is None:
        return _INVALID
    gs_locked = acquire_lock(gs, aid)
    if gs_locked is None:
        return _LOCKED
    # Targets are read from the pre-lock state, as in the protocol
    # definition; acquire_lock shares the chain tables, so the two
    # readings coincide.
    targets = connected_chains(gs, aid)
    gs_updated = update_all_chains(gs_locked, aid, new_state, targets)
    return SyncResult(release_lock(gs_updated, aid))


def consistent_state(gs: GlobalState) -> bool:
    seen: dict[AssetKey, RegState] = {}
    for table in gs.chains.values():
        for aid, rec in table.items():
            if aid in seen and seen[aid] is not rec.reg_state:
                return False
            seen[aid] = rec.reg_state
    return True


def valid_state(gs: GlobalState) -> bool:
    """Cross-chain agreement per asset plus no lock held at rest."""
    return consistent_state(gs) and not gs.locks


def to_domain_state_map(gs: GlobalState) -> DomainStateMap:
    """Project chains to the generic multi-domain layer (reg_state only)."""
    table = {
        (c, aid): rec.reg_state
        for c, chain in gs.chains.items()
        for aid, rec in chain.items()
    }
    return DomainStateMap(frozenset(gs.chains), table)


def to_json_dict(gs: GlobalState) -> dict:
    """The JSON form of ``gs``; each cell's ``"locked"`` is read from the
    lock set, and ``"locks"`` maps each held lock to true. Each cell's
    ``"state"`` is the RegState member, which json writes as its name."""
    locks = gs.locks
    return {
        "chains": {
            c: {
                aid: {
                    "state": rec.reg_state,
                    "owner": rec.owner,
                    "locked": aid in locks,
                }
                for aid, rec in table.items()
            }
            for c, table in gs.chains.items()
        },
        "locks": dict.fromkeys(locks, True),
    }


# What json_value says a value of each kind must be.
_JSON_KINDS = {dict: "a JSON object", list: "a JSON list", bool: "true or false",
               int: "an integer", str: "a string"}


def json_value(value: object, kind: type, what: str):
    """``value`` itself if it is a JSON value of ``kind`` (dict, list, bool,
    int or str); anything else is a TypeError naming ``what``. Nothing is
    coerced: the string ``"false"`` is not a bool, and a bool or a float
    (``2.0`` included) is not an int."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise TypeError(f"{what} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")


def from_json_dict(doc: dict) -> GlobalState:
    """Inverse of to_json_dict; raises KeyError, TypeError or ValueError
    on a document that does not have its shape. A cell's ``"locked"`` must
    be a JSON boolean, but the state takes its locks from ``"locks"``,
    whose ``false`` entries are checked and dropped."""
    doc = json_value(doc, dict, "state")
    chains = {}
    for c, table in json_value(doc.get("chains", {}), dict, "chains").items():
        chains[c] = {}
        for aid, cell in json_value(table, dict, f"chain {c!r}").items():
            where = f"asset {aid!r} on chain {c!r}"
            cell = json_value(cell, dict, where)
            owner = json_value(cell.get("owner", ""), str, f"owner of {where}")
            # Checked but not kept: ``locks`` is the lock state.
            json_value(cell.get("locked", False), bool, f"locked of {where}")
            chains[c][aid] = AssetState(aid, RegState(cell["state"]), owner)
    locks = json_value(doc.get("locks", {}), dict, "locks")
    held = frozenset(a for a, b in locks.items() if json_value(b, bool, f"lock of asset {a!r}"))
    return GlobalState(chains, held)


def canonical_dumps(gs: GlobalState) -> str:
    """Canonical JSON form: sorted keys, two-space indent, trailing newline.

    The bytes equal ``json.dumps(to_json_dict(gs), sort_keys=True,
    indent=2) + "\n"``. They are written here directly because json.dumps
    uses its pure-Python encoder whenever ``indent`` is set; strings go
    through the C escaper json.dumps uses.

    Each chain's text is memoised in ``_CHAIN_TEXT``, one entry per chain
    name: ``(table, held, text, keys, positions, cell_texts)``, where
    ``held`` is the set of locks held on the table's assets, ``keys`` lists
    the table's keys in its order, ``positions`` maps each asset id to its
    index in sorted order and ``cell_texts`` lists the cells' texts in that
    order. An entry is reused whole only while the chain's table *is* the
    memoised object and its held locks are equal; the entry keeps the
    table alive, so its ``id`` cannot be reused meanwhile. This relies on
    the engine's purity premise: no chain table is mutated in place after
    it has been rendered.

    A chain that misses but keeps its keys in the memoised order (as every
    engine step does) re-renders only its dirty cells: those whose record
    is not the memoised object, found by a scan in C, or whose lock flag
    changed. Each is rendered from its record and spliced into a copy of
    ``cell_texts``. So a failed sync re-renders no cell, and a successful
    one one cell per holder chain. Any other miss (no entry, or keys
    changed or reordered) renders every cell of its chain from one
    to_json_dict call on the state restricted to those chains. That call
    keeps to_json_dict the definition of a snapshot's fields, which the
    full-render tests check and whose span the bench tracer records.
    """
    esc, memo, locks, cell_text = encode_basestring_ascii, _CHAIN_TEXT, gs.locks, _cell_text
    texts, full = {}, {}
    for c, table in gs.chains.items():
        held = frozenset(filter(table.__contains__, locks)) if locks else _NO_LOCKS
        entry = memo.get(c)
        if entry is None:
            full[c] = table, held, list(table)
            continue
        old, old_held, text, keys, positions, cell_texts = entry
        if old is table:
            if old_held == held:
                texts[c] = text
                continue
            dirty = []
        else:
            new_keys = list(table)
            if new_keys != keys:
                full[c] = table, held, new_keys
                continue
            dirty = list(compress(keys, map(is_not, table.values(), old.values())))
        if held or old_held:
            dirty += held ^ old_held
        cell_texts = cell_texts.copy()
        for aid in dirty:
            rec = table[aid]
            cell_texts[positions[aid]] = cell_text(aid, aid in locks, rec.owner, rec.reg_state)
        texts[c] = f"    {esc(c)}: {_block(cell_texts, '    ')}"
        memo[c] = (table, held, texts[c], keys, positions, cell_texts)
    if full:
        doc = to_json_dict(GlobalState({c: f[0] for c, f in full.items()}, locks))
        for c, cells in doc["chains"].items():
            table, held, keys = full[c]
            positions, cell_texts = {a: i for i, a in enumerate(sorted(cells))}, [""] * len(cells)
            for aid, cell in cells.items():
                cell_texts[positions[aid]] = cell_text(
                    aid, cell["locked"], cell["owner"], cell["state"])
            texts[c] = f"    {esc(c)}: {_block(cell_texts, '    ')}"
            memo[c] = (table, held, texts[c], keys, positions, cell_texts)
    chains = [texts[c] for c in sorted(texts)]
    held_locks = [f'    {esc(aid)}: true' for aid in sorted(locks)]
    return f'{{\n  "chains": {_block(chains, "  ")},\n  "locks": {_block(held_locks, "  ")}\n}}\n'


_CHAIN_TEXT: dict[ChainId, tuple[Mapping[AssetKey, AssetState], frozenset[AssetKey], str,
                                 list[AssetKey], dict[AssetKey, int], list[str]]] = {}
_NO_LOCKS: frozenset[AssetKey] = frozenset()


def _cell_text(aid: AssetKey, locked: bool, owner: str, state: str) -> str:
    """The snapshot text of one cell, from its key to its closing brace.
    The ``"state"`` line comes from ``_STATE_LINES``, escaped once at
    import, since only five strings can appear there."""
    esc = encode_basestring_ascii
    return (
        f'      {esc(aid)}: {{\n'
        f'        "locked": {"true" if locked else "false"},\n'
        f'        "owner": {esc(owner)},\n'
        f'{_STATE_LINES[state]}'
        f'      }}'
    )


# The ``"state"`` line of a snapshot cell, by state.
_STATE_LINES = {s: f'        "state": {encode_basestring_ascii(s)}\n' for s in RegState}


def _block(items: list[str], indent: str) -> str:
    """A JSON object from already-indented members; ``indent`` is the
    indentation of its closing brace."""
    if not items:
        return "{}"
    return "{\n" + ",\n".join(items) + f"\n{indent}}}"
