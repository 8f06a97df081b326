"""Global multi-chain state and the atomic lock-validate-update-unlock sync.

Every operation is pure: it returns a fresh GlobalState and never mutates
its input, so failed syncs leave no partial writes behind. Fresh states
share what did not change: acquiring or releasing a lock copies only the
lock set, and an update copies only the asset tables of its target chains.
An update takes each new cell from ``cell``, one record per cell value,
which the model checker's initial and prescribed states share; every
comparison stays by value, with identity only a shortcut. The records are
frozen slots records that compile only their ``__init__`` (records.py).

canonical_dumps relies on that purity: no chain table and no chains mapping
is mutated in place after it has been rendered, so it memoises the last
document as one flat list of pieces, one per cell with its separator,
re-renders one text per record a step changed, written at each of its
cells, and joins the list once. A state whose chain names or lock set
changed, or one of whose tables changed or moved its keys, is rendered in
full through to_json_dict, which defines a snapshot's fields.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import is_not
from typing import Iterable, Mapping, Optional

from .records import record
from .regulatory import RegAction, RegState, TextEnum, reg_transition

ChainId = str
AssetKey = str


@record
class AssetState:
    asset_id: AssetKey
    reg_state: RegState
    owner: str


@lru_cache(maxsize=4096, typed=True)
def cell(asset_id: AssetKey, state: RegState, owner: str) -> AssetState:
    """The one record of this cell value, from a table of the 4,096 values
    used last. That covers every working set met: at most 15 values in a
    model-checked scope of up to three assets, and at most 160 and 1,000
    in bench replay and sim. The table is typed, so a record's state is the
    very object its caller passed: a plain-str state never gets a member's
    record, nor a member a plain str's."""
    return AssetState(asset_id, state, owner)


@record
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


@record
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


def connected_chains(gs: GlobalState, aid: AssetKey) -> list[ChainId]:
    """The chains holding ``aid``, in ``gs.chains`` order: the chains a sync
    of ``aid`` updates."""
    holders = []
    for c, table in gs.chains.items():
        if aid in table:
            holders.append(c)
    return holders


def acquire_lock(gs: GlobalState, aid: AssetKey) -> Optional[GlobalState]:
    if aid in gs.locks:
        return None
    return GlobalState(gs.chains, gs.locks | {aid})


def release_lock(gs: GlobalState, aid: AssetKey) -> GlobalState:
    if aid not in gs.locks:
        return gs
    return GlobalState(gs.chains, gs.locks - {aid})


def update_all_chains(
    gs: GlobalState, aid: AssetKey, new_state: RegState, targets: Iterable[ChainId]
) -> GlobalState:
    """``gs`` with every target's cell of ``aid``, looked up once, in
    ``new_state``: one ``cell`` per run of targets that share a record."""
    chains, last = dict(gs.chains), None
    for c in targets:
        table = chains.get(c)
        rec = None if table is None else table.get(aid)
        assert rec is not None, f"target {c} does not hold {aid}"
        chains[c] = table = table.copy()
        if rec is not last:
            last, new = rec, cell(rec.asset_id, new_state, rec.owner)
        table[aid] = new
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
    # Targets are read from the pre-lock state, as in the protocol definition.
    gs_updated = update_all_chains(gs_locked, aid, new_state, connected_chains(gs, aid))
    return SyncResult(release_lock(gs_updated, aid))


def valid_state(gs: GlobalState) -> bool:
    """No lock held at rest, and every holder of an asset agrees on its state,
    compared by value (``!=``), as the model checker's state key and the
    judge's agreement scan compare it: a plain str equal to a member agrees."""
    if gs.locks:
        return False
    seen: dict[AssetKey, RegState] = {}
    for table in gs.chains.values():
        for aid, rec in table.items():
            if seen.setdefault(aid, rec.reg_state) != rec.reg_state:
                return False
    return True


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


def json_object(value: object, what: str, fields: set[str]) -> dict:
    """``json_value(value, dict, what)``, and a ValueError naming ``what`` and
    its first key not in ``fields``, which no reader reads (a misspelt one)."""
    doc = json_value(value, dict, what)
    if not fields.issuperset(doc):
        unknown = next(k for k in doc if k not in fields)
        raise ValueError(f"{what} has unknown field {unknown!r}")
    return doc


def json_member(cls: type[TextEnum], value: object) -> TextEnum:
    """``cls(value)``, read with one lookup when ``value`` is a member's
    value; any other value goes through the call, which raises its error."""
    try:
        return cls._value2member_map_[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        pass
    return cls(value)


def from_json_dict(doc: dict) -> GlobalState:
    """Inverse of to_json_dict; raises KeyError, TypeError or ValueError
    on a document that does not have its shape. A cell's ``"locked"`` must
    be a JSON boolean, but the state takes its locks from ``"locks"``,
    whose ``false`` entries are checked and dropped."""
    doc = json_object(doc, "state", {"chains", "locks"})
    chains = {}
    for c, table in json_value(doc.get("chains", {}), dict, "chains").items():
        chains[c] = {}
        for aid, cell in json_value(table, dict, f"chain {c!r}").items():
            where = f"asset {aid!r} on chain {c!r}"
            cell = json_object(cell, where, {"state", "owner", "locked"})
            owner = json_value(cell.get("owner", ""), str, f"owner of {where}")
            # Checked but not kept: ``locks`` is the lock state.
            json_value(cell.get("locked", False), bool, f"locked of {where}")
            chains[c][aid] = AssetState(aid, json_member(RegState, cell["state"]), owner)
    locks = json_value(doc.get("locks", {}), dict, "locks")
    held = frozenset(a for a, b in locks.items() if json_value(b, bool, f"lock of asset {a!r}"))
    return GlobalState(chains, held)


def canonical_dumps(gs: GlobalState) -> str:
    """Canonical JSON form: sorted keys, two-space indent, trailing newline.

    The bytes equal ``json.dumps(to_json_dict(gs), sort_keys=True,
    indent=2) + "\n"``. They are written here directly because json.dumps
    uses its pure-Python encoder whenever ``indent`` is set; strings go
    through the C escaper json.dumps uses.

    The last document written is memoised in ``_LAST_SNAPSHOT`` as one
    entry ``(gs, keys, positions, pieces, text)``: ``keys`` lists each
    chain's keys in its table's order, ``pieces`` is the document as one
    flat list of strings whose join is ``text``, one per cell with the
    separator after it, and ``positions[c][aid]`` is that piece's index
    and separator. The entry keeps ``gs`` alive, and the identity tests on
    it and its tables rely on the purity premise: no chain table and no
    ``chains`` mapping is mutated after it is rendered.

    ``gs`` itself, as after a failed sync, returns ``text``. A state with
    the memoised chain names and lock set whose every table is the
    memoised one or keeps its keys in the memoised order (as a sync does)
    is spliced: each dirty cell, one whose record is not the memoised
    object (found by a scan in C), gets a piece rendered from its record,
    once per record, key and separator, and the list is joined once. Any
    other state is rendered in full from one to_json_dict call, which
    keeps to_json_dict the definition of a snapshot's fields. The entry
    is out of the memo meanwhile, so an exception leaves the memo empty,
    and a splice abandoned for a full render leaves no half-written pieces.
    """
    memo = _LAST_SNAPSHOT
    if memo and memo[0][0] is gs:
        return memo[0][4]
    chains, locks, cell_text, entry = gs.chains, gs.locks, _cell_text, memo and memo.pop()
    if entry and len(chains) == len((last := entry[0]).chains) and locks == last.locks:
        _, keys, positions, pieces, _ = entry
        old, texts = last.chains, {}
        for c, table in chains.items():
            was = old.get(c)
            if table is not was:
                if [*table] != (order := keys.get(c)):
                    break  # a new chain name or key order: render in full, below
                at = positions[c]
                for aid in compress(order, map(is_not, table.values(), was.values())):
                    rec, (i, sep) = table[aid], at[aid]
                    if (text := texts.get(key := (id(rec), aid, sep))) is None:
                        text = texts[key] = cell_text(aid, aid in locks, rec.owner,
                                                      rec.reg_state, sep)
                    pieces[i] = text
        else:
            memo.append((gs, keys, positions, pieces, text := "".join(pieces)))
            return text
    doc, esc = to_json_dict(gs), encode_basestring_ascii
    pieces, keys, positions = ['{\n  "chains": {'], {}, {}
    for i, c in enumerate(sorted(doc["chains"])):
        cells = doc["chains"][c]
        keys[c], at, ordered = list(cells), {}, sorted(cells)
        pieces.append(f"{',' if i else ''}\n    {esc(c)}: {{" + ("\n" if cells else "}"))
        for aid, sep in zip(ordered, [",\n"] * (len(ordered) - 1) + ["\n    }"]):
            cell, at[aid] = cells[aid], (len(pieces), sep)
            pieces.append(cell_text(aid, cell["locked"], cell["owner"], cell["state"], sep))
        positions[c] = at
    held = ",\n".join(f"    {esc(aid)}: true" for aid in sorted(locks))
    locks_text = f"{{\n{held}\n  }}" if held else "{}"
    pieces += "\n  }" if keys else "}", ',\n  "locks": ', locks_text, "\n}\n"
    memo.append((gs, keys, positions, pieces, text := "".join(pieces)))
    return text


# The one memo entry of canonical_dumps, or none; a cell's position is (piece index, separator).
_LAST_SNAPSHOT: list[tuple[GlobalState, dict[ChainId, list[AssetKey]],
                           dict[ChainId, dict[AssetKey, tuple[int, str]]], list[str], str]] = []


def _cell_text(aid: AssetKey, locked: bool, owner: str, state: str, sep: str) -> str:
    """The snapshot text of one cell, from its key to its closing brace,
    then ``sep``. The ``"state"`` line comes from ``_STATE_LINES``, escaped
    once at import, since only five strings can appear there."""
    esc = encode_basestring_ascii
    return (
        f'      {esc(aid)}: {{\n'
        f'        "locked": {"true" if locked else "false"},\n'
        f'        "owner": {esc(owner)},\n'
        f'{_STATE_LINES[state]}'
        f'      }}{sep}'
    )


# The ``"state"`` line of a snapshot cell, by state.
_STATE_LINES = {s: f'        "state": {encode_basestring_ascii(s)}\n' for s in RegState}
