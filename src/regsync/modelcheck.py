"""Small-scope exhaustive model checking of the sync engine.

Enumerates every consistent initial global state over bounded chain and
asset counts, explores all sync sequences to a bounded depth (deduplicating
revisited states), and checks each successful sync against the protocol's
guarantees: cross-chain agreement, per-asset isolation, an unchanged set
of chains and agreement closure (stated once, in preservation.judge),
respect of held locks, no lock left held, guaranteed success under the
combined premises, and agreement with the generic multi-domain layer.

Each explored state's syncs are checked in one loop over the run's
steps. A table built once per run gives the moves each projection cell
enables, so a state's defined moves take one lookup per cell, into a list
aligned with the steps, and each asset's holders one scan, if needed.

Each sync is checked only for what its outcome can break. A failed sync
can break only guaranteed success, whose premises are decided once per
explored state. A success equal on every cell field to the successor the
rules prescribe (each holder's cell of the asset takes the target state,
nothing else changes; none if the lock is held; built once per move of an
explored state, consulting the generic layer once) breaks no rule, as each
rule reads only what that successor fixes. The initial and prescribed
cells come from engine.cell, as the engine's new cells do, so a matching
success meets the very records it is compared with; the comparison is
still by value. Other successes are diagnosed rule by rule. A state is
identified by its value alone (_state_key). The initial states are
exactly the valid states over the scope whose cells are enumerated
records (_key's scope test), the states _key gives explore no key for,
and a prescribed success of one is another: it is not handed back.
Validity is computed when read.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Callable, Iterator, Optional

from . import engine
from .preservation import DomainStateMap, explore, judge, sync_all
from .records import field, record
from .regulatory import RegAction, RegState, reg_machine_spec, reg_transition
from .report import DEFAULT_BUDGET, BudgetExceededError
from .scenario import Scenario, SyncCommand
from .sm_core import StateMachineSpec


@record
class Counterexample:
    rule: str
    initial: engine.GlobalState
    steps: tuple[SyncCommand, ...]
    detail: str = ""

    def to_scenario(self) -> dict:
        """A scenario document replaying the violation, plus a ``"violation"`` block."""
        doc = Scenario(self.initial, list(self.steps)).to_json_dict()
        doc["violation"] = {"rule": self.rule, "detail": self.detail}
        return doc


@record
class ModelCheckResult:
    states_explored: int = 0
    syncs_checked: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def chain_names(n: int) -> list[str]:
    return [f"c{i+1}" for i in range(n)]


def asset_names(n: int) -> list[str]:
    return [f"a{i+1}" for i in range(n)]


def enumerate_initial_states(n_chains: int, n_assets: int):
    """All valid initial states, in one fixed order: each asset sits on a
    non-empty chain subset in one RegState, consistently, with no lock held."""
    chains = chain_names(n_chains)
    subsets = [combo for size in range(1, n_chains + 1)
               for combo in itertools.combinations(chains, size)]
    options = [  # per asset: (asset, subset, its record there)
        [(aid, s, engine.cell(aid, t, _OWNER)) for s in subsets for t in RegState]
        for aid in asset_names(n_assets)
    ]
    for assignment in itertools.product(*options):
        tables: dict[str, dict[str, engine.AssetState]] = {c: {} for c in chains}
        for aid, subset, cell in assignment:
            for c in subset:
                tables[c][aid] = cell
        # The cells already carry their keys and no lock is held, so
        # GlobalState.make would only copy every table again.
        yield engine.GlobalState(tables, frozenset())


def initial_state_count(n_chains: int, n_assets: int) -> int:
    return ((2**n_chains - 1) * _N_STATES) ** n_assets


def _check_budget(n_chains: int, n_assets: int, budget: int) -> None:
    """Raise BudgetExceededError if initial_state_count times the syncs per
    state exceeds ``budget``, naming that product, a part of it past the
    budget or no count, so that no number far above the budget is built."""
    if n_chains > budget.bit_length():  # so 2**n_chains - 1 > budget
        raise BudgetExceededError(None, budget)
    needed = n_chains * len(RegAction) * n_assets
    for _ in range(n_assets):
        if needed > budget:
            break
        needed *= (2**n_chains - 1) * _N_STATES
    if needed > budget:
        raise BudgetExceededError(needed, budget)


def _state_key(gs: engine.GlobalState) -> tuple:
    """The frozen value of a state, its chains' tables and its held locks:
    two keys are equal exactly when the states are ``==``."""
    return frozenset((c, frozenset(t.items())) for c, t in gs.chains.items()), gs.locks


_STATES = frozenset(RegState)
_N_STATES = len(_STATES)
_OWNER = "owner"  # every enumerated cell's owner; _key's scope test admits no other
_REG_STATE = attrgetter("reg_state")


def _key(gs: engine.GlobalState, chains: frozenset, assets: frozenset) -> Optional[tuple]:
    """explore's key of ``gs``: None for an initial state, else _state_key(gs).
    An initial state is engine.valid_state over exactly ``chains``, holding
    exactly ``assets``, whose every cell is an enumerated record: its state
    a RegState by value, its owner _OWNER and its asset_id its table key."""
    cells = [(aid, rec) for table in gs.chains.values() for aid, rec in table.items()]
    initial = (engine.valid_state(gs) and gs.chains.keys() == chains
               and {aid for aid, _ in cells} == assets
               and all(rec.reg_state in _STATES and rec.owner == _OWNER and rec.asset_id == aid
                       for aid, rec in cells))
    return None if initial else _state_key(gs)


def to_domain_state_map(gs: engine.GlobalState, read: Callable = _REG_STATE) -> DomainStateMap:
    """Project chains to the generic multi-domain layer: each cell as
    ``read`` reads its record, by default its reg_state."""
    table = {(c, aid): read(rec) for c, chain in gs.chains.items() for aid, rec in chain.items()}
    return DomainStateMap(frozenset(gs.chains), table)


def _violations(gs: engine.GlobalState, valid: bool, projection: DomainStateMap, step: SyncCommand,
                gs2: engine.GlobalState, spec: StateMachineSpec) -> Iterator[tuple[str, str]]:
    """The (rule, detail) of each guarantee that one successful sync from
    ``gs`` to ``gs2`` breaks; a sync on a held lock breaks lock_respected,
    as it must fail, and one from a valid state that leaves a lock held
    breaks valid_state_preservation. ``valid`` and ``projection`` are
    ``engine.valid_state(gs)`` and ``to_domain_state_map(gs)``, computed
    once per explored state. preservation.judge states the per-sync rules,
    over projections to whole records (so another asset's owner change
    breaks isolation); the rest are what a projection forgets."""
    aid = step.asset
    before, after = (to_domain_state_map(g, lambda rec: rec) for g in (gs, gs2))
    for rule, _, detail in judge(before, step.source, step.action, aid, after, spec, _REG_STATE):
        yield rule, detail
    for c in engine.connected_chains(gs, aid):
        rec = after.table.get((c, aid))
        if rec is None or rec.owner != before.table[c, aid].owner:
            yield "owner_untouched", f"cell ({c}, {aid})"
        if rec is not None and rec.asset_id != aid:
            yield "asset_id_untouched", f"cell ({c}, {aid})"
    if aid in gs2.locks:
        yield "lock_released", ""
    if valid and gs2.locks:
        yield "valid_state_preservation", ""

    # Generic/concrete agreement on the multi-domain projection.
    if aid in gs.locks:
        yield "lock_respected", ""
    else:
        generic = sync_all(projection, step.source, step.action, aid, spec)
        if generic is None:
            yield "generic_agreement", "generic sync_all failed where sync succeeded"
        elif generic.table != {cell: rec.reg_state for cell, rec in after.table.items()}:
            yield "generic_agreement", "projections differ"


def _prescribed(
    gs: engine.GlobalState, projection: DomainStateMap, step: SyncCommand, target: RegState,
    spec: StateMachineSpec, holders: list,
) -> Optional[tuple[dict, frozenset]]:
    """The chains and locks of the successor the rules prescribe for
    ``step``, a move from ``gs`` to ``target`` at ``holders``, the asset's
    holders as engine.connected_chains scans them; None, decided before it
    is built, if the lock is held (the sync must fail) or ``sync_all``
    disagrees. Each new cell is ``engine.cell(step.asset, target, owner)``,
    whose asset_id is its table key, once per record."""
    if step.asset in gs.locks:
        return None
    aid, expected = step.asset, projection.table.copy()
    for c in holders:
        expected[c, aid] = target
    generic = sync_all(projection, step.source, step.action, aid, spec)
    if generic is None or generic.table != expected:
        return None
    chains, last = dict(gs.chains), None
    for c in holders:
        chains[c] = table = chains[c].copy()
        rec = table[aid]
        if rec is not last:
            last, new = rec, engine.cell(aid, target, rec.owner)
        table[aid] = new
    return chains, gs.locks


def _visitor(sync_fn: Callable[..., engine.SyncResult], found: list[Counterexample],
             steps: list[SyncCommand]) -> Callable:
    """The ``visit`` hook of run_modelcheck: per explored state, one loop
    that runs every step of ``steps`` through ``sync_fn`` in order, appends
    a Counterexample to ``found`` for each guarantee a sync breaks, and
    yields (step, successor) for each success but a prescribed one from an
    initial state (a state its origin reached in no step), which is an
    initial state itself. engine.valid_state(gs) is called only if a
    success is not the prescribed one or a defined move fails."""
    spec = reg_machine_spec()
    moves = {(s, a): t for s in RegState for a in RegAction if (t := reg_transition(s, a))}
    rows = [(step, step.source, step.action, step.asset) for step in steps]
    # A projection cell ((chain, asset), state) -> the (step index, move) of each
    # step it enables; a move is (source's state, action, asset, target).
    enables: dict = {}
    for i, (_, source, action, aid) in enumerate(rows):
        for (s, a), t in moves.items():
            if a == action:
                enables.setdefault(((source, aid), s), []).append((i, (s, a, aid, t)))

    def visit(gs: engine.GlobalState, origin) -> Iterator[tuple]:
        projection, initial = to_domain_state_map(gs), not origin[1]
        valid = None  # engine.valid_state(gs), computed when a rule first reads it
        expect: list = [None] * len(rows)  # each step's defined move, or None
        for cell in projection.table.items():
            for i, move in enables.get(cell, ()):
                expect[i] = move
        prescribed: dict = {}  # move -> its prescribed successor's (chains, locks), or None
        holders: dict = {}  # asset -> its holders, scanned once, for its first prescription
        for (step, source, action, aid), move in zip(rows, expect):
            result = sync_fn(source, action, aid, gs)
            gs2 = result.state
            if gs2 is not None:
                if move is not None:
                    pre = prescribed.get(move, False)  # None: the move has no successor
                    if pre is False:
                        held = holders[aid] = holders.get(aid) or engine.connected_chains(gs, aid)
                        pre = prescribed[move] = _prescribed(
                            gs, projection, step, move[3], spec, held)
                    if pre is not None and gs2.chains == pre[0] and gs2.locks == pre[1]:
                        if not initial:
                            yield step, gs2
                        continue
                valid = engine.valid_state(gs) if valid is None else valid
                broken = _violations(gs, valid, projection, step, gs2, spec)
            elif move is not None and (valid := engine.valid_state(gs) if valid is None else valid):
                broken = [("combined_success", f"sync failed with {result.reason}")]
            else:
                continue
            trail = origin[1] + (step,)
            found.extend(Counterexample(r, origin[0], trail, d) for r, d in broken)
            if gs2 is not None:
                yield step, gs2

    return visit


def run_modelcheck(
    n_chains: int,
    n_assets: int,
    depth: int,
    budget: int = DEFAULT_BUDGET,
    sync_fn: Callable[..., engine.SyncResult] = engine.sync,
) -> ModelCheckResult:
    """Breadth-first exploration from every valid initial state; a bound
    below 1, which would check no sync, is a ValueError.

    ``sync_fn`` exists so mutation tests can swap in a broken engine and
    confirm the checker finds a counterexample.
    """
    if min(n_chains, n_assets, depth) < 1:
        raise ValueError(f"bounds must be at least 1, got {(n_chains, n_assets, depth)}")
    _check_budget(n_chains, n_assets, budget)
    steps = [
        SyncCommand(c, a, aid)
        for c in chain_names(n_chains)
        for a in RegAction
        for aid in asset_names(n_assets)
    ]
    chains, assets = frozenset(chain_names(n_chains)), frozenset(asset_names(n_assets))
    found: list[Counterexample] = []
    states, syncs = explore(
        enumerate_initial_states(n_chains, n_assets), steps, depth, budget,
        lambda gs: _key(gs, chains, assets), _visitor(sync_fn, found, steps),
    )
    found.sort(key=lambda ce: (len(ce.steps), ce.rule))
    return ModelCheckResult(states, syncs, found)
