"""Small-scope exhaustive model checking of the sync engine.

Enumerates every consistent initial global state over bounded chain and
asset counts, explores all sync sequences to a bounded depth (deduplicating
revisited states), and checks each successful sync against the protocol's
guarantees: cross-chain agreement, per-asset isolation, respect of held
locks, validity preservation, guaranteed success under the combined
premises, and agreement with the generic multi-domain layer.

Each explored state's syncs are checked in one loop over the run's
steps. Each step's source, action and asset are read once per run, and
each step's defined move once per explored state, off the projection's
cells, into a list aligned with the steps.

Each sync is checked only for what its outcome can break. A failed sync
can break only guaranteed success, whose premises are decided once per
explored state. A success equal on every cell field to the successor the
rules prescribe (each holder's cell of the asset takes the target state,
nothing else changes; none if the lock is held; built once per move of an
explored state, consulting the generic layer once) breaks no rule, as each
rule reads only what that successor fixes. The initial and prescribed
cells come from engine.cell, as the engine's new cells do, so a matching
success meets the very records it is compared with; the comparison is
still by value. Other successes are diagnosed rule by rule. A state's key
is its exact index in the scope (see _key). The initial states are all
valid states of the index space, so a prescribed success of one is one:
the explorer keyed it before its first visit, and it is not handed back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Hashable, Iterator, Optional

from . import engine
from .preservation import DomainStateMap, explore, sync_all
from .regulatory import RegAction, RegState, reg_machine_spec, reg_transition
from .report import BudgetExceededError, enumeration_budget
from .scenario import Scenario, SyncCommand
from .sm_core import StateMachineSpec


@dataclass(frozen=True)
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


@dataclass
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
    """All valid initial states: each asset sits on a non-empty chain subset
    in one of the five states, consistently, with no lock held."""
    return (gs for gs, _ in _keyed_initial_states(n_chains, n_assets))


def _keyed_initial_states(n_chains: int, n_assets: int):
    """Each initial state with its index, a sum of per-asset digits."""
    chains = chain_names(n_chains)
    assets = asset_names(n_assets)
    bits, weights = _index_space(n_chains, n_assets)
    subsets = [combo for size in range(1, n_chains + 1)
               for combo in itertools.combinations(chains, size)]
    options = [  # per asset: (asset, subset, its record there, its digit there times its weight)
        [(aid, s, engine.cell(aid, t, "owner"),
          ((sum(map(bits.get, s)) - 1) * 5 + _RANK[t]) * 2 * weights[aid])
         for s in subsets for t in RegState]
        for aid in assets
    ]
    for assignment in itertools.product(*options):
        tables: dict[str, dict[str, engine.AssetState]] = {c: {} for c in chains}
        index = 0
        for aid, subset, cell, value in assignment:
            for c in subset:
                tables[c][aid] = cell
            index += value
        # The cells already carry their keys and no lock is held, so
        # GlobalState.make would only copy every table again.
        yield engine.GlobalState(tables, frozenset()), index


def initial_state_count(n_chains: int, n_assets: int) -> int:
    return ((2**n_chains - 1) * len(RegState)) ** n_assets


def _over_budget(n_chains: int, n_assets: int, budget: int) -> bool:
    """Whether initial_state_count times the syncs per state exceeds
    ``budget``, decided without computing numbers far above the budget."""
    if n_chains > budget.bit_length():  # 2**n_chains - 1 > budget
        return True
    needed = n_chains * len(RegAction) * n_assets
    for _ in range(n_assets):
        if needed > budget:
            return True
        needed *= (2**n_chains - 1) * len(RegState)
    return needed > budget


def _state_key(gs: engine.GlobalState) -> tuple:
    """Order-independent identity of a state: its chain names, the fields of
    every cell and the held locks (the cells carry no lock flag)."""
    cells = frozenset((c, aid, rec.reg_state, rec.owner)
                      for c, table in gs.chains.items() for aid, rec in table.items())
    return frozenset(gs.chains), cells, gs.locks


_RANK = {s: i for i, s in enumerate(RegState)}


def _index_space(n_chains: int, n_assets: int) -> tuple[dict, dict]:
    """Each chain's holder bit and each asset's weight B**i, B = 10 * (2**n_chains - 1)."""
    base = 10 * (2**n_chains - 1)
    bits = {c: 1 << i for i, c in enumerate(chain_names(n_chains))}
    return bits, {aid: base**i for i, aid in enumerate(asset_names(n_assets))}


def _key(gs: engine.GlobalState, bits: dict, weights: dict) -> Hashable:
    """The visited-set key of ``gs``: the sum of each asset's weight times
    its digit ``((holder mask - 1) * 5 + state rank) * 2 + locked``, or, if
    ``gs`` is outside that index space, _state_key(gs). Whether it is
    outside is read from what _state_key reads, compared with ``==``."""
    masks, ranks, locks = {}, {}, gs.locks
    for c, table in gs.chains.items():
        for aid, rec in table.items():
            rank = _RANK.get(rec.reg_state)
            if rank is None or rec.owner != "owner" or ranks.setdefault(aid, rank) != rank:
                return _state_key(gs)
            masks[aid] = masks.get(aid, 0) | bits.get(c, 0)
    if masks.keys() != weights.keys() or gs.chains.keys() != bits.keys() or locks - weights.keys():
        return _state_key(gs)
    return sum((((masks[a] - 1) * 5 + ranks[a]) * 2 + (a in locks)) * w for a, w in weights.items())


def _violations(
    gs: engine.GlobalState,
    valid: bool,
    projection: DomainStateMap,
    step: SyncCommand,
    gs2: engine.GlobalState,
    spec: StateMachineSpec,
) -> Iterator[tuple[str, str]]:
    """The (rule, detail) of each guarantee that one successful sync from
    ``gs`` to ``gs2`` breaks; a sync on a held lock breaks lock_respected,
    as it must fail. ``valid`` and ``projection`` are
    ``engine.valid_state(gs)`` and ``engine.to_domain_state_map(gs)``,
    computed once per explored state."""
    current = engine.get_reg_state(gs, step.source, step.asset)
    expected = None if current is None else reg_transition(current, step.action)
    for c in sorted(engine.connected_chains(gs, step.asset)):
        if engine.get_reg_state(gs2, c, step.asset) is not expected:
            yield "cross_domain_consistency", f"chain {c} disagrees"
    for c, table in gs.chains.items():
        table2 = gs2.chains.get(c, {})
        for aid, rec in table.items():
            after = table2.get(aid)
            if aid != step.asset:
                if after != rec:
                    yield "sync_isolation", f"cell ({c}, {aid}) changed"
            elif after is None or after.owner != rec.owner:
                yield "owner_untouched", f"cell ({c}, {aid})"
    for c, table2 in gs2.chains.items():
        table = gs.chains.get(c, {})
        for aid in table2:
            if aid not in table:
                yield "sync_isolation", f"cell ({c}, {aid}) appeared"
    if engine.is_locked(gs2, step.asset):
        yield "lock_released", ""
    if valid and not engine.valid_state(gs2):
        yield "valid_state_preservation", ""

    # Generic/concrete agreement on the multi-domain projection.
    if engine.is_locked(gs, step.asset):
        yield "lock_respected", ""
    else:
        generic = sync_all(projection, step.source, step.action, step.asset, spec)
        if generic is None:
            yield "generic_agreement", "generic sync_all failed where sync succeeded"
        elif generic.table != engine.to_domain_state_map(gs2).table:
            yield "generic_agreement", "projections differ"


def _prescribed(
    gs: engine.GlobalState, projection: DomainStateMap, step: SyncCommand, target: RegState,
    spec: StateMachineSpec,
) -> Optional[tuple[dict, frozenset]]:
    """The chains and locks of the successor the rules prescribe for
    ``step``, a move from ``gs`` to ``target``; None, decided before it is
    built, if the asset's lock is held (the sync must fail) or ``sync_all``
    disagrees. Each new cell is ``engine.cell(asset_id, target, owner)``,
    as in the engine."""
    if step.asset in gs.locks:
        return None
    aid, expected = step.asset, projection.table.copy()
    holders = engine.connected_chains(gs, aid)
    for c in holders:
        expected[c, aid] = target
    generic = sync_all(projection, step.source, step.action, aid, spec)
    if generic is None or generic.table != expected:
        return None
    chains = dict(gs.chains)
    for c in holders:
        chains[c] = table = chains[c].copy()
        rec = table[aid]
        table[aid] = engine.cell(rec.asset_id, target, rec.owner)
    return chains, gs.locks


def _visitor(
    sync_fn: Callable[..., engine.SyncResult], out: ModelCheckResult, space,
    steps: list[SyncCommand],
) -> Callable:
    """The ``visit`` hook of run_modelcheck over (state, _key) pairs: per
    explored state, one loop that runs every step of ``steps`` through
    ``sync_fn`` in order, appends a Counterexample to ``out`` for each
    guarantee a sync breaks, and yields (step, (successor, its key)) for
    each success but a prescribed one from an initial state (keyed already)."""
    spec = reg_machine_spec()
    moves = {s: [(a, t) for a in RegAction if (t := reg_transition(s, a))] for s in RegState}
    rows = [(step, step.source, step.action, step.asset) for step in steps]
    index = {(source, action, aid): i for i, (_, source, action, aid) in enumerate(rows)}

    def visit(node: tuple[engine.GlobalState, Hashable], origin) -> Iterator[tuple]:
        gs, key = node
        valid, projection = engine.valid_state(gs), engine.to_domain_state_map(gs)
        initial = valid and type(key) is int  # valid and in the index space
        # Each step's defined move, (source's state, action, asset, target),
        # read off the projection's cells; None where the move is undefined.
        expect: list = [None] * len(rows)
        for (c, aid), s in projection.table.items():
            for a, t in moves.get(s, ()):
                i = index.get((c, a, aid))
                if i is not None:
                    expect[i] = (s, a, aid, t)
        prescribed: dict = {}  # move -> its prescribed successor's (chains, locks), or None
        for (step, source, action, aid), move in zip(rows, expect):
            result = sync_fn(source, action, aid, gs)
            gs2 = result.state
            if gs2 is not None:
                if move is not None:
                    pre = prescribed.get(move, False)  # None: the move has no successor
                    if pre is False:
                        pre = prescribed[move] = _prescribed(gs, projection, step, move[3], spec)
                    if pre is not None and gs2.chains == pre[0] and gs2.locks == pre[1]:
                        if not initial:
                            yield step, (gs2, _key(gs2, *space))
                        continue
                broken = _violations(gs, valid, projection, step, gs2, spec)
            elif valid and move is not None:
                broken = [("combined_success", f"sync failed with {result.reason}")]
            else:
                continue
            trail = origin[1] + (step,)
            out.counterexamples += [Counterexample(r, origin[0][0], trail, d) for r, d in broken]
            if gs2 is not None:
                yield step, (gs2, _key(gs2, *space))

    return visit


def run_modelcheck(
    n_chains: int,
    n_assets: int,
    depth: int,
    budget: Optional[int] = None,
    sync_fn: Callable[..., engine.SyncResult] = engine.sync,
) -> ModelCheckResult:
    """Breadth-first exploration from every valid initial state; a bound
    below 1, which would check no sync, is a ValueError.

    ``sync_fn`` exists so mutation tests can swap in a broken engine and
    confirm the checker finds a counterexample.
    """
    if min(n_chains, n_assets, depth) < 1:
        raise ValueError(f"bounds must be at least 1, got {(n_chains, n_assets, depth)}")
    budget = enumeration_budget() if budget is None else budget
    if _over_budget(n_chains, n_assets, budget):
        raise BudgetExceededError(budget + 1, budget)
    steps = [
        SyncCommand(c, a, aid)
        for c in chain_names(n_chains)
        for a in RegAction
        for aid in asset_names(n_assets)
    ]
    out = ModelCheckResult()
    out.states_explored, out.syncs_checked = explore(
        lambda: _keyed_initial_states(n_chains, n_assets), steps, depth, budget, itemgetter(1),
        _visitor(sync_fn, out, _index_space(n_chains, n_assets), steps),
    )
    out.counterexamples.sort(key=lambda ce: (len(ce.steps), ce.rule))
    return out
