"""N-domain synchronization, the per-sync judge both model checkers share,
and the breadth-first explorer both run on. The generic locale checks
built on them live in ``locales``.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .records import record
from .report import BudgetExceededError
from .sm_core import ActionId, StateId, StateMachineSpec, transition_of

DomainId = str
AssetKey = str
S = TypeVar("S")
T = TypeVar("T")


@record
class DomainStateMap:
    """Per-domain, per-asset state table; an absent cell means not present."""

    domains: frozenset[DomainId]
    table: Mapping[tuple[DomainId, AssetKey], StateId]


def connected_domains(ds: DomainStateMap, aid: AssetKey) -> frozenset[DomainId]:
    return frozenset(d for d in ds.domains if (d, aid) in ds.table)


def disagreements(ds: DomainStateMap, state: Callable = lambda cell: cell) -> dict[AssetKey, set]:
    """Each asset whose cells read more than one ``state``, with those states."""
    by_asset: dict[AssetKey, set] = {}
    for (_, aid), cell in ds.table.items():
        by_asset.setdefault(aid, set()).add(state(cell))
    return {aid: states for aid, states in by_asset.items() if len(states) > 1}


def sync_all(
    ds: DomainStateMap,
    source: DomainId,
    action: ActionId,
    aid: AssetKey,
    sm: StateMachineSpec,
) -> Optional[DomainStateMap]:
    """Propagate one transition to every domain holding the asset.

    None if the source is not in the map, the asset is missing at the
    source or the transition is undefined; all other cells are carried
    over unchanged.
    """
    current = ds.table.get((source, aid))
    if current is None:
        return None
    new_state = transition_of(sm, current, action)
    if new_state is None:
        return None
    table = dict(ds.table)
    for d in ds.domains:
        if (d, aid) in table:
            table[(d, aid)] = new_state
    return DomainStateMap(ds.domains, table)


def explore(
    initial: Iterable[S],
    steps: Sequence[T],
    depth: int,
    budget: int,
    key: Callable[[S], Optional[Hashable]],
    visit: Callable[[S, tuple[S, tuple[T, ...]]], Iterable[tuple[T, S]]],
) -> tuple[int, int]:
    """Breadth-first search to ``depth`` steps from the initial states,
    deduplicated by ``key``. ``initial`` gives distinct states and is
    iterated once: each is visited as it is drawn, and none is kept.
    ``key(s)`` is None exactly on the states ``initial`` gives and a
    hashable key of the value of any other state, so a successor is new
    when its key is not None and was not seen.
    ``visit(state, origin)`` is called once per frontier state, with the
    initial state and step trail that first reached it. It returns an
    iterable that takes every step of ``steps`` once, in order, checks it,
    and gives ``(step, successor)`` for each successor it cannot show is
    an initial state or seen already; a failed step gives nothing. Before a
    state is visited its ``len(steps)`` steps are added to the count of
    steps taken: if that count would exceed ``budget``, no step of the
    state is taken and BudgetExceededError(count, budget) is raised. Stops
    early once a level adds no new state. Returns the number of distinct
    states seen (those drawn plus those keyed) and of steps taken."""
    visited, drawn = set(), 0
    frontier: Iterable = ((s, (s, ())) for s in initial)
    taken, per_state = 0, len(steps)
    for _ in range(depth):
        next_frontier = []
        for s, origin in frontier:
            taken += per_state
            if taken > budget:
                raise BudgetExceededError(taken, budget)
            drawn += not origin[1]
            for step, s2 in visit(s, origin):
                if (k := key(s2)) is not None and k not in visited:
                    visited.add(k)
                    next_frontier.append((s2, (origin[0], origin[1] + (step,))))
        if not next_frontier:
            break
        frontier = next_frontier
    return drawn + len(visited), taken


def judge(before: DomainStateMap, source: DomainId, action: ActionId, aid: AssetKey,
          after: DomainStateMap, sm: StateMachineSpec, state: Callable = lambda cell: cell,
          ) -> Iterator[tuple[str, tuple, str]]:
    """The (rule, where, detail) of each per-sync guarantee that a success
    of ``sync_all(before, source, action, aid, sm)`` giving ``after``
    breaks: cross_domain_consistency at each holder whose cell does not
    read the move's target (none exists where sync_all fails: the source
    is not in the map, the asset is missing there or the move is undefined),
    sync_isolation at each cell of another asset that changed and at each
    cell that appeared, domain_set_changed, and valid_agreement at each
    asset, in sorted order, whose cells disagree in ``after`` if no asset's
    do in ``before``. ``where`` is the holder, the cell, () or the asset.
    ``state`` reads a cell's state; cells are compared whole, so on
    records a change of another field breaks isolation."""
    cell = before.table.get((source, aid))
    expected = None if cell is None else transition_of(sm, state(cell), action)
    for d in sorted(connected_domains(before, aid)):
        cell = after.table.get((d, aid))
        if (None if cell is None else state(cell)) != expected:
            yield "cross_domain_consistency", (d,), f"chain {d} disagrees"
    for (d, other), cell in before.table.items():
        if other != aid and after.table.get((d, other)) != cell:
            yield "sync_isolation", (d, other), f"cell ({d}, {other}) changed"
    for d, other in after.table:
        if (d, other) not in before.table:
            yield "sync_isolation", (d, other), f"cell ({d}, {other}) appeared"
    if after.domains != before.domains:
        detail = f"chains {sorted(before.domains)} became {sorted(after.domains)}"
        yield "domain_set_changed", (), detail
    if not disagreements(before, state):
        for other in sorted(disagreements(after, state)):
            yield "valid_agreement", (other,), ""
