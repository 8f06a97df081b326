"""Machine morphisms, N-domain synchronization, and the breadth-first explorer.

Naturality, roundtrip, and multi-domain consistency are checked by brute
force over the (small, finite) machines instead of being assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .records import frozen_record
from .report import BudgetExceededError, ValidationReport, enumeration_budget
from .sm_core import ActionId, StateId, StateMachineSpec, apply_actions, transition_of

DomainId = str
AssetKey = str
S = TypeVar("S")
T = TypeVar("T")


@dataclass(frozen=True)
class Morphism:
    """A map between two machines, total on the source's states and actions."""

    source: StateMachineSpec
    target: StateMachineSpec
    state_map: Mapping[StateId, StateId]
    action_map: Mapping[ActionId, ActionId]


@dataclass(frozen=True)
class SymmetricMorphism:
    forward: Morphism
    backward: Morphism


def identity_morphism(sm: StateMachineSpec) -> Morphism:
    return Morphism(sm, sm, {s: s for s in sm.states}, {a: a for a in sm.actions})


def rename_machine(
    sm: StateMachineSpec,
    state_fn: Callable[[StateId], StateId],
    action_fn: Callable[[ActionId], ActionId],
) -> tuple[StateMachineSpec, Morphism]:
    """Bijectively renamed copy of a machine plus the renaming morphism."""
    renamed = StateMachineSpec.make(
        (state_fn(s) for s in sm.states),
        (action_fn(a) for a in sm.actions),
        {(state_fn(s), action_fn(a)): state_fn(s2) for (s, a), s2 in sm.transitions.items()},
        (state_fn(s) for s in sm.terminal),
    )
    morphism = Morphism(
        sm, renamed, {s: state_fn(s) for s in sm.states}, {a: action_fn(a) for a in sm.actions}
    )
    return renamed, morphism


def check_naturality(m: Morphism) -> ValidationReport:
    """Exhaustively check that mapping commutes with single transitions.

    Rules: mapping_closed, naturality (defined case), naturality_none.
    """
    report = ValidationReport()
    for s in sorted(m.source.states):
        if m.state_map.get(s) not in m.target.states:
            report.add("mapping_closed", s)
    for a in sorted(m.source.actions):
        if m.action_map.get(a) not in m.target.actions:
            report.add("mapping_closed", a)
    if not report.ok:
        return report
    for s in sorted(m.source.states):
        for a in sorted(m.source.actions):
            src = transition_of(m.source, s, a)
            tgt = transition_of(m.target, m.state_map[s], m.action_map[a])
            if src is not None:
                if tgt != m.state_map[src]:
                    report.add("naturality", (s, a), f"target gave {tgt}")
            elif tgt is not None:
                report.add("naturality_none", (s, a), f"target gave {tgt}")
    return report


def check_sequential_preservation(
    m: Morphism, max_len: int, budget: Optional[int] = None
) -> ValidationReport:
    """Check preservation of apply_actions over all sequences up to max_len.

    Mapped apply_actions must agree with apply_actions-then-map, including
    agreement on undefinedness.
    """
    budget = enumeration_budget() if budget is None else budget
    n_actions = len(m.source.actions)
    needed = len(m.source.states) * sum(n_actions**k for k in range(max_len + 1))
    if needed > budget:
        raise BudgetExceededError(needed, budget)

    report = ValidationReport()
    actions = sorted(m.source.actions)
    for s in sorted(m.source.states):
        for length in range(max_len + 1):
            for seq in itertools.product(actions, repeat=length):
                src_result = apply_actions(m.source, s, seq)
                tgt_result = apply_actions(
                    m.target, m.state_map[s], [m.action_map[a] for a in seq]
                )
                expected = None if src_result is None else m.state_map[src_result]
                if tgt_result != expected:
                    report.add(
                        "sequential_preservation",
                        (s, seq),
                        f"expected {expected}, target gave {tgt_result}",
                    )
    return report


def check_roundtrip(sm: SymmetricMorphism) -> ValidationReport:
    """Check both roundtrip identities and injectivity of the forward map."""
    report = ValidationReport()
    fwd, bwd = sm.forward, sm.backward
    for s in sorted(fwd.source.states):
        if bwd.state_map.get(fwd.state_map[s]) != s:
            report.add("roundtrip_source", s)
    for t in sorted(fwd.target.states):
        if fwd.state_map.get(bwd.state_map[t]) != t:
            report.add("roundtrip_target", t)
    seen: dict[StateId, StateId] = {}
    for s in sorted(fwd.source.states):
        image = fwd.state_map[s]
        if image in seen:
            report.add("injectivity", (seen[image], s), f"both map to {image}")
        else:
            seen[image] = s
    return report


@frozen_record
class DomainStateMap:
    """Per-domain, per-asset state table; an absent cell means not present."""

    domains: frozenset[DomainId]
    table: Mapping[tuple[DomainId, AssetKey], StateId]


def connected_domains(ds: DomainStateMap, aid: AssetKey) -> frozenset[DomainId]:
    return frozenset(d for d in ds.domains if (d, aid) in ds.table)


def check_consistent_init(ds: DomainStateMap) -> ValidationReport:
    report = ValidationReport()
    by_asset: dict[AssetKey, dict[DomainId, StateId]] = {}
    for (d, aid), s in ds.table.items():
        by_asset.setdefault(aid, {})[d] = s
    for aid in sorted(by_asset):
        states = set(by_asset[aid].values())
        if len(states) > 1:
            report.add("consistent_init", aid, f"states {sorted(states)}")
    return report


def sync_all(
    ds: DomainStateMap,
    source: DomainId,
    action: ActionId,
    aid: AssetKey,
    sm: StateMachineSpec,
) -> Optional[DomainStateMap]:
    """Propagate one transition to every domain holding the asset.

    None if the asset is missing at the source or the transition is
    undefined; all other cells are carried over unchanged.
    """
    if source not in ds.domains:
        raise ValueError(f"unknown source domain {source!r}")
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
    initial: Callable[[], Iterable[S]],
    steps: Sequence[T],
    depth: int,
    budget: int,
    key: Callable[[S], Hashable],
    visit: Callable[[S, tuple[S, tuple[T, ...]]], Iterable[tuple[T, S]]],
) -> tuple[int, int]:
    """Breadth-first search to ``depth`` steps from the distinct initial
    states, deduplicated by ``key``. ``initial()`` gives the initial states
    and is called twice: once to key them all, and once to visit each first
    occurrence as it is drawn, so they are never all held at once.
    ``visit(state, origin)`` is called once per frontier state, with the
    initial state and step trail that first reached it. It returns an
    iterable that takes every step of ``steps`` once, in order, checks it,
    and gives ``(step, successor)`` for each successor it cannot show is
    already keyed; a failed step gives nothing. Before a state is visited its ``len(steps)``
    steps are counted against ``budget``: if they would exceed it, no step
    of the state is taken and BudgetExceededError(budget + 1, budget) is
    raised. Stops early once a level adds no new state. Returns the number
    of distinct states seen and of steps taken. A caller that keys each
    successor in ``visit`` makes states (state, key) pairs, ``key``
    itemgetter(1)."""
    visited = set(map(key, initial()))
    unvisited = visited.copy()  # remove() returns None: only a key's first occurrence passes
    frontier: Iterable = ((s, (s, ())) for s in initial()
                          if (k := key(s)) in unvisited and not unvisited.remove(k))
    taken, per_state = 0, len(steps)
    for _ in range(depth):
        next_frontier = []
        for s, origin in frontier:
            taken += per_state
            if taken > budget:
                raise BudgetExceededError(budget + 1, budget)
            for step, s2 in visit(s, origin):
                k = key(s2)
                if k not in visited:
                    visited.add(k)
                    next_frontier.append((s2, (origin[0], origin[1] + (step,))))
        if not next_frontier:
            break
        frontier = next_frontier
    return len(visited), taken


def check_multi_domain(
    ds: DomainStateMap,
    sm: StateMachineSpec,
    depth: int,
    budget: Optional[int] = None,
    sync_fn: Callable[..., Optional[DomainStateMap]] = sync_all,
) -> ValidationReport:
    """Model-check consistency, isolation, and invariant closure.

    Explores every sequence of up to ``depth`` sync_all calls (deduplicating
    revisited maps) and asserts after each successful call that connected
    domains agree, other assets are untouched, and consistent_init still
    holds.
    """
    budget = enumeration_budget() if budget is None else budget
    report = check_consistent_init(ds)
    if not report.ok:
        return report
    assets = sorted({aid for (_, aid) in ds.table})
    steps = [(d, a, aid) for d in sorted(ds.domains) for a in sorted(sm.actions) for aid in assets]

    def visit(current: DomainStateMap, _origin) -> Iterator[tuple[tuple, DomainStateMap]]:
        for triple in steps:
            source, action, aid = triple
            result = sync_fn(current, source, action, aid, sm)
            if result is None:
                continue
            expected = transition_of(sm, current.table[(source, aid)], action)
            for d in sorted(connected_domains(current, aid)):
                got = result.table.get((d, aid))
                if got != expected:
                    detail = f"expected {expected}, read {got}"
                    report.add("cross_domain_consistency", (*triple, d), detail)
            for (d, other), s in current.table.items():
                if other != aid and result.table.get((d, other)) != s:
                    report.add("sync_isolation", (*triple, d, other))
            for (d, other) in result.table:
                if other != aid and (d, other) not in current.table:
                    report.add("sync_isolation", (*triple, d, other))
            if result.domains != current.domains:
                report.add("domain_set_changed", triple)
            for v in check_consistent_init(result).violations:
                report.add("consistent_init_closure", (*triple, v.witness))
            yield triple, result

    explore(lambda: [ds], steps, depth, budget, lambda m: frozenset(m.table.items()), visit)
    return report
