"""The paper's generic locales as executable checks: machine validity,
naturality, sequential preservation and roundtrip of morphisms, and
multi-domain consistency, each checked by brute force over the (small,
finite) machines instead of being assumed. Only tests run them, so no
runtime module imports this one and no ``regsync`` process compiles it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .preservation import DomainStateMap, disagreements, explore, judge, sync_all
from .records import record
from .report import DEFAULT_BUDGET, BudgetExceededError, ValidationReport
from .sm_core import ActionId, StateId, StateMachineSpec, transition_of


def apply_actions(
    sm: StateMachineSpec, s: StateId, actions: Sequence[ActionId]
) -> Optional[StateId]:
    """Left fold of transition_of; None as soon as any step is undefined."""
    if s not in sm.states:
        return None
    current: Optional[StateId] = s
    for a in actions:
        current = transition_of(sm, current, a)
        if current is None:
            return None
    return current


def validate_machine(sm: StateMachineSpec) -> ValidationReport:
    """Check the machine's structural invariants, reporting every violation.

    Rules: terminal_subset, terminal_absorbing, transition_closed,
    transition_domain.
    """
    report = ValidationReport()
    for s in sorted(sm.terminal):
        if s not in sm.states:
            report.add("terminal_subset", s)
    for (s, a), s2 in sorted(sm.transitions.items()):
        if s in sm.terminal:
            report.add("terminal_absorbing", (s, a))
        if s not in sm.states:
            report.add("transition_domain", (s, a))
        if a not in sm.actions or (s in sm.states and s2 not in sm.states):
            report.add("transition_closed", (s, a, s2))
    return report


@record
class Morphism:
    """A map between two machines, total on the source's states and actions."""

    source: StateMachineSpec
    target: StateMachineSpec
    state_map: Mapping[StateId, StateId]
    action_map: Mapping[ActionId, ActionId]


@record
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


def _closure(*maps: Morphism) -> ValidationReport:
    """mapping_closed for each source state and action a map of ``maps``
    does not send into its target. Every check below returns on one before
    it reads an image, so a partial map is reported, not a KeyError."""
    report = ValidationReport()
    for m in maps:
        for s in sorted(m.source.states):
            if m.state_map.get(s) not in m.target.states:
                report.add("mapping_closed", s)
        for a in sorted(m.source.actions):
            if m.action_map.get(a) not in m.target.actions:
                report.add("mapping_closed", a)
    return report


def check_naturality(m: Morphism) -> ValidationReport:
    """Exhaustively check that mapping commutes with single transitions.

    Rules: mapping_closed, naturality (defined case), naturality_none.
    """
    report = _closure(m)
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
    m: Morphism, max_len: int, budget: int = DEFAULT_BUDGET
) -> ValidationReport:
    """Check preservation of apply_actions over all sequences up to max_len.

    Mapped apply_actions must agree with apply_actions-then-map, including
    agreement on undefinedness, once the map is closed (mapping_closed).
    """
    n_actions = len(m.source.actions)
    needed = len(m.source.states) * sum(n_actions**k for k in range(max_len + 1))
    if needed > budget:
        raise BudgetExceededError(needed, budget)

    report = _closure(m)
    if not report.ok:
        return report
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
    """Check both roundtrip identities and injectivity of the forward map,
    once both maps are closed (mapping_closed)."""
    fwd, bwd = sm.forward, sm.backward
    report = _closure(fwd, bwd)
    if not report.ok:
        return report
    for s in sorted(fwd.source.states):
        if bwd.state_map.get(fwd.state_map[s]) != s:
            report.add("roundtrip_source", s)
    for t in sorted(fwd.target.states):
        if fwd.state_map.get(bwd.state_map.get(t)) != t:
            report.add("roundtrip_target", t)
    seen: dict[StateId, StateId] = {}
    for s in sorted(fwd.source.states):
        image = fwd.state_map[s]
        if image in seen:
            report.add("injectivity", (seen[image], s), f"both map to {image}")
        else:
            seen[image] = s
    return report


def check_consistent_init(ds: DomainStateMap) -> ValidationReport:
    report = ValidationReport()
    for aid, states in sorted(disagreements(ds).items()):
        report.add("consistent_init", aid, f"states {sorted(states)}")
    return report


def check_multi_domain(
    ds: DomainStateMap,
    sm: StateMachineSpec,
    depth: int,
    budget: int = DEFAULT_BUDGET,
    sync_fn: Callable[..., Optional[DomainStateMap]] = sync_all,
) -> ValidationReport:
    """Model-check consistency, isolation, and agreement closure.

    Explores every sequence of up to ``depth`` sync_all calls (deduplicating
    revisited maps, each identified by its domains and table, and keying
    none equal to ``ds``) and asserts after each successful call
    ``judge``'s rules, which run_modelcheck shares: connected domains agree
    on the transition's target, other assets are untouched, no cell
    appears, the set of domains is unchanged (domain_set_changed), and
    agreement is kept (valid_agreement); an inconsistent ``ds`` is
    reported as consistent_init alone.
    """
    report = check_consistent_init(ds)
    if not report.ok:
        return report
    assets = sorted({aid for (_, aid) in ds.table})
    steps = [(d, a, aid) for d in sorted(ds.domains) for a in sorted(sm.actions) for aid in assets]

    def visit(current: DomainStateMap, _origin) -> Iterator[tuple[tuple, DomainStateMap]]:
        for triple in steps:
            result = sync_fn(current, *triple, sm)
            if result is None:
                continue
            for rule, where, detail in judge(current, *triple, result, sm):
                report.add(rule, (*triple, *where), detail)
            yield triple, result

    explore([ds], steps, depth, budget,
            lambda m: None if m == ds else (m.domains, frozenset(m.table.items())), visit)
    return report
