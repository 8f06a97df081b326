"""Finite deterministic partial state machines with terminal states.

States and actions are string identifiers at this layer. An instance
module may name them with the members of a string-valued enumeration, as
the regulatory machine does: each member is a str, so this layer reads it
as the identifier it equals. Undefined transitions are represented by
``None``, never by exceptions.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .records import field, record
from .report import ValidationReport

StateId = str
ActionId = str


@record(frozen=True)
class StateMachineSpec:
    """Explicit finite description of a partial state machine.

    ``transitions`` maps (state, action) to the successor state; an absent
    key means the transition is undefined.
    """

    states: frozenset[StateId]
    actions: frozenset[ActionId]
    transitions: Mapping[tuple[StateId, ActionId], StateId]
    terminal: frozenset[StateId] = field(default_factory=frozenset)

    @staticmethod
    def make(
        states: Iterable[StateId],
        actions: Iterable[ActionId],
        transitions: Mapping[tuple[StateId, ActionId], StateId],
        terminal: Iterable[StateId] = (),
    ) -> "StateMachineSpec":
        return StateMachineSpec(
            frozenset(states), frozenset(actions), dict(transitions), frozenset(terminal)
        )


def transition_of(sm: StateMachineSpec, s: StateId, a: ActionId) -> Optional[StateId]:
    """Partial transition function; total over all identifiers.

    Returns None outside the state set, from terminal states, and wherever
    the table has no entry.
    """
    if s not in sm.states or s in sm.terminal:
        return None
    return sm.transitions.get((s, a))


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
