"""Finite deterministic partial state machines with terminal states.

States and actions are string identifiers at this layer. An instance
module may name them with the members of a string-valued enumeration, as
the regulatory machine does: each member is a str, so this layer reads it
as the identifier it equals. Undefined transitions are represented by
``None``, never by exceptions.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .records import field, record

StateId = str
ActionId = str


@record
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
