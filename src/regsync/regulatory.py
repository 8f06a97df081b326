"""The concrete regulatory machine: five states, seven actions, 12 transitions.

The transition matrix is literal data so the cell-by-cell checks in the
test suite compare against exactly what ships.
"""

from __future__ import annotations

import enum
from typing import Optional

from .sm_core import StateMachineSpec


class RegState(enum.Enum):
    ACTIVE = "ACTIVE"
    FROZEN = "FROZEN"
    SEIZED = "SEIZED"
    CONFISCATED = "CONFISCATED"
    RESTRICTED = "RESTRICTED"

    # Members are singletons and compare by identity, so the identity hash
    # agrees with equality; it is a C slot, where Enum.__hash__ is a Python
    # call on every dict lookup keyed by a member.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class RegAction(enum.Enum):
    FREEZE = "FREEZE"
    SEIZE = "SEIZE"
    CONFISCATE = "CONFISCATE"
    RESTRICT = "RESTRICT"
    UNFREEZE = "UNFREEZE"
    UNRESTRICT = "UNRESTRICT"
    RELEASE = "RELEASE"

    __hash__ = object.__hash__  # as in RegState

    def __str__(self) -> str:
        return self.value


# The full matrix: 12 defined cells, the other 23 of the 35 are undefined.
REG_TRANSITIONS: dict[tuple[RegState, RegAction], RegState] = {
    (RegState.ACTIVE, RegAction.FREEZE): RegState.FROZEN,
    (RegState.ACTIVE, RegAction.SEIZE): RegState.SEIZED,
    (RegState.ACTIVE, RegAction.CONFISCATE): RegState.CONFISCATED,
    (RegState.ACTIVE, RegAction.RESTRICT): RegState.RESTRICTED,
    (RegState.FROZEN, RegAction.SEIZE): RegState.SEIZED,
    (RegState.FROZEN, RegAction.CONFISCATE): RegState.CONFISCATED,
    (RegState.FROZEN, RegAction.UNFREEZE): RegState.ACTIVE,
    (RegState.SEIZED, RegAction.CONFISCATE): RegState.CONFISCATED,
    (RegState.SEIZED, RegAction.RELEASE): RegState.ACTIVE,
    (RegState.RESTRICTED, RegAction.FREEZE): RegState.FROZEN,
    (RegState.RESTRICTED, RegAction.CONFISCATE): RegState.CONFISCATED,
    (RegState.RESTRICTED, RegAction.UNRESTRICT): RegState.ACTIVE,
}

TERMINAL_STATE = RegState.CONFISCATED


def reg_transition(s: RegState, a: RegAction) -> Optional[RegState]:
    return REG_TRANSITIONS.get((s, a))


def is_terminal(s: RegState) -> bool:
    return s is TERMINAL_STATE


def valid_actions(s: RegState) -> set[RegAction]:
    return {a for a in RegAction if reg_transition(s, a) is not None}


def reg_machine_spec() -> StateMachineSpec:
    """The regulatory machine as a generic StateMachineSpec over name strings."""
    return StateMachineSpec.make(
        (s.value for s in RegState),
        (a.value for a in RegAction),
        {(s.value, a.value): s2.value for (s, a), s2 in REG_TRANSITIONS.items()},
        (TERMINAL_STATE.value,),
    )
