"""The concrete regulatory machine: five states, seven actions, 12 transitions.

One generic StateMachineSpec over string-valued members is the only table:
``reg_transition`` and the generic layer read it alike. The matrix is
literal data so the cell-by-cell tests compare against exactly what ships.
"""

from __future__ import annotations

import enum
from typing import Optional

from .sm_core import StateMachineSpec


class TextEnum(str, enum.Enum):
    """A string-valued enumeration: a member is a str equal to its value,
    hashes like it (in C), and writes out as it under ``str``, f-strings and
    ``json`` on every Python version. ``Class(text)`` rejects other text."""

    __str__ = str.__str__
    __format__ = str.__format__  # Enum's gives the same text from Python code


class RegState(TextEnum):
    ACTIVE = "ACTIVE"
    FROZEN = "FROZEN"
    SEIZED = "SEIZED"
    CONFISCATED = "CONFISCATED"
    RESTRICTED = "RESTRICTED"


class RegAction(TextEnum):
    FREEZE = "FREEZE"
    SEIZE = "SEIZE"
    CONFISCATE = "CONFISCATE"
    RESTRICT = "RESTRICT"
    UNFREEZE = "UNFREEZE"
    UNRESTRICT = "UNRESTRICT"
    RELEASE = "RELEASE"


# The full matrix: 12 defined cells, the other 23 of the 35 are undefined.
REG_MACHINE = StateMachineSpec.make(
    RegState,
    RegAction,
    {
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
    },
    (RegState.CONFISCATED,),
)
REG_TRANSITIONS = REG_MACHINE.transitions


def reg_transition(s: RegState, a: RegAction) -> Optional[RegState]:
    return REG_TRANSITIONS.get((s, a))


def reg_machine_spec() -> StateMachineSpec:
    """The regulatory machine: the one spec whose table ``reg_transition`` reads."""
    return REG_MACHINE
