import json

import pytest

from regsync import regulatory
from regsync.engine import SyncFailure
from regsync.locales import validate_machine
from regsync.priority import AuthorityLevel
from regsync.regulatory import (
    RegAction,
    REG_MACHINE,
    RegState,
    reg_machine_spec,
    reg_transition,
)

# The published matrix, re-typed cell by cell as an independent reference.
# Rows: state; columns follow FREEZE, SEIZE, CONFISCATE, RESTRICT,
# UNFREEZE, UNRESTRICT, RELEASE. None means undefined.
REFERENCE_MATRIX = {
    "ACTIVE": ["FROZEN", "SEIZED", "CONFISCATED", "RESTRICTED", None, None, None],
    "FROZEN": [None, "SEIZED", "CONFISCATED", None, "ACTIVE", None, None],
    "SEIZED": [None, None, "CONFISCATED", None, None, None, "ACTIVE"],
    "CONFISCATED": [None, None, None, None, None, None, None],
    "RESTRICTED": ["FROZEN", None, "CONFISCATED", None, None, "ACTIVE", None],
}

ACTION_ORDER = [
    RegAction.FREEZE,
    RegAction.SEIZE,
    RegAction.CONFISCATE,
    RegAction.RESTRICT,
    RegAction.UNFREEZE,
    RegAction.UNRESTRICT,
    RegAction.RELEASE,
]


def test_matrix_matches_reference_cell_by_cell():
    for state_name, row in REFERENCE_MATRIX.items():
        s = RegState(state_name)
        for a, expected in zip(ACTION_ORDER, row):
            got = reg_transition(s, a)
            assert (None if got is None else got.value) == expected, (s, a)


def test_exactly_12_defined_and_23_absent():
    defined = sum(
        1 for s in RegState for a in RegAction if reg_transition(s, a) is not None
    )
    assert defined == 12
    assert len(RegState) * len(RegAction) - defined == 23


@pytest.mark.parametrize("a", list(RegAction))
def test_terminal_absorptivity(a):
    assert reg_transition(RegState.CONFISCATED, a) is None


@pytest.mark.parametrize("s", [s for s in RegState if s is not RegState.CONFISCATED])
def test_universal_confiscation(s):
    assert reg_transition(s, RegAction.CONFISCATE) is RegState.CONFISCATED


def test_no_self_loops():
    for s in RegState:
        for a in RegAction:
            assert reg_transition(s, a) is not s


def test_excluded_by_design_transitions():
    assert reg_transition(RegState.SEIZED, RegAction.FREEZE) is None
    assert reg_transition(RegState.FROZEN, RegAction.RESTRICT) is None


def test_is_terminal():
    assert REG_MACHINE.terminal == {RegState.CONFISCATED}


def valid_actions(s):
    """The actions with a defined move from ``s``."""
    return {a for a in RegAction if reg_transition(s, a) is not None}


class TestValidActions:
    def test_active(self):
        assert valid_actions(RegState.ACTIVE) == {
            RegAction.FREEZE,
            RegAction.SEIZE,
            RegAction.CONFISCATE,
            RegAction.RESTRICT,
        }

    def test_seized(self):
        assert valid_actions(RegState.SEIZED) == {RegAction.CONFISCATE, RegAction.RELEASE}

    def test_confiscated_empty(self):
        assert valid_actions(RegState.CONFISCATED) == set()

    def test_non_terminal_progress(self):
        for s in RegState:
            if s is not RegState.CONFISCATED:
                assert valid_actions(s)


class TestMachineSpec:
    def test_sizes(self):
        sm = reg_machine_spec()
        assert len(sm.states) == 5
        assert len(sm.actions) == 7
        assert len(sm.transitions) == 12

    def test_validator_clean(self):
        assert validate_machine(reg_machine_spec()).ok

    def test_pointwise_agreement_with_reg_transition(self):
        sm = reg_machine_spec()
        for s in RegState:
            for a in RegAction:
                expected = reg_transition(s, a)
                got = sm.transitions.get((s.value, a.value))
                assert got == (None if expected is None else expected.value)


ENUMS = [RegState, RegAction, SyncFailure, AuthorityLevel]


@pytest.mark.parametrize("enum_cls", ENUMS)
def test_members_hash_by_identity(enum_cls):
    # A member is a str equal to its value, so str's C-level hash is
    # consistent with equality and spares each dict lookup keyed by a member
    # a Python-level call.
    assert enum_cls.__hash__ is str.__hash__
    for member in enum_cls:
        assert hash(member) == hash(member.value)
        assert member == enum_cls(member.value)


@pytest.mark.parametrize("enum_cls", ENUMS)
def test_members_are_their_values(enum_cls):
    for member in enum_cls:
        value = member.value
        assert type(value) is str
        assert member == value and value == member and hash(member) == hash(value)
        assert {value: 1}[member] == 1 and {member: 1}[value] == 1
        assert str(member) == f"{member}" == f"{member:}" == "%s" % member == value
        assert f"{member:>20}" == f"{value:>20}"
        assert json.dumps(member) == json.dumps(value)
        doc = {member: [member], "k": {"v": member}}
        text = {value: [value], "k": {"v": value}}
        assert json.dumps(doc, sort_keys=True) == json.dumps(text, sort_keys=True)
        assert json.dumps(doc, sort_keys=True, indent=2) == json.dumps(text, sort_keys=True, indent=2)


@pytest.mark.parametrize("enum_cls", ENUMS)
def test_unknown_text_is_still_rejected(enum_cls):
    with pytest.raises(ValueError):
        enum_cls("not a member")
    with pytest.raises(ValueError):
        enum_cls(next(iter(enum_cls)).value.lower())


def test_one_machine_object_at_run_time():
    sm = reg_machine_spec()
    assert sm is reg_machine_spec()
    assert sm.transitions is regulatory.REG_TRANSITIONS
    assert sm.states == set(RegState) and sm.actions == set(RegAction)
    # Every cell of the spec is a member, not a plain string equal to one.
    assert all(type(x) is RegState for x in sm.states | sm.terminal)
    assert all(type(a) is RegAction for a in sm.actions)
    for (s, a), s2 in sm.transitions.items():
        assert type(s) is RegState and type(a) is RegAction and reg_transition(s, a) is s2
