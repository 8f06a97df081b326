import pytest

from regsync.engine import SyncFailure
from regsync.regulatory import (
    RegAction,
    RegState,
    is_terminal,
    reg_machine_spec,
    reg_transition,
    valid_actions,
)
from regsync.sm_core import validate_machine

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
    assert is_terminal(RegState.CONFISCATED)
    assert not is_terminal(RegState.ACTIVE)
    assert not is_terminal(RegState.SEIZED)


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


@pytest.mark.parametrize("enum_cls", [RegState, RegAction, SyncFailure])
def test_members_hash_by_identity(enum_cls):
    # Enum equality is identity, so the C identity hash is consistent with
    # it and spares each dict lookup keyed by a member a Python-level call.
    assert enum_cls.__hash__ is object.__hash__
    for member in enum_cls:
        assert hash(member) == object.__hash__(member)
        assert member == enum_cls(member.value)
