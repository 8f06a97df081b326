import itertools

import pytest
from hypothesis import given, strategies as st

from regsync.regulatory import reg_machine_spec
from regsync.locales import apply_actions, validate_machine
from regsync.sm_core import StateMachineSpec, transition_of

from conftest import rules

REG = reg_machine_spec()


class TestTransitionOf:
    def test_defined_cell(self):
        assert transition_of(REG, "ACTIVE", "FREEZE") == "FROZEN"

    def test_terminal_state_returns_none(self):
        assert transition_of(REG, "CONFISCATED", "RELEASE") is None

    def test_unknown_state_returns_none(self):
        assert transition_of(REG, "unknownState", "FREEZE") is None

    def test_unknown_action_returns_none(self):
        assert transition_of(REG, "ACTIVE", "NOOP") is None

    def test_deterministic_over_full_domain(self):
        for s in REG.states:
            for a in REG.actions:
                assert transition_of(REG, s, a) == transition_of(REG, s, a)


class TestApplyActions:
    def test_empty_sequence_is_identity(self):
        assert apply_actions(REG, "ACTIVE", []) == "ACTIVE"

    def test_empty_sequence_outside_states(self):
        assert apply_actions(REG, "nope", []) is None

    def test_three_step_fold(self):
        # ACTIVE -FREEZE-> FROZEN -SEIZE-> SEIZED -CONFISCATE-> CONFISCATED
        assert apply_actions(REG, "ACTIVE", ["FREEZE", "SEIZE", "CONFISCATE"]) == "CONFISCATED"

    def test_undefined_mid_sequence(self):
        assert apply_actions(REG, "ACTIVE", ["FREEZE", "FREEZE"]) is None

    def test_terminal_state_rejects_any_nonempty_sequence(self):
        for length in (1, 2, 3):
            for seq in itertools.product(sorted(REG.actions), repeat=length):
                assert apply_actions(REG, "CONFISCATED", seq) is None

    def test_fold_composition_exhaustive_up_to_4(self):
        actions = sorted(REG.actions)
        for s in sorted(REG.states):
            for total in range(5):
                for seq in itertools.product(actions, repeat=total):
                    whole = apply_actions(REG, s, seq)
                    for cut in range(total + 1):
                        mid = apply_actions(REG, s, seq[:cut])
                        via = None if mid is None else apply_actions(REG, mid, seq[cut:])
                        assert via == whole

    @given(st.lists(st.sampled_from(sorted(REG.actions)), max_size=4),
           st.lists(st.sampled_from(sorted(REG.actions)), max_size=4),
           st.sampled_from(sorted(REG.states)))
    def test_fold_composition_property(self, xs, ys, s):
        mid = apply_actions(REG, s, xs)
        via = None if mid is None else apply_actions(REG, mid, ys)
        assert via == apply_actions(REG, s, xs + ys)


class TestValidateMachine:
    def test_regulatory_machine_is_clean(self):
        assert validate_machine(REG).ok

    def test_transition_from_terminal_state(self):
        sm = StateMachineSpec.make(
            ["a", "b"], ["x"], {("b", "x"): "a"}, terminal=["b"]
        )
        report = validate_machine(sm)
        assert "terminal_absorbing" in rules(report)

    def test_target_outside_states(self):
        sm = StateMachineSpec.make(["a"], ["x"], {("a", "x"): "ghost"})
        assert "transition_closed" in rules(validate_machine(sm))

    def test_source_outside_states(self):
        sm = StateMachineSpec.make(["a"], ["x"], {("z", "x"): "a"})
        assert "transition_domain" in rules(validate_machine(sm))

    def test_terminal_not_subset(self):
        sm = StateMachineSpec.make(["a"], ["x"], {}, terminal=["b"])
        assert "terminal_subset" in rules(validate_machine(sm))
