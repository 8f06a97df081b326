"""Each rule of the model checker can fire, and the budget is decided before
anything is built."""

import itertools
from dataclasses import replace

import pytest

from regsync import engine, modelcheck
from regsync.engine import SyncFailure, SyncResult
from regsync.modelcheck import initial_state_count, run_modelcheck
from regsync.regulatory import RegAction, RegState
from regsync.report import BudgetExceededError

from test_acceptance import _mutant_skip_release


def _succeeded(mutate):
    """A sync_fn that runs the real engine and hands each success to
    ``mutate(aid, new_state)``."""

    def sync_fn(source, action, aid, gs):
        result = engine.sync(source, action, aid, gs)
        return SyncResult.success(mutate(aid, result.state)) if result.ok else result

    return sync_fn


def _fail_freeze(source, action, aid, gs):
    if action is RegAction.FREEZE:
        return SyncResult.failure(SyncFailure.LOCKED)
    return engine.sync(source, action, aid, gs)


def _accept_undefined(source, action, aid, gs):
    result = engine.sync(source, action, aid, gs)
    if result.reason is SyncFailure.INVALID_TRANSITION:
        return SyncResult.success(gs)
    return result


def _rewrite_owners(gs, touch):
    chains = {
        c: {a: replace(rec, owner="thief") if touch(a) else rec for a, rec in table.items()}
        for c, table in gs.chains.items()
    }
    return engine.GlobalState(chains, gs.locks)


_touch_neighbour = _succeeded(lambda aid, gs: _rewrite_owners(gs, lambda a: a != aid))
_change_owner = _succeeded(lambda aid, gs: _rewrite_owners(gs, lambda a: a == aid))
_lock_neighbour = _succeeded(
    lambda aid, gs: engine.GlobalState(gs.chains, gs.locks | {"a1" if aid == "a2" else "a2"})
)


def rules(result):
    return {ce.rule for ce in result.counterexamples}


@pytest.mark.parametrize(
    "sync_fn, bounds, fired",
    [
        pytest.param(_fail_freeze, (1, 1, 1), {"combined_success"}, id="combined_success"),
        pytest.param(_touch_neighbour, (1, 2, 1), {"sync_isolation"}, id="sync_isolation"),
        pytest.param(
            _mutant_skip_release, (1, 1, 1), {"lock_released", "valid_state_preservation"},
            id="lock_released",
        ),
        pytest.param(
            _lock_neighbour, (1, 2, 1), {"valid_state_preservation"},
            id="valid_state_preservation",
        ),
        pytest.param(
            _accept_undefined, (1, 1, 1), {"generic_agreement", "cross_domain_consistency"},
            id="generic_agreement",
        ),
        pytest.param(_change_owner, (2, 1, 1), {"owner_untouched"}, id="owner_untouched"),
    ],
)
def test_rule_fires(sync_fn, bounds, fired):
    assert rules(run_modelcheck(*bounds, sync_fn=sync_fn)) == fired


class TestCombinedSuccess:
    """The combined guarantee: when the state is valid, the transition is
    defined and the asset is unlocked, the sync succeeds."""

    def test_fires_for_a_failed_sync_whose_premises_hold(self):
        assert run_modelcheck(2, 1, 1).ok
        result = run_modelcheck(2, 1, 1, sync_fn=_fail_freeze)
        ce = result.counterexamples[0]
        assert (ce.rule, ce.detail) == ("combined_success", "sync failed with Locked")
        steps = [(s.source, s.action, s.asset) for s in ce.steps]
        assert steps == [("c1", RegAction.FREEZE, "a1")]

    def test_silent_on_a_locked_asset(self):
        reasons = []

        def recording(source, action, aid, gs):
            result = _mutant_skip_release(source, action, aid, gs)
            reasons.append(result.reason)
            return result

        # The mutant leaves each synced asset locked, so every defined
        # transition from those states fails with Locked; its premises
        # (no lock held) are unmet and nothing is reported for them.
        result = run_modelcheck(2, 1, 2, sync_fn=recording)
        assert SyncFailure.LOCKED in reasons
        assert "combined_success" not in rules(result)

    def test_silent_on_an_undefined_transition(self):
        reasons = []

        def recording(source, action, aid, gs):
            result = engine.sync(source, action, aid, gs)
            reasons.append(result.reason)
            return result

        assert run_modelcheck(2, 1, 1, sync_fn=recording).ok
        assert SyncFailure.INVALID_TRANSITION in reasons


def test_budget_is_decided_before_anything_is_built(monkeypatch):
    def built(*_):
        raise AssertionError("built a step or an initial state before the budget check")

    monkeypatch.setattr(modelcheck, "chain_names", built)
    monkeypatch.setattr(modelcheck, "enumerate_initial_states", built)
    with pytest.raises(BudgetExceededError) as info:
        run_modelcheck(10**6, 10**6, 1, budget=10)
    assert info.value.budget == 10


def test_budget_decision_matches_the_exact_count():
    for d in range(1, 6):
        for a in range(1, 4):
            needed = initial_state_count(d, a) * d * len(RegAction) * a
            for budget in (needed - 1, needed, needed + 1, 0, 10):
                assert modelcheck._over_budget(d, a, budget) == (needed > budget), (d, a, budget)


def _initial_states_through_make(n_chains, n_assets):
    """The initial states as first enumerated: each one passed through
    GlobalState.make, which copies every table and resets every asset_id."""
    chains = modelcheck.chain_names(n_chains)
    subsets = [
        combo for size in range(1, n_chains + 1) for combo in itertools.combinations(chains, size)
    ]
    per_asset = [(subset, state) for subset in subsets for state in RegState]
    for assignment in itertools.product(per_asset, repeat=n_assets):
        tables = {c: {} for c in chains}
        for aid, (subset, state) in zip(modelcheck.asset_names(n_assets), assignment):
            for c in subset:
                tables[c][aid] = engine.AssetState(aid, state, owner="owner")
        yield engine.GlobalState.make(tables)


@pytest.mark.parametrize("bounds", [(2, 2), (3, 1)])
def test_initial_states_equal_the_make_built_ones(bounds):
    built = list(modelcheck.enumerate_initial_states(*bounds))
    reference = list(_initial_states_through_make(*bounds))
    assert len(built) == initial_state_count(*bounds)
    assert [modelcheck._state_key(gs) for gs in built] == [
        modelcheck._state_key(gs) for gs in reference
    ]
    assert built == reference
    assert all(
        rec.asset_id == aid for gs in built for table in gs.chains.values()
        for aid, rec in table.items()
    )
