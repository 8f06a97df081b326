import pytest

from regsync import engine
from regsync.regulatory import RegState


def make_state(placement, locks=None):
    """Build a GlobalState from {chain: {asset: RegState}} plus a lock map."""
    chains = {
        c: {aid: engine.AssetState(aid, st, owner="owner") for aid, st in table.items()}
        for c, table in placement.items()
    }
    return engine.GlobalState.make(chains, locks or {})


def rules(report):
    """The rule names of ``report``'s violations."""
    return {v.rule for v in report.violations}


@pytest.fixture
def two_chain_active():
    return make_state(
        {
            "c1": {"a1": RegState.ACTIVE, "a2": RegState.RESTRICTED},
            "c2": {"a1": RegState.ACTIVE},
        }
    )
