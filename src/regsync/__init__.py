"""Executable cross-chain regulatory state synchronization model.

Layers: a generic finite state machine core, multi-domain propagation, the
concrete regulatory machine, an atomic sync engine with per-asset locking,
deterministic priority ordering, a Byzantine liveness simulator, and a
small-scope model checker, all wired into the ``regsync`` CLI; ``locales``
holds the paper's generic locale checks, which only tests run.
"""

from .regulatory import RegAction, RegState, reg_transition
from .engine import GlobalState, SyncResult, sync, valid_state
from .priority import AuthorityLevel, RegRequest, priority_key, select_highest

__all__ = [
    "RegAction",
    "RegState",
    "reg_transition",
    "GlobalState",
    "SyncResult",
    "sync",
    "valid_state",
    "AuthorityLevel",
    "RegRequest",
    "priority_key",
    "select_highest",
]

__version__ = "0.1.0"
