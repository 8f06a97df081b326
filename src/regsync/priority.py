"""Deterministic conflict resolution via an injective lexicographic key.

A pending request maps to a 4-tuple (authority rank, inverted timestamp,
action severity, inverted node id); tuples compare lexicographically and
the maximum wins. Inversions are taken against explicit horizons so the
subtraction stays total.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import itemgetter

from .regulatory import RegAction
from .report import ValidationReport


class AuthorityLevel(enum.Enum):
    REGIONAL = "Regional"
    NATIONAL = "National"
    INTERNATIONAL = "International"


AUTHORITY_RANK: dict[AuthorityLevel, int] = {
    AuthorityLevel.REGIONAL: 1,
    AuthorityLevel.NATIONAL: 2,
    AuthorityLevel.INTERNATIONAL: 3,
}

# Any injective assignment works; escalating/irreversible actions outrank
# the reversals.
ACTION_SEVERITY: dict[RegAction, int] = {
    RegAction.CONFISCATE: 7,
    RegAction.SEIZE: 6,
    RegAction.FREEZE: 5,
    RegAction.RESTRICT: 4,
    RegAction.RELEASE: 3,
    RegAction.UNFREEZE: 2,
    RegAction.UNRESTRICT: 1,
}

DEFAULT_HORIZON = 2**32 - 1


class HorizonError(ValueError):
    """A timestamp or node id exceeds the configured inversion horizon."""


class DuplicateKeyError(ValueError):
    """Two distinct requests mapped to the same priority key."""

    def __init__(self, a: RegRequest, b: RegRequest, key: PriorityKey):
        super().__init__(f"requests {request_id(a)} and {request_id(b)} share priority key {key}")
        self.requests = (a, b)
        self.key = key


@dataclass(frozen=True)
class PriorityConfig:
    t_max: int = DEFAULT_HORIZON
    n_max: int = DEFAULT_HORIZON


@dataclass(frozen=True)
class RegRequest:
    node_id: int
    authority: AuthorityLevel
    timestamp: int
    action: RegAction
    asset: str


PriorityKey = tuple[int, int, int, int]


def authority_rank(level: AuthorityLevel) -> int:
    return AUTHORITY_RANK[level]


def action_severity(a: RegAction) -> int:
    return ACTION_SEVERITY[a]


def priority_key(r: RegRequest, cfg: PriorityConfig = PriorityConfig()) -> PriorityKey:
    if not 0 <= r.timestamp <= cfg.t_max:
        raise HorizonError(f"{request_id(r)}: timestamp {r.timestamp} outside [0, {cfg.t_max}]")
    if not 0 <= r.node_id <= cfg.n_max:
        raise HorizonError(f"{request_id(r)}: node_id {r.node_id} outside [0, {cfg.n_max}]")
    return (
        authority_rank(r.authority),
        cfg.t_max - r.timestamp,
        action_severity(r.action),
        cfg.n_max - r.node_id,
    )


def rank_requests(rs, cfg: PriorityConfig = PriorityConfig()) -> list[RegRequest]:
    """The distinct requests of ``rs``, highest priority first.

    Identical requests count once, and each distinct request's key is
    computed exactly once. Raises DuplicateKeyError if two distinct requests
    share a key, since the uniqueness guarantee rests on key injectivity,
    and HorizonError if a request lies outside the horizons.
    """
    keyed = sorted(
        ((priority_key(r, cfg), r) for r in dict.fromkeys(rs)),
        key=itemgetter(0),
        reverse=True,
    )
    for (k, a), (k2, b) in zip(keyed, keyed[1:]):
        if k == k2:
            raise DuplicateKeyError(a, b, k)
    return [r for _, r in keyed]


def select_highest(rs, cfg: PriorityConfig = PriorityConfig()):
    """Unique-maximum selection; order of the input is irrelevant.

    Returns None for an empty input; raises as ``rank_requests`` does.
    """
    ranked = rank_requests(rs, cfg)
    return ranked[0] if ranked else None


def check_injectivity(rs, cfg: PriorityConfig = PriorityConfig()) -> ValidationReport:
    """Report the highest-ranked pair of distinct requests sharing a key."""
    report = ValidationReport()
    try:
        rank_requests(rs, cfg)
    except DuplicateKeyError as exc:
        report.add("priority_injective", exc.requests, f"shared key {exc.key}")
    return report


def request_id(r: RegRequest) -> str:
    return f"n{r.node_id}-t{r.timestamp}-{r.action.value}-{r.asset}"


def request_from_json(obj: dict) -> RegRequest:
    return RegRequest(
        node_id=int(obj["node"]),
        authority=AuthorityLevel(obj["authority"]),
        timestamp=int(obj["timestamp"]),
        action=RegAction(obj["action"]),
        asset=str(obj["asset"]),
    )


def request_to_json(r: RegRequest) -> dict:
    return {
        "node": r.node_id,
        "authority": r.authority.value,
        "timestamp": r.timestamp,
        "action": r.action.value,
        "asset": r.asset,
    }
