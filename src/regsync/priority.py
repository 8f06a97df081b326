"""Deterministic conflict ordering via an injective lexicographic key.

A pending request maps to a 4-tuple (authority rank, inverted timestamp,
action severity, inverted node id); tuples compare lexicographically and
the maximum is applied first. The key decides the order in which a drain
applies conflicting requests, not which one prevails: the last one applied
decides the final state (International FREEZE and then Regional UNFREEZE
of an ACTIVE asset leave it ACTIVE). Timestamps and node ids are inverted
against one horizon, ``DEFAULT_HORIZON``, so the subtraction stays total.
"""

from __future__ import annotations

from operator import itemgetter

from .records import record
from .regulatory import RegAction, TextEnum


class AuthorityLevel(TextEnum):
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
    """A timestamp or node id lies outside ``[0, DEFAULT_HORIZON]``."""


class DuplicateKeyError(ValueError):
    """Two distinct requests mapped to the same priority key."""

    def __init__(self, a: RegRequest, b: RegRequest, key: PriorityKey):
        super().__init__(f"requests {request_id(a)} and {request_id(b)} share priority key {key}")
        self.requests = (a, b)
        self.key = key


@record
class RegRequest:
    node_id: int
    authority: AuthorityLevel
    timestamp: int
    action: RegAction
    asset: str


PriorityKey = tuple[int, int, int, int]


def priority_key(r: RegRequest) -> PriorityKey:
    for name, value in (("timestamp", r.timestamp), ("node_id", r.node_id)):
        if not 0 <= value <= DEFAULT_HORIZON:
            raise HorizonError(f"{request_id(r)}: {name} {value} outside [0, {DEFAULT_HORIZON}]")
    return (
        AUTHORITY_RANK[r.authority],
        DEFAULT_HORIZON - r.timestamp,
        ACTION_SEVERITY[r.action],
        DEFAULT_HORIZON - r.node_id,
    )


def rank_requests(rs) -> list[RegRequest]:
    """The distinct requests of ``rs``, highest priority first.

    Identical requests count once, and each distinct request's key is
    computed exactly once. Raises DuplicateKeyError if two distinct requests
    share a key, since the uniqueness guarantee rests on key injectivity,
    and HorizonError if a request lies outside the horizon.
    """
    keyed = sorted(
        ((priority_key(r), r) for r in dict.fromkeys(rs)),
        key=itemgetter(0),
        reverse=True,
    )
    for (k, a), (k2, b) in zip(keyed, keyed[1:]):
        if k == k2:
            raise DuplicateKeyError(a, b, k)
    return [r for _, r in keyed]


def select_highest(rs):
    """Unique-maximum selection; order of the input is irrelevant.

    Returns None for an empty input; raises as ``rank_requests`` does.
    """
    ranked = rank_requests(rs)
    return ranked[0] if ranked else None


def request_id(r: RegRequest) -> str:
    return f"n{r.node_id}-t{r.timestamp}-{r.action}-{r.asset}"
