"""Epoch-based Byzantine liveness simulator.

Discrete time: one epoch = one time unit for both the leader schedule and
the lock clock. Honest leaders process exactly one pending request per
epoch; Byzantine leaders process nothing and may withhold a lock on a
pending asset until the timeout forces release.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from . import engine
from .priority import (
    DEFAULT_HORIZON,
    PriorityConfig,
    RegRequest,
    rank_requests,
    request_id,
    select_highest,  # noqa: F401 -- kept as liveness.select_highest, which bench/tracer.py wraps
)
from .report import ValidationReport


@dataclass(frozen=True)
class NodeInfo:
    node_id: int
    honest: bool


@dataclass(frozen=True)
class SimConfig:
    nodes: tuple[NodeInfo, ...]
    f_max: int
    lock_timeout: int
    fairness_bound: int
    t_max: int = DEFAULT_HORIZON
    n_max: int = DEFAULT_HORIZON
    seed: int = 0

    @property
    def honest_nodes(self) -> tuple[NodeInfo, ...]:
        return tuple(n for n in self.nodes if n.honest)

    @property
    def byzantine_nodes(self) -> tuple[NodeInfo, ...]:
        return tuple(n for n in self.nodes if not n.honest)

    @cached_property
    def _honest_ids(self) -> frozenset[int]:
        return frozenset(n.node_id for n in self.honest_nodes)

    def is_honest(self, node_id: int) -> bool:
        return node_id in self._honest_ids

    def priority_config(self) -> PriorityConfig:
        return PriorityConfig(t_max=self.t_max, n_max=self.n_max)


def validate_bft_config(cfg: SimConfig) -> ValidationReport:
    """Check n >= 3f+1, the Byzantine bound, positivity, and the derived
    honest majority."""
    report = ValidationReport()
    n = len(cfg.nodes)
    ids = [node.node_id for node in cfg.nodes]
    if len(set(ids)) != n:
        report.add("unique_node_ids", sorted(ids))
    if n < 3 * cfg.f_max + 1:
        report.add("bft_threshold", (n, cfg.f_max), f"{n} < 3*{cfg.f_max}+1")
    byz = len(cfg.byzantine_nodes)
    if byz > cfg.f_max:
        report.add("byzantine_bound", (byz, cfg.f_max))
    if cfg.lock_timeout <= 0:
        report.add("timeout_positive", cfg.lock_timeout)
    if cfg.fairness_bound <= 0:
        report.add("fairness_positive", cfg.fairness_bound)
    if report.ok and len(cfg.honest_nodes) <= 2 * cfg.f_max:
        report.add("honest_majority", (len(cfg.honest_nodes), cfg.f_max))
    return report


def lock_effective(lock_time: int, current_time: int, timeout: int) -> bool:
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    return current_time < lock_time + timeout


def expiry_time(lock_time: int, timeout: int) -> int:
    """Least time at which the lock is no longer effective."""
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    return lock_time + timeout


@dataclass(frozen=True)
class LeaderSchedule:
    leaders: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.leaders)

    def leader_at(self, epoch: int) -> int:
        return self.leaders[epoch]


def check_fair_leader(sched: LeaderSchedule, cfg: SimConfig) -> ValidationReport:
    """Every fairness_bound-length window must contain an honest leader."""
    report = ValidationReport()
    k = cfg.fairness_bound
    for start in range(0, max(sched.horizon - k + 1, 0)):
        window = sched.leaders[start : start + k]
        if not any(cfg.is_honest(n) for n in window):
            report.add("fair_leader", (start, start + k), f"window {window}")
    return report


def gen_fair_schedule(cfg: SimConfig, horizon: int) -> LeaderSchedule:
    """Seeded pseudorandom schedule with an honest leader forced at every
    position e with e % fairness_bound == fairness_bound - 1, which puts one
    honest epoch in every sliding window."""
    honest = sorted(cfg.honest_nodes, key=lambda n: n.node_id)
    if not honest:
        raise ValueError("no honest nodes; fair_leader is unsatisfiable")
    everyone = sorted(cfg.nodes, key=lambda n: n.node_id)
    rng = random.Random(f"fair:{cfg.seed}")
    k = cfg.fairness_bound
    leaders = []
    for e in range(horizon):
        pool = honest if e % k == k - 1 else everyone
        leaders.append(rng.choice(pool).node_id)
    sched = LeaderSchedule(tuple(leaders))
    assert check_fair_leader(sched, cfg).ok
    return sched


def gen_adversarial_schedule(cfg: SimConfig, horizon: int) -> LeaderSchedule:
    """Worst case allowed by fair_leader: Byzantine runs of exactly
    fairness_bound - 1 epochs between honest epochs."""
    honest = sorted(cfg.honest_nodes, key=lambda n: n.node_id)
    byz = sorted(cfg.byzantine_nodes, key=lambda n: n.node_id)
    if not honest:
        raise ValueError("no honest nodes; fair_leader is unsatisfiable")
    if not byz:
        raise ValueError("no Byzantine nodes available for an adversarial schedule")
    rng = random.Random(f"adv:{cfg.seed}")
    k = cfg.fairness_bound
    leaders = []
    for e in range(horizon):
        pool = honest if e % k == k - 1 else byz
        leaders.append(rng.choice(pool).node_id)
    sched = LeaderSchedule(tuple(leaders))
    assert check_fair_leader(sched, cfg).ok
    return sched


@dataclass(frozen=True)
class LockEvent:
    asset: str
    event: str  # "acquire" | "release" | "expire"
    epoch: int

    def to_json(self) -> dict:
        return {"asset": self.asset, "event": self.event, "epoch": self.epoch}


@dataclass(frozen=True)
class SimState:
    epoch: int
    pending: tuple[RegRequest, ...]
    global_state: engine.GlobalState
    lock_times: dict[str, int] = field(default_factory=dict)
    # Derived from the fields above by step_epoch and trusted only while
    # they are the very objects it was made for; not part of the value.
    ranking: Optional[Ranking] = field(default=None, compare=False, repr=False)


class Ranking:
    """The pending requests of one state in descending priority order, each
    key computed once per drain, plus what an epoch needs to update them
    without re-ranking: the pending count per asset, the sorted distinct
    pending assets, and the pending assets locked with no ``lock_times``
    entry, which no epoch ever releases.

    An epoch updates the ranking in place and hands it to the next state;
    from then on it no longer matches the state it came from, which
    therefore ranks afresh if it is stepped again.
    """

    def __init__(self, s: SimState, cfg: SimConfig):
        copies = Counter(s.pending)
        ranked = rank_requests(copies, cfg.priority_config())
        self.pending = tuple(r for r in ranked for _ in range(copies[r]))
        self.counts = Counter(r.asset for r in self.pending)
        self.assets = sorted(self.counts)
        self.stuck = frozenset(
            a for a in self.assets if engine.is_locked(s.global_state, a) and a not in s.lock_times
        )
        self.global_state, self.lock_times = s.global_state, s.lock_times

    def fits(self, s: SimState) -> bool:
        return (
            self.pending is s.pending
            and self.global_state is s.global_state
            and self.lock_times is s.lock_times
        )

    def unlocked_assets(self, gs: engine.GlobalState, lock_times: dict[str, int]) -> _Unlocked:
        """The sorted distinct pending assets that are not locked in ``gs``."""
        held = sorted(
            a for a in {*lock_times, *self.stuck} if a in self.counts and engine.is_locked(gs, a)
        )
        return _Unlocked(self.assets, [bisect_left(self.assets, a) for a in held])

    def advance(self, removed: Optional[str], s: SimState) -> None:
        """Take one request on asset ``removed`` (if any) out of the counts,
        and make this the ranking of ``s``."""
        if removed is not None:
            self.counts[removed] -= 1
            if not self.counts[removed]:
                del self.counts[removed]
                del self.assets[bisect_left(self.assets, removed)]
        self.pending, self.global_state, self.lock_times = s.pending, s.global_state, s.lock_times


class _Unlocked:
    """``assets`` without the entries at the sorted positions ``held``: the
    list ``rng.choice`` draws from, without copying ``assets``."""

    def __init__(self, assets: list[str], held: list[int]):
        self.assets, self.held = assets, held

    def __len__(self) -> int:
        return len(self.assets) - len(self.held)

    def __getitem__(self, i: int) -> str:
        for p in self.held:
            if p > i:
                break
            i += 1
        return self.assets[i]


def ranked(s: SimState, cfg: SimConfig) -> SimState:
    """``s`` with its pending requests in descending priority order and its
    ranking attached. Raises DuplicateKeyError or HorizonError if some
    pending requests cannot be ranked."""
    if s.ranking is not None and s.ranking.fits(s):
        return s
    rk = Ranking(s, cfg)
    return SimState(s.epoch, rk.pending, s.global_state, s.lock_times, rk)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    leader: int
    honest: bool
    pending_before: int
    pending_after: int
    processed: Optional[str]
    lock_events: tuple[LockEvent, ...]

    def to_json(self) -> dict:
        return {
            "epoch": self.epoch,
            "leader": self.leader,
            "honest": self.honest,
            "pending_before": self.pending_before,
            "pending_after": self.pending_after,
            "processed": self.processed,
            "lock_events": [ev.to_json() for ev in self.lock_events],
        }


EpochTrace = list[EpochRecord]


def _source_chain(gs: engine.GlobalState, asset: str) -> Optional[str]:
    connected = engine.connected_chains(gs, asset)
    return min(connected) if connected else None


def step_epoch(s: SimState, sched: LeaderSchedule, cfg: SimConfig) -> tuple[SimState, EpochRecord]:
    """One epoch of dynamics: expire stale locks, then let the leader act.

    The Byzantine withholding attack never locks the last unlocked pending
    asset; honest leaders therefore always find work while requests remain,
    which is exactly the honest-progress premise the liveness theorems
    assume.

    The first epoch of a drain ranks the pending requests (see ``ranked``);
    later epochs reuse that ranking and never re-key, re-sort or scan the
    pending requests.
    """
    s = ranked(s, cfg)
    rk = s.ranking
    events: list[LockEvent] = []
    gs = s.global_state
    lock_times = dict(s.lock_times)

    for aid in sorted(lock_times):
        if not lock_effective(lock_times[aid], s.epoch, cfg.lock_timeout):
            gs = engine.release_lock(gs, aid)
            del lock_times[aid]
            events.append(LockEvent(aid, "expire", s.epoch))

    leader = sched.leader_at(s.epoch)
    honest = cfg.is_honest(leader)
    pending = s.pending
    processed: Optional[str] = None
    removed: Optional[str] = None

    if honest:
        # The first unlocked request in ranked order is select_highest of
        # the unlocked candidates.
        for i, chosen in enumerate(pending):
            if engine.is_locked(gs, chosen.asset):
                continue
            source = _source_chain(gs, chosen.asset)
            if source is not None:
                events.append(LockEvent(chosen.asset, "acquire", s.epoch))
                result = engine.sync(source, chosen.action, chosen.asset, gs)
                if result.ok:
                    gs = result.state
                events.append(LockEvent(chosen.asset, "release", s.epoch))
            pending = pending[:i] + pending[i + 1 :]
            processed = request_id(chosen)
            removed = chosen.asset
            break
    elif pending:
        rng = random.Random(f"step:{cfg.seed}:{s.epoch}")
        unlocked = rk.unlocked_assets(gs, lock_times)
        # Single-resource discipline plus the no-total-blockade bound on the
        # adversary: at least one pending asset must stay unlocked.
        if len(unlocked) >= 2 and rng.random() < 0.5:
            target = rng.choice(unlocked)
            locked = engine.acquire_lock(gs, target)
            if locked is not None:
                gs = locked
                lock_times[target] = s.epoch
                events.append(LockEvent(target, "acquire", s.epoch))

    record = EpochRecord(
        epoch=s.epoch,
        leader=leader,
        honest=honest,
        pending_before=len(s.pending),
        pending_after=len(pending),
        processed=processed,
        lock_events=tuple(events),
    )
    next_state = SimState(s.epoch + 1, pending, gs, lock_times, rk)
    rk.advance(removed, next_state)
    return next_state, record


def run_until_drained(
    s0: SimState, sched: LeaderSchedule, cfg: SimConfig, max_epochs: int
) -> EpochTrace:
    """Iterate step_epoch until pending empties or the epoch budget runs out."""
    trace: EpochTrace = []
    state = s0
    while state.pending and state.epoch < min(max_epochs, sched.horizon):
        state, record = step_epoch(state, sched, cfg)
        trace.append(record)
        assert record.pending_after <= record.pending_before
    return trace


def check_starvation_bound(trace: EpochTrace, k: int) -> ValidationReport:
    """Every full k-window starting at positive pending must contain a
    strict decrease."""
    report = ValidationReport()
    for i, record in enumerate(trace):
        if record.pending_before == 0 or i + k > len(trace):
            continue
        window = trace[i : i + k]
        if not any(r.pending_after < r.pending_before for r in window):
            report.add(
                "starvation_bound",
                (window[0].epoch, window[-1].epoch + 1),
                f"pending stuck at {record.pending_before}",
            )
    return report


def check_eventual_completion(trace: EpochTrace) -> ValidationReport:
    report = ValidationReport()
    if trace and trace[-1].pending_after != 0:
        report.add("eventual_completion", trace[-1].epoch, f"{trace[-1].pending_after} requests left")
    return report
