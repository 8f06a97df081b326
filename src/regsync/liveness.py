"""Epoch-based Byzantine liveness simulator.

Discrete time: one epoch = one time unit for both the leader schedule and
the lock clock. Honest leaders process exactly one pending request per
epoch; Byzantine leaders process nothing and may withhold a lock on a
pending asset until the timeout forces release.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from collections import Counter
from typing import Iterable, Iterator, Optional

from . import engine
from .priority import (
    RegRequest,
    rank_requests,
    request_id,
    select_highest,  # noqa: F401 -- kept as liveness.select_highest, which bench/tracer.py wraps
)
from .records import field, record
from .report import ValidationReport


@record
class NodeInfo:
    node_id: int
    honest: bool


@record
class SimConfig:
    nodes: tuple[NodeInfo, ...]
    f_max: int
    lock_timeout: int
    fairness_bound: int
    seed: int = 0

    @property
    def honest_nodes(self) -> tuple[NodeInfo, ...]:
        return tuple(n for n in self.nodes if n.honest)

    @property
    def byzantine_nodes(self) -> tuple[NodeInfo, ...]:
        return tuple(n for n in self.nodes if not n.honest)

    def is_honest(self, node_id: int) -> bool:
        for n in self.nodes:
            if n.honest and n.node_id == node_id:
                return True
        return False


def validate_bft_config(cfg: SimConfig) -> ValidationReport:
    """Check unique node ids, n >= 3f+1, the Byzantine bound and
    positivity. The honest majority follows: n >= 3f+1 and byz <= f give
    honest = n - byz >= 2f+1."""
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
    return report


def lock_effective(lock_time: int, current_time: int, timeout: int) -> bool:
    """Whether a lock taken at ``lock_time`` still holds: it expires at
    ``lock_time + timeout``, the least time at which it is not effective."""
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    return current_time < lock_time + timeout


class LeaderSchedule:
    """The leader of each epoch below ``horizon``: the first ``horizon``
    that ``leaders`` yields, each drawn when its epoch is first asked for.
    So a drain costs the epochs it steps, not the horizon."""

    def __init__(self, leaders: Iterable[int], horizon: int):
        self._drawn = []
        self._draws = iter(leaders)
        self.horizon = max(horizon, 0)

    def leader_at(self, epoch: int) -> int:
        drawn = self._drawn
        while len(drawn) <= epoch < self.horizon:
            drawn.append(next(self._draws))
        return drawn[epoch]

    @property
    def leaders(self) -> tuple[int, ...]:
        return tuple(map(self.leader_at, range(self.horizon)))


def _windows_without(hits: Iterable[bool], k: int) -> Iterator[int]:
    """The start of every run of ``k`` consecutive entries of ``hits`` with
    no true entry, ascending, in one pass: the run ending at ``end`` has
    none iff the last true entry is ``k`` or more places back."""
    if k < 1:
        raise ValueError(f"window length must be at least 1, got {k}")
    last = -1
    for end, hit in enumerate(hits):
        if hit:
            last = end
        elif end - last >= k:
            yield end - k + 1


def check_fair_leader(sched: LeaderSchedule, cfg: SimConfig) -> ValidationReport:
    """Every fairness_bound-length window must contain an honest leader."""
    report = ValidationReport()
    k, leaders = cfg.fairness_bound, sched.leaders
    for start in _windows_without(map(cfg.is_honest, leaders), k):
        report.add("fair_leader", (start, start + k), f"window {leaders[start : start + k]}")
    return report


def gen_fair_schedule(cfg: SimConfig, horizon: int) -> LeaderSchedule:
    """Seeded pseudorandom schedule with an honest leader forced at every
    position e with e % fairness_bound == fairness_bound - 1, which puts one
    honest epoch in every sliding window."""
    return _gen_schedule(cfg, horizon, "fair", cfg.nodes)


def gen_adversarial_schedule(cfg: SimConfig, horizon: int) -> LeaderSchedule:
    """Byzantine leaders for exactly fairness_bound - 1 epochs between
    honest ones, the longest Byzantine runs fair_leader allows. This is not
    the slowest fair pattern: one that spends honest epochs where every
    pending asset is locked can drain more slowly."""
    return _gen_schedule(cfg, horizon, "adv", cfg.byzantine_nodes)


def _gen_schedule(
    cfg: SimConfig, horizon: int, tag: str, others: tuple[NodeInfo, ...]
) -> LeaderSchedule:
    """Leaders drawn by ``random.Random(f"{tag}:{seed}")`` as the epochs are
    reached: an honest node at each e with e % fairness_bound ==
    fairness_bound - 1, else one of ``others``."""
    honest = sorted(n.node_id for n in cfg.honest_nodes)
    others = sorted(n.node_id for n in others)
    if not honest:
        raise ValueError("no honest nodes; fair_leader is unsatisfiable")
    # With an honest node present, only the Byzantine pool can be empty.
    if not others:
        raise ValueError("no Byzantine nodes available for an adversarial schedule")
    rng, k = random.Random(f"{tag}:{cfg.seed}"), cfg.fairness_bound
    draws = (rng.choice(honest if e % k == k - 1 else others) for e in itertools.count())
    return LeaderSchedule(draws, horizon)


@record
class LockEvent:
    asset: str
    event: str  # "acquire" | "release" | "expire"
    epoch: int


@record
class SimState:
    """A drain at the start of ``epoch``. ``lock_times`` dates each lock
    that can expire. ``ranking`` is the one step_epoch carries forward,
    trusted only while its ``pending`` is this state's very tuple; it is
    not part of the value."""

    epoch: int
    pending: tuple[RegRequest, ...]
    global_state: engine.GlobalState
    lock_times: dict[str, int]
    ranking: Optional[Ranking] = field(default=None, compare=False, repr=False)


class Ranking:
    """One pending tuple in descending priority order, each key computed
    once per drain, plus what an epoch needs to update it without
    re-ranking: the pending count per asset and the sorted distinct pending
    assets.

    A ranking depends on its ``pending`` tuple alone, so it fits any state
    whose ``pending`` is that very tuple, whatever its locks. An epoch
    updates the ranking in place and hands it to the next state; the state
    it came from still fits it if the epoch took no request, and any other
    earlier state ranks afresh if it is stepped again.
    """

    def __init__(self, pending: tuple[RegRequest, ...]):
        copies = Counter(pending)
        ranked = rank_requests(copies)
        self.pending = tuple(r for r in ranked for _ in range(copies[r]))
        self.counts = Counter(r.asset for r in self.pending)
        self.assets = sorted(self.counts)

    def advance(self, removed: Optional[str], pending: tuple[RegRequest, ...]) -> None:
        """Take one request on asset ``removed`` (if any) out of the counts,
        and make this the ranking of ``pending``."""
        if removed is not None:
            self.counts[removed] -= 1
            if not self.counts[removed]:
                del self.counts[removed]
                del self.assets[bisect_left(self.assets, removed)]
        self.pending = pending


@record
class EpochRecord:
    epoch: int
    leader: int
    honest: bool
    pending_before: int
    pending_after: int
    processed: Optional[str]
    lock_events: tuple[LockEvent, ...]
    outcome: Optional[str] = None  # of the honest leader's sync: "ok" or the failure reason

    def to_json(self) -> dict:
        """The fields by name, lock events as dicts: what ``dataclasses.asdict``
        gives, at a fraction of its cost."""
        events = [{n: getattr(ev, n) for n in ev.__slots__} for ev in self.lock_events]
        return {**{n: getattr(self, n) for n in self.__slots__}, "lock_events": events}


EpochTrace = list[EpochRecord]


def step_epoch(s: SimState, sched: LeaderSchedule, cfg: SimConfig) -> tuple[SimState, EpochRecord]:
    """One epoch of dynamics: expire stale locks, then let the leader act.

    The Byzantine withholding attack locks a pending asset only while at
    least two are unlocked, so it never locks the last unlocked one. An
    honest leader takes the first request, in ranked order, whose asset is
    unlocked, and takes nothing while every pending asset is locked. That
    can happen with requests pending: once an honest epoch takes the last
    request on the unlocked assets, the requests left may wait on locks a
    Byzantine leader took until those expire. So an honest epoch does not
    always make progress: the starvation window holds only for
    ``lock_timeout`` <= 2 (check_starvation_bound and its two stall tests).

    Every lock decision reads ``global_state.locks``; ``lock_times`` only
    dates the locks that expire, so a lock held with no entry there stays
    held and is skipped like any other.

    The first epoch of a drain ranks the pending requests, and raises
    DuplicateKeyError or HorizonError if some cannot be ranked. A state
    whose ``ranking`` has its very ``pending`` tuple reuses it, so later
    epochs never re-key, re-sort or scan the pending requests.
    """
    rk = s.ranking
    if rk is None or rk.pending is not s.pending:
        rk = Ranking(s.pending)
    epoch, gs, lock_times = s.epoch, s.global_state, s.lock_times
    events: list[LockEvent] = []
    # lock_times is shared with the next state unless a lock expires or is
    # taken, which copies it first. No lock expires unless the oldest does.
    if lock_times and not lock_effective(min(lock_times.values()), epoch, cfg.lock_timeout):
        lock_times = dict(lock_times)
        for aid in sorted(lock_times):
            if not lock_effective(lock_times[aid], epoch, cfg.lock_timeout):
                gs = engine.release_lock(gs, aid)
                del lock_times[aid]
                events.append(LockEvent(aid, "expire", epoch))

    leader = sched.leader_at(epoch)
    honest = cfg.is_honest(leader)
    pending = rk.pending
    processed = outcome = removed = None  # the request id, sync outcome and asset taken

    if honest:
        # The first unlocked request in ranked order is select_highest of
        # the unlocked candidates.
        locks = gs.locks
        for i, chosen in enumerate(pending):
            aid = chosen.asset
            if aid in locks:
                continue
            # The least chain holding aid; with none, any source fails AssetNotFound.
            source = min(engine.connected_chains(gs, aid), default="")
            result = engine.sync(source, chosen.action, aid, gs)
            # A failed sync holds no lock: only a successful one logs events.
            if result.state is None:
                outcome = result.reason
            else:
                gs, outcome = result.state, "ok"
                events += (LockEvent(aid, "acquire", epoch), LockEvent(aid, "release", epoch))
            pending = pending[:i] + pending[i + 1 :]
            processed = request_id(chosen)
            removed = aid
            break
    elif pending:
        # The ascending positions in rk.assets of the pending assets held.
        held = [bisect_left(rk.assets, a) for a in sorted(gs.locks) if a in rk.counts]
        unlocked = len(rk.assets) - len(held)
        # Single-resource discipline plus the no-total-blockade bound on the
        # adversary: at least one pending asset must stay unlocked. Each
        # epoch draws from a generator of its own, so the draws depend on
        # (seed, epoch) alone; an epoch that cannot lock makes none.
        if unlocked >= 2:
            rng = random.Random(f"step:{cfg.seed}:{epoch}")
            if rng.random() < 0.5:
                # The i-th unlocked asset: step i past each held position at or
                # before it. randrange(n) draws the index choice of n items would.
                i = rng.randrange(unlocked)
                for p in held:
                    if p > i:
                        break
                    i += 1
                target = rk.assets[i]
                gs = engine.acquire_lock(gs, target)
                lock_times = {**lock_times, target: epoch}
                events.append(LockEvent(target, "acquire", epoch))

    record = EpochRecord(
        epoch, leader, honest, len(rk.pending), len(pending), processed, tuple(events), outcome
    )
    rk.advance(removed, pending)
    return SimState(epoch + 1, pending, gs, lock_times, rk), record


def run_until_drained(s0: SimState, sched: LeaderSchedule, cfg: SimConfig) -> EpochTrace:
    """Iterate step_epoch until pending empties or the schedule's horizon."""
    trace: EpochTrace = []
    state = s0
    while state.pending and state.epoch < sched.horizon:
        state, record = step_epoch(state, sched, cfg)
        trace.append(record)
        assert record.pending_after <= record.pending_before
    return trace


def drain_horizon(n_requests: int, cfg: SimConfig) -> int:
    """Epochs within which a drain of ``n_requests`` from a state with no
    lock held ends, on a schedule that passes check_fair_leader.

    An honest epoch takes a request unless every pending asset is locked.
    The adversary never locks the last unlocked one, so that happens only
    after an honest epoch took the last request on the unlocked assets, and
    the locks then held expire within lock_timeout epochs. So each request
    is taken within fairness_bound + lock_timeout epochs of the one before.
    ``n_requests * fairness_bound + lock_timeout`` is not a bound: one drain
    can wait for an expiry more than once. Only for ``lock_timeout`` <= 2
    is each taken within fairness_bound epochs of the one before (the
    starvation window: check_starvation_bound and its two stall tests)."""
    return n_requests * (cfg.fairness_bound + cfg.lock_timeout)


def check_starvation_bound(trace: EpochTrace, k: int) -> ValidationReport:
    """Every full k-window starting at positive pending must contain a
    strict decrease. A theorem of the model only for ``lock_timeout`` <= 2
    (exhaustive abstract search; test_lock_timeout_2_keeps_every_k_window
    samples it). From timeout 3 on an honest leader can find every pending
    asset locked, even at timeout <= k: windows (2, 5) at k = 3 and (4, 8) at
    k = 4 stall (test_an_honest_epoch_can_find_every_pending_asset_locked,
    test_a_lock_timeout_below_the_fairness_bound_can_still_starve_a_window)."""
    report = ValidationReport()
    progress = (r.pending_after < r.pending_before for r in trace)
    for start in _windows_without(progress, k):
        first, last = trace[start], trace[start + k - 1]
        if first.pending_before != 0:
            detail = f"pending stuck at {first.pending_before}"
            report.add("starvation_bound", (first.epoch, last.epoch + 1), detail)
    return report


def check_eventual_completion(trace: EpochTrace) -> ValidationReport:
    report = ValidationReport()
    if trace and trace[-1].pending_after != 0:
        report.add("eventual_completion", trace[-1].epoch, f"{trace[-1].pending_after} requests left")
    return report
