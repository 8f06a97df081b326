import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from regsync import engine, priority
from regsync.liveness import (
    EpochRecord,
    LeaderSchedule,
    LockEvent,
    NodeInfo,
    SimConfig,
    SimState,
    check_eventual_completion,
    check_fair_leader,
    check_starvation_bound,
    expiry_time,
    gen_adversarial_schedule,
    gen_fair_schedule,
    lock_effective,
    run_until_drained,
    step_epoch,
    validate_bft_config,
)
from regsync.priority import AuthorityLevel, RegRequest, request_id, select_highest
from regsync.regulatory import RegAction, RegState

from conftest import make_state


def nodes(n, byz):
    return tuple(NodeInfo(i, honest=i >= byz) for i in range(n))


def config(n=4, f=1, byz=None, timeout=2, k=3, seed=0):
    byz = f if byz is None else byz
    return SimConfig(
        nodes=nodes(n, byz),
        f_max=f,
        lock_timeout=timeout,
        fairness_bound=k,
        t_max=1000,
        n_max=1000,
        seed=seed,
    )


def requests(count, asset_prefix="a"):
    return tuple(
        RegRequest(i + 1, AuthorityLevel.NATIONAL, i, RegAction.FREEZE, f"{asset_prefix}{i+1}")
        for i in range(count)
    )


def sim_state(reqs):
    placement = {
        "c1": {r.asset: RegState.ACTIVE for r in reqs},
        "c2": {r.asset: RegState.ACTIVE for r in reqs},
    }
    return SimState(0, tuple(reqs), make_state(placement), {})


class TestLockEffective:
    def test_within_timeout(self):
        assert lock_effective(0, 4, 5)

    def test_boundary(self):
        assert not lock_effective(0, 5, 5)

    def test_minimal_timeout(self):
        assert lock_effective(7, 7, 1)
        assert not lock_effective(7, 8, 1)

    def test_zero_timeout_rejected(self):
        with pytest.raises(ValueError):
            lock_effective(0, 0, 0)

    def test_expiry_time(self):
        assert expiry_time(0, 5) == 5
        assert expiry_time(10, 3) == 13

    def test_expiry_is_least_ineffective_time(self):
        for lock_time in range(0, 101, 7):
            for timeout in range(1, 21):
                t = expiry_time(lock_time, timeout)
                assert not lock_effective(lock_time, t, timeout)
                assert lock_effective(lock_time, t - 1, timeout)


class TestBftConfig:
    def test_table_instance(self):
        cfg = config(n=20, f=6, byz=6)
        assert validate_bft_config(cfg).ok

    def test_smallest_quorum(self):
        assert validate_bft_config(config(n=4, f=1)).ok

    def test_threshold_violation(self):
        report = validate_bft_config(config(n=3, f=1))
        assert "bft_threshold" in report.rules()

    def test_byzantine_bound_violation(self):
        report = validate_bft_config(config(n=7, f=1, byz=2))
        assert "byzantine_bound" in report.rules()

    def test_timeout_positive(self):
        assert "timeout_positive" in validate_bft_config(config(timeout=0)).rules()

    def test_honest_majority_arithmetic(self):
        for n in range(4, 101):
            f = (n - 1) // 3
            for byz in range(f + 1):
                cfg = config(n=n, f=f, byz=byz)
                assert validate_bft_config(cfg).ok
                assert len(cfg.honest_nodes) > 2 * f


class TestSchedules:
    def test_fair_schedule_passes_window_check(self):
        cfg = config()
        sched = gen_fair_schedule(cfg, 50)
        assert check_fair_leader(sched, cfg).ok

    def test_fair_schedule_deterministic(self):
        cfg = config(seed=9)
        assert gen_fair_schedule(cfg, 30) == gen_fair_schedule(cfg, 30)

    def test_all_honest_nodes(self):
        cfg = config(byz=0)
        sched = gen_fair_schedule(cfg, 20)
        assert all(cfg.is_honest(x) for x in sched.leaders)

    def test_no_honest_nodes_rejected(self):
        cfg = SimConfig(nodes=tuple(NodeInfo(i, False) for i in range(4)),
                        f_max=1, lock_timeout=1, fairness_bound=3)
        with pytest.raises(ValueError):
            gen_fair_schedule(cfg, 10)

    def test_adversarial_max_byzantine_runs(self):
        cfg = config(k=3)
        sched = gen_adversarial_schedule(cfg, 30)
        assert check_fair_leader(sched, cfg).ok
        run = best = 0
        for leader in sched.leaders:
            run = 0 if cfg.is_honest(leader) else run + 1
            best = max(best, run)
        assert best == cfg.fairness_bound - 1

    def test_adversarial_needs_byzantine_nodes(self):
        with pytest.raises(ValueError):
            gen_adversarial_schedule(config(byz=0), 10)


def all_honest_schedule(cfg, horizon):
    honest = cfg.honest_nodes[0].node_id
    return LeaderSchedule(tuple(honest for _ in range(horizon)))


def all_byz_schedule(cfg, horizon):
    byz = cfg.byzantine_nodes[0].node_id
    return LeaderSchedule(tuple(byz for _ in range(horizon)))


class TestStepEpoch:
    def test_honest_leader_processes_highest_priority(self):
        cfg = config()
        reqs = requests(3)
        s0 = sim_state(reqs)
        s1, record = step_epoch(s0, all_honest_schedule(cfg, 5), cfg)
        assert record.pending_after == 2
        # Earliest timestamp wins at equal authority/action.
        assert record.processed.startswith("n1-t0")
        assert len(s1.pending) == 2

    def test_processed_request_synced_everywhere(self):
        cfg = config()
        s0 = sim_state(requests(1))
        s1, _ = step_epoch(s0, all_honest_schedule(cfg, 5), cfg)
        for c in ("c1", "c2"):
            assert engine.get_reg_state(s1.global_state, c, "a1") is RegState.FROZEN

    def test_byzantine_leader_makes_no_progress(self):
        cfg = config()
        s0 = sim_state(requests(3))
        s1, record = step_epoch(s0, all_byz_schedule(cfg, 5), cfg)
        assert record.pending_after == record.pending_before == 3
        assert record.processed is None

    def test_byzantine_lock_expires_after_timeout(self):
        cfg = config(timeout=2, seed=3)
        state = sim_state(requests(3))
        sched = all_byz_schedule(cfg, 10)
        acquired_at = None
        for _ in range(10):
            state, record = step_epoch(state, sched, cfg)
            for ev in record.lock_events:
                if ev.event == "acquire" and acquired_at is None:
                    acquired_at = ev.epoch
                if ev.event == "expire" and acquired_at is not None:
                    assert ev.epoch == acquired_at + cfg.lock_timeout
                    return
        assert acquired_at is not None, "attack never fired across 10 byzantine epochs"

    def test_single_resource_discipline(self):
        cfg = config(timeout=5, seed=1)
        state = sim_state(requests(4))
        sched = all_byz_schedule(cfg, 8)
        for _ in range(8):
            state, record = step_epoch(state, sched, cfg)
            held = [aid for aid in state.lock_times]
            # one lock per byzantine epoch at most, and never all pending assets
            pending_assets = {r.asset for r in state.pending}
            assert pending_assets - set(held)


class TestRunUntilDrained:
    def test_all_honest_drains_in_exactly_five(self):
        cfg = config()
        trace = run_until_drained(sim_state(requests(5)), all_honest_schedule(cfg, 50), cfg, 50)
        assert len(trace) == 5
        assert trace[-1].pending_after == 0

    def test_empty_pending_gives_empty_trace(self):
        cfg = config()
        trace = run_until_drained(sim_state(()), all_honest_schedule(cfg, 10), cfg, 10)
        assert trace == []

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("adversarial", [False, True])
    def test_drains_within_bound(self, seed, adversarial):
        cfg = config(n=4, f=1, timeout=2, k=3, seed=seed)
        gen = gen_adversarial_schedule if adversarial else gen_fair_schedule
        horizon = 5 * cfg.fairness_bound + cfg.lock_timeout
        sched = gen(cfg, horizon)
        trace = run_until_drained(sim_state(requests(5)), sched, cfg, horizon)
        assert trace[-1].pending_after == 0
        assert len(trace) <= horizon
        assert check_starvation_bound(trace, cfg.fairness_bound).ok
        assert check_eventual_completion(trace).ok


def flat_record(epoch, pending):
    return EpochRecord(epoch, 0, False, pending, pending, None, ())


class TestTraceCheckers:
    def test_flat_window_violation(self):
        trace = [flat_record(e, 2) for e in range(4)]
        assert "starvation_bound" in check_starvation_bound(trace, 3).rules()

    def test_drained_trace_vacuous(self):
        trace = [flat_record(e, 0) for e in range(5)]
        assert check_starvation_bound(trace, 3).ok

    def test_truncated_trace_reported(self):
        trace = [flat_record(0, 2)]
        report = check_eventual_completion(trace)
        assert "eventual_completion" in report.rules()

    def test_empty_trace_passes(self):
        assert check_eventual_completion([]).ok

    def test_record_json_fields(self):
        record = flat_record(3, 1)
        doc = record.to_json()
        assert set(doc) == {
            "epoch", "leader", "honest", "pending_before",
            "pending_after", "processed", "lock_events",
        }


def reference_step_epoch(s, sched, cfg):
    """The epoch before pending requests were ranked once per drain: filter
    the candidates, select_highest among them, then list.remove."""
    rng = random.Random(f"step:{cfg.seed}:{s.epoch}")
    events = []
    gs = s.global_state
    lock_times = dict(s.lock_times)
    for aid in sorted(lock_times):
        if not lock_effective(lock_times[aid], s.epoch, cfg.lock_timeout):
            gs = engine.release_lock(gs, aid)
            del lock_times[aid]
            events.append(LockEvent(aid, "expire", s.epoch))
    leader = sched.leader_at(s.epoch)
    honest = cfg.is_honest(leader)
    pending = list(s.pending)
    processed = None
    if honest and pending:
        candidates = [r for r in pending if not engine.is_locked(gs, r.asset)]
        if candidates:
            chosen = select_highest(candidates, cfg.priority_config())
            source = min(engine.connected_chains(gs, chosen.asset), default=None)
            if source is not None:
                events.append(LockEvent(chosen.asset, "acquire", s.epoch))
                result = engine.sync(source, chosen.action, chosen.asset, gs)
                if result.ok:
                    gs = result.state
                events.append(LockEvent(chosen.asset, "release", s.epoch))
            pending.remove(chosen)
            processed = request_id(chosen)
    elif not honest and pending:
        unlocked = sorted({r.asset for r in pending if not engine.is_locked(gs, r.asset)})
        if len(unlocked) >= 2 and rng.random() < 0.5:
            target = rng.choice(unlocked)
            locked = engine.acquire_lock(gs, target)
            if locked is not None:
                gs = locked
                lock_times[target] = s.epoch
                events.append(LockEvent(target, "acquire", s.epoch))
    record = EpochRecord(
        s.epoch, leader, honest, len(s.pending), len(pending), processed, tuple(events)
    )
    return SimState(s.epoch + 1, tuple(pending), gs, lock_times), record


ASSETS = ("a1", "a2", "a3", "a4")


@st.composite
def small_scenarios(draw):
    """1-12 requests (identical copies included, keys otherwise distinct) on
    a few assets held by 1-3 chains, some locks held at the start (with and
    without an expiry), and a fair, adversarial or all-Byzantine schedule."""
    chains = [f"c{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    placement = {c: {} for c in chains}
    for aid in ASSETS:
        state = draw(st.sampled_from(list(RegState)))
        for c in draw(st.lists(st.sampled_from(chains), unique=True)):
            placement[c][aid] = state
    held = draw(st.lists(st.sampled_from(ASSETS), unique=True, max_size=2))
    gs = make_state(placement, {aid: True for aid in held})
    cfg = config(timeout=draw(st.integers(1, 4)), k=draw(st.integers(2, 4)),
                 seed=draw(st.integers(0, 50)))
    lock_times = {aid: draw(st.integers(0, cfg.lock_timeout - 1))
                  for aid in held if draw(st.booleans())}
    keys = draw(st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(list(AuthorityLevel)),
                  st.integers(0, 5), st.sampled_from(list(RegAction))),
        min_size=1, max_size=8, unique=True,
    ))
    distinct = [RegRequest(n, a, t, act, draw(st.sampled_from(ASSETS))) for n, a, t, act in keys]
    copies = draw(st.lists(st.sampled_from(distinct), max_size=12 - len(distinct)))
    reqs = draw(st.permutations(distinct + copies))
    horizon = 40
    kind = draw(st.sampled_from(["fair", "adversarial", "byzantine"]))
    if kind == "fair":
        sched = gen_fair_schedule(cfg, horizon)
    elif kind == "adversarial":
        sched = gen_adversarial_schedule(cfg, horizon)
    else:
        sched = all_byz_schedule(cfg, horizon)
    return SimState(0, tuple(reqs), gs, lock_times), sched, cfg


class TestRankedEpochMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(small_scenarios())
    def test_every_epoch_of_the_drain_agrees(self, scenario):
        s0, sched, cfg = scenario
        new = ref = s0
        while ref.pending and ref.epoch < sched.horizon:
            new, new_record = step_epoch(new, sched, cfg)
            ref, ref_record = reference_step_epoch(ref, sched, cfg)
            assert new_record == ref_record
            assert Counter(new.pending) == Counter(ref.pending)
            assert new.global_state == ref.global_state
            assert new.lock_times == ref.lock_times
        assert not new.pending or new.epoch == sched.horizon

    def test_stepping_an_earlier_state_again_gives_the_same_epoch(self):
        cfg = config(seed=4)
        sched = gen_adversarial_schedule(cfg, 20)
        s1, _ = step_epoch(sim_state(requests(6)), sched, cfg)
        first = step_epoch(s1, sched, cfg)
        second = step_epoch(s1, sched, cfg)
        assert first == second
        assert step_epoch(first[0], sched, cfg) == step_epoch(second[0], sched, cfg)


def test_each_priority_key_is_computed_once_per_drain(monkeypatch):
    calls = Counter()
    original = priority.priority_key

    def counted(r, cfg=priority.PriorityConfig()):
        calls[r] += 1
        return original(r, cfg)

    monkeypatch.setattr(priority, "priority_key", counted)
    distinct = requests(150)
    reqs = distinct + distinct[:50]
    cfg = config(seed=2)
    horizon = len(reqs) * cfg.fairness_bound + cfg.lock_timeout
    trace = run_until_drained(sim_state(reqs), gen_adversarial_schedule(cfg, horizon), cfg, horizon)
    assert trace[-1].pending_after == 0
    assert sum(calls.values()) == len(set(reqs)) == 150
