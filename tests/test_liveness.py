import hashlib
import json
import random
import time
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
    drain_horizon,
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
from regsync.report import ValidationReport

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
        assert gen_fair_schedule(cfg, 30).leaders == gen_fair_schedule(cfg, 30).leaders

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
    return LeaderSchedule(tuple(honest for _ in range(horizon)), horizon)


def all_byz_schedule(cfg, horizon):
    byz = cfg.byzantine_nodes[0].node_id
    return LeaderSchedule(tuple(byz for _ in range(horizon)), horizon)


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

    def test_successful_sync_logs_its_lock_and_outcome(self):
        cfg = config()
        _, record = step_epoch(sim_state(requests(1)), all_honest_schedule(cfg, 5), cfg)
        assert record.outcome == "ok"
        assert [(ev.asset, ev.event) for ev in record.lock_events] == [
            ("a1", "acquire"),
            ("a1", "release"),
        ]
        assert record.to_json()["outcome"] == "ok"

    def test_failed_sync_logs_its_reason_and_no_lock(self):
        cfg = config()
        reqs = requests(2)
        placement = {c: {"a1": RegState.FROZEN, "a2": RegState.ACTIVE} for c in ("c1", "c2")}
        s0 = SimState(0, reqs, make_state(placement), {})
        # FREEZE of a FROZEN asset is undefined: the sync fails at validation.
        s1, record = step_epoch(s0, all_honest_schedule(cfg, 5), cfg)
        assert record.processed.endswith("-a1")
        assert record.outcome == "InvalidTransition"
        assert record.lock_events == ()
        assert record.pending_after == 1 and [r.asset for r in s1.pending] == ["a2"]
        assert s1.global_state == s0.global_state

    def test_honest_leader_syncs_from_the_least_chain(self):
        """With ``a1`` ACTIVE on c1 and FROZEN on c2, only a sync read from
        c1, the least connected chain by name, can FREEZE it."""
        cfg = config()
        placement = {"c1": {"a1": RegState.ACTIVE}, "c2": {"a1": RegState.FROZEN}}
        s0 = SimState(0, requests(1), make_state(placement), {})
        s1, record = step_epoch(s0, all_honest_schedule(cfg, 5), cfg)
        assert record.outcome == "ok"
        for c in ("c1", "c2"):
            assert engine.get_reg_state(s1.global_state, c, "a1") is RegState.FROZEN

    def test_the_least_source_chain_does_not_depend_on_chain_order(self):
        cfg = config()
        placement = {"c3": {"a1": RegState.FROZEN}, "c1": {"a1": RegState.ACTIVE},
                     "c2": {"a1": RegState.FROZEN}, "c0": {"b1": RegState.ACTIVE}}
        s1, record = step_epoch(SimState(0, requests(1), make_state(placement), {}),
                                all_honest_schedule(cfg, 5), cfg)
        assert record.outcome == "ok"
        assert {engine.get_reg_state(s1.global_state, c, "a1") for c in ("c1", "c2", "c3")} == {
            RegState.FROZEN}

    def test_request_on_an_asset_no_chain_holds(self):
        cfg = config()
        s0 = SimState(0, requests(1), make_state({"c1": {"b1": RegState.ACTIVE}}), {})
        s1, record = step_epoch(s0, all_honest_schedule(cfg, 5), cfg)
        assert record.outcome == "AssetNotFound" and record.lock_events == ()
        assert record.pending_after == 0

    def test_byzantine_leader_makes_no_progress(self):
        cfg = config()
        s0 = sim_state(requests(3))
        s1, record = step_epoch(s0, all_byz_schedule(cfg, 5), cfg)
        assert record.pending_after == record.pending_before == 3
        assert record.processed is None and record.outcome is None

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
        trace = run_until_drained(sim_state(requests(5)), all_honest_schedule(cfg, 50), cfg)
        assert len(trace) == 5
        assert trace[-1].pending_after == 0

    def test_empty_pending_gives_empty_trace(self):
        cfg = config()
        trace = run_until_drained(sim_state(()), all_honest_schedule(cfg, 10), cfg)
        assert trace == []

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("adversarial", [False, True])
    def test_drains_within_bound(self, seed, adversarial):
        cfg = config(n=4, f=1, timeout=2, k=3, seed=seed)
        gen = gen_adversarial_schedule if adversarial else gen_fair_schedule
        horizon = 5 * cfg.fairness_bound + cfg.lock_timeout
        sched = gen(cfg, horizon)
        trace = run_until_drained(sim_state(requests(5)), sched, cfg)
        assert trace[-1].pending_after == 0
        assert len(trace) <= horizon
        assert check_starvation_bound(trace, cfg.fairness_bound).ok
        assert check_eventual_completion(trace).ok

    def test_a_drain_can_wait_for_more_than_one_lock_timeout(self):
        cfg = config(timeout=9, k=3, seed=4)
        horizon = drain_horizon(3, cfg)
        trace = run_until_drained(
            sim_state(requests(3)), gen_adversarial_schedule(cfg, horizon), cfg
        )
        assert trace[-1].pending_after == 0
        assert len(trace) > 3 * cfg.fairness_bound + cfg.lock_timeout

    def test_an_honest_epoch_can_find_every_pending_asset_locked(self):
        """Seed 302 at lock_timeout = k = 3, one chain holding a and b:
        epoch 0's Byzantine leader locks a, epoch 1's honest leader takes
        b, and epoch 2's honest leader finds a, the only pending asset,
        locked. The 3-window from epoch 2 takes nothing, though the drain
        completes. This pins today's verdict; ROADMAP item 20, which
        decides for which lock timeouts the window holds, may move it."""
        cfg = config(timeout=3, k=3, seed=302)
        reqs = (RegRequest(1, AuthorityLevel.NATIONAL, 0, RegAction.FREEZE, "a"),
                RegRequest(2, AuthorityLevel.NATIONAL, 1, RegAction.FREEZE, "b"))
        s0 = SimState(0, reqs, make_state({"c1": {"a": RegState.ACTIVE, "b": RegState.ACTIVE}}), {})
        trace = run_until_drained(s0, gen_fair_schedule(cfg, drain_horizon(2, cfg)), cfg)
        stalled = trace[2]
        assert stalled.honest and stalled.processed is None
        assert stalled.pending_before == stalled.pending_after == 1
        windows = check_starvation_bound(trace, 3).violations
        assert [(v.witness, v.detail) for v in windows] == [((2, 5), "pending stuck at 1")]
        assert check_eventual_completion(trace).ok

    def test_a_lock_timeout_below_the_fairness_bound_can_still_starve_a_window(self):
        """lock_timeout 3 < k = 4, on a hand-built fair schedule whose node 0
        is Byzantine: epoch 2 locks a, epoch 3's honest leader takes b,
        epoch 4's finds a locked and takes nothing, a expires at epoch 5 and
        epoch 8 takes it. So the 4-window from epoch 4 takes nothing. This
        pins today's verdict; ROADMAP item 20 may move it."""
        cfg = config(timeout=3, k=4, seed=2)
        schedule = LeaderSchedule([0, 0, 0, 1, 1, 0, 0, 0, 1], 9)
        assert check_fair_leader(schedule, cfg).ok
        reqs = (RegRequest(1, AuthorityLevel.NATIONAL, 0, RegAction.FREEZE, "a"),
                RegRequest(2, AuthorityLevel.NATIONAL, 1, RegAction.FREEZE, "b"))
        chains = make_state({"c1": {"a": RegState.ACTIVE, "b": RegState.ACTIVE}})
        trace = run_until_drained(SimState(0, reqs, chains, {}), schedule, cfg)
        assert LockEvent("a", "acquire", 2) in trace[2].lock_events and not trace[2].honest
        assert [(r.epoch, r.processed) for r in trace if r.processed] == [
            (3, "n2-t1-FREEZE-b"), (8, "n1-t0-FREEZE-a")
        ]
        stalled = trace[4]
        assert stalled.honest and stalled.processed is None
        assert stalled.pending_before == stalled.pending_after == 1
        assert LockEvent("a", "expire", 5) in trace[5].lock_events
        windows = check_starvation_bound(trace, 4).violations
        assert [(v.witness, v.detail) for v in windows] == [((4, 8), "pending stuck at 1")]
        assert check_eventual_completion(trace).ok

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 4), st.integers(1, 12), st.integers(0, 50), st.booleans(),
        st.lists(st.sampled_from(["a1", "a2", "a3", "a4"]), min_size=1, max_size=8),
    )
    def test_every_drain_ends_within_the_drain_horizon(
        self, k, timeout, seed, adversarial, assets
    ):
        cfg = config(timeout=timeout, k=k, seed=seed)
        gen = gen_adversarial_schedule if adversarial else gen_fair_schedule
        reqs = [RegRequest(i + 1, AuthorityLevel.NATIONAL, i, RegAction.FREEZE, aid)
                for i, aid in enumerate(assets)]
        horizon = drain_horizon(len(reqs), cfg)
        trace = run_until_drained(sim_state(reqs), gen(cfg, horizon), cfg)
        assert trace[-1].pending_after == 0


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
            "pending_after", "processed", "lock_events", "outcome",
        }


def reference_step_epoch(s, sched, cfg):
    """The epoch before pending requests were ranked once per drain: filter
    the candidates, select_highest among them, then list.remove. Its trace
    follows the current rule: an honest leader's sync records its outcome,
    and only a successful one logs lock events."""
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
    processed = outcome = None
    if honest and pending:
        candidates = [r for r in pending if not engine.is_locked(gs, r.asset)]
        if candidates:
            chosen = select_highest(candidates, cfg.priority_config())
            source = min(engine.connected_chains(gs, chosen.asset), default=None)
            outcome = "AssetNotFound"
            if source is not None:
                result = engine.sync(source, chosen.action, chosen.asset, gs)
                outcome = "ok" if result.ok else result.reason.value
                if result.ok:
                    gs = result.state
                    events.append(LockEvent(chosen.asset, "acquire", s.epoch))
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
        s.epoch, leader, honest, len(s.pending), len(pending), processed, tuple(events), outcome
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

    def test_a_state_stepped_again_after_a_lock_is_taken_re_keys_nothing(self, monkeypatch):
        """A ranking depends on its pending tuple alone. A Byzantine epoch
        that takes a lock leaves that tuple as it was, so the state it
        came from is stepped again on the same ranking: no priority key
        is computed, and the epoch is the same."""
        cfg = config(seed=4)
        sched = gen_adversarial_schedule(cfg, 60)
        reqs = tuple(RegRequest(r.node_id, r.authority, r.timestamp, r.action, f"a{i % 6 + 1}")
                     for i, r in enumerate(requests(12)))
        s, _ = step_epoch(sim_state(reqs), sched, cfg)
        after, record = step_epoch(s, sched, cfg)
        while record.honest or not record.lock_events:
            s, (after, record) = after, step_epoch(after, sched, cfg)
        assert [ev.event for ev in record.lock_events] == ["acquire"]
        calls = Counter()
        original = priority.priority_key

        def counted(r, cfg=priority.PriorityConfig()):
            calls[r] += 1
            return original(r, cfg)

        monkeypatch.setattr(priority, "priority_key", counted)
        assert step_epoch(s, sched, cfg) == (after, record)
        assert calls == Counter()

    def test_stepping_epochs_out_of_order_gives_the_fresh_drains_epochs(self):
        """Each state of a drain, stepped again in shuffled order and for a
        few epochs on, gives the drain's own epochs, and no state's
        lock_times is changed by it: an epoch's draw depends on (seed,
        epoch) alone."""
        cfg = config(seed=4)
        sched = gen_adversarial_schedule(cfg, 60)
        states, records = drain_states(sim_state(requests(12)), sched, cfg)
        assert any(ev.event == "expire" for r in records for ev in r.lock_events)
        lock_times = [dict(s.lock_times) for s in states]
        order = list(range(len(records)))
        random.Random(1).shuffle(order)
        for e in order:
            s = states[e]
            for later in range(e, min(e + 3, len(records))):
                s, record = step_epoch(s, sched, cfg)
                assert (s, record) == (states[later + 1], records[later])
        assert [s.lock_times for s in states] == lock_times
        # Each state stepped twice in a row: after an epoch that changed
        # nothing, the ranking it advanced still fits the state stepped again.
        s = states[0]
        for e, record in enumerate(records):
            again = step_epoch(s, sched, cfg)
            s, rec = step_epoch(s, sched, cfg)
            assert again == (s, rec) == (states[e + 1], record)

    def test_interleaved_drains_of_two_seeds_give_their_fresh_records(self):
        cfgs = [config(seed=4), config(seed=5)]
        scheds = [gen_adversarial_schedule(cfg, 60) for cfg in cfgs]
        fresh = [drain_states(sim_state(requests(12)), sched, cfg)[1]
                 for sched, cfg in zip(scheds, cfgs)]
        assert fresh[0] != fresh[1]
        states, records = [sim_state(requests(12))] * 2, [[], []]
        while any(s.pending and s.epoch < sched.horizon for s, sched in zip(states, scheds)):
            for i, (sched, cfg) in enumerate(zip(scheds, cfgs)):
                if states[i].pending and states[i].epoch < sched.horizon:
                    states[i], record = step_epoch(states[i], sched, cfg)
                    records[i].append(record)
        assert records == fresh


def drain_states(s0, sched, cfg):
    """Every state of a drain from ``s0``, and its records."""
    states, records = [s0], []
    while states[-1].pending and states[-1].epoch < sched.horizon:
        state, record = step_epoch(states[-1], sched, cfg)
        states.append(state)
        records.append(record)
    return states, records


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
    trace = run_until_drained(sim_state(reqs), gen_adversarial_schedule(cfg, horizon), cfg)
    assert trace[-1].pending_after == 0
    assert sum(calls.values()) == len(set(reqs)) == 150


# SHA-256 of the JSON list of leaders, horizon 120, for seeds 0-4.
PINNED_SCHEDULES = {
    ("fair", 4, 1, 3): [
        "7f6ed4a7b56d4dc6a6490be3ae568d4b98596b4c93c2a7a09195a9f052984dab",
        "685047048ce3538e1f24d1bcb9bf803fdef07f06c1691913d668dcfeb0d0ca61",
        "bb2fb5b54d02599ba19b41ca9e1604d7346eb826de4125832eb708838fd4bbe2",
        "8468c07ea20c76e90448f0e55bf0871b1f576ff35dec55ef28402493bfe57bef",
        "f4c559a1f632e5ab2c0b40dfe87446b3084db13ebda6abe4dbf2db05b38972d6",
    ],
    ("fair", 7, 2, 4): [
        "fdd7fbeb743511bb06cf1d9389d6679b73b9665463d6e3c0d1a1fe10d63ecb0d",
        "05b1dc3cafaf2df51b1ba97c9f40a6a81d1aca9d10932e8ef565bd003c6325a0",
        "4099ece1c0dccdda49be49bdb22b580b3135876951bff77275e2282db24cd216",
        "749688fe913ccda85712a6c31473c2da628ecf613fa88e8a4450b7be913e6c9d",
        "580562ab001736d521ec4caa028636e8fb2d8458ddb6353049822414b424daa8",
    ],
    ("adversarial", 4, 1, 3): [
        "1ab4c5b148ee1cb08159fb2cb3400028e2486f4da45dee3607def990ea14877d",
        "215ce664e192ffb8888f0b4916d181cf68f9f9ffd63b82f4706573aab74b551f",
        "f70e8f71d50dd1bf113dc640647106726fb7ad55d048cdfe8becb6e11a50450a",
        "561b5fe94932330b1d4ff9bc2a0a99d6e25642eac9730793ac7bf586e0116012",
        "717335f0369433015c5578f488896270dd7a456739deb873ce45cf61a39f945d",
    ],
    ("adversarial", 7, 2, 4): [
        "aa9a1c32a8dbaf7ee06f74e1c8571907c301da6318f4301c4f15e655f5924553",
        "c4037751015edd0ef06e4efa1494954b2d6ed60f0ff9b956de1b521001b29ed3",
        "2dcbb9a57a903f2b7a5a4b60e8641788c10d73145b0b9cd79dff5a93da8300ca",
        "9c33c365d15f5dfb2d5d044b75116478a40a11468c3a6fcfb03b118bb1f2a18b",
        "a9fb52626034a4df4c4ed11d4cdcd78beffec37c2fc2175d296bdf92ba325bfe",
    ],
}


@pytest.mark.parametrize("kind, n, f, k", sorted(PINNED_SCHEDULES))
def test_schedules_are_pinned(kind, n, f, k):
    gen = gen_fair_schedule if kind == "fair" else gen_adversarial_schedule
    digests = [
        hashlib.sha256(json.dumps(gen(config(n=n, f=f, k=k, seed=seed), 120).leaders).encode())
        .hexdigest()
        for seed in range(5)
    ]
    assert digests == PINNED_SCHEDULES[(kind, n, f, k)]


class TestLazySchedule:
    def test_leaders_are_drawn_only_as_far_as_asked(self):
        cfg = config(seed=3)
        sched = gen_adversarial_schedule(cfg, 10**12)
        first = [sched.leader_at(e) for e in range(50)]
        assert sched.horizon == 10**12 and first == list(gen_adversarial_schedule(cfg, 50).leaders)

    def test_same_draws_in_any_order_of_asking(self):
        cfg = config(n=7, f=2, k=4, seed=5)
        asked = gen_fair_schedule(cfg, 60)
        late = [asked.leader_at(e) for e in (59, 3, 40, 0)]
        full = gen_fair_schedule(cfg, 60).leaders
        assert late == [full[59], full[3], full[40], full[0]]
        assert asked.leaders == full == gen_fair_schedule(cfg, 60).leaders
        assert LeaderSchedule(full, len(full)).leaders == full

    def test_no_leader_at_or_past_the_horizon(self):
        for sched in (gen_fair_schedule(config(), 5), LeaderSchedule((1, 2, 3, 1, 2), 5)):
            assert sched.horizon == len(sched.leaders) == 5
            with pytest.raises(IndexError):
                sched.leader_at(5)

    def test_schedules_of_other_lengths_differ(self):
        cfg = config()
        assert gen_fair_schedule(cfg, 10).leaders != gen_fair_schedule(cfg, 11).leaders
        assert gen_fair_schedule(cfg, 0).leaders == ()

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 13), st.integers(1, 8), st.integers(0, 2**32),
           st.integers(0, 150))
    def test_both_generators_are_fair(self, data, n, k, seed, horizon):
        f = data.draw(st.integers(0, (n - 1) // 3), label="f")
        byz = data.draw(st.integers(1 if f else 0, f), label="byz")
        cfg = config(n=n, f=f, byz=byz, k=k, seed=seed)
        assert check_fair_leader(gen_fair_schedule(cfg, horizon), cfg).ok
        if byz:
            assert check_fair_leader(gen_adversarial_schedule(cfg, horizon), cfg).ok


def reference_check_fair_leader(sched, cfg):
    """check_fair_leader as first written: a slice per window start."""
    report = ValidationReport()
    k = cfg.fairness_bound
    for start in range(0, max(sched.horizon - k + 1, 0)):
        window = sched.leaders[start : start + k]
        if not any(cfg.is_honest(n) for n in window):
            report.add("fair_leader", (start, start + k), f"window {window}")
    return report


def reference_check_starvation_bound(trace, k):
    """check_starvation_bound as first written: a slice per window start."""
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


class TestWindowScan:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 6), st.integers(1, 9),
           st.lists(st.integers(0, 6), max_size=60))
    def test_fair_leader_matches_the_reference(self, n, byz, k, leaders):
        cfg = SimConfig(tuple(NodeInfo(i, i >= byz) for i in range(n)), 0, 1, k)
        sched = LeaderSchedule(leaders, len(leaders))
        assert check_fair_leader(sched, cfg) == reference_check_fair_leader(sched, cfg)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), st.integers(-5, 5),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 2)),
                    max_size=60))
    def test_starvation_bound_matches_the_reference(self, k, first_epoch, cells):
        trace, epoch = [], first_epoch
        for before, after, gap in cells:
            trace.append(EpochRecord(epoch, 0, False, before, after, None, ()))
            epoch += gap
        assert check_starvation_bound(trace, k) == reference_check_starvation_bound(trace, k)

    def test_a_window_shorter_than_one_epoch_is_refused(self):
        with pytest.raises(ValueError):
            check_starvation_bound([flat_record(0, 1)], 0)

    def test_windows_of_a_thousand_epochs_cost_one_pass(self):
        # 100 requests at fairness_bound 1000: the adversarial schedule of
        # the drain bound has 100,200 leaders, and a drain ~100,000 epochs.
        cfg = config(k=1000)
        sched = gen_adversarial_schedule(cfg, drain_horizon(100, cfg))
        # A request is taken in each epoch e with e % 1000 == 999, except 999.
        trace, pending = [], 100
        for e in range(100_000):
            taken = e % 1000 == 999 and e != 999
            trace.append(EpochRecord(e, 0, taken, pending, pending - taken, None, ()))
            pending -= taken
        start = time.perf_counter()
        fair, starvation = check_fair_leader(sched, cfg), check_starvation_bound(trace, 1000)
        assert time.perf_counter() - start < 1.0
        assert fair.ok and len(sched.leaders) == 100_200
        assert [v.witness for v in starvation.violations] == [(s, s + 1000) for s in range(1000)]
