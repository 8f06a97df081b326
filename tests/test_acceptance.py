"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import time

import pytest

from regsync import cli, engine
from regsync.liveness import (
    NodeInfo,
    SimConfig,
    SimState,
    check_eventual_completion,
    check_starvation_bound,
    drain_horizon,
    gen_adversarial_schedule,
    gen_fair_schedule,
    lock_effective,
    run_until_drained,
    validate_bft_config,
)
from regsync.locales import check_sequential_preservation, identity_morphism, rename_machine
from regsync.modelcheck import run_modelcheck
from regsync.priority import (
    AuthorityLevel,
    DuplicateKeyError,
    RegRequest,
    priority_key,
    select_highest,
)
from regsync.regulatory import RegAction, RegState, reg_machine_spec, reg_transition
from regsync.scenario import parse_scenario

from conftest import make_state, rules
from test_regulatory import ACTION_ORDER, REFERENCE_MATRIX


class Gate:
    """Times a criterion and prints its verdict line."""

    def __init__(self, number, title, limit_s):
        self.number = number
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None and elapsed <= self.limit_s else "FAIL"
        print(f"ACCEPTANCE {self.number} {verdict}: {self.title} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed <= self.limit_s, f"criterion {self.number} exceeded {self.limit_s}s"
        return False


def test_criterion_1_transition_matrix_fidelity():
    with Gate(1, "transition matrix fidelity", 1.0):
        defined = 0
        for state_name, row in REFERENCE_MATRIX.items():
            s = RegState(state_name)
            for a, expected in zip(ACTION_ORDER, row):
                got = reg_transition(s, a)
                assert (None if got is None else got.value) == expected
                defined += got is not None
        assert defined == 12
        assert 5 * 7 - defined == 23


def test_criterion_2_fundamental_properties():
    with Gate(2, "fundamental properties I1/I2/no-self-loops/progress", 1.0):
        for a in RegAction:
            assert reg_transition(RegState.CONFISCATED, a) is None
        for s in RegState:
            if s is not RegState.CONFISCATED:
                assert reg_transition(s, RegAction.CONFISCATE) is RegState.CONFISCATED
                assert any(reg_transition(s, a) is not None for a in RegAction)
        for s in RegState:
            for a in RegAction:
                assert reg_transition(s, a) is not s


def test_criterion_3_sequential_preservation():
    with Gate(3, "sequential preservation up to length 4", 5.0):
        sm = reg_machine_spec()
        _, renaming = rename_machine(sm, lambda s: s + "'", lambda a: a + "'")
        assert check_sequential_preservation(identity_morphism(sm), 4).ok
        assert check_sequential_preservation(renaming, 4).ok


def test_criterion_4_model_check_theorems():
    with Gate(4, "model check D=2/A=1/depth=3 and D=3/A=2/depth=2", 60.0):
        small = run_modelcheck(2, 1, 3)
        assert small.ok, small.counterexamples[:3]
        large = run_modelcheck(3, 2, 2)
        assert large.ok, large.counterexamples[:3]


def _mutant_skip_target(source, action, aid, gs):
    result = engine.sync(source, action, aid, gs)
    if not result.ok:
        return result
    gs2 = result.state
    for c in sorted(engine.connected_chains(gs, aid)):
        if c != source:
            chains = {cc: (dict(t) if cc == c else t) for cc, t in gs2.chains.items()}
            chains[c][aid] = gs.chains[c][aid]
            return engine.SyncResult.success(engine.GlobalState(chains, gs2.locks))
    return result


def _mutant_skip_release(source, action, aid, gs):
    result = engine.sync(source, action, aid, gs)
    if not result.ok:
        return result
    relocked = engine.acquire_lock(result.state, aid)
    return engine.SyncResult.success(relocked if relocked is not None else result.state)


def _mutant_allow_seized_freeze(source, action, aid, gs):
    current = engine.get_reg_state(gs, source, aid)
    if current is RegState.SEIZED and action is RegAction.FREEZE:
        locked = engine.acquire_lock(gs, aid)
        if locked is None:
            return engine.SyncResult.failure(engine.SyncFailure.LOCKED)
        updated = engine.update_all_chains(
            locked, aid, RegState.FROZEN, engine.connected_chains(gs, aid)
        )
        return engine.SyncResult.success(engine.release_lock(updated, aid))
    return engine.sync(source, action, aid, gs)


def test_criterion_5_mutation_sensitivity(tmp_path):
    with Gate(5, "mutation sensitivity with replayable counterexamples", 60.0):
        mutants = [
            ("skip one target chain", _mutant_skip_target),
            ("skip release_lock", _mutant_skip_release),
            ("allow (SEIZED, FREEZE)", _mutant_allow_seized_freeze),
        ]
        for name, mutant in mutants:
            result = run_modelcheck(2, 1, 2, sync_fn=mutant)
            assert not result.ok, f"mutation not caught: {name}"
            ce = result.counterexamples[0]
            assert len(ce.steps) <= 2
            doc = ce.to_scenario()
            path = tmp_path / "counterexample.json"
            path.write_text(json.dumps({"state": doc["state"], "sync": doc["sync"]}))
            assert parse_scenario(path).sync  # replays through the scenario pipeline


def test_criterion_6_priority_determinism():
    with Gate(6, "unique maximum over all subsets and permutations", 5.0):
        reqs = [
            RegRequest(1, AuthorityLevel.REGIONAL, 1, RegAction.CONFISCATE, "a1"),
            RegRequest(2, AuthorityLevel.INTERNATIONAL, 9, RegAction.UNFREEZE, "a2"),
            RegRequest(3, AuthorityLevel.NATIONAL, 4, RegAction.SEIZE, "a3"),
            RegRequest(4, AuthorityLevel.NATIONAL, 4, RegAction.FREEZE, "a4"),
            RegRequest(5, AuthorityLevel.REGIONAL, 2, RegAction.RELEASE, "a5"),
            RegRequest(6, AuthorityLevel.INTERNATIONAL, 9, RegAction.UNFREEZE, "a6"),
        ]
        subsets = 0
        for size in range(1, 7):
            for subset in itertools.combinations(reqs, size):
                subsets += 1
                winner = select_highest(subset)
                wk = priority_key(winner)
                assert sum(priority_key(r) == wk for r in subset) == 1
                assert all(priority_key(r) <= wk for r in subset)
                for perm in itertools.permutations(subset):
                    assert select_highest(list(perm)) == winner
        assert subsets == 63
        clash = RegRequest(1, AuthorityLevel.REGIONAL, 1, RegAction.CONFISCATE, "b9")
        with pytest.raises(DuplicateKeyError):
            select_highest([reqs[0], clash])


def test_criterion_7_deadlock_freedom():
    with Gate(7, "deadlock freedom over the full grid", 1.0):
        for lock_time in range(101):
            for timeout in range(1, 21):
                assert not lock_effective(lock_time, lock_time + timeout, timeout)
                assert lock_effective(lock_time, lock_time + timeout - 1, timeout)


def _bft_config(n, f, byz, timeout=2, k=3, seed=0):
    return SimConfig(
        nodes=tuple(NodeInfo(i, honest=i >= byz) for i in range(n)),
        f_max=f,
        lock_timeout=timeout,
        fairness_bound=k,
        seed=seed,
    )


def test_criterion_8_bft_arithmetic():
    with Gate(8, "honest majority arithmetic and Table 3 instance", 1.0):
        for n in range(4, 101):
            f = (n - 1) // 3
            for byz in range(f + 1):
                cfg = _bft_config(n, f, byz)
                assert validate_bft_config(cfg).ok
                assert len(cfg.honest_nodes) > 2 * f
        assert validate_bft_config(_bft_config(20, 6, 6)).ok
        assert "bft_threshold" in rules(validate_bft_config(_bft_config(3, 1, 1)))


def test_criterion_9_starvation_and_completion():
    with Gate(9, "drain bound and starvation windows over 100 seeds", 30.0):
        for n, f, k in ((4, 1, 3), (7, 2, 5)):
            timeout = 2  # <= k
            bound = 5 * k + timeout
            for seed in range(100):
                cfg = _bft_config(n, f, f, timeout=timeout, k=k, seed=seed)
                reqs = tuple(
                    RegRequest(i + 1, AuthorityLevel.NATIONAL, i, RegAction.FREEZE, f"a{i+1}")
                    for i in range(5)
                )
                placement = {
                    c: {r.asset: RegState.ACTIVE for r in reqs} for c in ("c1", "c2")
                }
                for schedule_gen in (gen_fair_schedule, gen_adversarial_schedule):
                    sched = schedule_gen(cfg, bound)
                    s0 = SimState(0, reqs, make_state(placement), {})
                    trace = run_until_drained(s0, sched, cfg)
                    assert trace and trace[-1].pending_after == 0, (n, seed, schedule_gen)
                    assert len(trace) <= bound
                    assert check_starvation_bound(trace, k).ok, (n, seed, schedule_gen)
                    assert check_eventual_completion(trace).ok


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lock_timeout_2_keeps_every_k_window(k):
    """The holding side of ROADMAP item 20's boundary: at lock_timeout 2,
    fair and adversarial drains over seeds 0-199 keep every k-window, on
    the two-request one-chain scenario that stalls a window at timeout 3
    (seed 302) and on a six-request, five-asset variant of it."""
    two = tuple(RegRequest(i + 1, AuthorityLevel.NATIONAL, i, RegAction.FREEZE, asset)
                for i, asset in enumerate("ab"))
    six = tuple(RegRequest(i + 1, AuthorityLevel.NATIONAL, i, RegAction.FREEZE, f"a{i % 5}")
                for i in range(6))
    for reqs in (two, six):
        chain = make_state({"c1": {r.asset: RegState.ACTIVE for r in reqs}})
        for seed in range(200):
            cfg = _bft_config(4, 1, 1, timeout=2, k=k, seed=seed)
            for schedule_gen in (gen_fair_schedule, gen_adversarial_schedule):
                sched = schedule_gen(cfg, drain_horizon(len(reqs), cfg))
                trace = run_until_drained(SimState(0, reqs, chain, {}), sched, cfg)
                assert check_starvation_bound(trace, k).ok, (len(reqs), seed, schedule_gen)
                assert check_eventual_completion(trace).ok, (len(reqs), seed, schedule_gen)


def test_criterion_10_harness_determinism(tmp_path, capsys):
    with Gate(10, "byte-identical output for every subcommand", 60.0):
        scenario = {
            "state": {
                "chains": {
                    "c1": {"a1": {"state": "ACTIVE", "owner": "o", "locked": False}},
                    "c2": {"a1": {"state": "ACTIVE", "owner": "o", "locked": False}},
                },
                "locks": {},
            },
            "sync": [{"source": "c1", "action": "FREEZE", "asset": "a1"}],
        }
        sim_scenario = {
            "state": {
                "chains": {
                    "c1": {f"a{i}": {"state": "ACTIVE", "owner": "o", "locked": False}
                           for i in range(1, 6)},
                },
                "locks": {},
            },
            "requests": [
                {"node": i, "authority": "National", "timestamp": i,
                 "action": "FREEZE", "asset": f"a{i}"}
                for i in range(1, 6)
            ],
            "sim": {
                "nodes": [{"id": 0, "honest": False}]
                + [{"id": i, "honest": True} for i in (1, 2, 3)],
                "f_max": 1, "lock_timeout": 2, "fairness_bound": 3, "seed": 4,
            },
        }
        sync_path = tmp_path / "sync.json"
        sync_path.write_text(json.dumps(scenario))
        sim_path = tmp_path / "sim.json"
        sim_path.write_text(json.dumps(sim_scenario))

        commands = [
            ["transition"],
            ["transition", "--from", "ACTIVE", "--action", "SEIZE"],
            ["sync", str(sync_path)],
            ["modelcheck", "--domains", "2", "--assets", "1", "--depth", "2"],
            ["simulate", str(sim_path), "--seed", "7"],
            ["simulate", str(sim_path), "--seed", "7", "--adversarial"],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                code = cli.main(list(argv))
                captured = capsys.readouterr()
                runs.append((code, captured.out.encode(), captured.err.encode()))
            assert runs[0] == runs[1], argv
