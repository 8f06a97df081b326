"""Self-tests of the benchmark: python3 -m pytest bench -q"""

import json
from array import array
from collections import Counter

import pytest

import gen
import reference
import run
import tracer as tr
from workloads import ModelCheck, OpClock, Replay, RepResult, load_regsync


@pytest.fixture(scope="module")
def mods():
    return load_regsync(run.SRC)


def test_self_times_on_hand_built_tree():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("leaf", 15, 25, 1),
        ("b", 50, 90, 0),
        ("leaf", 60, 70, 3),
        ("leaf", 70, 80, 3),
        ("a", 92, 99, 0),
    ]
    self_ns, calls = tr.self_times(spans)
    assert self_ns == {"root": 100 - 30 - 40 - 7, "a": 30 - 10 + 7, "leaf": 30, "b": 40 - 20}
    assert calls == {"root": 1, "a": 2, "leaf": 3, "b": 1}
    assert sum(self_ns.values()) == 100


@pytest.mark.parametrize("bad", [
    ("c", 95, 120, 0),  # runs past its parent
    ("c", 35, 60, 0),  # overlaps its earlier sibling
    ("c", 5, 9, 1),  # starts before its parent
])
def test_self_times_refuses_spans_that_do_not_nest(bad):
    spans = [("root", 0, 100, -1), ("a", 10, 40, 0), ("leaf", 15, 25, 1), bad]
    with pytest.raises(ValueError):
        tr.self_times(spans)


def test_traced_calls_nest_and_patches_are_undone(mods):
    originals = {(m, a): getattr(getattr(mods, m), a) for _, sites in tr.TIMED + tr.COUNTED
                 for m, a in sites}
    chains = {"c1": {"a1": mods.engine.AssetState("a1", mods.regulatory.RegState.ACTIVE, "o")},
              "c2": {"a1": mods.engine.AssetState("a1", mods.regulatory.RegState.ACTIVE, "o")}}
    gs = mods.engine.GlobalState.make(chains)
    tracer, stats = tr.Tracer(), Counter()
    with tr.install(mods, tracer, stats):
        with tracer.span(tr.ROOT):
            result = mods.engine.sync("c1", mods.regulatory.RegAction.FREEZE, "a1", gs)
            text = mods.engine.canonical_dumps(result.state)
    self_ns, calls = tr.self_times(tracer.spans())
    root = tracer.end[0] - tracer.start[0]
    assert sum(self_ns.values()) == root
    assert calls == {tr.ROOT: 1, "engine.sync": 1, "engine.lock": 2,
                     "engine.update_all_chains": 1, "engine.canonical_dumps": 1,
                     "engine.to_json_dict": 1}
    assert tracer.counts["regulatory.reg_transition"] == 1
    assert stats == {"engine.sync.ok": 1, "engine.canonical_dumps.bytes": len(text)}
    for (m, a), fn in originals.items():
        assert getattr(getattr(mods, m), a) is fn


@pytest.mark.parametrize("make", [gen.sim_scenario, gen.replay_scenario])
def test_generators_are_deterministic_per_seed(make, tmp_path):
    gen.write_scenario(make(7)[0], tmp_path / "a.json")
    gen.write_scenario(make(7)[0], tmp_path / "b.json")
    gen.write_scenario(make(8)[0], tmp_path / "c.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "c.json").read_bytes()


def test_generated_inputs_parse_and_keep_their_premises(mods, tmp_path):
    doc, _ = gen.sim_scenario(3)
    gen.write_scenario(doc, tmp_path / "sim.json")
    sc = mods.scenario.parse_scenario(tmp_path / "sim.json")
    assert len(sc.requests) == gen.SIM_REQUESTS
    last: dict = {}
    for r in sc.requests:  # strictly increasing timestamps per node
        assert r.timestamp > last.get(r.node_id, -1)
        last[r.node_id] = r.timestamp
    assert mods.liveness.validate_bft_config(sc.sim).ok

    doc, summary = gen.replay_scenario(3)
    gen.write_scenario(doc, tmp_path / "replay.json")
    sc = mods.scenario.parse_scenario(tmp_path / "replay.json")
    assert len(sc.sync) == gen.REPLAY_STEPS
    assert abs(summary["valid_share"] - gen.REPLAY_VALID_SHARE) < 0.03
    cells = sum(len(table) for table in sc.state.chains.values())
    assert cells == sum(i % 4 + 1 for i in range(gen.REPLAY_ASSETS))


def broken_sync_skipping_update(mods):
    engine, reg = mods.engine, mods.regulatory

    def sync(source, action, aid, gs):
        current = engine.get_reg_state(gs, source, aid)
        if current is None:
            return engine.SyncResult.failure(engine.SyncFailure.ASSET_NOT_FOUND)
        if reg.reg_transition(current, action) is None:
            return engine.SyncResult.failure(engine.SyncFailure.INVALID_TRANSITION)
        locked = engine.acquire_lock(gs, aid)
        if locked is None:
            return engine.SyncResult.failure(engine.SyncFailure.LOCKED)
        return engine.SyncResult.success(engine.release_lock(locked, aid))

    return sync


def test_mc_gate_fails_on_a_broken_sync(mods):
    workload = ModelCheck()
    rep = workload.rep(workload.load(mods), sync_fn=broken_sync_skipping_update(mods))
    attempted, failed = run.count_failures([rep])
    assert failed / attempted > 0


def test_replay_gate_fails_on_a_wrong_expectation(mods, tmp_path):
    workload = Replay()
    doc, _ = gen.replay_scenario(5)
    doc["sync"][10]["expect"] = "Locked"
    workload.path = tmp_path / "replay.json"
    gen.write_scenario(doc, workload.path)
    rep = workload.rep(workload.load(mods))
    assert run.count_failures([rep]) == (gen.REPLAY_STEPS, 1)


def test_digest_mismatch_across_reps_fails_the_rep(mods):
    workload = ModelCheck()
    good = workload.rep(workload.load(mods))
    bad = workload.rep(workload.load(mods))
    bad.digest = "other"
    assert run.count_failures([good, bad]) == (good.ops + bad.ops, bad.ops)


@pytest.mark.parametrize("ops, probed_after", [(7, [0, 3, 6, 7]), (6, [0, 3, 6])])
def test_op_clock_probes_between_chunks(ops, probed_after):
    done = []  # ops finished when each probe ran
    clock = OpClock(lambda: done.append(len(clock.lat) if done else 0) or 1, every=3)
    for _ in range(ops):
        clock.tick()
    clock.finish()
    assert done == probed_after  # before the first op, every 3 ops and after the last
    assert len(clock.probes) == len(done) and len(clock.lat) == ops


def test_normalised_scales_each_chunk_by_its_own_probes():
    nominal = reference.NOMINAL_NS
    # Ops 0-1 lie between probes 1x and 1x nominal, ops 2-3 between 1x and 2x.
    rep = RepResult(4, 0, 40, array("q", [10, 10, 10, 10]), "d",
                    probes_ns=array("q", [nominal, nominal, 2 * nominal]), ops_per_probe=2)
    assert run.normalised(rep) == pytest.approx([10, 10, 10 / 1.5, 10 / 1.5])


def test_end_to_end_takes_median_reps_and_percentiles_over_all_ops():
    nominal = reference.NOMINAL_NS
    probes = array("q", [nominal, nominal])

    def rep(*lat):
        return RepResult(len(lat), 0, sum(lat), array("q", lat), "d", probes_ns=probes,
                         ops_per_probe=len(lat))

    reps = [rep(70, 10, 10, 20), rep(10, 10, 10, 70), rep(50, 50, 50, 50)]
    values, _ = run.end_to_end(reps, [0.5, 0.1, 0.2], 12.0)
    assert values["wall_s"] == 110 / 1e9  # median of 110, 100, 200
    assert values["ops_per_s"] == 4 / (110 / 1e9)
    assert values["op_p50_us"] == 20 / 1e3  # 6th of the 12 ops of all reps
    assert values["op_p99_us"] == 70 / 1e3  # 12th of 12
    assert values["setup_s"] == 0.2
    assert values["peak_rss_mb"] == 12.0


def test_mc_clocks_every_sync_and_probes_per_chunk(mods):
    workload = ModelCheck()
    ctx = workload.load(mods)
    plain, probed = workload.rep(ctx), workload.rep(ctx, probe=lambda: reference.NOMINAL_NS)
    assert len(plain.probes_ns) == 0
    assert len(plain.lat_ns) == len(probed.lat_ns) == plain.ops == 51450
    assert len(probed.probes_ns) == -(-51450 // workload.OPS_PER_PROBE) + 1
    assert plain.digest == probed.digest
    assert run.count_failures([plain, probed]) == (2 * 51450, 0)


def test_nearest_rank_leaves_ten_samples_beyond_p99():
    values = list(range(1, 1001))
    assert run.nearest_rank(values, 0.99) == (990, 10)
    assert run.nearest_rank(values, 0.50) == (500, 500)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["mc", "sim", "replay"]


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mc", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
