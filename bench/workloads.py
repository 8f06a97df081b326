"""The three end-to-end uses of regsync, driven through its public functions.

An op is one checked sync in ``mc``, one epoch in ``sim`` and one replayed
step in ``replay``. Each workload has three phases:

- ``prepare(seed, workdir)`` writes the generated input (benchmark work,
  not timed);
- ``load(mods)`` is the program's set-up: loading the input through
  ``scenario.parse_scenario`` and, for ``sim``, validating the BFT config
  and generating the schedule;
- ``rep(ctx)`` runs the timed phase once (one full check, drain or replay)
  and checks its outputs. Given ``probe`` (``reference.probe``), it also
  times the probe before the first op, after every ``OPS_PER_PROBE`` ops
  and after the last, outside the ops' own times, so ``run.py`` can scale
  each op by the machine's speed around it.

Every regsync function is looked up on ``mods`` at call time, so the traced
run sees the wrappers it installs.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import gen

MODULES = (
    "sm_core",
    "preservation",
    "regulatory",
    "engine",
    "priority",
    "liveness",
    "modelcheck",
    "scenario",
)


def load_regsync(src: Path) -> SimpleNamespace:
    """Import regsync afresh from ``src``, dropping any earlier import, so each
    call pays the program's full import cost."""
    for name in [m for m in sys.modules if m == "regsync" or m.startswith("regsync.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    package = importlib.import_module("regsync")
    if Path(package.__file__).resolve().parent != (src / "regsync").resolve():
        raise ImportError(f"regsync imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"regsync.{m}") for m in MODULES})


@dataclass
class RepResult:
    """One timed phase: op count, failed ops, wall time and per-op latencies
    in ns, an output digest that must repeat across reps, and counts read
    from the program's results. ``probes_ns`` are the probe times taken
    around the ops: op j lies between probes ``j // ops_per_probe`` and the
    one after it."""

    ops: int
    failed: int
    wall_ns: int
    lat_ns: array
    digest: str
    detail: dict = field(default_factory=dict)
    probes_ns: array = field(default_factory=lambda: array("q"))
    ops_per_probe: int = 0


class OpClock:
    """Times consecutive ops: ``tick()`` ends one op and starts the next.

    With a probe, it probes before the first op, after every ``every`` ops
    and, in ``finish()``, after the last one unless it just did; the time a
    probe takes belongs to no op.
    """

    def __init__(self, probe=None, every: int = 0) -> None:
        self.probe, self.every = probe, every
        self.lat = array("q")
        self.probes = array("q")
        if probe:
            self.probes.append(probe())
        self.t = time.perf_counter_ns()

    def tick(self) -> None:
        t = time.perf_counter_ns()
        self.lat.append(t - self.t)
        if self.probe and len(self.lat) % self.every == 0:
            self.probes.append(self.probe())
            t = time.perf_counter_ns()
        self.t = t

    def finish(self) -> None:
        if self.probe and len(self.lat) % self.every:
            self.probes.append(self.probe())

    def result(self, failed: int, digest: str, detail: dict, ops: int = 0) -> RepResult:
        return RepResult(ops or len(self.lat), failed, sum(self.lat), self.lat, digest, detail,
                         self.probes, self.every)

    def crashed(self) -> RepResult:
        traceback.print_exc(file=sys.stderr)
        ops = max(len(self.lat), 1)
        return RepResult(ops, ops, sum(self.lat), self.lat, "crashed")


class ModelCheck:
    """``regsync modelcheck --domains 3 --assets 2 --depth 2``.

    The input is the bound itself, so the seed changes nothing here. One
    ``run_modelcheck`` call cannot be split from outside, so the rep passes
    it a ``sync_fn`` that ends one op and starts the next each time it is
    called: an op is one sync plus its edge checks and state key, and the
    first op also carries the enumeration of the initial states. That
    wrapper is one Python frame per sync; it is also where the probes run.
    """

    name = "mc"
    OPS_PER_PROBE = 2500
    CHAINS, ASSETS, DEPTH = 3, 2, 2

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"chains": self.CHAINS, "assets": self.ASSETS, "depth": self.DEPTH}

    def load(self, mods: SimpleNamespace) -> SimpleNamespace:
        return SimpleNamespace(mods=mods)

    def rep(self, ctx: SimpleNamespace, sync_fn=None, probe=None) -> RepResult:
        mc = ctx.mods.modelcheck
        sync = sync_fn or ctx.mods.engine.sync
        clock = OpClock(probe, self.OPS_PER_PROBE)
        tick, first = clock.tick, [True]

        def clocked_sync(source, action, aid, gs):
            if first:
                first.clear()
            else:
                tick()
            return sync(source, action, aid, gs)

        try:
            result = mc.run_modelcheck(self.CHAINS, self.ASSETS, self.DEPTH, sync_fn=clocked_sync)
        except Exception:
            return clock.crashed()
        tick()
        clock.finish()

        states = mc.initial_state_count(self.CHAINS, self.ASSETS)
        syncs = states * self.CHAINS * len(ctx.mods.regulatory.RegAction) * self.ASSETS
        violations = len(result.counterexamples)
        if result.states_explored != states or result.syncs_checked != syncs:
            failed = result.syncs_checked
        else:
            failed = min(violations, result.syncs_checked)
        verdict = (
            f"states={result.states_explored} syncs={result.syncs_checked} "
            f"violations={violations}"
        )
        detail = {
            "states_explored": result.states_explored,
            "syncs_checked": result.syncs_checked,
            "violations": violations,
            "initial_states": states,
            "expected": f"states={states} syncs={syncs} violations=0",
        }
        return clock.result(failed, verdict, detail, max(result.syncs_checked, 1))


class Simulate:
    """``regsync simulate --adversarial`` on the generated request set."""

    name = "sim"
    OPS_PER_PROBE = 100

    def prepare(self, seed: int, workdir: Path) -> dict:
        doc, summary = gen.sim_scenario(seed)
        self.path = workdir / f"sim-{seed}.json"
        gen.write_scenario(doc, self.path)
        return summary

    def load(self, mods: SimpleNamespace) -> SimpleNamespace:
        sc = mods.scenario.parse_scenario(self.path)
        cfg = sc.sim
        report = mods.liveness.validate_bft_config(cfg)
        if not report.ok:
            raise ValueError(f"generated sim config rejected: {report}")
        # The drain bound: one honest epoch per fairness window per request,
        # plus one lock timeout.
        horizon = len(sc.requests) * cfg.fairness_bound + cfg.lock_timeout
        sched = mods.liveness.gen_adversarial_schedule(cfg, horizon)
        s0 = mods.liveness.SimState(0, tuple(sc.requests), sc.state, {})
        return SimpleNamespace(mods=mods, cfg=cfg, sched=sched, s0=s0, horizon=horizon)

    def rep(self, ctx: SimpleNamespace, probe=None) -> RepResult:
        liveness = ctx.mods.liveness
        step = liveness.step_epoch
        sched, cfg, horizon = ctx.sched, ctx.cfg, ctx.horizon
        trace = []
        state = ctx.s0
        clock = OpClock(probe, self.OPS_PER_PROBE)
        try:
            while state.pending and state.epoch < horizon:
                state, record = step(state, sched, cfg)
                trace.append(record)
                clock.tick()
        except Exception:
            return clock.crashed()
        clock.finish()

        epochs = len(trace)
        requests = len(ctx.s0.pending)
        ok = (
            liveness.check_starvation_bound(trace, cfg.fairness_bound).ok
            and liveness.check_eventual_completion(trace).ok
            and all(r.pending_after <= r.pending_before for r in trace)
            and epochs == requests * cfg.fairness_bound
        )
        jsonl = "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in trace)
        detail = {
            "epochs": epochs,
            "processed": sum(r.processed is not None for r in trace),
            "byz_lock_acquires": sum(
                ev.event == "acquire" for r in trace if not r.honest for ev in r.lock_events
            ),
            "lock_expiries": sum(ev.event == "expire" for r in trace for ev in r.lock_events),
            "expected": f"epochs={requests * cfg.fairness_bound}",
        }
        digest = hashlib.sha256(jsonl.encode()).hexdigest()
        failed = 0 if ok else max(epochs, 1)
        return clock.result(failed, digest, detail, max(epochs, 1))


class Replay:
    """``regsync sync`` on the generated step stream: each step is a sync,
    a canonical snapshot (as the CLI prints it) and the expect comparison."""

    name = "replay"
    OPS_PER_PROBE = 100

    def prepare(self, seed: int, workdir: Path) -> dict:
        doc, summary = gen.replay_scenario(seed)
        self.path = workdir / f"replay-{seed}.json"
        gen.write_scenario(doc, self.path)
        return summary

    def load(self, mods: SimpleNamespace) -> SimpleNamespace:
        sc = mods.scenario.parse_scenario(self.path)
        if any(cmd.expect is None for cmd in sc.sync):
            raise ValueError("every generated step must carry an expect tag")
        steps = [(cmd.source, cmd.action, cmd.asset, cmd.expect) for cmd in sc.sync]
        return SimpleNamespace(mods=mods, state=sc.state, steps=steps)

    def rep(self, ctx: SimpleNamespace, probe=None) -> RepResult:
        engine = ctx.mods.engine
        sync, dumps = engine.sync, engine.canonical_dumps
        gs = ctx.state
        snapshot = ""
        failed = 0
        clock = OpClock(probe, self.OPS_PER_PROBE)
        for source, action, aid, expect in ctx.steps:
            try:
                result = sync(source, action, aid, gs)
                tag = "ok" if result.ok else result.reason.value
                if result.ok:
                    gs = result.state
                snapshot = dumps(gs)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                tag = "exception"
            failed += tag != expect
            clock.tick()
        clock.finish()
        digest = hashlib.sha256(snapshot.encode()).hexdigest()
        return clock.result(failed, digest, {})


WORKLOADS = {w.name: w for w in (ModelCheck, Simulate, Replay)}
