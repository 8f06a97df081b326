#!/usr/bin/env python3
"""Seed sweep over the liveness simulator.

Runs fair and adversarial schedules across many seeds and prints drain
times against the pending0 * fairness_bound + timeout bound, with the mean
wall-clock cost of one epoch of the drains.
"""

import argparse
import statistics
import time

from regsync.liveness import (
    NodeInfo,
    SimConfig,
    SimState,
    check_starvation_bound,
    gen_adversarial_schedule,
    gen_fair_schedule,
    run_until_drained,
)
from regsync.priority import AuthorityLevel, RegRequest
from regsync.regulatory import RegAction, RegState
from regsync import engine


def build_config(n, f, timeout, k, seed):
    nodes = tuple(NodeInfo(i, honest=i >= f) for i in range(n))
    return SimConfig(nodes, f, timeout, k, seed=seed)


def initial_state(n_requests):
    reqs = tuple(
        RegRequest(i + 1, AuthorityLevel.NATIONAL, i, RegAction.FREEZE, f"a{i+1}")
        for i in range(n_requests)
    )
    chains = {
        c: {r.asset: engine.AssetState(r.asset, RegState.ACTIVE, "owner") for r in reqs}
        for c in ("c1", "c2")
    }
    return SimState(0, reqs, engine.GlobalState.make(chains), {})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--faults", type=int, default=1)
    parser.add_argument("--timeout", type=int, default=2)
    parser.add_argument("--fairness-bound", type=int, default=3)
    parser.add_argument("--requests", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args()

    bound = args.requests * args.fairness_bound + args.timeout
    for label, gen in (("fair", gen_fair_schedule), ("adversarial", gen_adversarial_schedule)):
        drains = []
        drain_s = 0.0
        starvation_ok = True
        for seed in range(args.seeds):
            cfg = build_config(args.nodes, args.faults, args.timeout, args.fairness_bound, seed)
            sched = gen(cfg, bound)
            s0 = initial_state(args.requests)
            start = time.perf_counter()
            trace = run_until_drained(s0, sched, cfg, bound)
            drain_s += time.perf_counter() - start
            drains.append(len(trace))
            starvation_ok &= check_starvation_bound(trace, cfg.fairness_bound).ok
            assert trace[-1].pending_after == 0, f"seed {seed} did not drain"
        print(
            f"{label}: drained {args.seeds}/{args.seeds} within bound {bound}; "
            f"epochs min={min(drains)} max={max(drains)} "
            f"mean={statistics.mean(drains):.1f}; {drain_s / sum(drains) * 1e6:.0f} us/epoch; "
            f"starvation windows ok={starvation_ok}"
        )


if __name__ == "__main__":
    main()
