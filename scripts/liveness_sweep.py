#!/usr/bin/env python3
"""Seed sweep over the liveness simulator.

Runs fair and adversarial schedules across many seeds and prints drain
times against the drain horizon (``liveness.drain_horizon``), with the mean
wall-clock cost of one epoch of the drains, over all epochs and apart for
honest and Byzantine leaders: a Byzantine epoch that may lock an asset pays
for its seeded draw, an honest one for its sync. ``--requests`` takes one
or more request counts and prints a line per count and schedule, so one
run gives the cost per epoch against the request count:

    python3 scripts/liveness_sweep.py --requests 250 1000 4000 --seeds 1
"""

import argparse
import statistics
import time

from regsync.cli import _int_at_least
from regsync.liveness import (
    NodeInfo,
    SimConfig,
    SimState,
    check_starvation_bound,
    drain_horizon,
    gen_adversarial_schedule,
    gen_fair_schedule,
    step_epoch,
    validate_bft_config,
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
    parser.add_argument("--requests", type=_int_at_least(1), nargs="+", default=[5], metavar="N")
    parser.add_argument("--seeds", type=_int_at_least(1), default=100)
    args = parser.parse_args()
    # The sweep's configs differ only in their seed, which no BFT rule reads.
    cfg = build_config(args.nodes, args.faults, args.timeout, args.fairness_bound, 0)
    bft = validate_bft_config(cfg)
    if not bft.ok:
        parser.error("invalid BFT config: " + "; ".join(str(v) for v in bft.violations))
    for n_requests in args.requests:
        sweep(args, n_requests)


def timed_drain(s0, sched, cfg):
    """The trace run_until_drained gives, and the seconds its honest
    (``True``) and Byzantine (``False``) epochs took."""
    trace, seconds, state = [], {True: 0.0, False: 0.0}, s0
    while state.pending and state.epoch < sched.horizon:
        start = time.perf_counter()
        state, record = step_epoch(state, sched, cfg)
        seconds[record.honest] += time.perf_counter() - start
        trace.append(record)
    return trace, seconds


def us_per_epoch(seconds, epochs):
    return f"{seconds / epochs * 1e6:.0f} us" if epochs else "-"


def sweep(args, n_requests):
    """Drain ``n_requests`` requests under both schedules for every seed and
    print one line per schedule. With no faulty node there is no Byzantine
    leader for an adversarial schedule, so only the fair one runs."""
    schedules = (("fair", gen_fair_schedule), ("adversarial", gen_adversarial_schedule))
    for label, gen in schedules[: 2 if args.faults else 1]:
        drains = []
        seconds, epochs = {True: 0.0, False: 0.0}, {True: 0, False: 0}
        starvation_ok = True
        for seed in range(args.seeds):
            cfg = build_config(args.nodes, args.faults, args.timeout, args.fairness_bound, seed)
            bound = drain_horizon(n_requests, cfg)
            sched = gen(cfg, bound)
            s0 = initial_state(n_requests)
            trace, drain_s = timed_drain(s0, sched, cfg)
            for honest in (True, False):
                seconds[honest] += drain_s[honest]
                epochs[honest] += sum(r.honest is honest for r in trace)
            drains.append(len(trace))
            starvation_ok &= check_starvation_bound(trace, cfg.fairness_bound).ok
            assert trace[-1].pending_after == 0, f"seed {seed} did not drain"
        print(
            f"requests={n_requests} {label}: "
            f"drained {args.seeds}/{args.seeds} within bound {bound}; "
            f"epochs min={min(drains)} max={max(drains)} "
            f"mean={statistics.mean(drains):.1f}; "
            f"{us_per_epoch(sum(seconds.values()), sum(drains))}/epoch "
            f"({us_per_epoch(seconds[True], epochs[True])} honest, "
            f"{us_per_epoch(seconds[False], epochs[False])} Byzantine); "
            f"starvation windows ok={starvation_ok}"
        )


if __name__ == "__main__":
    main()
