#!/usr/bin/env python3
"""Model-check the sync engine at increasing bounds and report timings:
the wall time of the run and per checked sync; the process's peak RSS in
MiB (``ru_maxrss``), read right after the run and before the engine-only
pass, which holds every initial state at once on purpose; it is the
process's peak so far, which an earlier bound may have set; the
engine-only time, the same syncs from the same initial states with no
checking, and so the checker's share of the run; and, split by the
sync's outcome, the mean time of one op: a sync plus the checks of its
outcome (timed in a second run, through a wrapping ``sync_fn``)."""

import argparse
import resource
import time

from regsync import engine
from regsync.cli import _int_at_least
from regsync.modelcheck import (
    asset_names, chain_names, enumerate_initial_states, initial_state_count, run_modelcheck,
)
from regsync.regulatory import RegAction


class OpSplit:
    """A ``sync_fn`` that times consecutive ops, as the benchmark's op clock
    does: each call ends the op in progress and starts the next, so an op is
    one sync plus the model checker's work on its outcome up to the next
    sync. Op counts and nanoseconds are kept by whether the sync succeeded."""

    def __init__(self) -> None:
        self.ops, self.ns = {True: 0, False: 0}, {True: 0, False: 0}
        self.ok, self.t = None, 0

    def tick(self) -> None:
        """End the op in progress, if any."""
        t = time.perf_counter_ns()
        if self.ok is not None:
            self.ops[self.ok] += 1
            self.ns[self.ok] += t - self.t
        self.ok, self.t = None, t

    def __call__(self, source, action, aid, gs):
        self.tick()
        result = engine.sync(source, action, aid, gs)
        self.ok = result.ok
        return result

    def mean_us(self, ok: bool) -> float:
        return self.ns[ok] / self.ops[ok] / 1e3


def engine_only_seconds(n_chains: int, n_assets: int) -> float:
    """Wall seconds of every sync run_modelcheck makes at these bounds, with
    nothing else: each step from each initial state. The lock-free
    consistent states are closed under sync, so these are the states every
    depth explores. The states are enumerated before the clock starts."""
    states = list(enumerate_initial_states(n_chains, n_assets))
    steps = [(c, a, aid) for c in chain_names(n_chains) for a in RegAction
             for aid in asset_names(n_assets)]
    sync = engine.sync
    start = time.perf_counter()
    for gs in states:
        for c, a, aid in steps:
            sync(c, a, aid, gs)
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-domains", type=_int_at_least(1), default=3)
    parser.add_argument("--max-assets", type=_int_at_least(1), default=2)
    parser.add_argument("--depth", type=_int_at_least(1), default=2)
    args = parser.parse_args()

    for d in range(1, args.max_domains + 1):
        for a in range(1, args.max_assets + 1):
            start = time.perf_counter()
            result = run_modelcheck(d, a, args.depth)
            elapsed = time.perf_counter() - start
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
            alone = engine_only_seconds(d, a)
            split = OpSplit()
            run_modelcheck(d, a, args.depth, sync_fn=split)
            split.tick()
            print(
                f"D={d} A={a} depth={args.depth}: "
                f"{initial_state_count(d, a)} initial states, "
                f"{result.states_explored} reachable, "
                f"{result.syncs_checked} syncs ({split.ops[True]} successful), "
                f"{len(result.counterexamples)} violations, {elapsed:.2f}s, "
                f"{elapsed / result.syncs_checked * 1e6:.1f} us/sync, "
                f"peak RSS so far {peak_mib:.1f} MiB; "
                f"engine only {alone:.2f}s, checker {1 - alone / elapsed:.0%} of the run; per op "
                f"{split.mean_us(False):.2f} us after a failed sync, "
                f"{split.mean_us(True):.2f} us after a successful one"
            )


if __name__ == "__main__":
    main()
