#!/usr/bin/env python3
"""Model-check the sync engine at increasing bounds and report timings,
including the wall time per checked sync and, split by the sync's outcome,
the mean time of one op: a sync plus the checks of its outcome."""

import argparse
import time

from regsync import engine
from regsync.cli import _int_at_least
from regsync.modelcheck import initial_state_count, run_modelcheck


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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-domains", type=_int_at_least(1), default=3)
    parser.add_argument("--max-assets", type=_int_at_least(1), default=2)
    parser.add_argument("--depth", type=_int_at_least(1), default=2)
    args = parser.parse_args()

    for d in range(1, args.max_domains + 1):
        for a in range(1, args.max_assets + 1):
            split = OpSplit()
            start = time.perf_counter()
            result = run_modelcheck(d, a, args.depth, sync_fn=split)
            split.tick()
            elapsed = time.perf_counter() - start
            print(
                f"D={d} A={a} depth={args.depth}: "
                f"{initial_state_count(d, a)} initial states, "
                f"{result.states_explored} reachable, "
                f"{result.syncs_checked} syncs ({split.ops[True]} successful), "
                f"{len(result.counterexamples)} violations, {elapsed:.2f}s, "
                f"{elapsed / result.syncs_checked * 1e6:.1f} us/sync; per op "
                f"{split.mean_us(False):.2f} us after a failed sync, "
                f"{split.mean_us(True):.2f} us after a successful one"
            )


if __name__ == "__main__":
    main()
