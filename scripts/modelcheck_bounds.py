#!/usr/bin/env python3
"""Model-check the sync engine at increasing bounds and report timings:
the wall time of the run and per checked sync; the process's peak RSS in
MiB (``ru_maxrss``), read right after the run and before the engine-only
pass, which holds every initial state at once on purpose; it is the
process's peak so far, which an earlier bound may have set; the
engine-only time, the same syncs from the same initial states with no
checking, and so the checker's share of the run; and, split by the
sync's outcome, the mean engine-only time of one sync and the mean time
of one op: a sync plus the checks of its outcome (timed in a second run,
through a wrapping ``sync_fn``). Each timed pass runs ``REPEATS`` times,
and each figure is its best (least) time over the repeats. Last come the
hits, misses and size of ``engine.cell``'s table over all of the bound's
passes, emptied before them: misses far above the size held show the
table's bound thrashing."""

import argparse
import resource
import time

from regsync import engine
from regsync.cli import _int_at_least
from regsync.modelcheck import (
    asset_names, chain_names, enumerate_initial_states, initial_state_count, run_modelcheck,
)
from regsync.regulatory import RegAction

# Runs of each timed pass; the figures on a shared VM swing by up to 2x
# between single runs, and the best of a few is steadier.
REPEATS = 3


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


def engine_only_times(n_chains: int, n_assets: int) -> dict[bool, tuple[int, float]]:
    """Every sync run_modelcheck makes at these bounds, with nothing else:
    each step from each initial state, split by outcome. The lock-free
    consistent states are closed under sync, so these are the states every
    depth explores. An untimed pass sorts each state's steps by outcome
    before the clock starts; the successful syncs are then timed apart
    from the failed ones, ``REPEATS`` times. Returns, per outcome (True
    for a success), the number of syncs and their least wall seconds."""
    states = list(enumerate_initial_states(n_chains, n_assets))
    steps = [(c, a, aid) for c in chain_names(n_chains) for a in RegAction
             for aid in asset_names(n_assets)]
    sync, batches = engine.sync, {True: [], False: []}  # outcome -> [(state, its steps)]
    for gs in states:
        by_outcome = {True: [], False: []}
        for c, a, aid in steps:
            by_outcome[sync(c, a, aid, gs).ok].append((c, a, aid))
        for ok, batch in by_outcome.items():
            batches[ok].append((gs, batch))
    best = dict.fromkeys(batches, float("inf"))
    for _ in range(REPEATS):
        for ok, pairs in batches.items():
            start = time.perf_counter()
            for gs, batch in pairs:
                for c, a, aid in batch:
                    sync(c, a, aid, gs)
            best[ok] = min(best[ok], time.perf_counter() - start)
    return {ok: (sum(len(batch) for _, batch in pairs), best[ok]) for ok, pairs in batches.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-domains", type=_int_at_least(1), default=3)
    parser.add_argument("--max-assets", type=_int_at_least(1), default=2)
    parser.add_argument("--depth", type=_int_at_least(1), default=2)
    args = parser.parse_args()

    for d in range(1, args.max_domains + 1):
        for a in range(1, args.max_assets + 1):
            engine.cell.cache_clear()
            elapsed = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                result = run_modelcheck(d, a, args.depth)
                elapsed = min(elapsed, time.perf_counter() - start)
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
            timed = engine_only_times(d, a)
            alone = timed[True][1] + timed[False][1]
            per_sync = {ok: seconds / n * 1e6 for ok, (n, seconds) in timed.items()}
            splits = [OpSplit() for _ in range(REPEATS)]
            for split in splits:
                run_modelcheck(d, a, args.depth, sync_fn=split)
                split.tick()
            per_op = {ok: min(split.mean_us(ok) for split in splits) for ok in (True, False)}
            cells = engine.cell.cache_info()
            print(
                f"D={d} A={a} depth={args.depth}: "
                f"{initial_state_count(d, a)} initial states, "
                f"{result.states_explored} reachable, "
                f"{result.syncs_checked} syncs ({split.ops[True]} successful), "
                f"{len(result.counterexamples)} violations, {elapsed:.2f}s, "
                f"{elapsed / result.syncs_checked * 1e6:.1f} us/sync, "
                f"peak RSS so far {peak_mib:.1f} MiB; "
                f"engine only {alone:.2f}s, checker {1 - alone / elapsed:.0%} of the run; "
                f"engine only per sync: {per_sync[False]:.2f} us failed, "
                f"{per_sync[True]:.2f} us successful; per op "
                f"{per_op[False]:.2f} us after a failed sync, "
                f"{per_op[True]:.2f} us after a successful one; "
                f"cell table: hits {cells.hits}, misses {cells.misses}, "
                f"held {cells.currsize}/{cells.maxsize}"
            )


if __name__ == "__main__":
    main()
