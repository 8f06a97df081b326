#!/usr/bin/env python3
"""Model-check the sync engine at increasing bounds and report timings:
the wall time of the run and per checked sync; the process's peak RSS in
MiB (``ru_maxrss``), read right after the first run and before the
engine-only pass, which holds every initial state at once on purpose; it
is the process's peak so far, which an earlier bound may have set; the
engine-only time, the same syncs from the same initial states with no
checking, and so the checker's share of the run; and, split by the
sync's outcome, the mean engine-only time of one sync and the mean time
of one op: a sync plus the checks of its outcome (timed in a second run,
through a wrapping ``sync_fn``). The three timed passes run in ``ROUNDS``
interleaved rounds; each figure is its median over the rounds, and each
per-sync and per-op figure is printed with its min-max. Last come the
hits, misses and size of ``engine.cell``'s table over all of the bound's
passes, emptied before them: misses far above the size held show the
table's bound thrashing.

The budget is REGSYNC_BUDGET's, as for ``regsync modelcheck`` (default
5,000,000 syncs); raise it to run bounds such as D=6/A=2. A bound over
the budget ends the run as it ends that command: one ``error:`` line on
stderr and exit code 2.

Whole invocations of the same code shift together: their per-op medians
swing by ~50-60% from one invocation to the next on a shared VM, though
each one's min-max is narrow. To compare two trees, alternate
invocations of each and compare the medians over invocations, not the
``ROUNDS`` of one."""

import argparse
import resource
import statistics
import time

from regsync import engine
from regsync.cli import _int_at_least
from regsync.modelcheck import (
    asset_names, chain_names, enumerate_initial_states, initial_state_count, run_modelcheck,
)
from regsync.regulatory import RegAction
from regsync.report import BudgetExceededError, enumeration_budget

# Rounds of the three timed passes. The passes of a round run one after
# another, so a slow spell of a shared VM, whose figures swing by up to 2x
# between single runs, falls on all three alike; each figure is the median
# over the rounds, printed with its min-max so the noise shows beside it.
ROUNDS = 5


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


def engine_only_batches(n_chains: int, n_assets: int) -> dict[bool, list]:
    """Every sync run_modelcheck makes at these bounds, with nothing else:
    each step from each initial state, sorted by outcome in an untimed
    pass, so that the successful syncs can be timed apart from the failed
    ones. The lock-free consistent states are closed under sync, so these
    are the states every depth explores. Returns, per outcome (True for a
    success), a list of (state, its steps of that outcome)."""
    steps = [(c, a, aid) for c in chain_names(n_chains) for a in RegAction
             for aid in asset_names(n_assets)]
    sync, batches = engine.sync, {True: [], False: []}
    for gs in enumerate_initial_states(n_chains, n_assets):
        by_outcome = {True: [], False: []}
        for c, a, aid in steps:
            by_outcome[sync(c, a, aid, gs).ok].append((c, a, aid))
        for ok, batch in by_outcome.items():
            batches[ok].append((gs, batch))
    return batches


def engine_only_seconds(batches: dict[bool, list]) -> dict[bool, float]:
    """One timed pass over ``batches``: per outcome, the wall seconds of its syncs."""
    sync, seconds = engine.sync, {}
    for ok, pairs in batches.items():
        start = time.perf_counter()
        for gs, batch in pairs:
            for c, a, aid in batch:
                sync(c, a, aid, gs)
        seconds[ok] = time.perf_counter() - start
    return seconds


def spread(values: list[float], digits: int = 2) -> str:
    """The median of ``values`` with their min-max, as ``median (min-max)``."""
    return (f"{statistics.median(values):.{digits}f} "
            f"({min(values):.{digits}f}-{max(values):.{digits}f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-domains", type=_int_at_least(1), default=3)
    parser.add_argument("--max-assets", type=_int_at_least(1), default=2)
    parser.add_argument("--depth", type=_int_at_least(1), default=2)
    args = parser.parse_args()
    try:
        budget = enumeration_budget()
    except ValueError as exc:
        parser.error(str(exc))
    try:
        measure(args.max_domains, args.max_assets, args.depth, budget)
    except BudgetExceededError as exc:  # an input error, as for ``regsync modelcheck``
        parser.exit(2, f"error: {exc}\n")


def measure(max_domains: int, max_assets: int, depth: int, budget: int) -> None:
    """Print one line of figures per bound up to (max_domains, max_assets)."""
    for d in range(1, max_domains + 1):
        for a in range(1, max_assets + 1):
            engine.cell.cache_clear()
            batches = None
            runs, alone, share = [], [], []
            per_sync, per_op = {True: [], False: []}, {True: [], False: []}
            for _ in range(ROUNDS):
                start = time.perf_counter()
                result = run_modelcheck(d, a, depth, budget)
                runs.append(time.perf_counter() - start)
                if batches is None:  # built after the peak RSS (KiB on Linux) is read
                    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    batches = engine_only_batches(d, a)
                    counts = {ok: sum(len(b) for _, b in pairs) for ok, pairs in batches.items()}
                seconds = engine_only_seconds(batches)
                alone.append(seconds[True] + seconds[False])
                share.append(1 - alone[-1] / runs[-1])
                split = OpSplit()
                run_modelcheck(d, a, depth, budget, sync_fn=split)
                split.tick()
                for ok in per_op:
                    per_sync[ok].append(seconds[ok] / counts[ok] * 1e6)
                    per_op[ok].append(split.mean_us(ok))
            cells = engine.cell.cache_info()
            print(
                f"D={d} A={a} depth={depth}: "
                f"{initial_state_count(d, a)} initial states, "
                f"{result.states_explored} reachable, "
                f"{result.syncs_checked} syncs ({split.ops[True]} successful), "
                f"{len(result.counterexamples)} violations, {statistics.median(runs):.2f}s, "
                f"{spread([t / result.syncs_checked * 1e6 for t in runs], 1)} us/sync, "
                f"peak RSS so far {peak_mib:.1f} MiB; "
                f"engine only {statistics.median(alone):.2f}s, "
                f"checker {statistics.median(share):.0%} of the run; "
                f"engine only per sync: {spread(per_sync[False])} us failed, "
                f"{spread(per_sync[True])} us successful; per op "
                f"{spread(per_op[False])} us after a failed sync, "
                f"{spread(per_op[True])} us after a successful one; "
                f"cell table: hits {cells.hits}, misses {cells.misses}, "
                f"held {cells.currsize}/{cells.maxsize}"
            )


if __name__ == "__main__":
    main()
