#!/usr/bin/env python3
"""Time the layers of one ``regsync sync`` step on a generated state: the
sync itself, ``to_json_dict`` and ``canonical_dumps``. Every asset sits on
all 4 chains, in the five states in turn; the sync freezes the first
asset, which is ACTIVE. Each figure is the minimum CPU time per call over
the repeats.

With ``--scenario FILE`` the script instead replays that scenario's
``sync`` steps as ``regsync sync`` does, from an empty snapshot memo, and
prints the mean wall-clock time per step of the sync and of the snapshot
that follows it, the minimum over ``--repeat`` replays. That is the layer
split of the bench ``replay`` workload; ``--assets`` and ``--number`` are
then unused. Each invocation replays one tree, and whole invocations of
the same code swing: seven with ``--scenario`` on the seed-1 bench replay
scenario read 5.3-7.9 us of snapshot per step (2-vCPU VM, CPython
3.11.7). To compare two trees, alternate many invocations of each and
compare the medians over invocations, not one invocation's figures.

Each state size, or the scenario, also reports the hits, misses and size
of ``engine.cell``'s table over its runs, emptied before them: misses far
above the size held show the table's bound thrashing. With
``--scenario`` that report goes to stderr, so stdout stays the one line
of the layer split.

``canonical_dumps`` memoises the last document it wrote as a flat list
of pieces, one per cell with the separator after it, and is timed in the
three cases a replay meets:

- ``unchanged``: the state last rendered, as after a failed sync; a memo
  hit on the state object, which returns the memoised text and renders
  nothing.
- ``after sync``: the state after the sync, with the memo holding the
  state before it (rendered before each call, outside the timing). The
  synced asset's holder chains changed their tables, here all 4, and
  share one new record: its text is rendered once, from the record, and
  written at each holder's piece, with no ``to_json_dict`` call. (Here
  ``a1`` is each chain's first cell, so all 4 pieces share a separator
  too.) The pieces are joined once.
- ``cold``: the memo emptied before each call (outside the timing), so
  that the call renders every cell of every chain, from one
  ``to_json_dict`` call."""

import argparse
import sys
import time
import timeit

from regsync import engine
from regsync.cli import _int_at_least
from regsync.regulatory import RegAction, RegState
from regsync.scenario import ScenarioError, parse_scenario

CHAINS = ("c1", "c2", "c3", "c4")


def make_state(n_assets: int) -> engine.GlobalState:
    states = list(RegState)
    table = {
        f"a{i+1}": engine.AssetState(f"a{i+1}", states[i % len(states)], f"o{i % 7}")
        for i in range(n_assets)
    }
    return engine.GlobalState({c: dict(table) for c in CHAINS}, frozenset())


def prepared_seconds(call, prepare, number: int) -> float:
    """CPU seconds of ``number`` calls of ``call``, each made after
    ``prepare()``, whose time is not counted."""
    total = 0.0
    for _ in range(number):
        prepare()
        start = time.process_time()
        call()
        total += time.process_time() - start
    return total


def cell_table() -> str:
    """The hits, misses and size of ``engine.cell``'s table."""
    info = engine.cell.cache_info()
    return (f"cell table: hits {info.hits}, misses {info.misses}, "
            f"held {info.currsize}/{info.maxsize}")


def replay_split(path: str, repeat: int) -> str:
    """The layer split of replaying the scenario at ``path``: mean wall-clock
    us per step of the sync and of the snapshot, the minimum over
    ``repeat`` replays."""
    sc = parse_scenario(path)
    steps = [(cmd.source, cmd.action, cmd.asset) for cmd in sc.sync]
    sync, dumps, clock = engine.sync, engine.canonical_dumps, time.perf_counter
    best_sync = best_snapshot = float("inf")
    for _ in range(repeat):
        engine._LAST_SNAPSHOT.clear()
        gs, sync_s, snapshot_s, ok = sc.state, 0.0, 0.0, 0
        for source, action, aid in steps:
            start = clock()
            result = sync(source, action, aid, gs)
            synced = clock()
            if result.ok:
                gs, ok = result.state, ok + 1
            dumps(gs)
            sync_s, snapshot_s = sync_s + synced - start, snapshot_s + clock() - synced
        best_sync, best_snapshot = min(best_sync, sync_s), min(best_snapshot, snapshot_s)
    n = max(len(steps), 1)
    return (f"scenario={path} steps={len(steps)} ok={ok}: sync {best_sync / n * 1e6:.1f} us, "
            f"snapshot {best_snapshot / n * 1e6:.1f} us per step")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--assets", type=_int_at_least(1), nargs="+", default=[20, 200])
    parser.add_argument("--number", type=_int_at_least(1), default=200, help="calls per repeat")
    parser.add_argument("--repeat", type=_int_at_least(1), default=5)
    parser.add_argument("--scenario", metavar="FILE",
                        help="replay this scenario's sync steps instead")
    args = parser.parse_args()
    if args.scenario is not None:
        engine.cell.cache_clear()
        try:
            print(replay_split(args.scenario, args.repeat))
        except ScenarioError as exc:
            parser.error(str(exc))
        print(f"scenario={args.scenario}: {cell_table()}", file=sys.stderr)
        return

    for n in args.assets:
        engine.cell.cache_clear()
        gs = make_state(n)
        after = engine.sync("c1", RegAction.FREEZE, "a1", gs).state
        dumps = engine.canonical_dumps
        # name -> (call, setup run once per repeat)
        repeated = {
            "sync": (lambda: engine.sync("c1", RegAction.FREEZE, "a1", gs), "pass"),
            "to_json_dict": (lambda: engine.to_json_dict(gs), "pass"),
            "canonical_dumps unchanged": (lambda: dumps(gs), lambda: dumps(gs)),
        }
        # name -> (call, preparation run before each call)
        prepared = {
            "canonical_dumps after sync": (lambda: dumps(after), lambda: dumps(gs)),
            "canonical_dumps cold": (lambda: dumps(gs), engine._LAST_SNAPSHOT.clear),
        }
        timings = []
        for name, (call, setup) in repeated.items():
            timer = timeit.Timer(call, setup, timer=time.process_time)
            timings.append((name, min(timer.repeat(args.repeat, args.number))))
        for name, (call, prepare) in prepared.items():
            timings.append((name, min(prepared_seconds(call, prepare, args.number)
                                      for _ in range(args.repeat))))
        print(f"assets={n} chains={len(CHAINS)} cells={n * len(CHAINS)}: "
              + ", ".join(f"{name} {best / args.number * 1e6:.1f} us" for name, best in timings)
              + f"; {cell_table()}")


if __name__ == "__main__":
    main()
