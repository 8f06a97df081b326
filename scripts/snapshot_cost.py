#!/usr/bin/env python3
"""Time the layers of one ``regsync sync`` step on a generated state: the
sync itself, ``to_json_dict`` and ``canonical_dumps`` (which includes one
``to_json_dict``). Every asset sits on all 4 chains, in the five states in
turn; the sync freezes the first asset, which is ACTIVE. Each figure is the
minimum CPU time per call over the repeats.

``canonical_dumps`` is timed warm, with every cell's text already in the
engine's cell cache (a replay after its first steps), and cold, with the
cache cleared before each call (outside the timing), so that the call
renders each distinct cell once: here one per asset, shared by the 4
chains."""

import argparse
import time
import timeit

from regsync import engine
from regsync.cli import _int_at_least
from regsync.regulatory import RegAction, RegState

CHAINS = ("c1", "c2", "c3", "c4")


def make_state(n_assets: int) -> engine.GlobalState:
    states = list(RegState)
    table = {
        f"a{i+1}": engine.AssetState(f"a{i+1}", states[i % len(states)], f"o{i % 7}")
        for i in range(n_assets)
    }
    return engine.GlobalState({c: dict(table) for c in CHAINS}, frozenset())


def cold_seconds(gs: engine.GlobalState, number: int) -> float:
    """CPU seconds of ``number`` canonical_dumps calls, each made after
    clearing the cell cache."""
    total = 0.0
    for _ in range(number):
        engine._cell_text.cache_clear()
        start = time.process_time()
        engine.canonical_dumps(gs)
        total += time.process_time() - start
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--assets", type=_int_at_least(1), nargs="+", default=[20, 200])
    parser.add_argument("--number", type=_int_at_least(1), default=200, help="calls per repeat")
    parser.add_argument("--repeat", type=_int_at_least(1), default=5)
    args = parser.parse_args()

    for n in args.assets:
        gs = make_state(n)
        calls = {
            "sync": lambda: engine.sync("c1", RegAction.FREEZE, "a1", gs),
            "to_json_dict": lambda: engine.to_json_dict(gs),
            "canonical_dumps warm": lambda: engine.canonical_dumps(gs),
        }
        timings = []
        for name, call in calls.items():
            best = min(
                timeit.Timer(call, timer=time.process_time).repeat(args.repeat, args.number)
            )
            timings.append(f"{name} {best / args.number * 1e6:.1f} us")
        best = min(cold_seconds(gs, args.number) for _ in range(args.repeat))
        timings.append(f"canonical_dumps cold {best / args.number * 1e6:.1f} us")
        print(f"assets={n} chains={len(CHAINS)} cells={n * len(CHAINS)}: " + ", ".join(timings))


if __name__ == "__main__":
    main()
