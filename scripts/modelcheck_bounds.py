#!/usr/bin/env python3
"""Model-check the sync engine at increasing bounds and report timings,
including the wall time per checked sync."""

import argparse
import time

from regsync.modelcheck import initial_state_count, run_modelcheck


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-domains", type=int, default=3)
    parser.add_argument("--max-assets", type=int, default=2)
    parser.add_argument("--depth", type=int, default=2)
    args = parser.parse_args()

    for d in range(1, args.max_domains + 1):
        for a in range(1, args.max_assets + 1):
            start = time.perf_counter()
            result = run_modelcheck(d, a, args.depth)
            elapsed = time.perf_counter() - start
            per_sync_us = elapsed / max(result.syncs_checked, 1) * 1e6
            print(
                f"D={d} A={a} depth={args.depth}: "
                f"{initial_state_count(d, a)} initial states, "
                f"{result.states_explored} reachable, "
                f"{result.syncs_checked} syncs, "
                f"{len(result.counterexamples)} violations, {elapsed:.2f}s, "
                f"{per_sync_us:.1f} us/sync"
            )


if __name__ == "__main__":
    main()
