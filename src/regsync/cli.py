"""The regsync command line harness.

Exit codes: 0 = all checks pass, 1 = property violation (with
counterexample), 2 = input or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

from . import engine, liveness
from .modelcheck import run_modelcheck
from .priority import DuplicateKeyError, HorizonError
from .regulatory import RegAction, RegState, reg_transition
from .report import BudgetExceededError
from .scenario import ScenarioError, parse_scenario

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _matrix_table() -> str:
    col = max(len(a.value) for a in RegAction) + 2
    head = " " * 12 + "".join(a.value.ljust(col) for a in RegAction)
    lines = [head]
    for s in RegState:
        cells = []
        for a in RegAction:
            target = reg_transition(s, a)
            cells.append(("--" if target is None else target.value).ljust(col))
        lines.append(s.value.ljust(12) + "".join(cells))
    return "\n".join(lines)


def cmd_transition(args) -> int:
    if (args.from_state is None) != (args.action is None):
        print("error: --from and --action must be given together", file=sys.stderr)
        return EXIT_USAGE
    if args.from_state is None:
        print(_matrix_table())
        return EXIT_OK
    try:
        s = RegState(args.from_state)
        a = RegAction(args.action)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("usage: regsync transition [--from STATE --action ACTION]", file=sys.stderr)
        return EXIT_USAGE
    target = reg_transition(s, a)
    print("--" if target is None else target.value)
    return EXIT_OK


def cmd_sync(args) -> int:
    try:
        scenario = parse_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    gs = scenario.state
    mismatched = False
    for i, cmd in enumerate(scenario.sync):
        result = engine.sync(cmd.source, cmd.action, cmd.asset, gs)
        tag = "ok" if result.ok else result.reason.value
        print(f"step {i}: {cmd.source} {cmd.action.value} {cmd.asset} -> {tag}")
        if result.ok:
            gs = result.state
        print(engine.canonical_dumps(gs), end="")
        if cmd.expect is not None and cmd.expect != tag:
            mismatched = True
            print(f"step {i}: expected {cmd.expect}, got {tag}")
    return EXIT_VIOLATION if mismatched else EXIT_OK


def cmd_modelcheck(args) -> int:
    try:
        result = run_modelcheck(args.domains, args.assets, args.depth)
    except BudgetExceededError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"states explored: {result.states_explored}")
    print(f"syncs checked: {result.syncs_checked}")
    print(f"violations: {len(result.counterexamples)}")
    if result.ok:
        return EXIT_OK
    minimal = result.counterexamples[0]
    doc = minimal.to_scenario()
    print("minimal counterexample:")
    print(json.dumps(doc, sort_keys=True, indent=2))
    if args.counterexample_out:
        with open(args.counterexample_out, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_VIOLATION


def cmd_simulate(args) -> int:
    try:
        scenario = parse_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if scenario.sim is None or not scenario.requests:
        print("error: scenario needs a 'sim' block and a 'requests' list", file=sys.stderr)
        return EXIT_USAGE
    cfg = scenario.sim
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    bft = liveness.validate_bft_config(cfg)
    if not bft.ok:
        for v in bft.violations:
            print(f"error: invalid BFT config: {v}", file=sys.stderr)
        return EXIT_USAGE

    gen = liveness.gen_adversarial_schedule if args.adversarial else liveness.gen_fair_schedule
    try:
        sched = gen(cfg, args.max_epochs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    s0 = liveness.SimState(0, tuple(scenario.requests), scenario.state, {})
    try:
        s0 = liveness.ranked(s0, cfg)
    except (DuplicateKeyError, HorizonError) as exc:
        print(f"error: requests cannot be ranked: {exc}", file=sys.stderr)
        return EXIT_USAGE
    trace = liveness.run_until_drained(s0, sched, cfg, args.max_epochs)
    for record in trace:
        print(json.dumps(record.to_json(), sort_keys=True))

    starvation = liveness.check_starvation_bound(trace, cfg.fairness_bound)
    completion = liveness.check_eventual_completion(trace)
    print(f"starvation_bound: {starvation}")
    print(f"eventual_completion: {completion}")
    return EXIT_OK if starvation.ok and completion.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsync",
        description="Cross-chain regulatory state synchronization harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transition", help="print the transition matrix or one cell")
    p.add_argument("--from", dest="from_state", metavar="STATE")
    p.add_argument("--action", metavar="ACTION")
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("sync", help="replay a scenario's sync sequence")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("modelcheck", help="exhaustive small-scope model check")
    p.add_argument("--domains", type=int, default=2)
    p.add_argument("--assets", type=int, default=1)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--counterexample-out", metavar="PATH")
    p.set_defaults(func=cmd_modelcheck)

    p = sub.add_parser("simulate", help="run the Byzantine liveness simulator")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--adversarial", action="store_true")
    p.add_argument("--max-epochs", type=int, default=1000)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches our contract.
        return EXIT_USAGE if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
