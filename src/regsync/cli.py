"""The regsync command line harness.

Exit codes: 0 = all checks pass, 1 = property violation (with
counterexample), 2 = input or configuration error, 3 = internal error
(an unexpected exception, so that a crash never reads as a violation).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from typing import Optional

from . import engine, liveness
from .modelcheck import run_modelcheck
from .priority import DuplicateKeyError, HorizonError
from .regulatory import RegAction, RegState, reg_transition
from .report import BudgetExceededError, enumeration_budget
from .scenario import ScenarioError, canonical_json, parse_scenario

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """An input error found by a command. ``main`` writes each argument to
    stderr after ``error: `` and exits 2; a message may span lines."""


def _matrix_table() -> str:
    col = max(map(len, RegAction)) + 2
    lines = [" " * 12 + "".join(a.ljust(col) for a in RegAction)]
    for s in RegState:
        targets = (reg_transition(s, a) or "--" for a in RegAction)
        lines.append(s.ljust(12) + "".join(t.ljust(col) for t in targets))
    return "\n".join(lines)


def cmd_transition(args) -> int:
    if (args.from_state is None) != (args.action is None):
        raise UsageError("--from and --action must be given together")
    if args.from_state is None:
        print(_matrix_table())
        return EXIT_OK
    try:
        s = RegState(args.from_state)
        a = RegAction(args.action)
    except ValueError as exc:
        usage = "usage: regsync transition [--from STATE --action ACTION]"
        raise UsageError(f"{exc}\n{usage}") from exc
    print(reg_transition(s, a) or "--")
    return EXIT_OK


def cmd_sync(args) -> int:
    scenario = parse_scenario(args.scenario)
    gs = scenario.state
    mismatched = False
    for i, cmd in enumerate(scenario.sync):
        result = engine.sync(cmd.source, cmd.action, cmd.asset, gs)
        tag = "ok" if result.ok else result.reason
        print(f"step {i}: {cmd.source} {cmd.action} {cmd.asset} -> {tag}")
        if result.ok:
            gs = result.state
        print(engine.canonical_dumps(gs), end="")
        if cmd.expect is not None and cmd.expect != tag:
            mismatched = True
            print(f"step {i}: expected {cmd.expect}, got {tag}")
    return EXIT_VIOLATION if mismatched else EXIT_OK


def cmd_modelcheck(args) -> int:
    try:
        budget = enumeration_budget()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = run_modelcheck(args.domains, args.assets, args.depth, budget)
    print(f"states explored: {result.states_explored}")
    print(f"syncs checked: {result.syncs_checked}")
    print(f"violations: {len(result.counterexamples)}")
    if result.ok:
        return EXIT_OK
    text = canonical_json(result.counterexamples[0].to_scenario())
    print("minimal counterexample:")
    print(text, end="")
    if args.counterexample_out:
        try:
            with open(args.counterexample_out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write counterexample: {exc}") from exc
    return EXIT_VIOLATION


def cmd_simulate(args) -> int:
    scenario = parse_scenario(args.scenario)
    if scenario.sim is None or not scenario.requests:
        raise UsageError("scenario needs a 'sim' block and a 'requests' list")
    held = sorted(scenario.state.locks)
    if held:
        # A lock held at rest has no acquisition time, so it would never
        # expire and its requests could never drain.
        raise UsageError(f"locks held at rest: {', '.join(held)}")
    cfg = scenario.sim
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    bft = liveness.validate_bft_config(cfg)
    if not bft.ok:
        raise UsageError(*(f"invalid BFT config: {v}" for v in bft.violations))

    # The drain ends within drain_horizon, so no longer schedule is needed.
    bound = liveness.drain_horizon(len(scenario.requests), cfg)
    horizon = bound if args.max_epochs is None else min(args.max_epochs, bound)
    gen = liveness.gen_adversarial_schedule if args.adversarial else liveness.gen_fair_schedule
    try:
        sched = gen(cfg, horizon)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    s0 = liveness.SimState(0, tuple(scenario.requests), scenario.state, {})
    try:
        # The first epoch ranks the requests, so this raises before any trace.
        trace = liveness.run_until_drained(s0, sched, cfg)
    except (DuplicateKeyError, HorizonError) as exc:
        raise UsageError(f"requests cannot be ranked: {exc}") from exc
    for record in trace:
        print(json.dumps(record.to_json(), sort_keys=True))

    starvation = liveness.check_starvation_bound(trace, cfg.fairness_bound)
    completion = liveness.check_eventual_completion(trace)
    # A violation's line starts with its rule's name.
    print("starvation_bound: ok" if starvation.ok else starvation)
    if not completion.ok and horizon < bound:
        # --max-epochs cut the drain short: it may still have completed.
        print("eventual_completion: undecided")
        if starvation.ok:
            raise UsageError(
                f"--max-epochs {args.max_epochs} stopped the run with {trace[-1].pending_after}"
                f" requests pending, before the drain bound of {bound} epochs"
            )
        return EXIT_VIOLATION
    print("eventual_completion: ok" if completion.ok else completion)
    return EXIT_OK if starvation.ok and completion.ok else EXIT_VIOLATION


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


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
    p.add_argument("--domains", type=_int_at_least(1), default=2)
    p.add_argument("--assets", type=_int_at_least(1), default=1)
    p.add_argument("--depth", type=_int_at_least(1), default=3)
    p.add_argument("--counterexample-out", metavar="PATH")
    p.set_defaults(func=cmd_modelcheck)

    p = sub.add_parser("simulate", help="run the Byzantine liveness simulator")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--adversarial", action="store_true")
    p.add_argument("--max-epochs", type=_int_at_least(1), default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches our contract.
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ScenarioError, BudgetExceededError) as exc:
        for message in exc.args:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
