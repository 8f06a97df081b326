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
from .modelcheck import run_modelcheck, to_domain_state_map
from .preservation import disagreements
from .priority import DuplicateKeyError, HorizonError
from .regulatory import RegAction, RegState, reg_transition
from .report import BudgetExceededError, enumeration_budget
from .scenario import Scenario, ScenarioError, canonical_json, parse_scenario

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


def _parse_agreed(path: str) -> Scenario:
    """parse_scenario, refusing a state in which an asset's holders disagree
    on its state: every check assumes they agree. Held locks stay legal."""
    scenario = parse_scenario(path)
    if split := disagreements(to_domain_state_map(scenario.state)):
        aid = min(split)
        raise UsageError(f"holders of {aid} disagree: {', '.join(sorted(split[aid]))}")
    return scenario


def cmd_sync(args) -> int:
    scenario = _parse_agreed(args.scenario)
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
    scenario = _parse_agreed(args.scenario)
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
    gen = liveness.gen_adversarial_schedule if args.adversarial else liveness.gen_fair_schedule
    try:
        sched = gen(cfg, liveness.drain_horizon(len(scenario.requests), cfg))
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
    print("eventual_completion: ok" if completion.ok else completion)
    return EXIT_OK if starvation.ok and completion.ok else EXIT_VIOLATION


def _positive_int(text: str) -> int:
    """argparse's type for a count flag: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    p.add_argument("--domains", type=_positive_int, default=2)
    p.add_argument("--assets", type=_positive_int, default=1)
    p.add_argument("--depth", type=_positive_int, default=3)
    p.add_argument("--counterexample-out", metavar="PATH")
    p.set_defaults(func=cmd_modelcheck)

    p = sub.add_parser("simulate", help="run the Byzantine liveness simulator")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--adversarial", action="store_true")
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
