"""Scenario files: initial state, sync steps, requests, and sim parameters.

A scenario parses losslessly and re-serializes to a canonical JSON form so
that round-tripping canonical inputs is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import engine
from .liveness import NodeInfo, SimConfig
from .priority import DEFAULT_HORIZON, RegRequest, request_from_json, request_to_json
from .regulatory import RegAction


class ScenarioError(ValueError):
    """Schema violation or dangling reference, with a positioned message."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclass(frozen=True)
class SyncCommand:
    source: str
    action: RegAction
    asset: str
    expect: Optional[str] = None  # "ok" or a failure reason name

    def to_json(self) -> dict:
        doc = {"source": self.source, "action": self.action.value, "asset": self.asset}
        if self.expect is not None:
            doc["expect"] = self.expect
        return doc


@dataclass
class Scenario:
    state: engine.GlobalState
    sync: list[SyncCommand] = field(default_factory=list)
    requests: list[RegRequest] = field(default_factory=list)
    sim: Optional[SimConfig] = None

    def to_json_dict(self) -> dict:
        doc: dict = {"state": engine.to_json_dict(self.state)}
        if self.sync:
            doc["sync"] = [cmd.to_json() for cmd in self.sync]
        if self.requests:
            doc["requests"] = [request_to_json(r) for r in self.requests]
        if self.sim is not None:
            doc["sim"] = _sim_to_json(self.sim)
        return doc


def _sim_to_json(cfg: SimConfig) -> dict:
    return {
        "nodes": [{"id": n.node_id, "honest": n.honest} for n in cfg.nodes],
        "f_max": cfg.f_max,
        "lock_timeout": cfg.lock_timeout,
        "fairness_bound": cfg.fairness_bound,
        "t_max": cfg.t_max,
        "n_max": cfg.n_max,
        "seed": cfg.seed,
    }


def _sim_from_json(doc: dict, location: str) -> SimConfig:
    try:
        nodes = tuple(
            NodeInfo(int(n["id"]), bool(n["honest"])) for n in doc["nodes"]
        )
        return SimConfig(
            nodes=nodes,
            f_max=int(doc["f_max"]),
            lock_timeout=int(doc["lock_timeout"]),
            fairness_bound=int(doc["fairness_bound"]),
            t_max=int(doc.get("t_max", DEFAULT_HORIZON)),
            n_max=int(doc.get("n_max", DEFAULT_HORIZON)),
            seed=int(doc.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(location, f"bad sim block: {exc}") from exc


_EXPECT_TAGS = {"ok"} | {f.value for f in engine.SyncFailure}


def scenario_from_json(doc: dict, origin: str = "<scenario>") -> Scenario:
    if not isinstance(doc, dict) or "state" not in doc:
        raise ScenarioError(origin, "top-level object with a 'state' block required")
    try:
        state = engine.from_json_dict(doc["state"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{origin}/state", str(exc)) from exc

    declared_chains = set(state.chains)
    declared_assets = {aid for table in state.chains.values() for aid in table}

    sync_cmds = []
    for i, raw in enumerate(doc.get("sync", [])):
        loc = f"{origin}/sync[{i}]"
        try:
            cmd = SyncCommand(
                source=str(raw["source"]),
                action=RegAction(raw["action"]),
                asset=str(raw["asset"]),
                expect=raw.get("expect"),
            )
        except (KeyError, ValueError) as exc:
            raise ScenarioError(loc, str(exc)) from exc
        if cmd.source not in declared_chains:
            raise ScenarioError(loc, f"undeclared chain {cmd.source!r}")
        if cmd.asset not in declared_assets:
            raise ScenarioError(loc, f"undeclared asset {cmd.asset!r}")
        if cmd.expect is not None and cmd.expect not in _EXPECT_TAGS:
            raise ScenarioError(loc, f"unknown expectation {cmd.expect!r}")
        sync_cmds.append(cmd)

    requests = []
    for i, raw in enumerate(doc.get("requests", [])):
        loc = f"{origin}/requests[{i}]"
        try:
            req = request_from_json(raw)
        except (KeyError, ValueError) as exc:
            raise ScenarioError(loc, str(exc)) from exc
        if req.asset not in declared_assets:
            raise ScenarioError(loc, f"undeclared asset {req.asset!r}")
        requests.append(req)

    sim = None
    if "sim" in doc:
        sim = _sim_from_json(doc["sim"], f"{origin}/sim")

    return Scenario(state=state, sync=sync_cmds, requests=requests, sim=sim)


def parse_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(str(path), "file not found")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    return scenario_from_json(doc, origin=str(path))


def canonical_dumps(scenario: Scenario) -> str:
    return json.dumps(scenario.to_json_dict(), sort_keys=True, indent=2) + "\n"
