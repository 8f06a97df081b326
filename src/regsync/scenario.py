"""Scenario files: initial state, sync steps, requests, and sim parameters.

A scenario parses losslessly and re-serializes to a canonical JSON form so
that round-tripping canonical inputs is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from . import engine
from .engine import json_member, json_object, json_value
from .liveness import NodeInfo, SimConfig
from .priority import AuthorityLevel, RegRequest
from .records import field, record
from .regulatory import RegAction


class ScenarioError(ValueError):
    """Schema violation or dangling reference, with a positioned message."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


@record
class SyncCommand:
    source: str
    action: RegAction
    asset: str
    expect: Optional[str] = None  # "ok" or a failure reason name

    def to_json(self) -> dict:
        doc = {"source": self.source, "action": self.action, "asset": self.asset,
               "expect": self.expect}
        return {k: v for k, v in doc.items() if v is not None}


@record
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


def request_to_json(r: RegRequest) -> dict:
    return {"node": r.node_id, "authority": r.authority, "timestamp": r.timestamp,
            "action": r.action, "asset": r.asset}


def request_from_json(obj: dict) -> RegRequest:
    return RegRequest(
        node_id=json_value(obj["node"], int, "node"),
        authority=json_member(AuthorityLevel, obj["authority"]),
        timestamp=json_value(obj["timestamp"], int, "timestamp"),
        action=json_member(RegAction, obj["action"]),
        asset=json_value(obj["asset"], str, "asset"),
    )


def _sim_to_json(cfg: SimConfig) -> dict:
    return {"nodes": [{"id": n.node_id, "honest": n.honest} for n in cfg.nodes],
            "f_max": cfg.f_max, "lock_timeout": cfg.lock_timeout,
            "fairness_bound": cfg.fairness_bound, "seed": cfg.seed}


def _sim_from_json(doc: dict) -> SimConfig:
    doc = json_object(doc, "sim", {"nodes", "f_max", "lock_timeout", "fairness_bound", "seed"})
    nodes = [json_object(n, "node", {"id", "honest"})
             for n in json_value(doc["nodes"], list, "nodes")]
    # A seed is passed only if given: SimConfig states its default.
    ints = ("f_max", "lock_timeout", "fairness_bound", *(["seed"] if "seed" in doc else []))
    return SimConfig(
        tuple(NodeInfo(json_value(n["id"], int, "id"), json_value(n["honest"], bool, "honest"))
              for n in nodes),
        **{k: json_value(doc[k], int, k) for k in ints},
    )


# The fields of a sync step and of a request; any other is an input error.
_SYNC_FIELDS = {"source", "action", "asset", "expect"}
_REQUEST_FIELDS = {"node", "authority", "timestamp", "action", "asset"}
# A tuple, not a set: ``in`` compares an unhashable value instead of raising.
_EXPECT_TAGS = ("ok", *engine.SyncFailure)
_MALFORMED = (KeyError, TypeError, ValueError)


def _error(location: str, exc: Exception, context: str = "") -> ScenarioError:
    """The ScenarioError at ``location``, after ``context``, for ``exc`` raised
    by reading a malformed part of a scenario; a KeyError names the field."""
    message = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
    return ScenarioError(location, context + message)


def _read(location: str, read, *args, context: str = ""):
    """``read(*args)``; a KeyError, TypeError or ValueError becomes ``_error``."""
    try:
        return read(*args)
    except _MALFORMED as exc:
        raise _error(location, exc, context) from exc


def _read_list(doc: dict, key: str, origin: str, what: str, fields: set[str], read) -> list:
    """The ``key`` list of ``doc`` (empty if absent), each entry a ``what``
    object of ``fields`` passed through ``read``. An entry's location is
    built only when it fails, which keeps the per-entry cost off long lists."""
    entries = _read(f"{origin}/{key}", json_value, doc.get(key, []), list, key)
    out = []
    try:
        for raw in entries:
            out.append(read(json_object(raw, what, fields)))
    except _MALFORMED as exc:
        raise _error(f"{origin}/{key}[{len(out)}]", exc) from exc
    return out


def scenario_from_json(doc: dict, origin: str = "<scenario>") -> Scenario:
    if not isinstance(doc, dict) or "state" not in doc:
        raise ScenarioError(origin, "top-level object with a 'state' block required")
    _read(origin, json_object, doc, "scenario", {"state", "sync", "requests", "sim", "violation"})
    state = _read(f"{origin}/state", engine.from_json_dict, doc["state"])
    declared_chains = set(state.chains)
    declared_assets = {aid for table in state.chains.values() for aid in table}
    if stray := sorted(state.locks - declared_assets):
        raise ScenarioError(f"{origin}/state", f"lock held on undeclared asset {stray[0]!r}")

    def check_asset(aid: str) -> None:
        if aid not in declared_assets:
            raise ValueError(f"undeclared asset {aid!r}")

    steps: dict[tuple, SyncCommand] = {}  # one checked record per distinct step

    def sync_step(raw: dict) -> SyncCommand:
        key = (json_value(raw["source"], str, "source"), json_member(RegAction, raw["action"]),
               json_value(raw["asset"], str, "asset"), raw.get("expect"))
        try:
            return steps[key]
        except (KeyError, TypeError):  # TypeError: an unhashable expect
            pass
        source, _, asset, expect = key
        if source not in declared_chains:
            raise ValueError(f"undeclared chain {source!r}")
        check_asset(asset)
        if expect is not None and expect not in _EXPECT_TAGS:
            raise ValueError(f"unknown expectation {expect!r}")
        steps[key] = cmd = SyncCommand(*key)
        return cmd

    def request(raw: dict) -> RegRequest:
        req = request_from_json(raw)
        check_asset(req.asset)
        return req

    return Scenario(
        state=state,
        sync=_read_list(doc, "sync", origin, "sync step", _SYNC_FIELDS, sync_step),
        requests=_read_list(doc, "requests", origin, "request", _REQUEST_FIELDS, request),
        sim=(_read(f"{origin}/sim", _sim_from_json, doc["sim"], context="bad sim block: ")
             if "sim" in doc else None),
    )


def parse_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except OSError as exc:
        raise ScenarioError(str(path), exc.strerror or str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(str(path), f"not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(str(path), f"nested too deeply: {exc}") from exc
    except ValueError as exc:  # an integer literal past Python's int-string limit
        raise ScenarioError(str(path), str(exc)) from exc
    return scenario_from_json(doc, origin=str(path))


def canonical_json(doc: dict) -> str:
    """A scenario document, such as a model-check counterexample, in
    canonical form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
