import contextlib
import dataclasses
import hashlib
import io
import json
import random
import shutil
import time

import pytest
from hypothesis import given, settings, strategies as st

from regsync import cli, engine, liveness, modelcheck
from regsync.modelcheck import run_modelcheck
from regsync.priority import DEFAULT_HORIZON
from regsync.regulatory import RegAction, RegState
from regsync.scenario import (
    ScenarioError, canonical_json, parse_scenario, scenario_from_json,
)

import pinned_inputs
from test_acceptance import (
    _mutant_allow_seized_freeze,
    _mutant_skip_release,
    _mutant_skip_target,
)
from test_engine import reference_canonical_dumps
from test_scripts import ROOT, run_python


def minimal_doc():
    return {
        "state": {
            "chains": {
                "c1": {"a1": {"state": "ACTIVE", "owner": "o", "locked": False}},
                "c2": {"a1": {"state": "ACTIVE", "owner": "o", "locked": False}},
            },
            "locks": {},
        },
        "sync": [{"source": "c1", "action": "FREEZE", "asset": "a1", "expect": "ok"}],
    }


def full_doc():
    """minimal_doc() with requests and a sim block that gives every field."""
    return {
        **minimal_doc(),
        "requests": [
            {"node": 2, "authority": "International", "timestamp": 5,
             "action": "SEIZE", "asset": "a1"},
            {"node": 1, "authority": "Regional", "timestamp": 3,
             "action": "FREEZE", "asset": "a1"},
        ],
        "sim": {
            "nodes": [{"id": 0, "honest": False}] + [{"id": i, "honest": True} for i in (1, 2, 3)],
            "f_max": 1,
            "lock_timeout": 4,
            "fairness_bound": 2,
            "seed": 9,
        },
    }


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


class TestParseScenario:
    def test_minimal_valid(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, minimal_doc()))
        assert len(scenario.sync) == 1
        assert scenario.sync[0].expect == "ok"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            parse_scenario(tmp_path / "absent.json")

    def test_directory_is_a_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="Is a directory"):
            parse_scenario(tmp_path)

    def test_non_utf8_file_is_a_scenario_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(minimal_doc()).replace("o", "\u00f6").encode("latin-1"))
        with pytest.raises(ScenarioError, match="not UTF-8"):
            parse_scenario(path)

    def test_deep_nesting_is_a_scenario_error(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ScenarioError, match="nested too deeply"):
            parse_scenario(path)

    def test_undeclared_chain(self, tmp_path):
        doc = minimal_doc()
        doc["sync"][0]["source"] = "c9"
        with pytest.raises(ScenarioError, match="undeclared chain"):
            parse_scenario(write(tmp_path, doc))

    def test_undeclared_asset_in_request(self, tmp_path):
        doc = minimal_doc()
        doc["requests"] = [
            {"node": 1, "authority": "National", "timestamp": 0,
             "action": "FREEZE", "asset": "ghost"}
        ]
        with pytest.raises(ScenarioError, match="undeclared asset"):
            parse_scenario(write(tmp_path, doc))

    def test_schema_violation_positioned(self, tmp_path):
        doc = minimal_doc()
        doc["sync"][0]["action"] = "EXPLODE"
        with pytest.raises(ScenarioError, match=r"sync\[0\]"):
            parse_scenario(write(tmp_path, doc))

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda d: d["state"].update(chains=[]), "/state"),
            (lambda d: d["state"]["chains"]["c1"]["a1"].update(owner=5), "/state"),
            (lambda d: d["sync"][0].update(expect=["ok"]), "/sync[0]"),
            (lambda d: d.update(sync={"source": "c1"}), "/sync"),
            (lambda d: d.update(sync=["x"]), "/sync[0]"),
            (lambda d: d.update(requests="x"), "/requests"),
            (lambda d: d.update(requests=[["x"]]), "/requests[0]"),
        ],
        ids=["chains-list", "owner-number", "expect-list", "sync-object",
             "sync-entry-string", "requests-string", "request-list"],
    )
    def test_wrong_shape_is_positioned(self, tmp_path, edit, where):
        doc = minimal_doc()
        edit(doc)
        path = write(tmp_path, doc)
        with pytest.raises(ScenarioError) as info:
            parse_scenario(path)
        assert info.value.location == f"{path}{where}"

    @pytest.mark.parametrize("make_doc", [minimal_doc, full_doc], ids=["minimal", "full"])
    def test_canonical_round_trip(self, tmp_path, make_doc):
        path = tmp_path / "canon.json"
        path.write_text(canonical_json(parse_scenario(write(tmp_path, make_doc())).to_json_dict()))
        reparsed = parse_scenario(path)
        assert canonical_json(reparsed.to_json_dict()) == path.read_text()
        assert path.read_text() == canonical_json(make_doc())

    def test_sim_defaults_are_written_out(self, tmp_path):
        doc = full_doc()
        optional = ("seed",)
        for k in optional:
            del doc["sim"][k]
        text = canonical_json(parse_scenario(write(tmp_path, doc)).to_json_dict())
        defaults = {f.name: f.default for f in dataclasses.fields(liveness.SimConfig)}
        assert json.loads(text)["sim"] == {**doc["sim"], **{k: defaults[k] for k in optional}}
        path = tmp_path / "canon.json"
        path.write_text(text)
        assert canonical_json(parse_scenario(path).to_json_dict()) == text


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransitionCommand:
    def test_full_table_has_12_defined_cells(self, capsys):
        code, out, _ = run_cli(capsys, "transition")
        assert code == 0
        body = out.splitlines()[1:]
        cells = [c for line in body for c in line.split()[1:]]
        assert len(cells) == 35
        assert sum(1 for c in cells if c != "--") == 12

    def test_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "transition", "--from", "SEIZED", "--action", "RELEASE")
        assert code == 0 and out.strip() == "ACTIVE"

    def test_terminal_cell(self, capsys):
        code, out, _ = run_cli(capsys, "transition", "--from", "CONFISCATED", "--action", "FREEZE")
        assert code == 0 and out.strip() == "--"

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "transition", "--from", "BOGUS", "--action", "FREEZE")
        assert code == 2 and "usage" in err


class TestSyncCommand:
    def test_two_chain_freeze(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sync", str(write(tmp_path, minimal_doc())))
        assert code == 0
        assert '"state": "FROZEN"' in out

    def test_expected_failure_passes(self, capsys, tmp_path):
        doc = minimal_doc()
        doc["state"]["locks"] = {"a1": True}
        doc["state"]["chains"]["c1"]["a1"]["locked"] = True
        doc["state"]["chains"]["c2"]["a1"]["locked"] = True
        doc["sync"][0]["expect"] = "Locked"
        code, _, _ = run_cli(capsys, "sync", str(write(tmp_path, doc)))
        assert code == 0

    def test_wrong_expectation_exits_1(self, capsys, tmp_path):
        doc = minimal_doc()
        doc["sync"][0]["expect"] = "Locked"
        code, out, _ = run_cli(capsys, "sync", str(write(tmp_path, doc)))
        assert code == 1
        assert "expected Locked" in out

    def test_stdout_matches_reference_snapshots(self, capsys, tmp_path):
        owner = 'o "q" \\ é😀\n'
        cell = {"state": "ACTIVE", "owner": owner, "locked": False}
        doc = {
            "state": {
                "chains": {"c1": {"a1": dict(cell), "b\u00e9": dict(cell)},
                           "c2": {"a1": dict(cell)}, "c3": {}},
                "locks": {"b\u00e9": True, "a1": False},
            },
            "sync": [
                {"source": "c1", "action": "FREEZE", "asset": "a1", "expect": "ok"},
                {"source": "c2", "action": "SEIZE", "asset": "a1", "expect": "ok"},
                {"source": "c1", "action": "FREEZE", "asset": "b\u00e9", "expect": "Locked"},
                {"source": "c2", "action": "RELEASE", "asset": "a1"},
                {"source": "c1", "action": "UNFREEZE", "asset": "a1", "expect": "InvalidTransition"},
            ],
        }
        path = write(tmp_path, doc)
        expected = []
        gs = parse_scenario(path).state
        for i, step in enumerate(doc["sync"]):
            result = engine.sync(step["source"], RegAction(step["action"]), step["asset"], gs)
            tag = "ok" if result.ok else result.reason.value
            expected.append(f"step {i}: {step['source']} {step['action']} {step['asset']} -> {tag}\n")
            gs = result.state if result.ok else gs
            expected.append(reference_canonical_dumps(gs))
        code, out, _ = run_cli(capsys, "sync", str(path))
        assert code == 0
        assert out == "".join(expected)

    def test_bench_replay_stdout_matches_reference_snapshots(self, capsys, tmp_path):
        """The bench's seed-1 replay scenario, the input CI pins: every
        snapshot ``regsync sync`` prints equals the json.dumps form."""
        path = pinned_inputs.write("replay-1", tmp_path)
        scenario = parse_scenario(path)
        gs, expected = scenario.state, []
        for i, cmd in enumerate(scenario.sync):
            result = engine.sync(cmd.source, cmd.action, cmd.asset, gs)
            tag = "ok" if result.ok else result.reason.value
            expected.append(f"step {i}: {cmd.source} {cmd.action} {cmd.asset} -> {tag}\n")
            gs = result.state if result.ok else gs
            expected.append(reference_canonical_dumps(gs))
        code, out, _ = run_cli(capsys, "sync", str(path))
        assert code == 0
        # Step by step, so that a wrong snapshot fails with its own diff.
        pos = 0
        for i, chunk in enumerate(expected):
            assert out[pos:pos + len(chunk)] == chunk, f"step {i // 2}"
            pos += len(chunk)
        assert pos == len(out)

    def test_locks_map_decides_the_snapshot_flag(self, capsys, tmp_path):
        doc = minimal_doc()
        doc["state"]["chains"]["c1"]["a1"]["locked"] = True
        # A failing step leaves the parsed state as it is, lock map included.
        doc["sync"] = [{"source": "c1", "action": "UNFREEZE", "asset": "a1",
                        "expect": "InvalidTransition"}]
        code, out, _ = run_cli(capsys, "sync", str(write(tmp_path, doc)))
        assert code == 0
        assert out.count('"locked": false') == 2 and '"locked": true' not in out
        assert '"locks": {}' in out

    def test_snapshot_lists_no_released_lock(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sync", str(write(tmp_path, minimal_doc())))
        assert code == 0 and "-> ok" in out
        assert '"locks": {}' in out and '"a1": false' not in out

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "sync", str(path))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["state"].update(locks={"a1": "false"}),
            lambda d: d["state"]["chains"]["c1"]["a1"].update(locked="false"),
            lambda d: d["state"]["chains"]["c1"]["a1"].update(locked=0),
        ],
        ids=["lock-string", "locked-string", "locked-number"],
    )
    def test_non_boolean_flag_exits_2(self, capsys, tmp_path, edit):
        doc = minimal_doc()
        edit(doc)
        path = write(tmp_path, doc)
        code, out, err = run_cli(capsys, "sync", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}/state:") and "must be true or false" in err


@pytest.mark.parametrize("command", ["sync", "simulate"])
@pytest.mark.parametrize("unreadable", ["directory", "latin-1", "deeply-nested", "huge-integer"])
def test_unreadable_scenario_exits_2(capsys, tmp_path, command, unreadable):
    if unreadable == "directory":
        path = tmp_path
    elif unreadable == "latin-1":
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(simulate_doc()).replace("o", "\u00f6").encode("latin-1"))
    elif unreadable == "huge-integer":
        # Past Python's int-string limit, json.loads raises a plain ValueError.
        path = tmp_path / "huge.json"
        path.write_text('{"state": {"chains": {}, "locks": {}}, "x": ' + "9" * 5000 + "}")
    else:
        path = tmp_path / "nested.json"
        path.write_text('{"state": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("command", ["sync", "simulate"])
@pytest.mark.parametrize(
    "edit, where, message",
    [
        (lambda d: d["state"]["chains"]["c1"]["a1"].pop("state"), "state",
         "missing field 'state'"),
        (lambda d: d["sync"][0].pop("source"), "sync[0]", "missing field 'source'"),
        (lambda d: d["requests"][1].pop("timestamp"), "requests[1]",
         "missing field 'timestamp'"),
        (lambda d: d["sim"].pop("f_max"), "sim", "bad sim block: missing field 'f_max'"),
        (lambda d: d["sim"]["nodes"][2].pop("honest"), "sim",
         "bad sim block: missing field 'honest'"),
    ],
    ids=["state-cell", "sync-step", "request", "sim-block", "sim-node"],
)
def test_missing_field_is_named(capsys, tmp_path, command, edit, where, message):
    doc = simulate_doc()
    doc["sync"] = [{"source": "c1", "action": "FREEZE", "asset": "a1"}]
    edit(doc)
    path = write(tmp_path, doc)
    assert run_cli(capsys, command, str(path)) == (2, "", f"error: {path}/{where}: {message}\n")


@pytest.mark.parametrize("command", ["sync", "simulate"])
@pytest.mark.parametrize(
    "edit, where, message",
    [
        (lambda d: d.update(extra=1), "", "scenario has unknown field 'extra'"),
        (lambda d: d["state"].update(extra=1), "/state", "state has unknown field 'extra'"),
        (lambda d: d["state"]["chains"]["c2"].update(
            a3={"state": "ACTIVE", "owner": "o", "locked": False, "extra": 1}), "/state",
         "asset 'a3' on chain 'c2' has unknown field 'extra'"),
        (lambda d: d["sync"][0].update(extra=1), "/sync[0]", "sync step has unknown field 'extra'"),
        (lambda d: d["requests"][4].update(extra=1), "/requests[4]",
         "request has unknown field 'extra'"),
        (lambda d: d["sim"].update(extra=1), "/sim", "bad sim block: sim has unknown field 'extra'"),
        (lambda d: d["sim"]["nodes"][1].update(extra=1), "/sim",
         "bad sim block: node has unknown field 'extra'"),
    ],
    ids=["top-level", "state", "state-cell", "sync-step", "request", "sim-block", "sim-node"],
)
def test_unknown_field_is_an_input_error(capsys, tmp_path, command, edit, where, message):
    """Every object of a scenario names only fields a reader reads, so a
    misspelt field cannot change the verdict unnoticed."""
    doc = simulate_doc()
    doc["sync"] = [{"source": "c1", "action": "FREEZE", "asset": "a1"}]
    edit(doc)
    path = write(tmp_path, doc)
    assert run_cli(capsys, command, str(path)) == (2, "", f"error: {path}{where}: {message}\n")


def test_misspelt_expect_exits_2_instead_of_dropping_the_expectation(capsys, tmp_path):
    doc = minimal_doc()
    doc["sync"][0] = {"source": "c1", "action": "FREEZE", "asset": "a1", "expct": "Locked"}
    path = write(tmp_path, doc)
    assert run_cli(capsys, "sync", str(path)) == (
        2, "", f"error: {path}/sync[0]: sync step has unknown field 'expct'\n")


def test_equal_steps_share_one_record(tmp_path):
    """A step equal to an earlier one is that step's record, whether its
    ``expect`` is absent or null; a step that differs in any field is its own."""
    doc = minimal_doc()
    step = doc["sync"][0]
    bare = {"source": "c2", "action": "FREEZE", "asset": "a1"}
    doc["sync"] = [step, bare, dict(step), {**step, "expect": "Locked"}, {**bare, "expect": None},
                   {**step, "action": "SEIZE"}, dict(step)]
    sync = parse_scenario(write(tmp_path, doc)).sync
    assert sync[0] is sync[2] is sync[6] and sync[1] is sync[4]
    assert len({id(cmd) for cmd in sync}) == 4
    assert [cmd.to_json() for cmd in sync] == [{k: v for k, v in raw.items() if v is not None}
                                              for raw in doc["sync"]]


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"extra": 1}, "sync step has unknown field 'extra'"),
        ({"expect": ["ok"]}, "unknown expectation ['ok']"),
        ({"expect": {"x": 1}}, "unknown expectation {'x': 1}"),
        ({"expect": "Lockd"}, "unknown expectation 'Lockd'"),
        ({"asset": 1}, "asset must be a string, got int"),
        ({"asset": "a9"}, "undeclared asset 'a9'"),
        ({"source": "c9"}, "undeclared chain 'c9'"),
        ({"source": "c9", "expect": ["ok"]}, "undeclared chain 'c9'"),
    ],
    ids=["unknown-field", "expect-list", "expect-object", "expect-misspelt", "asset-number",
         "undeclared-asset", "undeclared-chain", "undeclared-chain-and-expect"],
)
def test_a_bad_step_after_an_equal_looking_valid_one_fails_where_it_is(
        capsys, tmp_path, bad, message):
    """Every step is checked whole, even one that differs from an earlier
    valid step in a single field: the error names that step and its fault."""
    doc = minimal_doc()
    step = doc["sync"][0]
    doc["sync"] = [step, dict(step), {**step, **bad}, dict(step)]
    path = write(tmp_path, doc)
    assert run_cli(capsys, "sync", str(path)) == (2, "", f"error: {path}/sync[2]: {message}\n")


@pytest.mark.parametrize("command", ["sync", "simulate"])
def test_lock_held_on_undeclared_asset_exits_2(capsys, tmp_path, command):
    """A held lock names a declared asset, as a sync step or a request must:
    no step could name it, and every snapshot would carry it."""
    doc = simulate_doc()
    doc["sync"] = [{"source": "c1", "action": "FREEZE", "asset": "a1"}]
    # An undeclared false entry is dropped, so only ``zz`` is named.
    doc["state"]["locks"] = {"yy": False, "zz": True, "a1": True}
    path = write(tmp_path, doc)
    assert run_cli(capsys, command, str(path)) == (
        2, "", f"error: {path}/state: lock held on undeclared asset 'zz'\n")


@pytest.mark.parametrize("command", ["sync", "simulate"])
def test_holders_that_disagree_exit_2(capsys, tmp_path, command):
    """Every check assumes that an asset's holders agree on its state, so a
    start state in which they do not is an input error, named by its first
    such asset in sorted order and that asset's states. Without the refusal
    the answer depends on the holder read (ROADMAP finding 7): ``sync`` from
    c2 unfreezes ``a`` on both chains and ``simulate`` fails the same request
    from c1, and both exit 0."""
    def cell(state):
        return {"state": state, "owner": "o", "locked": False}

    doc = simulate_doc()
    doc["state"]["chains"] = {"c1": {"a": cell("ACTIVE"), "b": cell("SEIZED")},
                              "c2": {"a": cell("FROZEN"), "b": cell("ACTIVE")}}
    doc["sync"] = [{"source": "c2", "action": "UNFREEZE", "asset": "a"}]
    doc["requests"] = [{"node": 1, "authority": "National", "timestamp": 0,
                        "action": "UNFREEZE", "asset": "a"}]
    path = write(tmp_path, doc)
    assert run_cli(capsys, command, str(path)) == (
        2, "", "error: holders of a disagree: ACTIVE, FROZEN\n")


def test_undeclared_false_lock_is_dropped(capsys, tmp_path):
    doc = minimal_doc()
    doc["state"]["locks"] = {"zz": False}
    path = write(tmp_path, doc)
    assert parse_scenario(path).state.locks == frozenset()
    code, out, _ = run_cli(capsys, "sync", str(path))
    assert code == 0 and "zz" not in out and out.count('"locks": {}') == 1


@pytest.mark.parametrize("command", ["sync", "simulate"])
@pytest.mark.parametrize(
    "where, value",
    [(("sync", 0, "source"), 1), (("sync", 0, "asset"), 7), (("requests", 0, "asset"), 7),
     (("sync", 0, "source"), None)],
    ids=["sync-source", "sync-asset", "request-asset", "sync-source-null"],
)
def test_non_string_name_exits_2(capsys, tmp_path, command, where, value):
    """A chain or asset name is read as given, never through ``str()``: a
    number exits 2 even when its decimal text names a declared chain or asset."""
    doc = simulate_doc()
    for table in doc["state"]["chains"].values():
        table["7"] = {"state": "ACTIVE", "owner": "o", "locked": False}
    doc["state"]["chains"]["1"] = doc["state"]["chains"].pop("c1")
    doc["sync"] = [{"source": "1", "action": "FREEZE", "asset": "a1"}]
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path = write(tmp_path, doc)
    err = f"error: {path}/{where[0]}[0]: {where[-1]} must be a string, got {type(value).__name__}\n"
    assert run_cli(capsys, command, str(path)) == (2, "", err)


class TestModelcheckCommand:
    def test_small_run_clean(self, capsys):
        code, out, _ = run_cli(capsys, "modelcheck", "--domains", "2", "--assets", "1", "--depth", "2")
        assert code == 0
        assert "violations: 0" in out

    def test_budget_exceeded_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REGSYNC_BUDGET", "10")
        code, _, err = run_cli(capsys, "modelcheck", "--domains", "3", "--assets", "2", "--depth", "2")
        assert code == 2 and "budget" in err

    @pytest.mark.parametrize(
        "domains, assets, needs",
        [("40", "1", "more than 5000000"), ("3", "4000", "at least 102900000"),
         ("4", "3", "at least 35437500")],
    )
    def test_budget_refusal_names_a_count_the_bounds_need(
            self, capsys, monkeypatch, domains, assets, needs):
        """Past 2**D - 1 > budget no count is built; otherwise the count
        is the first level's syncs, (2**D - 1)**A * 5**A * 7 * D * A (4, 3),
        or the part of that product that first passes the budget (3, 4000)."""
        monkeypatch.delenv("REGSYNC_BUDGET", raising=False)
        code, out, err = run_cli(capsys, "modelcheck", "--domains", domains, "--assets", assets,
                                 "--depth", "1")
        assert (code, out) == (2, "")
        assert err == f"error: budget exceeded: needs {needs} steps, budget is 5000000\n"

    @pytest.mark.parametrize("domains, assets", [("3", "4000"), ("100000", "1")])
    def test_huge_bounds_exit_2_at_once(self, capsys, domains, assets):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "modelcheck", "--domains", domains, "--assets", assets)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: budget exceeded: ")

    def test_non_integer_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REGSYNC_BUDGET", "abc")
        code, out, err = run_cli(capsys, "modelcheck", "--domains", "1", "--depth", "1")
        assert code == 2 and out == ""
        assert err == "error: REGSYNC_BUDGET must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("raw", ["-5", "-1"])
    def test_negative_budget_exits_2(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("REGSYNC_BUDGET", raw)
        code, out, err = run_cli(capsys, "modelcheck", "--domains", "1", "--depth", "1")
        assert code == 2 and out == ""
        assert err == f"error: REGSYNC_BUDGET must be a non-negative integer, got {raw!r}\n"

    def test_zero_budget_is_a_budget_no_sync_fits(self, capsys, monkeypatch):
        monkeypatch.setenv("REGSYNC_BUDGET", "0")
        code, out, err = run_cli(capsys, "modelcheck", "--domains", "1", "--depth", "1")
        assert code == 2 and out == ""
        assert err == "error: budget exceeded: needs more than 0 steps, budget is 0\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--depth", "-1"), ("--depth", "0"), ("--domains", "0"), ("--assets", "0"), ("--depth", "x")],
    )
    def test_out_of_range_bound_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "modelcheck", flag, value)
        assert code == 2 and out == ""
        assert f"argument {flag}:" in err

    def test_a_crash_exits_3(self, capsys, monkeypatch):
        """An exception no command expects is an internal error, not a violation."""

        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_modelcheck", crash)
        code, out, err = run_cli(capsys, "modelcheck", "--domains", "2", "--depth", "1")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: boom\nTraceback (most recent call last):\n")
        assert err.endswith("RuntimeError: boom\n")

    def test_spec_built_once_per_run(self, monkeypatch):
        calls, build = [], modelcheck.reg_machine_spec

        def counting_spec():
            calls.append(None)
            return build()

        monkeypatch.setattr(modelcheck, "reg_machine_spec", counting_spec)
        result = run_modelcheck(2, 1, 2)
        assert result.ok and len(calls) == 1

    def test_counterexample_is_replayable(self, capsys, tmp_path):
        from regsync import engine as eng

        def mutated(source, action, aid, gs):
            result = eng.sync(source, action, aid, gs)
            if not result.ok:
                return result
            # Undo the update on one non-source connected chain.
            gs2 = result.state
            for c in sorted(eng.connected_chains(gs, aid)):
                if c != source:
                    chains = {
                        cc: (dict(t) if cc == c else t) for cc, t in gs2.chains.items()
                    }
                    chains[c][aid] = gs.chains[c][aid]
                    return eng.SyncResult.success(eng.GlobalState(chains, gs2.locks))
            return result

        result = run_modelcheck(2, 1, 2, sync_fn=mutated)
        assert not result.ok
        ce = result.counterexamples[0]
        assert len(ce.steps) <= 2
        doc = ce.to_scenario()
        path = write(tmp_path, {"state": doc["state"], "sync": doc["sync"]})
        scenario = parse_scenario(path)  # replayable through the normal pipeline
        assert scenario.sync


SMALL_MODELCHECK = ("modelcheck", "--domains", "2", "--depth", "1")


def violating_modelcheck(monkeypatch):
    """Make ``regsync modelcheck`` check the skip-release mutant."""
    monkeypatch.setattr(
        cli, "run_modelcheck", lambda *args: run_modelcheck(*args, sync_fn=_mutant_skip_release)
    )


class TestCounterexampleOut:
    def test_file_is_a_scenario_document_plus_a_violation(self, capsys, monkeypatch, tmp_path):
        violating_modelcheck(monkeypatch)
        path = tmp_path / "ce.json"
        code, out, _ = run_cli(capsys, *SMALL_MODELCHECK, "--counterexample-out", str(path))
        assert code == 1
        doc = json.loads(path.read_text())
        assert out.endswith(path.read_text())
        assert doc.pop("violation") == {"rule": "lock_released", "detail": ""}
        canonical = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert canonical_json(scenario_from_json(doc).to_json_dict()) == canonical
        code, out, _ = run_cli(capsys, "sync", str(path))
        assert code == 0 and out.startswith("step 0: c1 FREEZE a1 -> ok")

    def test_unwritable_path_exits_2(self, capsys, monkeypatch, tmp_path):
        violating_modelcheck(monkeypatch)
        path = tmp_path / "missing" / "ce.json"
        code, out, err = run_cli(capsys, *SMALL_MODELCHECK, "--counterexample-out", str(path))
        assert code == 2
        assert "minimal counterexample:" in out
        assert err.startswith("error: cannot write counterexample: ")


class TestExplorer:
    def test_false_lock_entries_do_not_make_a_new_state(self):
        chains = {"c1": {"a1": {"state": "ACTIVE", "owner": "o", "locked": False}}}
        absent = engine.from_json_dict({"chains": chains, "locks": {}})
        false = engine.from_json_dict({"chains": chains, "locks": {"a1": False}})
        assert false == absent
        assert modelcheck._state_key(false) == modelcheck._state_key(absent)

    @pytest.mark.parametrize(
        "mutant, count",
        [(_mutant_skip_target, 964), (_mutant_skip_release, 288), (_mutant_allow_seized_freeze, 36)],
    )
    def test_mutant_counterexample_counts(self, mutant, count):
        assert len(run_modelcheck(3, 1, 2, sync_fn=mutant).counterexamples) == count

    @pytest.mark.parametrize(
        "mutant, rule, detail, c2_holds_a1, state",
        [
            (_mutant_skip_target, "cross_domain_consistency", "chain c2 disagrees", True, "ACTIVE"),
            (_mutant_skip_release, "lock_released", "", False, "ACTIVE"),
            (_mutant_allow_seized_freeze, "cross_domain_consistency", "chain c1 disagrees", False,
             "SEIZED"),
        ],
    )
    def test_first_counterexample_document(self, mutant, rule, detail, c2_holds_a1, state):
        cell = {"locked": False, "owner": "owner", "state": state}
        assert run_modelcheck(2, 1, 2, sync_fn=mutant).counterexamples[0].to_scenario() == {
            "state": {"chains": {"c1": {"a1": cell}, "c2": {"a1": cell} if c2_holds_a1 else {}},
                      "locks": {}},
            "sync": [{"source": "c1", "action": "FREEZE", "asset": "a1"}],
            "violation": {"rule": rule, "detail": detail},
        }

    @pytest.mark.parametrize(
        "mutant, count, digest",
        [
            (_mutant_skip_target, 196,
             "0b704afa0fa9a9771fd9041738c0507cdbfa5455f4a3c33c38d6f0d53ac1ba4e"),
            (_mutant_skip_release, 96,
             "a752c213b61253c5112a6c71a509a1b525a6137a3e537035174f9640e89024f9"),
            (_mutant_allow_seized_freeze, 10,
             "1cf990bde2b0df4da1a56907601212bebffe8f553efd69065e5344cd6091bf7f"),
        ],
    )
    def test_counterexample_lists_are_unchanged(self, mutant, count, digest):
        # SHA-256 of the ordered to_scenario() list at (2, 1, 2), recorded
        # before the model checker moved onto the shared explorer. The
        # skip-target list's 24 agreement entries have since been renamed in
        # place, from valid_state_preservation to valid_agreement.
        docs = [ce.to_scenario() for ce in run_modelcheck(2, 1, 2, sync_fn=mutant).counterexamples]
        assert len(docs) == count
        assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == digest

    def test_valid_state_once_per_state_and_successful_sync(self, monkeypatch):
        calls, successes, check = [], [], engine.valid_state

        def counting_check(gs):
            calls.append(None)
            return check(gs)

        def counting_sync(source, action, aid, gs):
            result = engine.sync(source, action, aid, gs)
            if result.ok:
                successes.append(None)
            return result

        monkeypatch.setattr(engine, "valid_state", counting_check)
        result = run_modelcheck(2, 1, 2, sync_fn=counting_sync)
        assert result.ok
        assert len(calls) <= result.states_explored + len(successes)


def simulate_doc():
    reqs = [
        {"node": i + 1, "authority": "National", "timestamp": i,
         "action": "FREEZE", "asset": f"a{i+1}"}
        for i in range(5)
    ]
    assets = {f"a{i+1}": {"state": "ACTIVE", "owner": "o", "locked": False} for i in range(5)}
    return {
        "state": {"chains": {"c1": dict(assets), "c2": dict(assets)}, "locks": {}},
        "requests": reqs,
        "sim": {
            "nodes": [{"id": 0, "honest": False}] + [{"id": i, "honest": True} for i in (1, 2, 3)],
            "f_max": 1,
            "lock_timeout": 2,
            "fairness_bound": 3,
            "seed": 11,
        },
    }


class TestSimulateCommand:
    def test_fair_run_drains(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", str(write(tmp_path, simulate_doc())))
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert lines[-1]["pending_after"] == 0

    def test_adversarial_run_drains_within_bound(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", str(write(tmp_path, simulate_doc())), "--adversarial"
        )
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert len(lines) <= 5 * 3 + 2

    def test_a_crashing_drain_exits_3_not_the_violation_code(self, tmp_path):
        """A copy of the package whose step_epoch negates its test of a failed
        sync keeps no state after one; simulate, in a fresh process, must
        report that as an internal error, not as a property violation."""
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = tmp_path / "src" / "regsync" / "liveness.py"
        source = path.read_text()
        assert source.count("if result.state is None:") == 1
        path.write_text(source.replace("if result.state is None:", "if result.state is not None:"))
        doc = simulate_doc()
        doc["requests"][0]["action"] = "UNFREEZE"  # fails InvalidTransition on ACTIVE
        proc = run_python("-m", "regsync", "simulate", str(write(tmp_path, doc)),
                          src=tmp_path / "src")
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("internal error: ")

    def test_clashing_priority_keys_exit_2_before_any_epoch(self, capsys, tmp_path):
        doc = simulate_doc()
        # Same node, timestamp, authority and action on two assets.
        doc["requests"][1].update(node=1, timestamp=0)
        code, out, err = run_cli(capsys, "simulate", str(write(tmp_path, doc)))
        assert code == 2 and out == ""
        assert err.startswith("error:")
        assert "n1-t0-FREEZE-a1" in err and "n1-t0-FREEZE-a2" in err

    def test_out_of_range_node_exits_2_before_any_epoch(self, capsys, tmp_path):
        doc = simulate_doc()
        doc["requests"][2]["node"] = -1
        code, out, err = run_cli(capsys, "simulate", str(write(tmp_path, doc)))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "node_id -1" in err

    def test_timestamp_past_the_horizon_exits_2_before_any_epoch(self, capsys, tmp_path):
        doc = simulate_doc()
        late = DEFAULT_HORIZON + 1
        doc["requests"][2]["timestamp"] = late
        assert run_cli(capsys, "simulate", str(write(tmp_path, doc))) == (
            2, "", f"error: requests cannot be ranked: n3-t{late}-FREEZE-a3: "
                   f"timestamp {late} outside [0, {DEFAULT_HORIZON}]\n")

    def test_lock_held_at_rest_exits_2_before_any_epoch(self, capsys, tmp_path):
        doc = simulate_doc()
        doc["state"]["locks"] = {"a3": True, "a1": False}
        code, out, err = run_cli(capsys, "simulate", str(write(tmp_path, doc)))
        assert code == 2 and out == ""
        assert err == "error: locks held at rest: a3\n"

    def test_a_lower_authoritys_reversal_decides_the_final_state(self, capsys, tmp_path):
        """The priority key decides the order in which a drain applies
        conflicting requests, not which one prevails: the last one applied
        decides the final state (ROADMAP item 27, option (a)). Two chains
        hold ``a`` ACTIVE, and the fair drain takes International FREEZE at
        epoch 0 and then Regional UNFREEZE at epoch 2, so ``a`` ends ACTIVE
        on both chains and simulate exits 0."""
        doc = simulate_doc()
        cell = {"state": "ACTIVE", "owner": "o", "locked": False}
        doc["state"]["chains"] = {"c1": {"a": dict(cell)}, "c2": {"a": dict(cell)}}
        doc["requests"] = [
            {"node": 1, "authority": "International", "timestamp": 0,
             "action": "FREEZE", "asset": "a"},
            {"node": 2, "authority": "Regional", "timestamp": 5,
             "action": "UNFREEZE", "asset": "a"},
        ]
        doc["sim"]["seed"] = 1
        path = write(tmp_path, doc)
        code, out, _ = run_cli(capsys, "simulate", str(path))
        taken = [(r["epoch"], r["processed"], r["outcome"])
                 for r in map(json.loads, out.splitlines()[:-2]) if r["processed"]]
        assert code == 0
        assert taken == [(0, "n1-t0-FREEZE-a", "ok"), (2, "n2-t5-UNFREEZE-a", "ok")]

        sc = parse_scenario(path)
        sched = liveness.gen_fair_schedule(sc.sim, liveness.drain_horizon(2, sc.sim))
        s = liveness.SimState(0, tuple(sc.requests), sc.state, {})
        while s.pending:
            s, _ = liveness.step_epoch(s, sched, sc.sim)
        assert s.epoch == 3
        assert {c: t["a"].reg_state for c, t in s.global_state.chains.items()} == {
            "c1": RegState.ACTIVE, "c2": RegState.ACTIVE}

    @pytest.mark.parametrize("honest", ["false", 1])
    def test_non_boolean_honest_exits_2(self, capsys, tmp_path, honest):
        doc = simulate_doc()
        doc["sim"]["nodes"][0]["honest"] = honest
        path = write(tmp_path, doc)
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}/sim:") and "honest must be true or false" in err

    @pytest.mark.parametrize("value", [1.9, "3", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize(
        "where",
        [("requests", 0, "node"), ("requests", 0, "timestamp"), ("sim", "nodes", 1, "id"),
         ("sim", "f_max"), ("sim", "lock_timeout"), ("sim", "fairness_bound"), ("sim", "seed")],
        ids=lambda where: "/".join(map(str, where)),
    )
    def test_non_integer_field_exits_2(self, capsys, tmp_path, where, value):
        doc = simulate_doc()
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        path = write(tmp_path, doc)
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 2 and out == ""
        block = "requests[0]" if where[0] == "requests" else "sim"
        assert err.startswith(f"error: {path}/{block}: ")
        assert err.endswith(f"{where[-1]} must be an integer, got {type(value).__name__}\n")

    @pytest.mark.parametrize("value", [1.9, "3", True, 1000],
                             ids=["float", "string", "bool", "int"])
    @pytest.mark.parametrize("where", [("sim", "t_max"), ("sim", "n_max")],
                             ids=lambda where: "/".join(where))
    def test_horizon_field_exits_2(self, capsys, tmp_path, where, value):
        """DEFAULT_HORIZON is the one inversion horizon: a sim block that
        names t_max or n_max is an input error, whatever the value."""
        doc = simulate_doc()
        doc["sim"][where[-1]] = value
        path = write(tmp_path, doc)
        assert run_cli(capsys, "simulate", str(path)) == (
            2, "", f"error: {path}/sim: bad sim block: sim has unknown field {where[-1]!r}\n")

    def test_misspelt_seed_exits_2_instead_of_running_seed_0(self, capsys, tmp_path):
        doc = simulate_doc()
        doc["sim"]["seeed"] = doc["sim"].pop("seed")
        path = write(tmp_path, doc)
        assert run_cli(capsys, "simulate", str(path)) == (
            2, "", f"error: {path}/sim: bad sim block: sim has unknown field 'seeed'\n")

    def test_max_epochs_is_an_unrecognized_argument(self, capsys, tmp_path):
        # The drain bound is the one horizon: an old command line that
        # still caps the run must fail, not run to the bound.
        path = write(tmp_path, simulate_doc())
        code, out, err = run_cli(capsys, "simulate", str(path), "--max-epochs", "5")
        assert code == 2 and out == ""
        assert "error: unrecognized arguments: --max-epochs 5" in err

    def test_invalid_bft_config_exits_2(self, capsys, tmp_path):
        doc = simulate_doc()
        doc["sim"]["nodes"] = doc["sim"]["nodes"][:3]
        code, _, err = run_cli(capsys, "simulate", str(write(tmp_path, doc)))
        assert code == 2 and "bft_threshold" in err


def generated_simulate_doc(n_requests, n_assets, seed):
    """A seeded scenario of ``n_requests`` random requests over ``n_assets``
    assets, each on a random non-empty subset of 4 chains; node 0 of 4 is
    Byzantine. Each node's timestamps increase, so priority keys differ."""
    rng = random.Random(seed)
    chains = {c: {} for c in ("c1", "c2", "c3", "c4")}
    for i in range(n_assets):
        cell = {"state": rng.choice(["ACTIVE", "FROZEN", "SEIZED", "RESTRICTED"]),
                "owner": "o", "locked": False}
        for c in rng.sample(sorted(chains), rng.randint(1, len(chains))):
            chains[c][f"a{i}"] = cell
    clock = [0] * 4
    requests = []
    for _ in range(n_requests):
        node = rng.randrange(4)
        clock[node] += rng.randint(1, 3)
        requests.append({"node": node, "timestamp": clock[node],
                         "authority": rng.choice(["Regional", "National", "International"]),
                         "action": rng.choice([a.value for a in RegAction]),
                         "asset": f"a{rng.randrange(n_assets)}"})
    doc = simulate_doc()
    doc["state"] = {"chains": chains, "locks": {}}
    doc["requests"] = requests
    return doc


def simulate_requests_doc(n_requests, lock_timeout=2):
    """simulate_doc with its first ``n_requests`` requests and that lock timeout."""
    doc = simulate_doc()
    doc["requests"] = doc["requests"][:n_requests]
    doc["sim"]["lock_timeout"] = lock_timeout
    return doc


class TestSimulateVerdicts:
    """A drain that reaches its bound with requests pending has failed to
    complete."""

    def test_pending_at_the_drain_bound_is_a_violation(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(liveness, "drain_horizon", lambda n_requests, cfg: 2)
        path = write(tmp_path, simulate_requests_doc(1))
        code, out, err = run_cli(capsys, "simulate", str(path), "--adversarial")
        assert code == 1 and err == ""
        assert out.endswith("starvation_bound: ok\neventual_completion: 1: 1 requests left\n")

    @pytest.mark.parametrize("schedule", [[], ["--adversarial"]], ids=["fair", "adversarial"])
    def test_default_run_of_many_requests_is_decided(self, capsys, tmp_path, schedule):
        # 1,000 requests need more than 1,000 epochs on either schedule; the
        # run goes to the drain bound and completes.
        path = write(tmp_path, generated_simulate_doc(1000, 200, seed=1))
        code, out, err = run_cli(capsys, "simulate", str(path), *schedule)
        assert (code, err) == (0, "")
        records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert len(records) > 1000 and records[-1]["pending_after"] == 0
        assert out.endswith("starvation_bound: ok\neventual_completion: ok\n")

    @pytest.mark.parametrize("field", ["lock_timeout", "fairness_bound"])
    def test_a_huge_drain_bound_costs_only_the_epochs_stepped(self, capsys, tmp_path, field):
        # Both requests are on one asset, so no Byzantine lock is taken and
        # the drain ends within a few epochs of a 2 * 10**9 epoch bound.
        doc = simulate_requests_doc(2)
        doc["requests"][1]["asset"] = "a1"
        doc["sim"][field] = 10**9
        path = write(tmp_path, doc)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out.endswith("starvation_bound: ok\neventual_completion: ok\n")

    def test_a_lock_timeout_above_the_window_breaks_it(self, capsys, tmp_path):
        # A lock timeout above the fairness bound lets a withheld lock
        # outlast a window of 3 epochs.
        path = write(tmp_path, simulate_requests_doc(2, lock_timeout=8))
        code, out, err = run_cli(capsys, "simulate", str(path), "--adversarial")
        assert code == 1 and err == ""
        verdicts = [line for line in out.splitlines() if not line.startswith("{")]
        assert verdicts[0] == "starvation_bound: (3, 6): pending stuck at 1"
        assert all(line.count("starvation_bound") == 1 for line in verdicts[:-1])
        assert verdicts[-1] == "eventual_completion: ok"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["transition", "--from", "BOGUS", "--action", "FREEZE"],
         "error: 'BOGUS' is not a valid RegState\n"
         "usage: regsync transition [--from STATE --action ACTION]\n"),
        (["transition", "--action", "FREEZE"],
         "error: --from and --action must be given together\n"),
        (["simulate", "BFT"],
         "error: invalid BFT config: bft_threshold: (2, 1): 2 < 3*1+1\n"
         "error: invalid BFT config: timeout_positive: 0\n"
         "error: invalid BFT config: fairness_positive: 0\n"),
    ],
    ids=["transition-usage", "transition-half", "bft-violations"],
)
def test_usage_error_lines(capsys, tmp_path, argv, err):
    """One ``error:`` line per message, the transition usage line after its
    error, and nothing on stdout."""
    doc = simulate_doc()
    doc["sim"].update(nodes=doc["sim"]["nodes"][:2], lock_timeout=0, fairness_bound=0)
    argv = [str(write(tmp_path, doc)) if a == "BFT" else a for a in argv]
    assert run_cli(capsys, *argv) == (2, "", err)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["transition"],
            ["modelcheck", "--domains", "2", "--assets", "1", "--depth", "2"],
        ],
    )
    def test_byte_identical_runs(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_simulate_deterministic(self, capsys, tmp_path):
        path = str(write(tmp_path, simulate_doc()))
        first = run_cli(capsys, "simulate", path, "--seed", "5")
        second = run_cli(capsys, "simulate", path, "--seed", "5")
        assert first == second


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def near_valid_docs():
    """A valid scenario with one block, entry or field swapped for an
    arbitrary JSON value, so the fuzz reaches past the first check."""
    doc = minimal_doc()
    doc["requests"] = [{"node": 1, "authority": "National", "timestamp": 0,
                        "action": "FREEZE", "asset": "a1"}]
    doc["sim"] = simulate_doc()["sim"]
    paths = [
        (), ("state",), ("state", "chains"), ("state", "chains", "c1"),
        ("state", "chains", "c1", "a1"), ("state", "chains", "c1", "a1", "state"),
        ("state", "chains", "c1", "a1", "owner"), ("state", "chains", "c1", "a1", "locked"),
        ("state", "locks"), ("sync",), ("sync", 0), ("sync", 0, "source"),
        ("sync", 0, "action"), ("sync", 0, "expect"), ("requests",), ("requests", 0),
        ("requests", 0, "node"), ("requests", 0, "timestamp"), ("requests", 0, "authority"),
        ("sim",), ("sim", "nodes"), ("sim", "f_max"), ("sim", "seed"),
    ]

    def swap(path, value):
        if not path:
            return value
        out = json.loads(json.dumps(doc))
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return out

    return st.builds(swap, st.sampled_from(paths), JSON_VALUES)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES | near_valid_docs())
def test_any_json_value_parses_or_raises_scenario_error(doc):
    try:
        scenario_from_json(doc)
    except ScenarioError:
        pass


EXTREME_INTS = st.integers() | st.sampled_from(
    [0, -1, 2**31 - 1, 2**32 - 1, 2**32, 2**63 - 1, -(2**63), 2**64, DEFAULT_HORIZON + 1])
IN_HORIZON = st.integers(0, DEFAULT_HORIZON) | st.sampled_from([0, DEFAULT_HORIZON])
_NAMES = [a.value for a in RegAction], [s.value for s in RegState]


@st.composite
def command_docs(draw):
    """A parse-valid scenario: 1-3 chains; 1-3 assets, each on a non-empty
    set of them in one state, but one holder in ten draws its own; one time
    in five a lock entry; up to 6 sync steps, with any expectation, and 1-6
    requests, on declared chains and assets; and nine times in ten a sim
    block, four times in five a valid BFT config (up to 9 nodes, f_max up to
    2, unique ids) and else any nodes and f_max. Node ids, timestamps and
    seeds are extreme integers, but a request's node id and timestamp lie
    in the priority horizon three times in four; lock_timeout and
    fairness_bound are at most 40, and one time in ten may be 0 or below.
    A draw of 0, hypothesis's simplest, takes the common branch."""
    actions, states = _NAMES
    chains = draw(st.lists(st.sampled_from(["c1", "c2", "c3"]), min_size=1, max_size=3,
                           unique=True))
    assets = draw(st.lists(st.sampled_from(["a1", "a2", "a3"]), min_size=1, max_size=3,
                           unique=True))
    tables: dict = {c: {} for c in chains}
    for aid in assets:
        state = draw(st.sampled_from(states))
        for c in draw(st.lists(st.sampled_from(chains), min_size=1, unique=True)):
            own = draw(st.sampled_from(states)) if draw(st.integers(0, 9)) == 9 else state
            tables[c][aid] = {"state": own, "owner": "o", "locked": False}
    locks = st.dictionaries(st.sampled_from(assets), st.booleans(), max_size=1)
    doc: dict = {"state": {"chains": tables,
                           "locks": draw(locks) if draw(st.integers(0, 4)) == 4 else {}}}
    doc["sync"] = draw(st.lists(st.fixed_dictionaries(
        {"source": st.sampled_from(chains), "action": st.sampled_from(actions),
         "asset": st.sampled_from(assets)},
        optional={"expect": st.sampled_from(["ok", *engine.SyncFailure])}), max_size=6))
    key = EXTREME_INTS if draw(st.integers(0, 3)) == 3 else IN_HORIZON
    doc["requests"] = draw(st.lists(st.fixed_dictionaries(
        {"node": key, "authority": st.sampled_from(["Regional", "National", "International"]),
         "timestamp": key, "action": st.sampled_from(actions),
         "asset": st.sampled_from(assets)}), min_size=1, max_size=6))
    if draw(st.integers(0, 9)) == 9:
        return doc
    if draw(st.integers(0, 4)) < 4:
        f_max = 2 - draw(st.integers(0, 2))
        n = draw(st.integers(3 * f_max + 1, 3 * f_max + 3))
        ids = draw(st.lists(EXTREME_INTS, min_size=n, max_size=n, unique=True))
        byzantine = f_max - draw(st.integers(0, f_max))
        nodes = [{"id": i, "honest": k >= byzantine} for k, i in enumerate(ids)]
    else:
        f_max = draw(EXTREME_INTS)
        nodes = draw(st.lists(st.fixed_dictionaries({"id": EXTREME_INTS,
                                                     "honest": st.booleans()}), max_size=5))
    bound = st.integers(max_value=40) if draw(st.integers(0, 9)) == 9 else st.integers(1, 40)
    doc["sim"] = {"nodes": nodes, "f_max": f_max, "lock_timeout": draw(bound),
                  "fairness_bound": draw(bound), "seed": draw(EXTREME_INTS)}
    return doc


@settings(max_examples=150, deadline=None)
@given(command_docs())
def test_every_command_run_exits_0_1_or_2(tmp_path_factory, doc):
    """The exit-code contract over whole commands: each generated scenario
    (command_docs) runs in process through ``simulate``, ``simulate
    --adversarial`` and ``sync``; each run exits 0, 1 or 2, never 3 (an
    internal error), and a run that exits 2 writes nothing to stdout."""
    path = tmp_path_factory.getbasetemp() / "command-fuzz.json"
    path.write_text(json.dumps(doc))
    for argv in (["simulate", str(path)], ["simulate", str(path), "--adversarial"],
                 ["sync", str(path)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert code != 2 or out.getvalue() == "", (argv, err.getvalue())
