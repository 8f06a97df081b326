"""Smoke test: the scripts under ``scripts/`` and ``python -m regsync`` run
on the current APIs, a deep model check ends once nothing new is reached,
every public name of the package is used outside the tests, each layer
reads only its own inputs, and only records.py applies dataclass."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv, src=ROOT / "src"):
    """Run ``python *argv`` in a fresh process that imports regsync from ``src``."""
    src = str(src)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("modelcheck_bounds.py", ["--max-domains", "1", "--max-assets", "1", "--depth", "1"]),
        ("liveness_sweep.py", ["--requests", "20", "--seeds", "1"]),
        ("snapshot_cost.py", ["--assets", "2", "--number", "2", "--repeat", "1"]),
        # Seed 4 drains in 21 epochs, past requests * fairness_bound + timeout (18).
        ("liveness_sweep.py", ["--timeout", "9", "--requests", "3", "--seeds", "5"]),
    ],
)
def test_script_runs(script, args):
    proc = run_python(str(ROOT / "scripts" / script), *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("faults, schedules, byzantine", [
    ("1", ["fair", "adversarial"], r"\d+ us"),
    # With no faulty node only the fair schedule runs, and it has no Byzantine epoch.
    ("0", ["fair"], "-"),
])
def test_liveness_sweep_splits_epoch_cost_by_leader(faults, schedules, byzantine):
    proc = run_python(str(ROOT / "scripts" / "liveness_sweep.py"),
                      "--faults", faults, "--requests", "20", "--seeds", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"requests=20 {s}" for s in schedules]
    for line in lines:
        assert re.search(rf"; \d+ us/epoch \(\d+ us honest, {byzantine} Byzantine\); ", line), line


def test_modelcheck_bounds_splits_ops_by_outcome():
    # One chain, one asset: 5 states x 7 actions, and 12 defined transitions.
    proc = run_python(str(ROOT / "scripts" / "modelcheck_bounds.py"),
                      "--max-domains", "1", "--max-assets", "1", "--depth", "1")
    assert proc.returncode == 0, proc.stderr
    assert "35 syncs (12 successful), 0 violations" in proc.stdout
    # Each per-sync and per-op figure is a median over the rounds, with its min-max.
    spread = r"\d+\.\d\d \(\d+\.\d\d-\d+\.\d\d\)"
    assert re.search(rf"; per op {spread} us after a failed sync, "
                     rf"{spread} us after a successful one; ", proc.stdout)
    # The engine-only time of the same syncs, and the checker's share of the run.
    assert re.search(r"engine only \d+\.\d\ds, checker -?\d+% of the run;", proc.stdout)
    # The engine-only time split by outcome: the mean of one failed and one successful sync.
    assert re.search(rf" of the run; engine only per sync: {spread} us failed, "
                     rf"{spread} us successful; per op ", proc.stdout)
    # The peak RSS so far, read before the engine-only pass.
    assert re.search(r"\d+\.\d \(\d+\.\d-\d+\.\d\) us/sync, peak RSS so far \d+\.\d MiB; "
                     r"engine only ", proc.stdout)


def test_snapshot_cost_splits_a_scenario_replay_by_layer(tmp_path):
    path = tmp_path / "replay.json"
    cell = {"state": "ACTIVE", "owner": "o", "locked": False}
    path.write_text(json.dumps({
        "state": {"chains": {"c1": {"a1": cell}, "c2": {"a1": cell}}},
        "sync": [{"source": "c1", "action": "FREEZE", "asset": "a1"},
                 {"source": "c2", "action": "FREEZE", "asset": "a1"}],
    }))
    script = str(ROOT / "scripts" / "snapshot_cost.py")
    proc = run_python(script, "--scenario", str(path), "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    # The second FREEZE fails: the asset is FROZEN by then.
    assert re.fullmatch(rf"scenario={re.escape(str(path))} steps=2 ok=1: "
                        r"sync \d+\.\d us, snapshot \d+\.\d us per step\n", proc.stdout)
    proc = run_python(script, "--scenario", str(tmp_path / "absent.json"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "absent.json: No such file or directory" in proc.stderr


def test_timing_scripts_report_the_cell_table(tmp_path):
    """Per bound, state size or scenario: engine.cell's hits, misses and
    size, from a table emptied before it."""
    table = r"cell table: hits \d+, misses {0}, held {0}/4096"
    proc = run_python(str(ROOT / "scripts" / "modelcheck_bounds.py"),
                      "--max-domains", "1", "--max-assets", "1", "--depth", "1")
    assert proc.returncode == 0, proc.stderr
    # One asset in five states.
    assert re.search(rf"; {table.format(5)}\n\Z", proc.stdout), proc.stdout
    script = str(ROOT / "scripts" / "snapshot_cost.py")
    proc = run_python(script, "--assets", "2", "3", "--number", "2", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    # Each size's sync freezes a1 afresh: one new value, its miss counted again.
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and all(re.search(rf"; {table.format(1)}\Z", line) for line in lines)
    path = tmp_path / "replay.json"
    cell = {"state": "ACTIVE", "owner": "o", "locked": False}
    path.write_text(json.dumps({
        "state": {"chains": {"c1": {"a1": cell}, "c2": {"a1": cell}}},
        "sync": [{"source": "c1", "action": "FREEZE", "asset": "a1"}],
    }))
    proc = run_python(script, "--scenario", str(path), "--repeat", "3")
    assert proc.returncode == 0, proc.stderr
    # Three replays of one sync over two holders: one new value, six reads of it.
    assert proc.stderr == f"scenario={path}: cell table: hits 5, misses 1, held 1/4096\n"


def test_modelcheck_bounds_takes_its_budget_from_regsync_budget(monkeypatch):
    # D=1/A=1 takes 35 syncs at depth 1, as the first run checks.
    argv = [str(ROOT / "scripts" / "modelcheck_bounds.py"),
            "--max-domains", "1", "--max-assets", "1", "--depth", "1"]
    monkeypatch.setenv("REGSYNC_BUDGET", "35")
    assert run_python(*argv).returncode == 0
    monkeypatch.setenv("REGSYNC_BUDGET", "34")
    # An overrun is an input error, as for ``regsync modelcheck``: exit 2,
    # not the violation code 1 of an uncaught exception.
    proc = run_python(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: budget exceeded: needs at least 35 steps, budget is 34\n")
    monkeypatch.setenv("REGSYNC_BUDGET", "abc")
    proc = run_python(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "error: REGSYNC_BUDGET must be an integer, got 'abc'" in proc.stderr


@pytest.mark.parametrize("flag, value", [("--depth", "0"), ("--max-domains", "0"),
                                         ("--max-assets", "-3")])
def test_modelcheck_bounds_refuses_a_bound_below_one(flag, value):
    # Such a bound checks no sync, which would read as a pass.
    proc = run_python(str(ROOT / "scripts" / "modelcheck_bounds.py"), flag, value)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"argument {flag}: must be at least 1, got {value}" in proc.stderr


@pytest.mark.parametrize("script, flag, value", [
    ("snapshot_cost.py", "--number", "0"),
    ("snapshot_cost.py", "--repeat", "0"),
    ("snapshot_cost.py", "--assets", "0"),
    ("liveness_sweep.py", "--requests", "0"),
    ("liveness_sweep.py", "--seeds", "0"),
])
def test_scripts_refuse_a_count_below_one(script, flag, value):
    # Each of these crashed, or timed a sync of an asset that does not exist.
    proc = run_python(str(ROOT / "scripts" / script), flag, value)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"argument {flag}: must be at least 1, got {value}" in proc.stderr


@pytest.mark.parametrize("flag, value, rule", [
    ("--timeout", "0", "timeout_positive"),
    ("--fairness-bound", "0", "fairness_positive"),
    ("--faults", "2", "bft_threshold"),
])
def test_liveness_sweep_refuses_an_invalid_bft_config(flag, value, rule):
    proc = run_python(str(ROOT / "scripts" / "liveness_sweep.py"), flag, value, "--seeds", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"error: invalid BFT config: {rule}: " in proc.stderr


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = run_python("-m", "regsync", "transition", "--from", "ACTIVE", "--action", "FREEZE")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "FROZEN\n", "")
    # The exit code of the command is the exit code of the process.
    missing = tmp_path / "absent.json"
    proc = run_python("-m", "regsync", "sync", str(missing))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {missing}: ")


def test_a_crash_exits_3_not_the_violation_code():
    """A command that raises an exception it does not expect exits 3 with
    the traceback on stderr, where Python's own exit code would be 1."""
    proc = run_python("-c", (
        "import sys; from regsync import cli; "
        "cli.reg_transition = lambda s, a: s.missing; "
        "sys.exit(cli.main(['transition', '--from', 'ACTIVE', '--action', 'FREEZE']))"
    ))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("internal error: ")
    assert "Traceback" in proc.stderr and "AttributeError" in proc.stderr


def test_modelcheck_stops_once_a_level_adds_no_state():
    """At one chain and one asset every reachable state is an initial one,
    so the search ends after one level however deep it may go."""
    argv = ["-m", "regsync", "modelcheck", "--domains", "1", "--assets", "1", "--depth"]
    shallow = run_python(*argv, "2")
    start = time.perf_counter()
    deep = run_python(*argv, "1000000000")
    assert time.perf_counter() - start < 10
    assert shallow.returncode == 0 and shallow.stdout.startswith("states explored: 5\n")
    assert (deep.returncode, deep.stdout, deep.stderr) == (
        shallow.returncode, shallow.stdout, shallow.stderr
    )


# The generic-layer checks the paper's claims rest on: only tests call them.
TEST_ONLY_CHECKS = {
    "identity_morphism", "rename_machine", "check_naturality", "check_sequential_preservation",
    "check_roundtrip", "check_multi_domain", "validate_machine", "check_fair_leader",
}


# Methods only tests and bench/test_bench.py call: the bench self-test's
# mutant sync builds its results with them, and bench/ is the benchmark's own.
TEST_ONLY_METHODS = {"SyncResult.success", "SyncResult.failure"}
# Functions only tests and bench/test_bench.py call, for the same reason:
# the mutant sync reads the source cell's state with it.
TEST_ONLY_FUNCTIONS = {"get_reg_state"}


def test_every_public_name_is_used_outside_the_tests():
    """Each public top-level function and class under ``src/regsync`` is
    named by a command, a script or the benchmark, or is one of the checks
    above, and each public method, property and static method of those
    classes is named as an attribute there, or is one of the methods above;
    anything else is API that only tests reach."""
    def parsed(paths):
        return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]

    package = sorted((ROOT / "src" / "regsync").glob("*.py"))
    users = package + sorted((ROOT / "scripts").glob("*.py")) + [
        path for path in sorted((ROOT / "bench").glob("*.py")) if not path.name.startswith("test_")
    ]
    public = [
        node
        for tree in parsed(package)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    methods = {
        f"{cls.name}.{node.name}": node.name
        for cls in public
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used, attributes = set(), set()
    for tree in parsed(users):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert {node.name for node in public} - used - attributes == (
        TEST_ONLY_CHECKS | TEST_ONLY_FUNCTIONS)
    assert {m for m, name in methods.items() if name not in attributes} == TEST_ONLY_METHODS


def test_each_layer_reads_only_its_own_inputs():
    """Read off the source, importing nothing: the engine, the concrete
    instance, imports no generic layer; only report.py touches the
    environment; and only the command line reads REGSYNC_BUDGET, so every
    checker takes its budget as an argument."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "regsync").glob("*.py"))}
    imported = set()
    for node in ast.walk(trees["engine.py"]):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else (a.name for a in node.names))
    assert imported == {"records", "regulatory"}

    def files_with(found):
        return {name for name, tree in trees.items() if any(map(found, ast.walk(tree)))}

    assert files_with(lambda node: isinstance(node, ast.Attribute) and node.attr == "environ"
                      and isinstance(node.value, ast.Name) and node.value.id == "os") == {
        "report.py"}
    assert files_with(lambda node: isinstance(node, ast.Call) and "enumeration_budget" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))) == {"cli.py"}


def test_only_the_tests_load_the_locale_checks():
    """Read off the source: no module under ``src/regsync`` but locales.py
    imports ``locales``, so no command compiles the checks only tests run,
    and each of those checks but check_fair_leader, which shares its window
    scan with the simulator, is defined in locales.py."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "regsync").glob("*.py"))}

    def imports_locales(node):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            return module[-1] == "locales" or any(a.name == "locales" for a in node.names)
        return isinstance(node, ast.Import) and any(
            a.name.split(".")[-1] == "locales" for a in node.names)

    assert {name for name, tree in trees.items()
            if any(map(imports_locales, ast.walk(tree)))} == set()
    defined = {node.name for node in trees["locales.py"].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert TEST_ONLY_CHECKS - {"check_fair_leader"} <= defined


def test_only_records_applies_dataclass():
    """Read off the source: no module under ``src/regsync`` but records.py
    imports ``dataclasses.dataclass`` or names it as an attribute, so no
    class brings back a compiled method per generated method; record makes
    every record class. ``dataclasses.replace`` and
    ``field`` stay free to use."""
    def names_dataclass(node):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            return any(alias.name == "dataclass" for alias in node.names)
        return isinstance(node, ast.Attribute) and node.attr == "dataclass"

    assert {
        path.name
        for path in sorted((ROOT / "src" / "regsync").glob("*.py"))
        if any(map(names_dataclass, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    } == {"records.py"}


def test_each_per_sync_rule_is_stated_once():
    """The rules both model checkers share, agreement closure
    (valid_agreement) among them, are named, as string literals, in one
    function under ``src/regsync``, preservation.judge, and
    locales.check_multi_domain and modelcheck._violations both call it.
    valid_state_preservation, the lock rule a projection forgets, is named
    in modelcheck._violations alone, and neither caller restates agreement:
    _violations reads no engine.valid_state, and check_multi_domain's
    visitor no consistent_init. The per-asset agreement scan,
    preservation.disagreements, serves judge, check_consistent_init and
    the command line's refusal of a scenario whose holders disagree."""
    shared = ["cross_domain_consistency", "sync_isolation", "domain_set_changed",
              "valid_agreement"]
    homes = {rule: set() for rule in [*shared, "valid_state_preservation",
                                      "consistent_init_closure"]}
    calls: dict[str, set] = {}
    for path in sorted((ROOT / "src" / "regsync").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = f"{path.stem}.{func.name}"
            for node in ast.walk(func):  # a nested function counts for its outer one too
                if isinstance(node, ast.Constant) and node.value in homes:
                    homes[node.value].add(name)
                elif isinstance(node, ast.Call):
                    called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(name, set()).add(called)
    assert homes == {**dict.fromkeys(shared, {"preservation.judge"}),
                     "valid_state_preservation": {"modelcheck._violations"},
                     "consistent_init_closure": set()}
    for caller in ("locales.check_multi_domain", "modelcheck._violations"):
        assert "judge" in calls[caller]
    assert "valid_state" not in calls["modelcheck._violations"]
    assert not {"check_consistent_init", "disagreements"} & calls["locales.visit"]
    assert {f for f, called in calls.items() if "disagreements" in called} == {
        "preservation.judge", "locales.check_consistent_init", "cli._parse_agreed"}


def test_the_initial_state_test_is_stated_once():
    """Read off the source: no function under ``src/regsync`` is named
    _index or _index_space, and modelcheck._key reads validity, holder
    agreement included, from engine.valid_state: it reads a cell's
    reg_state only to test that it is in RegState, so it compares no two
    holders' states itself."""
    functions = {}
    for path in sorted((ROOT / "src" / "regsync").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[f"{path.stem}.{func.name}"] = func
    assert not {name.split(".")[1] for name in functions} & {"_index", "_index_space"}
    key = list(ast.walk(functions["modelcheck._key"]))
    called = {getattr(n.func, "attr", None) or getattr(n.func, "id", None)
              for n in key if isinstance(n, ast.Call)}
    assert "valid_state" in called
    reads = [n for n in key if isinstance(n, ast.Attribute) and n.attr == "reg_state"]
    tested = [n.left for n in key if isinstance(n, ast.Compare) and len(n.ops) == 1
              and isinstance(n.ops[0], (ast.In, ast.NotIn))]
    assert reads and all(any(r is t for t in tested) for r in reads)
