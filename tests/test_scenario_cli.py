import json

import pytest

from regsync import cli
from regsync.modelcheck import run_modelcheck
from regsync.scenario import ScenarioError, canonical_dumps, parse_scenario


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

    def test_canonical_round_trip(self, tmp_path):
        path = tmp_path / "canon.json"
        path.write_text(canonical_dumps(parse_scenario(write(tmp_path, minimal_doc()))))
        reparsed = parse_scenario(path)
        assert canonical_dumps(reparsed) == path.read_text()


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

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "sync", str(path))
        assert code == 2 and "error" in err


class TestModelcheckCommand:
    def test_small_run_clean(self, capsys):
        code, out, _ = run_cli(capsys, "modelcheck", "--domains", "2", "--assets", "1", "--depth", "2")
        assert code == 0
        assert "violations: 0" in out

    def test_budget_exceeded_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REGSYNC_BUDGET", "10")
        code, _, err = run_cli(capsys, "modelcheck", "--domains", "3", "--assets", "2", "--depth", "2")
        assert code == 2 and "budget" in err

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
            "t_max": 1000,
            "n_max": 1000,
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

    def test_invalid_bft_config_exits_2(self, capsys, tmp_path):
        doc = simulate_doc()
        doc["sim"]["nodes"] = doc["sim"]["nodes"][:3]
        code, _, err = run_cli(capsys, "simulate", str(write(tmp_path, doc)))
        assert code == 2 and "bft_threshold" in err


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
