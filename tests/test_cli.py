import argparse
import json
from pathlib import Path

import pytest

import hybridplan.cli
from hybridplan.adaptation import run_scenario
from hybridplan.bench import random_instance
from hybridplan.cli import main
from hybridplan.fixtures import fixture_text, load_fixture
from hybridplan.planner import PlanViolation, build_plan, plan_mission, timed_schedule
from hybridplan.spec import serialize


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(fixture_text("scenario_adaptation"))
    return path


def strict_json(text):
    """``text`` parsed as strict JSON: Infinity and NaN are refused."""

    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSubcommands:
    def test_validate_fixture(self, capsys):
        code, out, _ = run(capsys, "validate", "--spec", "vineyard")
        assert code == 0
        assert json.loads(out) == {"violations": []}

    def test_plan_writes_artifacts(self, capsys, tmp_path):
        code, out, _ = run(capsys, "plan", "--spec", "vineyard", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["metrics"]["travel_cost"] == 8
        assert Path(payload["artifacts"]["plan"]).exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        stats = manifest["counters"]["planner"]
        assert set(stats) == {"expansions", "generated", "reopened", "h0"}
        assert stats["expansions"] > 0 and stats["h0"] <= 8
        assert "stats" not in json.loads((tmp_path / "plan.json").read_text())

    @pytest.mark.parametrize("subcommand", ["plan", "verify", "export-prism"])
    def test_seed_only_on_seeded_subcommands(self, subcommand, capsys):
        # the planner and the verifier are deterministic: nothing reads a seed
        with pytest.raises(SystemExit) as exit_:
            main([subcommand, "--spec", "vineyard", "--seed", "1"])
        assert exit_.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--strategy", "--timeout"])
    def test_simulate_takes_no_planner_flags(self, flag, capsys, scenario_path):
        # the scenario's "planner" object configures the search; simulate
        # takes no planner flag
        value = {"--strategy": "astar", "--timeout": "0.000001"}[flag]
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", "--spec", "vineyard", "--scenario", str(scenario_path), flag, value])
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["plan", "synthesize", "verify", "export-prism", "bench"])
    def test_no_strategy_flag(self, subcommand, capsys, tmp_path):
        # A* is the only search, so no subcommand picks one
        args = [] if subcommand == "bench" else ["--spec", "vineyard"]
        if subcommand != "verify":
            args += ["--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exit_:
            main([subcommand, *args, "--strategy", "astar"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --strategy astar" in capsys.readouterr().err

    def test_export_prism_budgets_are_exclusive(self, capsys, tmp_path):
        # --max-retries would silently drop the checked --retries vector
        with pytest.raises(SystemExit) as exit_:
            main(["export-prism", "--spec", "m2", "--out", str(tmp_path),
                  "--retries", '{"t4l2": 2}', "--max-retries"])
        assert exit_.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_verify_budget_dictionary(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--spec", "vineyard", "--retries", '{"t3l4": 2}'
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["success_prob"] == pytest.approx(0.950894951, abs=1e-9)
        assert payload["feasible"] is True

    def test_synthesize_echoes_defaults(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "synthesize",
            "--spec", "vineyard",
            "--out", str(tmp_path),
            "--seed", "42",
            "--pop", "30",
            "--evals", "150",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] >= 1
        archive = json.loads((tmp_path / "archive.json").read_text())
        assert archive["config"]["population"] == 30
        assert archive["config"]["evaluations"] == 150
        assert archive["seed"] == 42
        assert all(e["success_prob"] >= 0.95 for e in archive["entries"])
        # the same stage names as the bench sweep's columns
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["stage_seconds"]) == {"s2_plan", "s3_model", "s4_synthesis"}

    @pytest.mark.parametrize("argv, stages, counters", [
        (lambda scenario: ["plan"], {"s2_plan"}, True),
        (lambda scenario: ["synthesize", "--pop", "10", "--evals", "20"], {"s2_plan", "s3_model", "s4_synthesis"}, True),
        (lambda scenario: ["simulate", "--scenario", str(scenario)], {"simulate"}, False),
    ], ids=["plan", "synthesize", "simulate"])
    def test_manifest_times_each_stage_in_wall_and_cpu_seconds(self, argv, stages, counters, capsys, tmp_path,
                                                               scenario_path):
        code, _, _ = run(capsys, *argv(scenario_path), "--spec", "vineyard", "--out", str(tmp_path))
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        keys = {"tool_version", "subcommand", "spec", "seed", "args", "artifacts", "stage_seconds", "stage_cpu_seconds"}
        assert set(manifest) == keys | ({"counters"} if counters else set())
        assert set(manifest["stage_seconds"]) == set(manifest["stage_cpu_seconds"]) == stages
        assert all(seconds >= 0.0 for seconds in manifest["stage_cpu_seconds"].values())

    def test_simulate_scripted_scenario(self, capsys, tmp_path, scenario_path):
        code, out, _ = run(
            capsys,
            "simulate",
            "--spec", "vineyard",
            "--out", str(tmp_path),
            "--scenario", str(scenario_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["levels"] == ["NA", "A1", "NA", "A2", "A3"]
        assert payload["event_times"] == [1, 2, 4, 11, 13]
        assert (tmp_path / "trace.jsonl").exists()

    def test_simulate_seed_from_scenario_unless_given(self, capsys, tmp_path, scenario_path):
        spec = load_fixture("vineyard")
        scenario = json.loads(scenario_path.read_text())
        assert scenario["seed"] != 0
        for extra, seed in (((), scenario["seed"]), (("--seed", "0"), 0)):
            out = tmp_path / f"seed{seed}"
            code, _, _ = run(
                capsys,
                "simulate",
                "--spec", "vineyard",
                "--out", str(out),
                "--scenario", str(scenario_path),
                *extra,
            )
            assert code == 0
            expected = run_scenario(spec, {**scenario, "seed": seed}).to_jsonl()
            assert (out / "trace.jsonl").read_text() == expected
            assert json.loads((out / "manifest.json").read_text())["seed"] == seed
        assert (tmp_path / "seed0" / "trace.jsonl").read_text() != (
            tmp_path / f"seed{scenario['seed']}" / "trace.jsonl"
        ).read_text()

    def test_baseline_queries(self, capsys):
        code, out, _ = run(capsys, "baseline", "--spec", "m1_mini", "--enumerate")
        assert code == 0
        payload = strict_json(out)
        assert payload["queries"]["p_max"] == pytest.approx(0.99, abs=1e-9)
        assert payload["policies"]["policies"] > 1

    def test_baseline_without_a_success_state(self, capsys, tmp_path):
        # a pending task no agent can do (the parser only warns): no state succeeds
        path = tmp_path / "mission.json"
        path.write_text(serialize(random_instance(2, 1, 0)))
        code, out, _ = run(capsys, "baseline", "--spec", str(path), "--enumerate")
        assert code == 0
        payload = strict_json(out)
        assert payload["queries"]["p_max"] == 0.0
        assert payload["queries"]["r_min_bounded"] == 20.0
        assert payload["policies"]["policies"] == 1232
        # the policies that never absorb have an infinite cost, written as null
        assert payload["policies"]["pareto"] == [[None, 0.0]]

    def test_export_pddl(self, capsys, tmp_path):
        code, out, _ = run(capsys, "export-pddl", "--spec", "m1", "--out", str(tmp_path))
        assert code == 0
        assert "(define (domain" in (tmp_path / "domain.pddl").read_text()
        assert "(:metric minimize (travel_dist))" in (tmp_path / "problem.pddl").read_text()

    def test_export_prism(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "export-prism", "--spec", "m2", "--out", str(tmp_path)
        )
        assert code == 0
        text = (tmp_path / "model.prism").read_text()
        assert "evolve const int" in text
        props = (tmp_path / "model.props").read_text()
        assert "P>=0.95" in props

    def test_bench_small_sweep(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "bench",
            "--out", str(tmp_path),
            "--tasks", "4",
            "--agents", "2",
            "--reps", "2",
            "--evals", "30",
            "--pop", "10",
        )
        assert code == 0
        rows = json.loads((tmp_path / "bench.json").read_text())
        assert len(rows) == 1
        assert "s2_plan_gmedian_s" in rows[0]
        assert (tmp_path / "bench.csv").read_text().startswith("tasks,agents")

    @pytest.mark.parametrize(("flags", "name"), [(["--reps", "0"], "seeds"), (["--agents", "0"], "agent_counts")])
    def test_bench_rejects_an_empty_or_agentless_sweep(self, capsys, tmp_path, flags, name):
        code, _, err = run(capsys, "bench", "--out", str(tmp_path), "--tasks", "4", *flags)
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and name in error["message"]
        assert not (tmp_path / "bench.json").exists()


class TestErrors:
    def test_missing_spec_file(self, capsys):
        code, _, err = run(capsys, "validate", "--spec", "no-such-file.json")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "FileNotFoundError"

    def test_directory_as_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", "--spec", str(tmp_path))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "IsADirectoryError"
        code, _, err = run(
            capsys, "simulate", "--spec", "vineyard", "--out", str(tmp_path / "out"), "--scenario", str(tmp_path)
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "IsADirectoryError"

    def test_invalid_spec_reports_violations(self, capsys, tmp_path):
        doc = json.loads(fixture_text("vineyard"))
        doc["agents"][0]["tasks"][0]["p_success"] = 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", "--spec", str(bad))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "SpecError"
        assert payload["error"]["violations"]

    def test_unknown_retry_key(self, capsys):
        code, _, err = run(
            capsys, "verify", "--spec", "vineyard", "--retries", '{"nope": 2}'
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "SpecError"

    @pytest.mark.parametrize(
        "retries",
        ['{"nope": 2}', "[2]", '{"t4l2": 2.7}', '{"t4l2": true}', '{"t4l2": 9}', '{"t4l2": "x"}', '{"t4l2": 0}'],
    )
    def test_export_prism_bad_retries(self, capsys, tmp_path, retries):
        code, _, err = run(
            capsys, "export-prism", "--spec", "m2", "--out", str(tmp_path), "--retries", retries
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "SpecError"

    @pytest.mark.parametrize(
        "scenario",
        [
            "[]",
            '{"seed": "3"}',
            '{"sead": 3}',
            '{"ga": {"population": "30"}}',
            '{"changes": [{"time": 1, "type": ["C1"]}]}',
        ],
    )
    def test_simulate_bad_scenario(self, capsys, tmp_path, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(scenario)
        code, _, err = run(
            capsys, "simulate", "--spec", "vineyard", "--out", str(tmp_path), "--scenario", str(path)
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ScenarioError"

    @pytest.mark.parametrize("timeout", ["inf", "-inf", "nan"])
    def test_non_finite_timeout_is_an_input_error(self, capsys, tmp_path, timeout):
        # argparse's float() takes these; a manifest holding one is not JSON
        code, out, err = run(capsys, "plan", "--spec", "vineyard", "--out", str(tmp_path), f"--timeout={timeout}")
        assert code == 1 and out == ""
        error = strict_json(err)["error"]
        assert error["type"] == "InputError"
        assert "timeout must be a finite number > 0" in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_baseline_state_budget(self, capsys):
        code, out, err = run(capsys, "baseline", "--spec", "vineyard", "--state-budget", "1000")
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "StateBudgetExceeded"
        assert error["states_reached"] == 1000

    @pytest.mark.parametrize(
        "argv, kind, message",
        [
            pytest.param(["synthesize", "--spec", "m2", "--pop", "1"], "InputError", "population must", id="pop"),
            pytest.param(["synthesize", "--spec", "m2", "--evals", "5"], "InputError", "evaluations must", id="evals"),
            pytest.param(["baseline", "--spec", "m1_mini", "--bound=-1"], "InputError", "bound must", id="bound"),
            pytest.param(["verify", "--spec", "m2", "--retries", "{bad"], "JSONDecodeError", "Expecting", id="retries"),
            # the one CLI path to prism's check: a mission without tasks plans to no chain
            pytest.param(["export-prism", "--spec", "TASKLESS"], "InputError", "degenerate model", id="taskless"),
        ],
    )
    def test_a_bad_value_exits_1(self, capsys, tmp_path, argv, kind, message):
        doc = json.loads(fixture_text("m2"))
        doc["tasks"] = []
        for agent in doc["agents"]:
            agent["tasks"] = []
        (tmp_path / "taskless.json").write_text(json.dumps(doc))
        argv = [str(tmp_path / "taskless.json") if a == "TASKLESS" else a for a in argv]
        out = [] if argv[0] in ("verify", "baseline") else ["--out", str(tmp_path / "out")]
        code, stdout, err = run(capsys, *argv, *out)
        assert code == 1 and stdout == ""
        error = json.loads(err)["error"]
        assert error["type"] == kind and message in error["message"]
        assert "traceback" not in error

    def test_baseline_state_budget_below_one(self, capsys):
        code, out, err = run(capsys, "baseline", "--spec", "m1_mini", "--state-budget", "0")
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert "states_reached" not in error

    @pytest.mark.parametrize("subcommand", ["plan", "synthesize", "verify", "export-prism"])
    def test_invalid_plan_is_an_internal_fault(self, capsys, tmp_path, monkeypatch, subcommand):
        violation = PlanViolation("C3", 0, "injected")
        monkeypatch.setattr(hybridplan.cli, "validate_plan", lambda spec, plan: [violation])
        out = [] if subcommand == "verify" else ["--out", str(tmp_path)]
        code, stdout, err = run(capsys, subcommand, "--spec", "m1", *out)
        assert code == 3
        assert json.loads(err)["error"]["type"] == "InternalError"
        assert stdout == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "bug",
        [KeyError("t1"), ValueError("max() arg is an empty sequence"), RuntimeError("self-check failed")],
        ids=type,
    )
    def test_an_untyped_exception_is_an_internal_fault(self, capsys, tmp_path, monkeypatch, bug):
        # only the class decides: a builtin ValueError or RuntimeError is a bug, not a bad input
        def planner_bug(spec, cfg):
            raise bug

        monkeypatch.setattr(hybridplan.cli, "plan_mission", planner_bug)
        code, stdout, err = run(capsys, "plan", "--spec", "vineyard", "--out", str(tmp_path))
        assert code == 3 and stdout == ""
        error = json.loads(err)["error"]
        assert (error["type"], error["message"]) == (type(bug).__name__, str(bug))
        assert "planner_bug" in "".join(error["traceback"])

    def test_a_packing_stall_is_an_internal_fault(self, capsys, tmp_path, monkeypatch):
        # a trace whose first action is not enabled cannot be packed
        def stalled(spec, cfg):
            plan = plan_mission(spec, cfg)
            return timed_schedule(spec, build_plan(spec, plan.total_order[::-1]))

        monkeypatch.setattr(hybridplan.cli, "plan_mission", stalled)
        code, _, err = run(capsys, "plan", "--spec", "vineyard", "--out", str(tmp_path))
        assert code == 3
        error = json.loads(err)["error"]
        assert (error["type"], error["message"]) == ("InternalError", "parallel packing failed to make progress")

    def test_non_convergence_is_an_internal_fault(self, capsys, monkeypatch):
        # value iteration is the one iterative solver; one sweep cannot converge
        import hybridplan.pmc

        monkeypatch.setattr(hybridplan.pmc, "MAX_SWEEPS", 1)
        code, _, err = run(capsys, "baseline", "--spec", "m1_mini")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "ConvergenceError"


# every option of every subcommand: adding or removing a knob changes this table
KNOBS = {
    "validate": ["--spec"],
    "plan": ["--spec", "--out", "--timeout"],
    "synthesize": ["--spec", "--out", "--timeout", "--seed", "--pop", "--evals"],
    "verify": ["--spec", "--timeout", "--retries"],
    "simulate": ["--spec", "--out", "--scenario", "--seed"],
    "baseline": ["--spec", "--state-budget", "--bound", "--enumerate", "--limit"],
    "export-pddl": ["--spec", "--out"],
    "export-prism": ["--spec", "--out", "--timeout", "--retries", "--max-retries"],
    "bench": ["--out", "--tasks", "--agents", "--reps", "--seed", "--pop", "--evals", "--timeout"],
}


def test_knob_inventory():
    parser = hybridplan.cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    knobs = {
        name: [s for action in p._actions for s in action.option_strings if s not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }
    assert knobs == KNOBS
    assert sum(map(len, KNOBS.values())) == 37


class TestDeterminism:
    def test_byte_identical_artifacts(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code, _, _ = run(
                capsys,
                "synthesize",
                "--spec", "m2",
                "--out", str(out),
                "--seed", "5",
            )
            assert code == 0
        for name in ("plan.json", "archive.json", "front.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
