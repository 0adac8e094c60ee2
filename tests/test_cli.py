import json
from pathlib import Path

import pytest

from hybridplan.adaptation import run_scenario
from hybridplan.cli import main
from hybridplan.fixtures import fixture_text, load_fixture


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(fixture_text("scenario_adaptation"))
    return path


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
        code, out, _ = run(
            capsys, "plan", "--spec", "vineyard", "--out", str(tmp_path), "--pddl"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metrics"]["travel_cost"] == 8
        for key in ("plan", "domain", "problem"):
            assert Path(payload["artifacts"][key]).exists()
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
        payload = json.loads(out)
        assert payload["queries"]["p_max"] == pytest.approx(0.99, abs=1e-9)
        assert payload["policies"]["policies"] > 1

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


class TestErrors:
    def test_missing_spec_file(self, capsys):
        code, _, err = run(capsys, "validate", "--spec", "no-such-file.json")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "FileNotFoundError"

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
