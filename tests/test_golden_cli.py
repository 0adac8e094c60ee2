"""Command-line identity against recorded golden digests.

``golden/cli_hashes.json`` holds, for every run below, the exit code and a
sha256 of the run's stdout and stderr (with the temporary directory
replaced by ``<tmp>``) together with the sha256 of every artifact it wrote
except ``manifest.json``, whose stage times differ from run to run.  Each
run goes through ``cli.main`` in-process, so any change to what a
subcommand plans, checks, prints or writes shows up here as a changed hash.

Regenerate the file only for an intended change of output, and state the
reason next to the change:
``PYTHONPATH=src python tests/test_golden_cli.py --write``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from hybridplan.cli import main
from hybridplan.fixtures import FIXTURES, fixture_text

GOLDEN = Path(__file__).parent / "golden" / "cli_hashes.json"
TMP = "<tmp>"   # stands for the run's temporary directory in the argv below

PER_FIXTURE = {
    "plan": ["plan", "--out", f"{TMP}/out"],
    "synthesize": ["synthesize", "--out", f"{TMP}/out", "--seed", "5"],
    "verify": ["verify"],
    "export-prism": ["export-prism", "--out", f"{TMP}/out"],
    "export-prism-max": ["export-prism", "--out", f"{TMP}/out", "--max-retries"],
    "export-pddl": ["export-pddl", "--out", f"{TMP}/out"],
}
SIMULATE = ["simulate", "--spec", "vineyard", "--scenario", f"{TMP}/scenario.json", "--out", f"{TMP}/out"]
CASES = {
    **{
        f"{name}/{fixture}": argv[:1] + ["--spec", fixture] + argv[1:]
        for fixture in FIXTURES
        for name, argv in PER_FIXTURE.items()
    },
    "verify-retries/vineyard": ["verify", "--spec", "vineyard", "--retries", '{"t3l4": 2}'],
    "baseline-enumerate/m1_mini": ["baseline", "--spec", "m1_mini", "--enumerate"],
    "baseline/m1": ["baseline", "--spec", "m1"],
    "simulate/vineyard": SIMULATE,
    "simulate-seed0/vineyard": SIMULATE + ["--seed", "0"],
    "error-unknown-retry/vineyard": ["verify", "--spec", "vineyard", "--retries", '{"nope": 2}'],
    "error-missing-spec": ["plan", "--spec", f"{TMP}/missing.json", "--out", f"{TMP}/out"],
}


def run_case(argv: list[str]) -> dict:
    """Exit code and digest of one in-process run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "scenario.json").write_text(fixture_text("scenario_adaptation"))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([a.replace(TMP, tmp) for a in argv])
        out = Path(tmp) / "out"
        artifacts = {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*") if out.exists() else [])
            if p.is_file() and p.name != "manifest.json"
        }
        body = json.dumps(
            {
                "stdout": stdout.getvalue().replace(tmp, TMP),
                "stderr": stderr.getvalue().replace(tmp, TMP),
                "artifacts": artifacts,
            },
            sort_keys=True,
        )
    return {"exit": code, "sha256": hashlib.sha256(body.encode()).hexdigest()}


def test_golden_names_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_matches_golden(case_id):
    assert run_case(CASES[case_id]) == json.loads(GOLDEN.read_text())[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    GOLDEN.write_text(json.dumps({k: run_case(v) for k, v in sorted(CASES.items())}, indent=1) + "\n")
