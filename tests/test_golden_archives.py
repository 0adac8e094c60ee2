"""Budget-synthesis identity against recorded golden archive digests.

``golden/archive_hashes.json`` holds, for every case below, a sha256 of the
archive's ``to_json()`` together with the order in which the run evaluated
its genotypes (its audit log).  The GA's random draws, its evaluation order,
its front sorting and the archive's selection all shape one of the two, so
any change to them shows up here as a changed hash.  Fixtures with small
budget spaces take the exhaustive route, whose enumeration order the audit
log pins.

Regenerate the file only for an intended change of archives, and state the
reason next to the change:
``PYTHONPATH=src python tests/test_golden_archives.py --write``.
"""

import hashlib
import json
import sys
from pathlib import Path

from hybridplan.bench import random_instance
from hybridplan.chains import build_parametric_model
from hybridplan.fixtures import FIXTURES, load_fixture
from hybridplan.planner import PlannerConfig, plan_mission
from hybridplan.synthesis import GaConfig, synthesize

GOLDEN = Path(__file__).parent / "golden" / "archive_hashes.json"

# (tasks, agents, mission seed) of random missions
RANDOM_MISSIONS = [(t, a, s) for t in (4, 6, 10, 12) for a in (2, 4) for s in (0, 1)]
GA_SEEDS = (0, 1)
POPULATION, EVALUATIONS = 40, 300


def cases():
    """(case id, spec factory)."""
    out = [(name, (lambda n=name: load_fixture(n))) for name in FIXTURES]
    for t, a, s in RANDOM_MISSIONS:
        out.append((f"rand{t}x{a}s{s}", (lambda t=t, a=a, s=s: random_instance(t, a, s))))
    return out


def digest(archive) -> str:
    body = json.dumps(archive.to_json(), sort_keys=True) + json.dumps([list(g) for g, _ in archive.audit_log])
    return hashlib.sha256(body.encode()).hexdigest()


def record() -> dict:
    doc = {}
    for case_id, make in cases():
        spec = make()
        model = build_parametric_model(spec, plan_mission(spec, PlannerConfig()))
        for seed in GA_SEEDS:
            archive = synthesize(model, GaConfig(population=POPULATION, evaluations=EVALUATIONS, seed=seed))
            doc[f"{case_id}/seed{seed}"] = {"exhaustive": archive.exhaustive, "sha256": digest(archive)}
    return doc


def test_archives_match_golden():
    assert record() == json.loads(GOLDEN.read_text())


def test_golden_covers_both_routes():
    golden = json.loads(GOLDEN.read_text())
    routes = [r["exhaustive"] for r in golden.values()]
    assert any(routes) and not all(routes)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_archives.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
