"""Trace-order dispatch identity against recorded golden digests.

``golden/dispatch_hashes.json`` holds a sha256 of every output that the
trace-order dispatcher shapes:

- ``Plan.to_json()`` (which carries the packed ``timed`` lanes) for every case
  of ``test_golden_plans`` under A* and greedy best-first search;
- ``build_plan`` on each of those traces reversed, where packing cannot
  progress and the lanes stay empty;
- ``Trace.to_jsonl()`` of the bundled adaptation scenario under seeds 0-7;
- ``Trace.to_jsonl()`` of ``simulate`` runs on random missions with lowered
  task probabilities (so sampled failures drive NA/A1/A3 decisions) and a
  seeded stream of success-floor changes.

Regenerate the file only for an intended change of lanes or execution
traces, and state the reason next to the change:
``PYTHONPATH=src python tests/test_golden_dispatch.py --write``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from hybridplan.adaptation import Change, run_scenario, select_new_plan, simulate
from hybridplan.bench import random_instance
from hybridplan.chains import build_parametric_model
from hybridplan.errors import PlanTimeout, UnrecoverableMission
from hybridplan.fixtures import fixture_text, load_fixture
from hybridplan.planner import PlannerConfig, build_plan, plan_mission
from hybridplan.synthesis import GaConfig, synthesize

from test_golden_plans import cases as plan_cases

GOLDEN = Path(__file__).parent / "golden" / "dispatch_hashes.json"

STRATEGIES = ("astar", "gbfs")
SCENARIO_SEEDS = range(8)
# (tasks, agents, mission seed); every capable pair runs at SIM_P, below the
# declared rates, so task attempts fail often enough to exercise adaptation
SIM_MISSIONS = [(3 + i % 3, 2 + i % 2, 200 + i) for i in range(12)]
SIM_SEEDS = (0, 1, 2)
SIM_P = 0.6
SIM_GA = GaConfig(population=8, evaluations=24, seed=0)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def plan_digest(plan) -> str:
    return digest(json.dumps(plan.to_json(), sort_keys=True))


def plan_records(doc: dict):
    for case_id, make, cap in plan_cases():
        spec = make()
        for strategy in STRATEGIES:
            cfg = PlannerConfig(strategy=strategy, **({} if cap is None else {"max_expansions": cap}))
            try:
                plan = plan_mission(spec, cfg)
            except PlanTimeout:
                continue
            doc[f"plan/{case_id}/{strategy}"] = plan_digest(plan)
            doc[f"reversed/{case_id}/{strategy}"] = plan_digest(build_plan(spec, plan.total_order[::-1]))


def scenario_records(doc: dict):
    vineyard = load_fixture("vineyard")
    scenario = json.loads(fixture_text("scenario_adaptation"))
    for seed in SCENARIO_SEEDS:
        doc[f"scenario/seed{seed}"] = digest(run_scenario(vineyard, {**scenario, "seed": seed}).to_jsonl())


def lowered(spec):
    overrides = {
        (a.id, t.id): SIM_P for a in spec.agents for t in spec.tasks if spec.p_success(a.id, t.id) > 0.0
    }
    return spec.with_runtime_state(spec.initial_locations, spec.pending, p_overrides=overrides)


def floor_stream(plan, rng: random.Random) -> list:
    """Three success-floor changes at distinct times within the makespan."""
    times = sorted(rng.sample(range(1, max(plan.makespan(), 4)), 3))
    return [Change("C2", t, value=round(rng.uniform(0.85, 0.99), 4)) for t in times]


def simulate_records(doc: dict):
    for tasks, agents, mission_seed in SIM_MISSIONS:
        spec = lowered(random_instance(tasks, agents, mission_seed))
        plan = plan_mission(spec, PlannerConfig())
        model = build_parametric_model(spec, plan)
        archive = synthesize(model, SIM_GA)
        if archive.is_empty():
            doc[f"simulate/{tasks}x{agents}s{mission_seed}"] = "empty archive"
            continue
        deploy = select_new_plan(archive.entries)
        for seed in SIM_SEEDS:
            changes = floor_stream(plan, random.Random(seed))
            try:
                trace = simulate(spec, plan, model, archive, deploy, changes, seed=seed, max_steps=200, ga=SIM_GA)
                out = digest(trace.to_jsonl())
            except UnrecoverableMission as exc:
                out = f"unrecoverable: {exc}"
            doc[f"simulate/{tasks}x{agents}s{mission_seed}/seed{seed}"] = out


def record() -> dict:
    doc: dict = {}
    plan_records(doc)
    scenario_records(doc)
    simulate_records(doc)
    return doc


def test_dispatch_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert record() == golden


def test_golden_covers_every_dispatch_path():
    # packed plans, failed packings, scenario traces and sampled-failure runs
    golden = json.loads(GOLDEN.read_text())
    for prefix in ("plan/", "reversed/", "scenario/", "simulate/"):
        assert any(k.startswith(prefix) for k in golden), prefix
    assert sum(v.startswith("unrecoverable") or v == "empty archive" for v in golden.values()) * 4 < len(golden)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_dispatch.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
