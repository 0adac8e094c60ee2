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
  seeded stream of success-floor changes;
- ``Trace.to_jsonl()`` of ``simulate`` runs on the same missions under seeded
  streams that mix success-floor, allocation-threshold and probability
  changes, together with the genotype each ``adapt`` decision deploys, and
  the (change kind, level) pairs those decisions reach.

Regenerate the file only for an intended change of lanes or execution
traces, and state the reason next to the change:
``PYTHONPATH=src python tests/test_golden_dispatch.py --write``.
"""

import hashlib
import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import hybridplan.adaptation as adaptation
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
# ten streams per mission, so the decisions reach every pair acceptance 7
# drives (the first C1 that replans comes at seed 9)
ADAPT_SEEDS = range(10)
# every (change kind, level) pair acceptance 7 drives
ACCEPTANCE_7_PAIRS = {
    "C1/NA", "C1/A1", "C1/A3", "C2/NA", "C2/A1", "C2/A3",
    "C3/NA", "C3/A3", "C4/NA", "C4/A2", "C4/A3",
}


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


def mixed_stream(spec, plan, rng: random.Random) -> list:
    """Four changes at distinct times within the makespan: success floors,
    allocation thresholds around the lowered rate (which only bite once a C4
    has degraded an allocated pair), and probabilities on any capable pair
    below, between and above the threshold and the lowered rate."""
    pairs = sorted((a.id, t.id) for a in spec.agents for t in spec.tasks if spec.p_success(a.id, t.id) > 0.0)
    changes = []
    for t in sorted(rng.sample(range(1, max(plan.makespan(), 5)), 4)):
        kind = rng.choice(("C2", "C3", "C4"))
        if kind == "C2":
            changes.append(Change("C2", t, value=round(rng.uniform(0.8, 0.99), 4)))
        elif kind == "C3":
            changes.append(Change("C3", t, value=rng.choice((0.55, 0.58))))
        else:
            agent, task = rng.choice(pairs)
            changes.append(Change("C4", t, agent=agent, task=task, value=rng.choice((0.4, 0.56, 0.7))))
    return changes


@contextmanager
def logged_decisions(log: list):
    """Append (change kind, level, deployed genotype or None) for every
    ``adapt`` call the execution harness makes."""
    original = adaptation.adapt

    def logged(ctx, change):
        out = original(ctx, change)
        log.append((change.kind, out.level, None if out.new_entry is None else list(out.new_entry.genotype)))
        return out

    adaptation.adapt = logged
    try:
        yield
    finally:
        adaptation.adapt = original


def adapt_records(doc: dict):
    pairs = set()
    for tasks, agents, mission_seed in SIM_MISSIONS:
        spec = lowered(random_instance(tasks, agents, mission_seed))
        plan = plan_mission(spec, PlannerConfig())
        model = build_parametric_model(spec, plan)
        archive = synthesize(model, SIM_GA)
        if archive.is_empty():
            continue
        deploy = select_new_plan(archive.entries)
        for seed in ADAPT_SEEDS:
            changes = mixed_stream(spec, plan, random.Random(seed))
            decisions: list = []
            with logged_decisions(decisions):
                try:
                    text = simulate(
                        spec, plan, model, archive, deploy, changes, seed=seed, max_steps=200, ga=SIM_GA
                    ).to_jsonl()
                except UnrecoverableMission as exc:
                    text = f"unrecoverable: {exc}"
            pairs.update(f"{kind}/{level}" for kind, level, _ in decisions)
            genotypes = json.dumps([g for _, _, g in decisions])
            doc[f"adapt/{tasks}x{agents}s{mission_seed}/seed{seed}"] = digest(text + genotypes)
    doc["adapt/pairs"] = " ".join(sorted(pairs))


def record() -> dict:
    doc: dict = {}
    plan_records(doc)
    scenario_records(doc)
    simulate_records(doc)
    adapt_records(doc)
    return doc


def test_dispatch_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert record() == golden


def test_golden_covers_every_dispatch_path():
    # packed plans, failed packings, scenario traces, sampled-failure runs and
    # mixed change streams that reach every adaptation branch
    golden = json.loads(GOLDEN.read_text())
    for prefix in ("plan/", "reversed/", "scenario/", "simulate/", "adapt/"):
        assert any(k.startswith(prefix) for k in golden), prefix
    assert ACCEPTANCE_7_PAIRS <= set(golden["adapt/pairs"].split())
    assert sum(v.startswith("unrecoverable") or v == "empty archive" for v in golden.values()) * 4 < len(golden)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_dispatch.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
