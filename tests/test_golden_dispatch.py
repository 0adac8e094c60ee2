"""Trace-order dispatch identity against recorded golden digests.

``golden/dispatch_hashes.json`` holds a sha256 of every output that the
trace-order dispatcher shapes:

- ``Plan.to_json()`` (which carries the packed ``timed`` lanes) for every case
  of ``test_golden_plans`` under A*;
- ``build_plan`` on each of those traces reversed, where packing cannot
  progress and the lanes stay empty;
- ``Trace.to_jsonl()`` of the bundled adaptation scenario under seeds 0-7;
- ``Trace.to_jsonl()`` of ``simulate`` runs on random missions with lowered
  task probabilities (so sampled failures drive NA/A1/A3 decisions) and a
  seeded stream of success-floor changes;
- ``Trace.to_jsonl()`` of ``simulate`` runs on the same missions under seeded
  streams that mix success-floor, allocation-threshold and probability
  changes, together with the genotype each ``adapt`` decision deploys, and
  the (change kind, level) pairs those decisions reach;
- ``Trace.to_jsonl()`` and deployed genotypes of one scripted run per
  simulated mission whose archive holds only the deployed entry: a C1 fails
  the plan's first task in every slot from its first attempt until the
  entry's budget for it is spent, so the scripted decisions end in
  ``C1/A3`` by construction; their (change kind, level) pairs are recorded.

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

from dataclasses import replace

import hybridplan.adaptation as adaptation
from hybridplan.adaptation import Change, run_scenario, select_new_plan, simulate
from hybridplan.bench import random_instance
from hybridplan.chains import build_parametric_model
from hybridplan.errors import PlanTimeout, UnrecoverableMission
from hybridplan.fixtures import fixture_text, load_fixture
from hybridplan.planner import PlannerConfig, build_plan, dispatch_slot, plan_mission
from hybridplan.synthesis import GaConfig, synthesize
from hybridplan.world import Do, initial_state

from test_golden_plans import cases as plan_cases

GOLDEN = Path(__file__).parent / "golden" / "dispatch_hashes.json"

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
        try:
            plan = plan_mission(spec, PlannerConfig(**({} if cap is None else {"max_expansions": cap})))
        except PlanTimeout:
            continue
        doc[f"plan/{case_id}/astar"] = plan_digest(plan)
        doc[f"reversed/{case_id}/astar"] = plan_digest(build_plan(spec, plan.total_order[::-1]))


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


def sim_missions() -> list:
    """(mission id, lowered spec, plan, model, archive) of every simulated
    mission; the runs replace an archive, never change one."""
    out = []
    for tasks, agents, mission_seed in SIM_MISSIONS:
        spec = lowered(random_instance(tasks, agents, mission_seed))
        plan = plan_mission(spec, PlannerConfig())
        model = build_parametric_model(spec, plan)
        out.append((f"{tasks}x{agents}s{mission_seed}", spec, plan, model, synthesize(model, SIM_GA)))
    return out


def simulate_records(doc: dict, missions: list):
    for mission, spec, plan, model, archive in missions:
        if archive.is_empty():
            doc[f"simulate/{mission}"] = "empty archive"
            continue
        deploy = select_new_plan(archive.entries)
        for seed in SIM_SEEDS:
            changes = floor_stream(plan, random.Random(seed))
            try:
                trace = simulate(spec, plan, model, archive, deploy, changes, seed=seed, ga=SIM_GA)
                out = digest(trace.to_jsonl())
            except UnrecoverableMission as exc:
                out = f"unrecoverable: {exc}"
            doc[f"simulate/{mission}/seed{seed}"] = out


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


def adapt_records(doc: dict, missions: list):
    pairs = set()
    for mission, spec, plan, model, archive in missions:
        if archive.is_empty():
            continue
        deploy = select_new_plan(archive.entries)
        for seed in ADAPT_SEEDS:
            changes = mixed_stream(spec, plan, random.Random(seed))
            decisions: list = []
            with logged_decisions(decisions):
                try:
                    text = simulate(spec, plan, model, archive, deploy, changes, seed=seed, ga=SIM_GA).to_jsonl()
                except UnrecoverableMission as exc:
                    text = f"unrecoverable: {exc}"
            pairs.update(f"{kind}/{level}" for kind, level, _ in decisions)
            genotypes = json.dumps([g for _, _, g in decisions])
            doc[f"adapt/{mission}/seed{seed}"] = digest(text + genotypes)
    doc["adapt/pairs"] = " ".join(sorted(pairs))


def first_attempt(spec, plan) -> tuple[str, int]:
    """The plan's first task and the slot of its first attempt.  Every
    earlier trace action is a move, so no outcome draw moves that slot."""
    order = plan.total_order
    index = next(i for i, act in enumerate(order) if isinstance(act, Do))
    state, done, slot = initial_state(spec), 0, -1
    while done <= index:
        state, _, done = dispatch_slot(spec, state, order, done)
        slot += 1
    return order[index].task, slot


def exhaust_records(doc: dict, missions: list):
    for mission, spec, plan, model, archive in missions:
        if archive.is_empty():
            continue
        deploy = select_new_plan(archive.entries)
        task, start = first_attempt(spec, plan)
        budget = deploy.retries.get(task, 1)
        changes = [Change("C1", start + k, task=task) for k in range(budget)]
        decisions: list = []
        with logged_decisions(decisions):
            text = simulate(
                spec, plan, model, replace(archive, entries=[deploy]), deploy, changes, seed=0, ga=SIM_GA
            ).to_jsonl()
        key = f"exhaust/{mission}"
        doc[key] = digest(text + json.dumps([g for _, _, g in decisions]))
        doc[f"{key}/scripted"] = " ".join(f"{kind}/{level}" for kind, level, _ in decisions[:budget])


def record() -> dict:
    doc: dict = {}
    plan_records(doc)
    scenario_records(doc)
    missions = sim_missions()
    simulate_records(doc, missions)
    adapt_records(doc, missions)
    exhaust_records(doc, missions)
    return doc


def test_dispatch_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert record() == golden


def test_golden_covers_every_dispatch_path():
    # packed plans, failed packings, scenario traces, sampled-failure runs and
    # mixed change streams that reach every adaptation branch
    golden = json.loads(GOLDEN.read_text())
    for prefix in ("plan/", "reversed/", "scenario/", "simulate/", "adapt/", "exhaust/"):
        assert any(k.startswith(prefix) for k in golden), prefix
    assert ACCEPTANCE_7_PAIRS <= set(golden["adapt/pairs"].split())
    # each scripted run fails its task until the lone entry's budget is
    # spent: every failure before the last keeps the entry, the last replans
    scripted = [v.split() for k, v in golden.items() if k.startswith("exhaust/") and k.endswith("/scripted")]
    assert len(scripted) == len(SIM_MISSIONS) - sum(v == "empty archive" for v in golden.values())
    for pairs in scripted:
        assert pairs[-1] == "C1/A3" and set(pairs[:-1]) <= {"C1/NA"}, pairs
    assert sum(v.startswith("unrecoverable") or v == "empty archive" for v in golden.values()) * 4 < len(golden)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_dispatch.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
