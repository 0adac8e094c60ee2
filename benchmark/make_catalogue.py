"""Build the benchmark's mission catalogue (benchmark/data/catalogue.json).

Every workload draws its missions from this catalogue, so the reference
answers the benchmark checks against are computed once, here, and checked in:

* the optimal travel cost of each planning mission, found by A* with the
  uninformed ``blind`` heuristic (independent of the default ``combined``
  heuristic the benchmark times);
* the A* expansion count under the default configuration, an exact work
  measure the benchmark stratifies its draws by;
* the state count of each baseline MDP.

Missions come from ``hybridplan.bench.random_instance(tasks, agents, seed)``
over a fixed range of instance seeds.  A mission is left out when the default
planner needs more than ``MAX_EXPANSIONS`` expansions or the blind search more
than ``BLIND_EXPANSIONS``, and a baseline mission when its MDP exceeds
``BASELINE_STATES`` states (limits and skip counts are recorded in the file);
this keeps every benchmark run inside its time budget.  Every column except
``plan_cpu_s`` is deterministic.  ``plan_cpu_s`` is the measured CPU time of
the default planner.

The whole catalogue is rebuilt in one run, from the repository root
(single-threaded; the blind searches take about an hour and up to ~0.5 GiB),
and ``time_catalogue.py`` then adds the measured op times that ``plan-heavy``
and ``synth-heavy`` stratify their draws by, so a rebuild changes which
missions those workloads draw:

    python3 benchmark/make_catalogue.py --out benchmark/data/catalogue.json
    python3 benchmark/time_catalogue.py --catalogue benchmark/data/catalogue.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from hybridplan import planner as hp_planner  # noqa: E402
from hybridplan.baseline import build_full_mdp  # noqa: E402
from hybridplan.bench import random_instance  # noqa: E402
from hybridplan.chains import build_parametric_model  # noqa: E402
from hybridplan.errors import PlanTimeout, StateBudgetExceeded  # noqa: E402
from hybridplan.fixtures import load_fixture  # noqa: E402

# limits (recorded in the output)
MAX_EXPANSIONS = 20_000          # default planner, plan-heavy and synth missions
ADAPT_MAX_EXPANSIONS = 3_000     # adapt missions are replanned mid-mission (A3)
BLIND_EXPANSIONS = 200_000       # reference search; ~0.5 GiB at the cap
BASELINE_STATES = 5_000
SEEDS = 40                       # instance seeds per shape (synth, adapt)
PLAN_HEAVY_SEEDS = 23
BASELINE_SEEDS = 200

PLAN_HEAVY_SHAPES = [(t, a) for a in (4, 5, 6) for t in (8, 9, 10)]
SYNTH_HEAVY_SHAPES = [(t, 2) for t in (10, 11, 12, 13)]
SYNTH_SMALL_SHAPES = [(t, 2) for t in (2, 3, 4)]
ADAPT_SHAPES = [(t, a) for a in (2, 3, 4) for t in (6, 7, 8)]
BASELINE_SHAPES = [(2, 2)]


def plan_with_count(spec, heuristic, max_expansions):
    """(travel cost, expansions) or None past the expansion cap.  Expansions
    are counted as goal tests made by the search."""
    count = [0]
    real = hp_planner.is_goal

    def counting(spec_, state):
        count[0] += 1
        return real(spec_, state)

    hp_planner.is_goal = counting
    try:
        cfg = hp_planner.PlannerConfig(heuristic=heuristic, timeout=3600, max_expansions=max_expansions)
        plan = hp_planner.plan_mission(spec, cfg)
    except PlanTimeout:
        return None
    finally:
        hp_planner.is_goal = real
    return plan, count[0]


def planning_entry(spec, tasks, agents, seed, max_expansions, blind):
    t0 = time.process_time()
    found = plan_with_count(spec, "combined", max_expansions)
    plan_s = time.process_time() - t0
    if found is None:
        return None
    plan, expansions = found
    entry = {
        "tasks": tasks,
        "agents": agents,
        "seed": seed,
        "expansions": expansions,
        "plan_cpu_s": round(plan_s, 4),
    }
    model = build_parametric_model(spec, plan)
    entry["slots"] = len(model.retry_slots())
    entry["space"] = model.space_size()
    entry["chain_steps"] = sum(c.n_act for c in model.chains)
    if blind:
        ref = plan_with_count(spec, "blind", BLIND_EXPANSIONS)
        if ref is None:
            return None
        entry["travel_cost"] = ref[0].travel_cost
        if plan.travel_cost != ref[0].travel_cost:
            raise SystemExit(f"combined cost {plan.travel_cost} != blind {ref[0].travel_cost}: {entry}")
    return entry


def build_kind(name, shapes, seeds, max_expansions, blind, out, skipped):
    rows = out[name] = []
    for seed in seeds:
        for tasks, agents in shapes:
            spec = random_instance(tasks, agents, seed)
            entry = planning_entry(spec, tasks, agents, seed, max_expansions, blind)
            if entry is None:
                skipped[name] = skipped.get(name, 0) + 1
            else:
                rows.append(entry)
            print(name, tasks, agents, seed, entry, flush=True)


def build_baseline(out, skipped):
    rows = out["baseline"] = []
    for seed in range(BASELINE_SEEDS):
        for tasks, agents in BASELINE_SHAPES:
            try:
                mdp = build_full_mdp(random_instance(tasks, agents, seed), state_budget=BASELINE_STATES)
            except StateBudgetExceeded:
                skipped["baseline"] = skipped.get("baseline", 0) + 1
                continue
            rows.append({"tasks": tasks, "agents": agents, "seed": seed, "states": mdp.n_states})


def build_fixtures(out):
    out["fixtures"] = {}
    for name in ("vineyard", "m1", "m1_mini", "m2"):
        ref = plan_with_count(load_fixture(name), "blind", BLIND_EXPANSIONS)
        out["fixtures"][name] = {"travel_cost": ref[0].travel_cost}
    for name in ("m1", "m1_mini"):
        out["fixtures"][name]["states"] = build_full_mdp(load_fixture(name)).n_states


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    out = {
        "generator": "hybridplan.bench.random_instance(tasks, agents, seed)",
        "limits": {
            "max_expansions": MAX_EXPANSIONS,
            "adapt_max_expansions": ADAPT_MAX_EXPANSIONS,
            "blind_expansions": BLIND_EXPANSIONS,
            "baseline_states": BASELINE_STATES,
            "seeds": SEEDS,
            "plan_heavy_seeds": PLAN_HEAVY_SEEDS,
            "baseline_seeds": BASELINE_SEEDS,
        },
    }
    skipped = out["skipped"] = {}
    seeds = range(SEEDS)
    build_fixtures(out)
    build_baseline(out, skipped)
    build_kind("synth_small", SYNTH_SMALL_SHAPES, seeds, MAX_EXPANSIONS, True, out, skipped)
    build_kind("synth_heavy", SYNTH_HEAVY_SHAPES, seeds, MAX_EXPANSIONS, True, out, skipped)
    build_kind("adapt", ADAPT_SHAPES, seeds, ADAPT_MAX_EXPANSIONS, False, out, skipped)
    build_kind("plan_heavy", PLAN_HEAVY_SHAPES, range(PLAN_HEAVY_SEEDS), MAX_EXPANSIONS, True, out, skipped)

    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
