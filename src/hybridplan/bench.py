"""Scaling benchmark: random missions swept over task and agent counts.

Mirrors the deployment mission's shape: a 3x3 unit grid, half workers and
half robots all starting at the corner, task instances drawn over the three
capability groups with random locations.  Each cell times the pipeline
stages separately: S1 model export, S2 planning, S3 uncertainty
augmentation, S4 synthesis.  Summaries report the geometric median (for
one-dimensional samples this is the median) and the geometric standard
deviation, which tolerate the heavy-tailed timing noise of search.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from .chains import all_max_assignment, build_parametric_model, instantiate
from .pddl import export_pddl_domain, export_pddl_problem
from .planner import PlannerConfig, plan_mission
from .spec import ProblemSpec, build_problem_spec
from .synthesis import GaConfig, synthesize

GRID = ["l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8", "l9"]
GRID_PATHS = [
    ("l1", "l2"), ("l2", "l3"), ("l4", "l5"), ("l5", "l6"), ("l7", "l8"), ("l8", "l9"),
    ("l1", "l4"), ("l4", "l7"), ("l2", "l5"), ("l5", "l8"), ("l3", "l6"), ("l6", "l9"),
]
GROUPS = {
    "t1": {"worker": (3, 1.0, 5)},
    "t2": {"robot": (1, 0.99, 10)},
    "t3": {"worker": (5, 0.99, 5), "robot": (1, 0.97, 10)},
}


def random_instance(n_tasks: int, n_agents: int, seed: int) -> ProblemSpec:
    """Random mission on the 3x3 grid; agents deploy from l1."""
    rng = random.Random(seed)
    instances: dict[str, list] = {g: [] for g in GROUPS}
    for i in range(n_tasks):
        group = rng.choice(sorted(GROUPS))
        loc = rng.choice(GRID[1:])  # not the depot
        instances[group].append({"id": f"{group}x{i:02d}", "location": loc})
    tasks = [
        {"id": g, "instances": inst} for g, inst in sorted(instances.items()) if inst
    ]
    agents = []
    for i in range(n_agents):
        kind = "worker" if i % 2 == 0 else "robot"
        caps = []
        for g, by_kind in sorted(GROUPS.items()):
            if kind in by_kind and instances[g]:
                cost, p, retries = by_kind[kind]
                caps.append({"id": g, "cost": cost, "p_success": p, "retries": retries})
        agents.append(
            {"id": f"{kind[0]}{i // 2 + 1}", "type": kind, "start": "l1", "tasks": caps}
        )
    doc = {
        "locations": [{"id": l} for l in GRID],
        "paths": [{"start": a, "end": b, "distance": 1} for a, b in GRID_PATHS],
        "tasks": tasks,
        "agents": agents,
        "constraints": {
            "mission_probability_of_success": 0.9,
            "min_assignment_probability": 0.5,
        },
    }
    return build_problem_spec(doc)


@dataclass
class CellResult:
    n_tasks: int
    n_agents: int
    samples: dict = field(default_factory=dict)   # stage -> list of seconds
    travel_costs: list = field(default_factory=list)
    chain_states: list = field(default_factory=list)
    expansions: list = field(default_factory=list)   # A* expansions per run

    def summary(self) -> dict:
        out = {"tasks": self.n_tasks, "agents": self.n_agents, "runs": len(self.travel_costs)}
        for stage, xs in sorted(self.samples.items()):
            out[f"{stage}_gmedian_s"] = geometric_median(xs)
            out[f"{stage}_gsd"] = geometric_sd(xs)
        out["travel_cost_median"] = statistics.median(self.travel_costs) if self.travel_costs else None
        out["chain_states_median"] = statistics.median(self.chain_states) if self.chain_states else None
        out["s2_plan_expansions"] = statistics.median(self.expansions) if self.expansions else None
        return out


def geometric_median(xs: list[float]) -> float:
    """For scalar samples the geometric median coincides with the median."""
    return statistics.median(xs) if xs else math.nan


def geometric_sd(xs: list[float]) -> float:
    """exp of the standard deviation of logs (1.0 means no spread)."""
    logs = [math.log(max(x, 1e-12)) for x in xs]
    if len(logs) < 2:
        return 1.0
    return math.exp(statistics.pstdev(logs))


def run_cell(
    n_tasks: int,
    n_agents: int,
    seeds: list[int],
    planner_cfg: Optional[PlannerConfig] = None,
    ga: Optional[GaConfig] = None,
) -> CellResult:
    """One sweep cell: one plan per seed, every stage timed on CPU time."""
    planner_cfg = planner_cfg or PlannerConfig(strategy="astar", timeout=600)
    cell = CellResult(n_tasks, n_agents)
    for seed in seeds:
        spec = random_instance(n_tasks, n_agents, seed)
        t0 = time.process_time()
        export_pddl_domain(spec)
        export_pddl_problem(spec)
        t1 = time.process_time()
        plan = plan_mission(spec, planner_cfg)
        t2 = time.process_time()
        model = build_parametric_model(spec, plan)
        t3 = time.process_time()
        cfg = ga or GaConfig(population=30, evaluations=150, seed=seed)
        if model.retry_slots():
            synthesize(model, cfg)
        t4 = time.process_time()
        cell.samples.setdefault("s1_export", []).append(t1 - t0)
        cell.samples.setdefault("s2_plan", []).append(t2 - t1)
        cell.samples.setdefault("s3_model", []).append(t3 - t2)
        cell.samples.setdefault("s4_synthesis", []).append(t4 - t3)
        cell.travel_costs.append(plan.travel_cost)
        cell.expansions.append(plan.stats["expansions"])
        # model size convention: every budget at its cap
        comps = instantiate(model, all_max_assignment(model))
        cell.chain_states.append(sum(d.n_states for _, d in comps))
    return cell


def run_sweep(
    task_counts=(10, 11, 12, 13),
    agent_counts=(2, 4, 6),
    seeds=(11, 12, 13),
    planner_cfg: Optional[PlannerConfig] = None,
    ga: Optional[GaConfig] = None,
) -> list[dict]:
    rows = []
    for n_tasks in task_counts:
        for n_agents in agent_counts:
            cell = run_cell(n_tasks, n_agents, list(seeds), planner_cfg, ga)
            rows.append(cell.summary())
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    lead = ("tasks", "agents", "runs")
    keys = sorted(
        {k for row in rows for k in row},
        key=lambda k: (lead.index(k) if k in lead else len(lead), k),
    )
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(str(row.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"
