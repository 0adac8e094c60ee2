"""Scaling benchmark: random missions swept over task and agent counts.

Mirrors the deployment mission's shape: a 3x3 unit grid, half workers and
half robots all starting at the corner, task instances drawn over the three
capability groups with random locations.  Each cell times the pipeline
stages separately: S1 model export, S2 planning, S3 uncertainty
augmentation, S4 synthesis.  Summaries report the geometric median (for
one-dimensional samples this is the median) and the geometric standard
deviation, which tolerate the heavy-tailed timing noise of search.

Stage times are the CPU seconds ``stage`` takes.  Every (cell, seed) runs in
``SWEEP_PASSES`` passes interleaved over all cells and keeps its minimum time
per stage; the passes must agree on travel cost and expansions.  ``stage``
pauses the cyclic garbage collector, as ``timeit`` does: Python collects
after a fixed count of allocations, so a whole-heap collection would land on
the same stage in every pass, where the minimum cannot remove it.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from .chains import all_max_assignment, build_parametric_model, instantiate
from .errors import InputError, InternalError
from .pddl import export_pddl_domain, export_pddl_problem
from .planner import PlannerConfig, plan_mission
from .spec import ProblemSpec, build_problem_spec
from .synthesis import GaConfig, synthesize

SWEEP_PASSES = 3

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
        for name, xs in sorted(self.samples.items()):
            out[f"{name}_gmedian_s"] = geometric_median(xs)
            out[f"{name}_gsd"] = geometric_sd(xs)
        out["travel_cost_median"] = statistics.median(self.travel_costs)
        out["chain_states_median"] = statistics.median(self.chain_states)
        out["s2_plan_expansions"] = statistics.median(self.expansions)
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


def stage(timings: dict, name: str, fn, *args):
    """``fn(*args)``, with its wall-clock and CPU seconds in ``timings[name]``;
    the cyclic garbage collector is paused and then left as it was found."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.monotonic(), time.process_time()
        result = fn(*args)
        timings[name] = (time.monotonic() - t0, time.process_time() - c0)
    finally:
        if collecting:
            gc.enable()
    return result


def _run_pipeline(n_tasks: int, n_agents: int, seed: int, planner_cfg: Optional[PlannerConfig],
                  ga: Optional[GaConfig]) -> tuple[dict, float, int, int]:
    """One pipeline run: (stage -> CPU seconds, travel cost, A* expansions,
    chain states)."""
    spec = random_instance(n_tasks, n_agents, seed)
    timings: dict = {}
    stage(timings, "s1_export", lambda: (export_pddl_domain(spec), export_pddl_problem(spec)))
    plan = stage(timings, "s2_plan", plan_mission, spec, planner_cfg or PlannerConfig(timeout=600))
    model = stage(timings, "s3_model", build_parametric_model, spec, plan)
    stage(timings, "s4_synthesis", synthesize, model, ga or GaConfig(seed=seed))
    # model size convention: every budget at its cap
    comps = instantiate(model, all_max_assignment(model))
    times = {name: cpu for name, (_, cpu) in timings.items()}
    return times, plan.travel_cost, plan.stats["expansions"], sum(d.n_states for _, d in comps)


def _best_of(n_tasks: int, n_agents: int, passes: list[list[tuple]]) -> CellResult:
    """A cell from ``SWEEP_PASSES`` runs of every seed: each seed keeps the
    minimum time of each stage.  Every pass must do the same work, the
    deterministic companion of the timings."""
    cell = CellResult(n_tasks, n_agents)
    for runs in zip(*passes):
        times, travel, expansions, states = runs[0]
        if any((r[1], r[2]) != (travel, expansions) for r in runs[1:]):
            raise InternalError(
                f"sweep cell {n_tasks}x{n_agents}: travel cost or expansions differ between passes"
            )
        for name in times:
            cell.samples.setdefault(name, []).append(min(r[0][name] for r in runs))
        cell.travel_costs.append(travel)
        cell.expansions.append(expansions)
        cell.chain_states.append(states)
    return cell


def run_sweep(
    task_counts=(10, 11, 12, 13),
    agent_counts=(2, 4, 6),
    seeds=(11, 12, 13),
    planner_cfg: Optional[PlannerConfig] = None,
    ga: Optional[GaConfig] = None,
) -> list[dict]:
    """Every cell, timed in ``SWEEP_PASSES`` interleaved passes over all
    cells.  A pass runs seed by seed, so the agent counts of one task count
    and seed run next to each other and a slow spell of the host tends to
    hit them alike.  No seed, or an agent count below 1, is an InputError."""
    if not seeds:
        raise InputError("seeds must not be empty")
    if min(agent_counts, default=0) < 1:
        raise InputError(f"agent_counts must be non-empty, each >= 1, got {agent_counts!r}")
    cells = [(t, a) for t in task_counts for a in agent_counts]
    passes = [
        {(t, a, s): _run_pipeline(t, a, s, planner_cfg, ga) for s in seeds for t, a in cells}
        for _ in range(SWEEP_PASSES)
    ]
    return [_best_of(t, a, [[runs[t, a, s] for s in seeds] for runs in passes]).summary() for t, a in cells]


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
