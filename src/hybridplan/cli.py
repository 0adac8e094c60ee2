"""Operator command surface.

Subcommands cover the pipeline end to end: validate, plan, synthesize,
verify, simulate, baseline, export-pddl, export-prism and bench.  Every
artifact is written deterministically for fixed inputs and seed; stage
wall-clock times go only into the run manifest, which is excluded from any
byte-stability expectations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .adaptation import run_scenario
from .baseline import baseline_queries, build_full_mdp, enumerate_policies
from .bench import run_sweep, sweep_to_csv
from .chains import all_max_assignment, build_parametric_model, instantiate
from .errors import (
    LimitExceeded,
    NoPlanExists,
    PlanTimeout,
    ScenarioError,
    SpecError,
    StateBudgetExceeded,
    UnrecoverableMission,
)
from .pddl import export_pddl_domain, export_pddl_problem
from .planner import PlannerConfig, plan_metrics, plan_mission, validate_plan
from .pmc import factored_mission_metrics
from .prism import export_model_source, export_properties
from .spec import parse_problem_spec, validate
from .synthesis import GaConfig, save_archive, synthesize
from .fixtures import FIXTURES, fixture_text


def _read_spec(args):
    if args.spec in FIXTURES:
        text = fixture_text(args.spec)
    else:
        text = Path(args.spec).read_text()
    return parse_problem_spec(text)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text)
    return str(path)


def _planner_config(args) -> PlannerConfig:
    return PlannerConfig(strategy=args.strategy, timeout=args.timeout)


def _ga_config(args) -> GaConfig:
    return GaConfig(population=args.pop, evaluations=args.evals, seed=args.seed)


def cmd_validate(args):
    spec = _read_spec(args)
    issues = validate(spec)
    print(json.dumps({"violations": [vars(v) for v in issues]}, indent=2))
    return 0 if not any(v.severity == "error" for v in issues) else 1


def cmd_plan(args):
    spec = _read_spec(args)
    out = _out_dir(args)
    t0 = time.monotonic()
    plan = plan_mission(spec, _planner_config(args))
    elapsed = time.monotonic() - t0
    violations = validate_plan(spec, plan)
    if violations:
        raise RuntimeError(f"planner produced an invalid plan: {violations}")
    artifacts = {"plan": _write(out / "plan.json", json.dumps(plan.to_json(), indent=2, sort_keys=True))}
    if args.pddl:
        artifacts["domain"] = _write(out / "domain.pddl", export_pddl_domain(spec))
        artifacts["problem"] = _write(out / "problem.pddl", export_pddl_problem(spec))
    _manifest(out, "plan", args, artifacts, {"s2_plan": elapsed}, {"planner": plan.stats})
    print(json.dumps({"metrics": plan_metrics(plan), "artifacts": artifacts}, indent=2, sort_keys=True))
    return 0


def cmd_synthesize(args):
    spec = _read_spec(args)
    out = _out_dir(args)
    timings = {}
    t0 = time.monotonic()
    plan = plan_mission(spec, _planner_config(args))
    timings["s2_plan"] = time.monotonic() - t0
    t0 = time.monotonic()
    model = build_parametric_model(spec, plan)
    timings["s3_model"] = time.monotonic() - t0
    t0 = time.monotonic()
    archive = synthesize(model, _ga_config(args))
    timings["s4_synthesis"] = time.monotonic() - t0
    artifacts = {
        "plan": _write(out / "plan.json", json.dumps(plan.to_json(), indent=2, sort_keys=True)),
    }
    save_archive(archive, out / "archive.json")
    artifacts["archive"] = str(out / "archive.json")
    artifacts["front"] = _write(out / "front.csv", archive.front_csv())
    _manifest(out, "synthesize", args, artifacts, timings, {"planner": plan.stats})
    print(
        json.dumps(
            {
                "front": archive.front(),
                "entries": len(archive.entries),
                "evaluated": archive.evaluated,
                "exhaustive": archive.exhaustive,
                "artifacts": artifacts,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_verify(args):
    spec = _read_spec(args)
    plan = plan_mission(spec, _planner_config(args))
    model = build_parametric_model(spec, plan)
    retries = json.loads(args.retries) if args.retries else {}
    assignment = {slot.task: 1 for slot in model.retry_slots()}
    for task, budget in retries.items():
        if task not in assignment:
            raise SpecError(f"unknown retryable task '{task}'")
        assignment[task] = int(budget)
    metrics = factored_mission_metrics(instantiate(model, assignment), tol=args.tol)
    feasible = metrics.success_prob >= spec.constraints.p_succ
    print(
        json.dumps(
            {
                "expected_cost": metrics.expected_cost,
                "success_prob": metrics.success_prob,
                "feasible": feasible,
                "per_chain": [
                    {"agent": a, "success_prob": s, "expected_cost": c}
                    for a, s, c in metrics.per_chain
                ],
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_simulate(args):
    spec = _read_spec(args)
    out = _out_dir(args)
    scenario = json.loads(Path(args.scenario).read_text())
    if args.seed is None:
        args.seed = scenario.get("seed", 0)   # recorded in the manifest
    scenario["seed"] = args.seed
    t0 = time.monotonic()
    trace = run_scenario(spec, scenario)
    elapsed = time.monotonic() - t0
    artifacts = {"trace": _write(out / "trace.jsonl", trace.to_jsonl())}
    _manifest(out, "simulate", args, artifacts, {"simulate": elapsed})
    print(
        json.dumps(
            {
                "result": trace.result,
                "levels": trace.levels(),
                "event_times": [e.time for e in trace.events],
                "stage_counts": trace.stage_counts,
                "clock": trace.clock,
                "travel_cost": trace.travel_cost,
                "artifacts": artifacts,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_baseline(args):
    spec = _read_spec(args)
    mdp = build_full_mdp(spec, state_budget=args.state_budget)
    queries = baseline_queries(mdp, bound=args.bound, tol=args.tol)
    out = {"queries": queries}
    if args.enumerate:
        out["policies"] = enumerate_policies(mdp, limit=args.limit)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_export_pddl(args):
    spec = _read_spec(args)
    out = _out_dir(args)
    artifacts = {
        "domain": _write(out / "domain.pddl", export_pddl_domain(spec)),
        "problem": _write(out / "problem.pddl", export_pddl_problem(spec)),
    }
    print(json.dumps({"artifacts": artifacts}, indent=2, sort_keys=True))
    return 0


def cmd_export_prism(args):
    spec = _read_spec(args)
    out = _out_dir(args)
    plan = plan_mission(spec, _planner_config(args))
    model = build_parametric_model(spec, plan)
    assignment = None
    if args.retries:
        retries = json.loads(args.retries)
        assignment = {slot.task: 1 for slot in model.retry_slots()}
        assignment.update({k: int(v) for k, v in retries.items()})
    if args.max_retries:
        assignment = all_max_assignment(model)
    artifacts = {
        "model": _write(out / "model.prism", export_model_source(model, assignment)),
        "properties": _write(out / "model.props", export_properties(model)),
    }
    print(json.dumps({"artifacts": artifacts}, indent=2, sort_keys=True))
    return 0


def cmd_bench(args):
    out = _out_dir(args)
    rows = run_sweep(
        task_counts=tuple(args.tasks),
        agent_counts=tuple(args.agents),
        seeds=tuple(range(args.seed, args.seed + args.reps)),
        planner_cfg=PlannerConfig(strategy=args.strategy, timeout=args.timeout),
        ga=GaConfig(population=args.pop, evaluations=args.evals, seed=args.seed),
    )
    artifacts = {
        "sweep_json": _write(out / "bench.json", json.dumps(rows, indent=2, sort_keys=True)),
        "sweep_csv": _write(out / "bench.csv", sweep_to_csv(rows)),
    }
    _manifest(out, "bench", args, artifacts, {})
    print(json.dumps({"cells": len(rows), "artifacts": artifacts}, indent=2, sort_keys=True))
    return 0


def _manifest(out: Path, subcommand: str, args, artifacts: dict, timings: dict, counters: dict | None = None):
    doc = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "spec": getattr(args, "spec", None),
        "seed": getattr(args, "seed", None),
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "artifacts": artifacts,
        "stage_seconds": timings,
    }
    if counters:
        doc["counters"] = counters
    (out / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True, default=str))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridplan",
        description="Hybrid mission planning: search, verify, synthesise retry budgets, adapt at runtime.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--spec", required=True, help=f"mission JSON path or bundled fixture {FIXTURES}")
        if out:
            p.add_argument("--out", default="out", help="artifact directory")
        p.add_argument("--strategy", choices=("astar", "gbfs"), default="astar")
        p.add_argument("--timeout", type=float, default=120.0)

    p = sub.add_parser("validate", help="check a mission specification")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plan", help="search for a feasible minimum-travel plan")
    common(p)
    p.add_argument("--pddl", action="store_true", help="also export the PDDL pair")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("synthesize", help="synthesise Pareto-optimal retry budgets")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pop", type=int, default=30)
    p.add_argument("--evals", type=int, default=150)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="verify one retry-budget dictionary")
    common(p, out=False)
    p.add_argument("--retries", help='JSON dictionary, e.g. \'{"t3l4": 2}\' (unlisted tasks get 1)')
    p.add_argument("--tol", type=float, default=1e-10, help="verification tolerance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="execute a plan against a scripted scenario")
    common(p)
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--seed", type=int, default=None, help="default: the scenario file's seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", help="whole-problem MDP queries")
    p.add_argument("--spec", required=True)
    p.add_argument("--state-budget", type=int, default=500_000)
    p.add_argument("--bound", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-10, help="verification tolerance")
    p.add_argument("--enumerate", action="store_true", help="also enumerate policies")
    p.add_argument("--limit", type=int, default=200_000)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("export-pddl", help="write the PDDL domain/problem pair")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_export_pddl)

    p = sub.add_parser("export-prism", help="write the probabilistic model and properties")
    common(p)
    p.add_argument("--retries", help="fix budgets (JSON dictionary); omit for parametric output")
    p.add_argument("--max-retries", action="store_true", help="fix every budget at its cap")
    p.set_defaults(func=cmd_export_prism)

    p = sub.add_parser("bench", help="scaling sweep with per-stage timings")
    p.add_argument("--out", default="out")
    p.add_argument("--tasks", type=int, nargs="+", default=[10, 11, 12, 13])
    p.add_argument("--agents", type=int, nargs="+", default=[2, 4, 6])
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pop", type=int, default=30)
    p.add_argument("--evals", type=int, default=150)
    p.add_argument("--strategy", choices=("astar", "gbfs"), default="astar")
    p.add_argument("--timeout", type=float, default=600.0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        SpecError,
        NoPlanExists,
        PlanTimeout,
        StateBudgetExceeded,
        LimitExceeded,
        ScenarioError,
        UnrecoverableMission,
        FileNotFoundError,
        json.JSONDecodeError,
        RuntimeError,
        ValueError,
    ) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, SpecError) and exc.violations:
            error["error"]["violations"] = [vars(v) for v in exc.violations]
        if isinstance(exc, StateBudgetExceeded):
            error["error"]["states_reached"] = exc.states_reached
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
