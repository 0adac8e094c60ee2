"""Operator command surface.

Subcommands cover the pipeline end to end: validate, plan, synthesize,
verify, simulate, baseline, export-pddl, export-prism and bench.  Every
artifact is written deterministically for fixed inputs and seed; stage
wall-clock and CPU times go only into the run manifest, which is excluded
from any byte-stability expectations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

from . import __version__
from .adaptation import run_scenario
from .baseline import baseline_queries, build_full_mdp, enumerate_policies
from .bench import run_sweep, stage, sweep_to_csv
from .chains import (
    all_max_assignment,
    all_min_assignment,
    build_parametric_model,
    checked_budgets,
    instantiate,
)
from .errors import InputError, InternalError, ScenarioError, SpecError, StateBudgetExceeded
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


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _write(path: Path, text: str):
    path.write_text(text)
    return str(path)


def _emit(doc) -> int:
    """Print a subcommand's result document; the exit code of a success."""
    print(_json(doc))
    return 0


def _planner_config(args) -> PlannerConfig:
    return PlannerConfig(timeout=args.timeout)


def _ga_config(args) -> GaConfig:
    return GaConfig(population=args.pop, evaluations=args.evals, seed=args.seed)


def _plan(args, spec, timings: dict):
    """The searched plan, checked against the mission: a plan that breaks a
    mission rule is a planner fault (InternalError, exit 3), never output."""
    plan = stage(timings, "s2_plan", plan_mission, spec, _planner_config(args))
    violations = validate_plan(spec, plan)
    if violations:
        raise InternalError(f"planner produced an invalid plan: {violations}")
    return plan


def _model(args, spec, timings: dict):
    """The checked plan and its parametric model."""
    plan = _plan(args, spec, timings)
    return plan, stage(timings, "s3_model", build_parametric_model, spec, plan)


def _retry_budgets(model, raw) -> dict[str, int]:
    """Budget vector from a ``--retries`` JSON dictionary: unlisted retryable
    tasks get 1; an unknown task, or a budget that is not an integer within
    its slot's bounds, is a spec error."""
    budgets = checked_budgets(model, json.loads(raw) if raw else {}, SpecError, "--retries")
    return {**all_min_assignment(model), **budgets}


def cmd_validate(args):
    spec = _read_spec(args)
    print(json.dumps({"violations": [vars(v) for v in validate(spec)]}, indent=2))
    return 0


def cmd_plan(args):
    spec, out, timings = _read_spec(args), _out_dir(args), {}
    plan = _plan(args, spec, timings)
    artifacts = {"plan": _write(out / "plan.json", _json(plan.to_json()))}
    _manifest(out, args, artifacts, timings, {"planner": plan.stats})
    return _emit({"metrics": plan_metrics(plan), "artifacts": artifacts})


def cmd_synthesize(args):
    spec, out, timings = _read_spec(args), _out_dir(args), {}
    plan, model = _model(args, spec, timings)
    archive = stage(timings, "s4_synthesis", synthesize, model, _ga_config(args))
    save_archive(archive, out / "archive.json")
    artifacts = {
        "plan": _write(out / "plan.json", _json(plan.to_json())),
        "archive": str(out / "archive.json"),
        "front": _write(out / "front.csv", archive.front_csv()),
    }
    _manifest(out, args, artifacts, timings, {"planner": plan.stats})
    return _emit(
        {
            "front": archive.front(),
            "entries": len(archive.entries),
            "evaluated": archive.evaluated,
            "exhaustive": archive.exhaustive,
            "artifacts": artifacts,
        }
    )


def cmd_verify(args):
    spec = _read_spec(args)
    _, model = _model(args, spec, {})
    metrics = factored_mission_metrics(instantiate(model, _retry_budgets(model, args.retries)))
    return _emit(
        {
            "expected_cost": metrics.expected_cost,
            "success_prob": metrics.success_prob,
            "feasible": metrics.success_prob >= spec.constraints.p_succ,
            "per_chain": [
                {"agent": a, "success_prob": s, "expected_cost": c} for a, s, c in metrics.per_chain
            ],
        }
    )


def cmd_simulate(args):
    spec, out, timings = _read_spec(args), _out_dir(args), {}
    scenario = json.loads(Path(args.scenario).read_text())
    if not isinstance(scenario, dict):
        raise ScenarioError(f"a scenario must be a JSON object, got {scenario!r}")
    if args.seed is None:
        args.seed = scenario.get("seed", 0)   # recorded in the manifest
    scenario["seed"] = args.seed
    trace = stage(timings, "simulate", run_scenario, spec, scenario)
    artifacts = {"trace": _write(out / "trace.jsonl", trace.to_jsonl())}
    _manifest(out, args, artifacts, timings)
    return _emit(
        {
            "result": trace.result,
            "levels": trace.levels(),
            "event_times": [e.time for e in trace.events],
            "stage_counts": trace.stage_counts,
            "clock": trace.clock,
            "travel_cost": trace.travel_cost,
            "artifacts": artifacts,
        }
    )


def cmd_baseline(args):
    mdp = build_full_mdp(_read_spec(args), state_budget=args.state_budget)
    doc = {"queries": baseline_queries(mdp, bound=args.bound)}
    if args.enumerate:
        policies = doc["policies"] = enumerate_policies(mdp, limit=args.limit)
        for key in ("points", "pareto"):   # an infinite cost is written as null
            policies[key] = [(None if math.isinf(cost) else cost, p) for cost, p in policies[key]]
    return _emit(doc)


def cmd_export_pddl(args):
    spec, out = _read_spec(args), _out_dir(args)
    artifacts = {
        "domain": _write(out / "domain.pddl", export_pddl_domain(spec)),
        "problem": _write(out / "problem.pddl", export_pddl_problem(spec)),
    }
    return _emit({"artifacts": artifacts})


def cmd_export_prism(args):
    spec, out = _read_spec(args), _out_dir(args)
    _, model = _model(args, spec, {})
    if args.max_retries:
        assignment = all_max_assignment(model)
    else:
        assignment = _retry_budgets(model, args.retries) if args.retries else None
    artifacts = {
        "model": _write(out / "model.prism", export_model_source(model, assignment)),
        "properties": _write(out / "model.props", export_properties(model)),
    }
    return _emit({"artifacts": artifacts})


def cmd_bench(args):
    out = _out_dir(args)
    rows = run_sweep(
        task_counts=tuple(args.tasks),
        agent_counts=tuple(args.agents),
        seeds=tuple(range(args.seed, args.seed + args.reps)),
        planner_cfg=_planner_config(args),
        ga=_ga_config(args),
    )
    artifacts = {
        "sweep_json": _write(out / "bench.json", _json(rows)),
        "sweep_csv": _write(out / "bench.csv", sweep_to_csv(rows)),
    }
    _manifest(out, args, artifacts, {})
    return _emit({"cells": len(rows), "artifacts": artifacts})


def _manifest(out: Path, args, artifacts: dict, timings: dict, counters: dict | None = None):
    doc = {
        "tool_version": __version__,
        "subcommand": args.command,
        "spec": getattr(args, "spec", None),
        "seed": getattr(args, "seed", None),
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "artifacts": artifacts,
        "stage_seconds": {name: wall for name, (wall, _) in timings.items()},
        "stage_cpu_seconds": {name: cpu for name, (_, cpu) in timings.items()},
    }
    if counters:
        doc["counters"] = counters
    (out / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True, default=str, allow_nan=False))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridplan",
        description="Hybrid mission planning: search, verify, synthesise retry budgets, adapt at runtime.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def planner_flags(p, timeout=PlannerConfig.timeout):
        p.add_argument("--timeout", type=float, default=timeout)

    def ga_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--pop", type=int, default=GaConfig.population)
        p.add_argument("--evals", type=int, default=GaConfig.evaluations)

    def common(p, out=True, planner=True):
        p.add_argument("--spec", required=True, help=f"mission JSON path or bundled fixture {FIXTURES}")
        if out:
            p.add_argument("--out", default="out", help="artifact directory")
        if planner:
            planner_flags(p)

    p = sub.add_parser("validate", help="check a mission specification")
    common(p, out=False, planner=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("plan", help="search for a feasible minimum-travel plan")
    common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("synthesize", help="synthesise Pareto-optimal retry budgets")
    common(p)
    ga_flags(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="verify one retry-budget dictionary")
    common(p, out=False)
    p.add_argument("--retries", help='JSON dictionary, e.g. \'{"t3l4": 2}\' (unlisted tasks get 1)')
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="execute a plan against a scripted scenario")
    common(p, planner=False)   # the scenario's "planner" object configures every search
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--seed", type=int, default=None, help="default: the scenario file's seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("baseline", help="whole-problem MDP queries")
    common(p, out=False, planner=False)
    p.add_argument("--state-budget", type=int, default=500_000)
    p.add_argument("--bound", type=int, default=20)
    p.add_argument("--enumerate", action="store_true", help="also enumerate policies")
    p.add_argument("--limit", type=int, default=200_000)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("export-pddl", help="write the PDDL domain/problem pair")
    common(p, planner=False)
    p.set_defaults(func=cmd_export_pddl)

    p = sub.add_parser("export-prism", help="write the probabilistic model and properties")
    common(p)
    budgets = p.add_mutually_exclusive_group()
    budgets.add_argument("--retries", help="fix budgets (JSON dictionary); omit for parametric output")
    budgets.add_argument("--max-retries", action="store_true", help="fix every budget at its cap")
    p.set_defaults(func=cmd_export_prism)

    p = sub.add_parser("bench", help="scaling sweep with per-stage timings")
    p.add_argument("--out", default="out")
    p.add_argument("--tasks", type=int, nargs="+", default=[10, 11, 12, 13])
    p.add_argument("--agents", type=int, nargs="+", default=[2, 4, 6])
    p.add_argument("--reps", type=int, default=3)
    ga_flags(p)
    planner_flags(p, timeout=600.0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Exit 1 on an ``InputError``, an ``OSError`` or
    malformed JSON; 3 on any other exception, a fault of the toolkit whose
    error document carries the traceback.  argparse exits 2 on a bad argv."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, SpecError) and exc.violations:
            error["error"]["violations"] = [vars(v) for v in exc.violations]
        if isinstance(exc, StateBudgetExceeded):
            error["error"]["states_reached"] = exc.states_reached
        user_fault = isinstance(exc, (InputError, OSError, json.JSONDecodeError))
        if not user_fault:
            error["error"]["traceback"] = traceback.format_exception(exc)
        print(json.dumps(error), file=sys.stderr)
        return 1 if user_fault else 3


if __name__ == "__main__":
    sys.exit(main())
