"""Runtime plan adaptation and the mission execution harness.

The monitor observes four change kinds against a deployed plan: a task
failure (C1), a new mission success floor (C2), a new allocation threshold
(C3), and a new per-(agent,task) success probability (C4).  Each change
first reduces the archive of verified budget vectors to those consistent
with the executed prefix and the changed requirement; if the deployed entry
survives, nothing happens (NA); otherwise a surviving sibling is deployed
(A1), or for C4 the remaining suffix is re-modelled and re-synthesised
(A2); an empty result escalates to a full replan from the current world
state (A3).  Every adaptation is one pass over a finite archive plus at
most one pipeline rerun, so each call terminates.

Budget bookkeeping: observed failures are per-task facts.  They persist
across NA/A1/A2 (the same underlying actions, counted against any entry's
budget) and reset on A3, which plans fresh attempts.  After an A2, archive
genotypes cover only the remaining suffix; tasks completed before that
epoch are no longer constrained by it.

The execution harness dispatches the deployed plan slot by slot.  Actions
start in trace order (an action may start once every earlier trace action
has completed, possibly earlier in the same slot) with task outcomes drawn
from a seeded generator; scripted scenario changes inject failures and
requirement changes at fixed times.  Trace-order gating keeps execution
deadlock-free for any sequentially valid plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .chains import (
    AgentChain,
    ChainStep,
    ParametricPlanModel,
    RetryAssignment,
    build_parametric_model,
    closed_form_mission_metrics,
)
from .errors import NoPlanExists, ScenarioError, UnrecoverableMission
from .planner import Plan, PlannerConfig, plan_mission
from .spec import ProblemSpec
from .synthesis import ArchiveEntry, GaConfig, ParetoArchive, evaluate, synthesize
from .world import Do, Move, WorldState, action_to_json, apply_action, initial_state, is_enabled

# Adaptation no longer calls these two, but they stay adaptation attributes:
# benchmark/spans.py wraps them by name.
from .chains import instantiate  # noqa: F401
from .pmc import factored_mission_metrics  # noqa: F401

STAGES_NONE: frozenset = frozenset()
STAGES_A2 = frozenset({"S3", "S4"})
STAGES_A3 = frozenset({"S0", "S1", "S2", "S3", "S4"})

NA, A1, A2, A3 = "NA", "A1", "A2", "A3"


@dataclass(frozen=True)
class Change:
    kind: str                      # C1..C4
    time: int
    task: Optional[str] = None     # C1, C4
    agent: Optional[str] = None    # C4
    value: Optional[float] = None  # C2: new floor, C3: new threshold, C4: new probability

    def __post_init__(self):
        if self.kind not in ("C1", "C2", "C3", "C4"):
            raise ValueError(f"unknown change kind '{self.kind}'")
        if self.time < 0:
            raise ValueError("change time must be >= 0")
        if self.kind == "C1" and not self.task:
            raise ValueError("C1 requires a task")
        if self.kind in ("C2", "C3", "C4") and self.value is None:
            raise ValueError(f"{self.kind} requires a value")
        if self.kind in ("C2", "C3", "C4") and not 0.0 <= self.value <= 1.0:
            raise ValueError("probabilities must lie in [0,1]")
        if self.kind == "C4" and (not self.task or not self.agent):
            raise ValueError("C4 requires an agent and a task")

    @staticmethod
    def from_json(doc: dict) -> "Change":
        kind = doc["type"]
        if kind == "C1":
            return Change("C1", int(doc["time"]), task=doc["task"])
        if kind == "C2":
            return Change("C2", int(doc["time"]), value=float(doc["p_succ"]))
        if kind == "C3":
            return Change("C3", int(doc["time"]), value=float(doc["gamma"]))
        if kind == "C4":
            return Change(
                "C4", int(doc["time"]), task=doc["task"], agent=doc["agent"], value=float(doc["p"])
            )
        raise ScenarioError(f"unknown change type '{kind}'")

    def to_json(self) -> dict:
        out = {"time": self.time, "type": self.kind}
        if self.kind == "C1":
            out["task"] = self.task
        elif self.kind == "C2":
            out["p_succ"] = self.value
        elif self.kind == "C3":
            out["gamma"] = self.value
        else:
            out.update({"agent": self.agent, "task": self.task, "p": self.value})
        return out


@dataclass
class Progress:
    """Executed-prefix bookkeeping for the deployed plan."""

    clock: int = 0
    completed: set = field(default_factory=set)       # finished task ids
    failures: dict = field(default_factory=dict)      # task id -> observed failures
    pointers: dict = field(default_factory=dict)      # agent -> next per-agent action index

    def failure_count(self, task: str) -> int:
        return self.failures.get(task, 0)


@dataclass
class ExecutionContext:
    """Knowledge base of the adaptation loop (exclusively loop-owned).

    Archive entries budget attempts from the epoch their model was built at
    (deployment, or the last suffix re-synthesis), so consistency checks
    count failures relative to the epoch snapshot, while physical retry caps
    shrink by total observed failures.
    """

    spec: ProblemSpec
    plan: Plan
    model: ParametricPlanModel
    archive: ParetoArchive
    deployed: ArchiveEntry
    progress: Progress
    world: WorldState
    epoch_completed: frozenset = frozenset()   # tasks done before the archive epoch
    epoch_failures: dict = field(default_factory=dict)  # failure counts at the epoch
    ga: GaConfig = field(default_factory=GaConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)

    def failures_since_epoch(self, task: str) -> int:
        return self.progress.failure_count(task) - self.epoch_failures.get(task, 0)


@dataclass
class AdaptationOutcome:
    level: str
    stages_rerun: frozenset
    reduced_size: int
    new_entry: Optional[ArchiveEntry] = None
    new_plan: Optional[Plan] = None
    new_archive: Optional[ParetoArchive] = None
    new_model: Optional[ParametricPlanModel] = None
    new_spec: Optional[ProblemSpec] = None


# ---------------------------------------------------------------------------
# executed-prefix consistency and suffix modelling


def _entry_budget(entry: ArchiveEntry, task: str) -> int:
    # tasks without a retry slot run a single attempt
    return entry.retries.get(task, 1)


def _prefix_consistent(ctx: ExecutionContext, entry: ArchiveEntry) -> bool:
    """The entry's unrolled timeline matches the executed prefix: every task
    completed since the archive epoch used no more attempts than the entry
    budgets allow."""
    for task in ctx.progress.completed:
        if task in ctx.epoch_completed:
            continue
        attempts = ctx.failures_since_epoch(task) + 1
        if _entry_budget(entry, task) < attempts:
            return False
    return True


def _remaining_chains(ctx: ExecutionContext) -> list[AgentChain]:
    """Per-agent chains over the not-yet-completed actions, in plan order.

    Retry caps shrink by observed failures so the suffix only budgets
    attempts that are still physically available.
    """
    chains = []
    for agent in sorted(ctx.plan.per_agent):
        seq = ctx.plan.per_agent[agent]
        if not seq:
            continue
        idx = ctx.progress.pointers.get(agent, 0)
        steps = []
        for act in seq[idx:]:
            if isinstance(act, Move):
                steps.append(ChainStep("move", ctx.spec.distance(act.origin, act.dest)))
            elif isinstance(act, Do):
                if act.task in ctx.progress.completed:
                    continue
                cap = ctx.spec.max_retries(agent, act.task)
                cap = max(0, cap - ctx.progress.failure_count(act.task))
                steps.append(
                    ChainStep(
                        "do",
                        ctx.spec.task_cost(agent, act.task),
                        task=act.task,
                        p_success=ctx.spec.p_success(agent, act.task),
                        retry_cap=cap,
                    )
                )
        if steps:
            chains.append(AgentChain(agent, tuple(steps)))
    return chains


def build_suffix_model(ctx: ExecutionContext) -> ParametricPlanModel:
    """Parametric model of the remaining mission, conditioned on progress."""
    return ParametricPlanModel(
        chains=_remaining_chains(ctx),
        p_succ_threshold=ctx.spec.constraints.p_succ,
        gamma=ctx.spec.constraints.gamma,
        plan_hash=ctx.plan.hash_key() + f"@{ctx.progress.clock}",
    )


def _remaining_assignment(
    ctx: ExecutionContext, model: ParametricPlanModel, entry: ArchiveEntry
) -> Optional[RetryAssignment]:
    """Entry budgets restricted to the suffix, net of failures consumed since
    the entry's epoch; None if some remaining task has no attempts left."""
    out: RetryAssignment = {}
    for slot in model.retry_slots():
        budget = _entry_budget(entry, slot.task) - ctx.failures_since_epoch(slot.task)
        if budget < slot.lo:
            return None
        out[slot.task] = min(budget, slot.hi)
    return out


def remaining_success(ctx: ExecutionContext, entry: ArchiveEntry) -> float:
    """Suffix success probability under the entry's budgets, conditioned on
    the executed prefix (attempts already consumed are gone)."""
    return _remaining_success(ctx, build_suffix_model(ctx), entry)


def _remaining_success(
    ctx: ExecutionContext, model: ParametricPlanModel, entry: ArchiveEntry
) -> float:
    """`remaining_success` against an already built suffix model."""
    if not model.chains:
        return 1.0
    assignment = _remaining_assignment(ctx, model, entry)
    if assignment is None:
        return 0.0
    return closed_form_mission_metrics(model, assignment)[0]


# ---------------------------------------------------------------------------
# archive reductions (Analyse phase)


def reduce_ps_tf(ctx: ExecutionContext, task: str) -> list[ArchiveEntry]:
    """Task failure: keep prefix-consistent entries that still budget a
    retry of the failed task (budget strictly above the failures it has
    consumed since the entry's epoch)."""
    count = ctx.failures_since_epoch(task)
    return [
        e
        for e in ctx.archive.entries
        if _prefix_consistent(ctx, e) and _entry_budget(e, task) > count
    ]


def reduce_ps_psucc(ctx: ExecutionContext, new_floor: float) -> list[ArchiveEntry]:
    """Success-floor change: keep prefix-consistent entries whose success
    probability on the remaining suffix, conditioned on the executed prefix,
    still clears the new floor."""
    model = build_suffix_model(ctx)
    return [
        e
        for e in ctx.archive.entries
        if _prefix_consistent(ctx, e) and _remaining_success(ctx, model, e) >= new_floor
    ]


def reduce_ps_passign(ctx: ExecutionContext, new_gamma: float) -> list[ArchiveEntry]:
    """Allocation-threshold change: every entry follows the same allocation,
    so one disqualified remaining assignment empties the whole set."""
    for task, agent in sorted(ctx.plan.allocation.items()):
        if task in ctx.progress.completed:
            continue
        if ctx.spec.p_success(agent, task) < new_gamma:
            return []
    return [e for e in ctx.archive.entries if _prefix_consistent(ctx, e)]


@dataclass
class PtaskResult:
    entries: Optional[list[ArchiveEntry]] = None
    rebuild: bool = False
    escalate: bool = False


def reduce_ps_ptask(ctx: ExecutionContext, agent: str, task: str, new_p: float) -> PtaskResult:
    """Per-(agent,task) probability change.

    Not in the deployed suffix for that agent: archive unchanged.  At or
    below the allocation threshold: the allocation itself is invalid
    (escalate to a full replan).  Otherwise: rebuild from the
    uncertainty-augmentation stage on the remaining suffix.
    """
    if ctx.plan.allocation.get(task) != agent or task in ctx.progress.completed:
        return PtaskResult(entries=[e for e in ctx.archive.entries if _prefix_consistent(ctx, e)])
    if new_p <= ctx.spec.constraints.gamma:
        return PtaskResult(escalate=True)
    return PtaskResult(rebuild=True)


def select_new_plan(entries: list[ArchiveEntry]) -> ArchiveEntry:
    """Deterministic policy: minimal cost, then maximal success probability,
    then lexicographically smallest genotype."""
    if not entries:
        raise ValueError("cannot select from an empty plan set")
    return sorted(
        entries,
        key=lambda e: (e.objectives.expected_cost, -e.objectives.success_prob, e.genotype),
    )[0]


# ---------------------------------------------------------------------------
# the adaptation algorithm (Plan phase)


def adapt(ctx: ExecutionContext, change: Change) -> AdaptationOutcome:
    """Dispatch one monitored change; returns the outcome without mutating
    the context (the execution loop owns applying it)."""
    if change.time < ctx.progress.clock:
        raise ValueError("change lies in the past")

    spec_after = ctx.spec
    if change.kind == "C1":
        reduced = reduce_ps_tf(ctx, change.task)
    elif change.kind == "C2":
        spec_after = ctx.spec.with_runtime_state(
            ctx.spec.initial_locations, ctx.spec.pending, p_succ=change.value
        )
        reduced = reduce_ps_psucc(ctx, change.value)
    elif change.kind == "C3":
        spec_after = ctx.spec.with_runtime_state(
            ctx.spec.initial_locations, ctx.spec.pending, gamma=change.value
        )
        reduced = reduce_ps_passign(ctx, change.value)
    else:  # C4
        spec_after = ctx.spec.with_runtime_state(
            ctx.spec.initial_locations,
            ctx.spec.pending,
            p_overrides={(change.agent, change.task): change.value},
        )
        result = reduce_ps_ptask(ctx, change.agent, change.task, change.value)
        if result.escalate:
            return _full_replan(ctx, spec_after, reduced_size=0)
        if result.rebuild:
            return _resynthesize_suffix(replace(ctx, spec=spec_after))
        reduced = result.entries

    if any(e.genotype == ctx.deployed.genotype for e in reduced):
        return AdaptationOutcome(NA, STAGES_NONE, len(reduced), new_spec=spec_after)
    if reduced:
        pick = select_new_plan(reduced)
        return AdaptationOutcome(A1, STAGES_NONE, len(reduced), new_entry=pick, new_spec=spec_after)
    return _full_replan(ctx, spec_after, reduced_size=0)


def _resynthesize_suffix(ctx: ExecutionContext) -> AdaptationOutcome:
    """A2: rebuild the parametric model on the remaining suffix and rerun
    synthesis, producing a fresh archive."""
    model = build_suffix_model(ctx)
    if not model.retry_slots():
        return _full_replan(ctx, ctx.spec, reduced_size=0)
    cfg = replace(ctx.ga, seed=ctx.ga.seed + ctx.progress.clock + 1)
    archive = synthesize(model, cfg)
    if archive.is_empty():
        return _full_replan(ctx, ctx.spec, reduced_size=0)
    pick = select_new_plan(archive.entries)
    return AdaptationOutcome(
        A2,
        STAGES_A2,
        len(archive.entries),
        new_entry=pick,
        new_archive=archive,
        new_model=model,
        new_spec=ctx.spec,
    )


def _full_replan(ctx: ExecutionContext, spec_after: ProblemSpec, reduced_size: int) -> AdaptationOutcome:
    """A3: rerun the whole pipeline from the current world state."""
    pending = sorted(
        t.id
        for t in spec_after.tasks
        if t.id in spec_after.pending and t.id not in ctx.progress.completed
    )
    locations = {aid: loc for aid, loc in ctx.world.agent_locs}
    new_spec = spec_after.with_runtime_state(locations, pending)
    try:
        plan = plan_mission(new_spec, ctx.planner)
    except NoPlanExists as exc:
        raise UnrecoverableMission(f"replanning failed: {exc}") from exc

    model = build_parametric_model(new_spec, plan)
    if model.retry_slots():
        cfg = replace(ctx.ga, seed=ctx.ga.seed + ctx.progress.clock + 1)
        archive = synthesize(model, cfg)
        if archive.is_empty():
            raise UnrecoverableMission("replanning found no feasible budget vector")
        pick = select_new_plan(archive.entries)
    else:
        obj = evaluate(model, {})
        if not obj.feasible:
            raise UnrecoverableMission("replanned mission cannot meet the success floor")
        pick = ArchiveEntry((), {}, obj)
        archive = ParetoArchive(model.plan_hash, [pick], 0, {"replan": True}, 1, True)
    return AdaptationOutcome(
        A3,
        STAGES_A3,
        reduced_size,
        new_entry=pick,
        new_plan=plan,
        new_archive=archive,
        new_model=model,
        new_spec=new_spec,
    )


# ---------------------------------------------------------------------------
# execution harness


@dataclass
class TraceEvent:
    time: int
    change: Change
    level: str
    stages_rerun: frozenset
    reduced_size: int

    def to_json(self) -> dict:
        return {
            "time": self.time,
            "change": self.change.to_json(),
            "level": self.level,
            "stages_rerun": sorted(self.stages_rerun),
            "reduced_size": self.reduced_size,
        }


@dataclass
class TraceStep:
    time: int
    actions: list                 # (agent, action json, outcome or None)
    positions: dict
    events: list


@dataclass
class Trace:
    steps: list[TraceStep]
    events: list[TraceEvent]
    result: str                   # "success" | "stalled" (replan failures raise)
    clock: int
    travel_cost: float
    stage_counts: dict

    def levels(self) -> list[str]:
        return [e.level for e in self.events]

    def to_jsonl(self) -> str:
        lines = []
        for step in self.steps:
            lines.append(
                json.dumps(
                    {
                        "record": "step",
                        "time": step.time,
                        "actions": step.actions,
                        "positions": step.positions,
                    },
                    sort_keys=True,
                )
            )
            for ev in step.events:
                lines.append(json.dumps({"record": "event", **ev.to_json()}, sort_keys=True))
        lines.append(
            json.dumps(
                {
                    "record": "summary",
                    "result": self.result,
                    "clock": self.clock,
                    "travel_cost": self.travel_cost,
                    "levels": self.levels(),
                    "stage_counts": self.stage_counts,
                },
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"


def validate_scenario(changes: list[Change]):
    times = [c.time for c in changes]
    if times != sorted(times):
        raise ScenarioError("scenario changes must be time-ordered")
    if len(set(times)) != len(times):
        raise ScenarioError("at most one change per time unit")


def simulate(
    spec: ProblemSpec,
    plan: Plan,
    model: ParametricPlanModel,
    archive: ParetoArchive,
    deploy: ArchiveEntry,
    changes: list[Change],
    seed: int = 0,
    max_steps: int = 10_000,
    ga: Optional[GaConfig] = None,
    planner_cfg: Optional[PlannerConfig] = None,
) -> Trace:
    """Execute the deployed plan against scripted changes.

    Task outcomes sample Bernoulli(p) from a seeded generator; a scripted C1
    forces the matching attempt to fail.  Every observed failure and every
    scripted requirement change runs the adaptation algorithm.  Deterministic
    for fixed inputs and seed.
    """
    validate_scenario(changes)
    rng = np.random.default_rng(seed)
    ctx = ExecutionContext(
        spec=spec,
        plan=plan,
        model=model,
        archive=archive,
        deployed=deploy,
        progress=Progress(pointers={a: 0 for a in plan.per_agent}),
        world=initial_state(spec),
        ga=ga or GaConfig(),
        planner=planner_cfg or PlannerConfig(),
    )
    # trace-order dispatch: the current plan's trace and a done flag per action
    order = list(plan.total_order)
    done = [False] * len(order)
    queue = list(changes)
    steps: list[TraceStep] = []
    events: list[TraceEvent] = []
    stage_counts: dict[str, int] = {}
    result = "stalled"

    def apply_outcome(out: AdaptationOutcome, change: Change):
        nonlocal order, done
        events.append(TraceEvent(ctx.progress.clock, change, out.level, out.stages_rerun, out.reduced_size))
        step_events.append(events[-1])
        for s in out.stages_rerun:
            stage_counts[s] = stage_counts.get(s, 0) + 1
        if out.new_spec is not None:
            ctx.spec = out.new_spec
        if out.level == NA:
            return
        if out.level == A1:
            ctx.deployed = out.new_entry
            return
        if out.level == A2:
            ctx.archive = out.new_archive
            ctx.model = out.new_model
            ctx.deployed = out.new_entry
            ctx.epoch_completed = frozenset(ctx.progress.completed)
            ctx.epoch_failures = dict(ctx.progress.failures)
            return
        # A3: fresh plan from the current world state, fresh attempt ledger
        ctx.plan = out.new_plan
        ctx.model = out.new_model
        ctx.archive = out.new_archive
        ctx.deployed = out.new_entry
        ctx.epoch_completed = frozenset(ctx.progress.completed)
        ctx.epoch_failures = {}
        ctx.progress.failures = {}
        ctx.progress.pointers = {a: 0 for a in out.new_plan.per_agent}
        order = list(out.new_plan.total_order)
        done = [False] * len(order)

    while ctx.progress.clock < max_steps:
        t = ctx.progress.clock
        step_events: list[TraceEvent] = []
        forced_fail: Optional[str] = None

        due = [c for c in queue if c.time == t]
        queue = [c for c in queue if c.time != t]
        for change in due:
            if change.kind == "C1":
                forced_fail = change.task
            else:
                apply_outcome(adapt(ctx, change), change)

        # dispatch this slot in trace order
        acted: dict[str, tuple] = {}
        busy: set[str] = set()
        for i, act in enumerate(order):
            if done[i]:
                continue
            if act.agent in busy:
                break
            if isinstance(act, Move):
                if not is_enabled(ctx.spec, ctx.world, act):
                    break
                ctx.world = apply_action(ctx.spec, ctx.world, act)
                done[i] = True
                ctx.progress.pointers[act.agent] = ctx.progress.pointers.get(act.agent, 0) + 1
                busy.add(act.agent)
                acted[act.agent] = (action_to_json(act), None)
            elif isinstance(act, Do):
                if act.task in ctx.progress.completed:
                    done[i] = True
                    continue
                busy.add(act.agent)
                p = ctx.spec.p_success(act.agent, act.task)
                if forced_fail == act.task:
                    ok = False
                    forced_fail = None
                else:
                    ok = bool(rng.random() < p)
                acted[act.agent] = (action_to_json(act), "success" if ok else "failure")
                if ok:
                    ctx.world = apply_action(ctx.spec, ctx.world, act)
                    done[i] = True
                    ctx.progress.completed.add(act.task)
                    ctx.progress.pointers[act.agent] = ctx.progress.pointers.get(act.agent, 0) + 1
                else:
                    ctx.progress.failures[act.task] = ctx.progress.failure_count(act.task) + 1
                    apply_outcome(adapt(ctx, Change("C1", t, task=act.task)), Change("C1", t, task=act.task))
                    break  # an unfinished action gates everything behind it
            else:
                done[i] = True

        if forced_fail is not None:
            raise ScenarioError(
                f"scripted failure of '{forced_fail}' at time {t}, but no attempt ran then"
            )

        steps.append(
            TraceStep(
                t,
                [(a, *acted[a]) for a in sorted(acted)],
                dict(ctx.world.agent_locs),
                step_events,
            )
        )
        ctx.progress.clock = t + 1

        if all(done) and not queue:
            result = "success"
            break
        if not acted and not queue and not all(done):
            result = "stalled"
            break

    return Trace(
        steps=steps,
        events=events,
        result=result,
        clock=ctx.progress.clock,
        travel_cost=ctx.world.travel_cost,
        stage_counts=stage_counts,
    )


# ---------------------------------------------------------------------------
# scenario files


def run_scenario(spec: ProblemSpec, scenario: dict) -> Trace:
    """Full pipeline + simulation for a JSON scenario document.

    Schema: {"seed": int, "changes": [{time, type, ...}], "ga": {...}?,
    "planner": {...}?, "seed_entries": [{task: budget, ...}]?,
    "deploy": {"retries": {...}} | {"rule": "min_cost_feasible",
    "require_budget": {task: budget}?}}.

    seed_entries are extra budget vectors verified and folded into the
    archive before deployment, so a scenario can pin the deployed vector.
    """
    from .synthesis import extend_archive

    ga_raw = scenario.get("ga", {})
    ga = GaConfig(
        population=ga_raw.get("population", 30),
        evaluations=ga_raw.get("evaluations", 150),
        seed=scenario.get("seed", 0),
    )
    planner_raw = scenario.get("planner", {})
    planner_cfg = PlannerConfig(
        strategy=planner_raw.get("strategy", "astar"),
        timeout=planner_raw.get("timeout", 120.0),
    )
    plan = plan_mission(spec, planner_cfg)
    model = build_parametric_model(spec, plan)
    archive = synthesize(model, ga)
    seed_entries = scenario.get("seed_entries", [])
    if seed_entries:
        slot_tasks = {s.task for s in model.retry_slots()}
        assignments = []
        for raw in seed_entries:
            assignment = {t: 1 for t in slot_tasks}
            assignment.update({k: int(v) for k, v in raw.items()})
            assignments.append(assignment)
        archive = extend_archive(model, archive, assignments)
    deploy = _pick_deploy(archive, scenario.get("deploy"))
    changes = [Change.from_json(c) for c in scenario.get("changes", [])]
    return simulate(
        spec,
        plan,
        model,
        archive,
        deploy,
        changes,
        seed=scenario.get("seed", 0),
        max_steps=scenario.get("max_steps", 10_000),
        ga=ga,
        planner_cfg=planner_cfg,
    )


def _pick_deploy(archive: ParetoArchive, raw) -> ArchiveEntry:
    if archive.is_empty():
        raise UnrecoverableMission("no feasible budget vector to deploy")
    if not raw:
        return select_new_plan(archive.entries)
    if "retries" in raw:
        wanted = {k: int(v) for k, v in raw["retries"].items()}
        for e in archive.entries:
            if e.retries == wanted:
                return e
        raise ScenarioError(f"deploy vector {wanted} is not in the archive")
    rule = raw.get("rule", "min_cost_feasible")
    if rule != "min_cost_feasible":
        raise ScenarioError(f"unknown deploy rule '{rule}'")
    required = {k: int(v) for k, v in raw.get("require_budget", {}).items()}
    candidates = [
        e
        for e in archive.entries
        if all(e.retries.get(t, 1) == b for t, b in required.items())
    ]
    if not candidates:
        raise ScenarioError(f"no archive entry matches required budgets {required}")
    return select_new_plan(candidates)
