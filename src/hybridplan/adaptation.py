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

Every reduction is one pass of the same survivor filter (``_survivors``)
with one rule: an entry budgets more attempts than each task, finished or
running, has failed since its archive's epoch.  One allocation check
(``_allocation_holds``) serves C3 and C4.  A2 and A3 share one synthesis
tail (``_synthesize``).  A floor change (C2) verifies the survivors against
the remaining suffix through one success table per reduction
(``_suffix_success``): built from the one suffix model, it holds each task
step's success factor per entry budget, so every entry's success is a
product of table reads, equal to the closed form's.

Budget bookkeeping: observed failures are per-task facts.  They persist
across NA/A1/A2 (the same underlying actions, counted against any entry's
budget) and reset on A3, which plans fresh attempts.  Entries count
failures from their archive's epoch: A2 snapshots the failure counts, A3
clears them.  A task completed before the epoch has failed no further
since, so every budget allows it.  Trace-order dispatch leaves a failed
attempt unstarted, so the only running task that has failed since the
epoch is the one at the cursor.

The execution harness dispatches the deployed plan slot by slot through
the planner's trace-order dispatcher (``planner.dispatch_slot``, the one that
packs the plan's lanes): an action may start once every earlier trace action
has completed, possibly earlier in the same slot.  Task outcomes are drawn
from a seeded generator; scripted scenario changes inject failures and
requirement changes at fixed times.  Trace-order gating keeps execution
deadlock-free for any sequentially valid plan.  The suffix model is built
by the chains builder (``chains.build_chains``) over the agents' remaining
actions, with retry caps net of observed failures.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .chains import (
    ParametricPlanModel,
    RetrySlot,
    all_min_assignment,
    build_chains,
    build_parametric_model,
    checked_budgets,
    task_factors,
)
from .errors import InputError, NoPlanExists, ScenarioError, UnrecoverableMission
from .planner import Plan, PlannerConfig, build_plan, dispatch_slot, plan_mission, validate_plan
from .spec import ProblemSpec
from .synthesis import ArchiveEntry, GaConfig, ParetoArchive, _entry_sort_key, extend_archive, synthesize
from .world import Do, WorldState, action_from_json, action_to_json, initial_state

# Adaptation no longer calls these four, but they stay adaptation attributes:
# benchmark/spans.py wraps them by name.
from .chains import instantiate  # noqa: F401
from .pmc import factored_mission_metrics  # noqa: F401
from .world import apply_action, is_enabled  # noqa: F401

NA, A1, A2, A3 = "NA", "A1", "A2", "A3"
# slots a simulated mission may run before it ends as "step_limit"
MAX_STEPS = 10_000
# the pipeline stages each adaptation level reruns
STAGES = {
    NA: frozenset(),
    A1: frozenset(),
    A2: frozenset({"S3", "S4"}),
    A3: frozenset({"S0", "S1", "S2", "S3", "S4"}),
}
# the JSON key of each change kind's value
VALUE_KEYS = {"C2": "p_succ", "C3": "gamma", "C4": "p"}
# the keys a change record may hold besides time and type
CHANGE_KEYS = {"C1": ("task",), "C2": ("p_succ",), "C3": ("gamma",), "C4": ("agent", "task", "p")}


@dataclass(frozen=True)
class Change:
    kind: str                      # C1..C4
    time: int
    task: Optional[str] = None     # C1, C4
    agent: Optional[str] = None    # C4
    value: Optional[float] = None  # C2: new floor, C3: new threshold, C4: new probability

    def __post_init__(self):
        if self.kind not in ("C1", "C2", "C3", "C4"):
            raise InputError(f"unknown change kind '{self.kind}'")
        if self.time < 0:
            raise InputError("change time must be >= 0")
        if self.kind == "C1" and not self.task:
            raise InputError("C1 requires a task")
        if self.kind in ("C2", "C3", "C4") and self.value is None:
            raise InputError(f"{self.kind} requires a value")
        if self.kind in ("C2", "C3", "C4") and not 0.0 <= self.value <= 1.0:
            raise InputError("probabilities must lie in [0,1]")
        if self.kind in ("C2", "C3") and self.value == 0.0:
            raise InputError(f"{VALUE_KEYS[self.kind]} must lie in (0,1], got {self.value!r}")
        if self.kind == "C4" and (not self.task or not self.agent):
            raise InputError("C4 requires an agent and a task")

    @staticmethod
    def from_json(doc: dict) -> "Change":
        """A scenario change record, checked without coercion: it holds only
        ``time``, ``type`` and its kind's own keys, ``time`` is a JSON integer
        and a probability a JSON number; __post_init__ checks their ranges."""
        if not isinstance(doc, dict):
            raise ScenarioError(f"a change record must be a JSON object, got {doc!r}")
        kind, time = doc.get("type"), doc.get("time")
        if type(time) is not int:
            raise ScenarioError(f"{kind} change: time must be an integer, got {time!r}")
        # a type that is not a string has no keys; Change rejects it
        known = isinstance(kind, str) and kind in CHANGE_KEYS
        if known:
            _object(doc, f"{kind} change at {time}", ("time", "type", *CHANGE_KEYS[kind]))
        key = VALUE_KEYS.get(kind) if known else None
        value = doc.get(key)
        if key and type(value) not in (int, float):
            raise ScenarioError(f"{kind} change at {time}: {key} must be a number, got {value!r}")
        try:
            return Change(
                kind,
                time,
                task=doc.get("task"),
                agent=doc.get("agent"),
                value=None if key is None else float(value),
            )
        except ValueError as exc:
            raise ScenarioError(f"{kind} change at {time}: {exc}") from None

    def to_json(self) -> dict:
        out = {"time": self.time, "type": self.kind, "task": self.task, "agent": self.agent}
        if self.kind in VALUE_KEYS:
            out[VALUE_KEYS[self.kind]] = self.value
        return {k: v for k, v in out.items() if v is not None}


@dataclass
class Progress:
    """Executed-prefix bookkeeping for the deployed plan."""

    clock: int
    failures: dict    # task id -> observed failures
    done: int         # the dispatcher's cursor: actions of the plan's total order started

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
    archive: ParetoArchive
    deployed: ArchiveEntry
    progress: Progress
    world: WorldState
    epoch_failures: dict = field(default_factory=dict)  # failure counts at the epoch
    ga: GaConfig = field(default_factory=GaConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)

    def failures_since_epoch(self, task: str) -> int:
        return self.progress.failure_count(task) - self.epoch_failures.get(task, 0)

    def completed(self) -> frozenset:
        """The spec's pending tasks that have finished.  A3 roots its spec
        after the tasks finished before it, so those drop out here."""
        return self.world.done & self.spec.pending


@dataclass
class AdaptationOutcome:
    level: str
    reduced_size: int
    new_entry: Optional[ArchiveEntry] = None
    new_plan: Optional[Plan] = None
    new_archive: Optional[ParetoArchive] = None
    new_model: Optional[ParametricPlanModel] = None
    new_spec: Optional[ProblemSpec] = None

    @property
    def stages_rerun(self) -> frozenset:
        return STAGES[self.level]


# ---------------------------------------------------------------------------
# executed-prefix consistency and suffix modelling


def _entry_budget(entry: ArchiveEntry, task: str) -> int:
    # tasks without a retry slot run a single attempt
    return entry.retries.get(task, 1)


def build_suffix_model(ctx: ExecutionContext) -> ParametricPlanModel:
    """Parametric model of the remaining mission, conditioned on progress:
    each agent's actions of the trace past the dispatch cursor, in trace
    order, with retry caps shrunk by the observed failures so that only
    attempts still available are budgeted."""
    remaining: dict[str, list] = {a: [] for a in ctx.plan.per_agent}
    for act in ctx.plan.total_order[ctx.progress.done:]:
        remaining[act.agent].append(act)
    return ParametricPlanModel(
        chains=build_chains(ctx.spec, remaining, ctx.progress.failures),
        p_succ_threshold=ctx.spec.constraints.p_succ,
        plan_hash=ctx.plan.hash_key() + f"@{ctx.progress.clock}",
    )


class _StepFactors(dict):
    """Success factor of one suffix task step by an entry's raw budget,
    computed on first use.  The raw budget nets out the failures ``used``
    since the entry's epoch; a remainder below the slot's floor leaves no
    attempt, factor 0.0 (every other factor is positive).  A step without a
    slot is one attempt, whatever the entry budgets."""

    def __init__(self, p: float, used: int, slot: Optional[RetrySlot]):
        self.p, self.used, self.slot = p, used, slot

    def __missing__(self, raw: int) -> float:
        if self.slot is None:
            factor = task_factors(self.p, 1)[0]
        elif raw - self.used < self.slot.lo:
            factor = 0.0
        else:
            factor = task_factors(self.p, min(raw - self.used, self.slot.hi))[0]
        self[raw] = factor
        return factor


def _suffix_success(ctx: ExecutionContext, model: ParametricPlanModel) -> Callable[[ArchiveEntry], float]:
    """Success of an archive entry on the suffix ``model``, read from one
    table built here: per chain, its task steps' factors.  An entry's
    success multiplies its factors in step order and the chains in chain
    order, as ``closed_form_mission_metrics`` does, so it equals that form
    on the entry's budgets net of failures since its epoch (0.0 when some
    step has no attempt left)."""
    slots = {slot.task: slot for slot in model.retry_slots()}
    table = [
        [
            (step.task, _StepFactors(step.p_success, ctx.failures_since_epoch(step.task), slots.get(step.task)))
            for step in chain.steps
            if step.task is not None
        ]
        for chain in model.chains
    ]

    def success(entry: ArchiveEntry) -> float:
        budget = entry.retries.get
        succ = 1.0
        for steps in table:
            reach = 1.0
            for task, factors in steps:
                reach *= factors[budget(task, 1)]
            succ *= reach
        return succ

    return success


def remaining_success(ctx: ExecutionContext, entry: ArchiveEntry) -> float:
    """Suffix success probability under the entry's budgets, conditioned on
    the executed prefix (attempts already consumed are gone)."""
    return _suffix_success(ctx, build_suffix_model(ctx))(entry)


# ---------------------------------------------------------------------------
# archive reductions (Analyse phase)


def _survivors(ctx: ExecutionContext) -> list[ArchiveEntry]:
    """Archive entries consistent with the executed prefix, by the one rule:
    the entry budgets more attempts than each task, finished or running,
    has failed since the archive's epoch.  Under trace-order dispatch the
    only running task with such failures is the one at the cursor."""
    used = [(task, n) for task in ctx.progress.failures if (n := ctx.failures_since_epoch(task)) > 0]
    return [e for e in ctx.archive.entries if all(_entry_budget(e, task) > n for task, n in used)]


def _allocation_holds(ctx: ExecutionContext, spec_after: ProblemSpec) -> bool:
    """Every remaining assignment of the deployed plan clears the allocation
    threshold of ``spec_after``."""
    completed = ctx.completed()
    return all(spec_after.eligible(agent, task) for task, agent in ctx.plan.allocation.items() if task not in completed)


def reduce_ps_tf(ctx: ExecutionContext, task: str) -> list[ArchiveEntry]:
    """Task failure: the survivors.  Trace-order dispatch makes ``task`` the
    only running task that has failed since the epoch, and its failure is
    already counted, so each survivor budgets a retry of it."""
    return _survivors(ctx)


def reduce_ps_psucc(ctx: ExecutionContext, new_floor: float) -> list[ArchiveEntry]:
    """Success-floor change: the survivors whose success on the remaining
    suffix, conditioned on the executed prefix, clears the new floor."""
    success = _suffix_success(ctx, build_suffix_model(ctx))
    return [e for e in _survivors(ctx) if success(e) >= new_floor]


def reduce_ps_passign(ctx: ExecutionContext, spec_after: ProblemSpec) -> list[ArchiveEntry]:
    """Allocation-threshold change to ``spec_after``: every entry follows the
    same allocation, so one disqualified remaining assignment empties all."""
    return _survivors(ctx) if _allocation_holds(ctx, spec_after) else []


def reduce_ps_ptask(ctx: ExecutionContext, agent: str, task: str) -> Optional[list[ArchiveEntry]]:
    """Per-(agent,task) probability change.  Outside the deployed suffix the
    archive stands; inside it every entry was verified under the old
    probability, so nothing survives (None) and the suffix is re-modelled,
    or replanned when the allocation no longer clears the threshold."""
    if ctx.plan.allocation.get(task) == agent and task not in ctx.completed():
        return None
    return _survivors(ctx)


def select_new_plan(entries: list[ArchiveEntry]) -> ArchiveEntry:
    """Deterministic policy: minimal cost, then maximal success probability,
    then lexicographically smallest genotype."""
    if not entries:
        raise ValueError("cannot select from an empty plan set")
    return min(entries, key=_entry_sort_key)


# ---------------------------------------------------------------------------
# the adaptation algorithm (Plan phase)


def adapt(ctx: ExecutionContext, change: Change) -> AdaptationOutcome:
    """Dispatch one monitored change; returns the outcome without mutating
    the context (the execution loop owns applying it).  A change naming
    what the mission lacks is a ScenarioError (``validate_scenario``)."""
    if change.time < ctx.progress.clock:
        raise InputError("change lies in the past")
    validate_scenario(ctx.spec, [change])

    spec_after = ctx.spec
    if change.kind == "C1":
        reduced = reduce_ps_tf(ctx, change.task)
    elif change.kind == "C2":
        spec_after = ctx.spec.with_runtime_state(p_succ=change.value)
        reduced = reduce_ps_psucc(ctx, change.value)
    elif change.kind == "C3":
        spec_after = ctx.spec.with_runtime_state(gamma=change.value)
        reduced = reduce_ps_passign(ctx, spec_after)
    else:  # C4
        spec_after = ctx.spec.with_runtime_state(p_overrides={(change.agent, change.task): change.value})
        reduced = reduce_ps_ptask(ctx, change.agent, change.task)
        if reduced is None:
            if not _allocation_holds(ctx, spec_after):
                return _full_replan(ctx, spec_after)
            return _resynthesize_suffix(replace(ctx, spec=spec_after))

    if any(e.genotype == ctx.deployed.genotype for e in reduced):
        return AdaptationOutcome(NA, len(reduced), new_spec=spec_after)
    if reduced:
        pick = select_new_plan(reduced)
        return AdaptationOutcome(A1, len(reduced), new_entry=pick, new_spec=spec_after)
    return _full_replan(ctx, spec_after)


def _synthesize(ctx: ExecutionContext, model: ParametricPlanModel) -> Optional[ParetoArchive]:
    """Budget synthesis on a fresh model, seeded apart for each clock tick;
    None when no budget vector is feasible."""
    archive = synthesize(model, replace(ctx.ga, seed=ctx.ga.seed + ctx.progress.clock + 1))
    return None if archive.is_empty() else archive


def _resynthesize_suffix(ctx: ExecutionContext) -> AdaptationOutcome:
    """A2: rebuild the parametric model on the remaining suffix and rerun
    synthesis, producing a fresh archive; a full replan when that fails.
    A suffix without a retry slot leaves no budget to re-synthesise, so it
    escalates to the full replan too."""
    model = build_suffix_model(ctx)
    archive = _synthesize(ctx, model) if model.retry_slots() else None
    if archive is None:
        return _full_replan(ctx, ctx.spec)
    return AdaptationOutcome(
        A2,
        len(archive.entries),
        new_entry=select_new_plan(archive.entries),
        new_archive=archive,
        new_model=model,
        new_spec=ctx.spec,
    )


def _full_replan(ctx: ExecutionContext, spec_after: ProblemSpec) -> AdaptationOutcome:
    """A3: rerun the whole pipeline from the current world state."""
    new_spec = spec_after.with_runtime_state(dict(ctx.world.agent_locs), spec_after.pending - ctx.completed())
    try:
        plan = plan_mission(new_spec, ctx.planner)
    except NoPlanExists as exc:
        raise UnrecoverableMission(f"replanning failed: {exc}") from exc

    model = build_parametric_model(new_spec, plan)
    archive = _synthesize(ctx, model)
    if archive is None:
        raise UnrecoverableMission(
            "replanning found no feasible budget vector"
            if model.retry_slots()
            else "replanned mission cannot meet the success floor"
        )
    return AdaptationOutcome(
        A3,
        0,
        new_entry=select_new_plan(archive.entries),
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
    reduced_size: int

    @property
    def stages_rerun(self) -> frozenset:
        return STAGES[self.level]

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
    result: str                   # "success" | "stalled" | "step_limit" (replan failures raise)
    clock: int
    travel_cost: float

    @property
    def events(self) -> list[TraceEvent]:
        """Every adaptation event, in the order the steps recorded them."""
        return [e for step in self.steps for e in step.events]

    def levels(self) -> list[str]:
        return [e.level for e in self.events]

    @property
    def stage_counts(self) -> dict[str, int]:
        """How many adaptations reran each pipeline stage."""
        return dict(sorted(Counter(s for e in self.events for s in e.stages_rerun).items()))

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


def validate_scenario(spec: ProblemSpec, changes: list[Change]):
    """The one check of changes against the mission: time-ordered, at most
    one per time unit, naming only the mission's agents and tasks, and a C4
    only on a pair whose agent has a capability for the task.  Raises
    ScenarioError."""
    times = [c.time for c in changes]
    if times != sorted(times):
        raise ScenarioError("scenario changes must be time-ordered")
    if len(set(times)) != len(times):
        raise ScenarioError("at most one change per time unit")
    # tuples, not sets: a name read from JSON may be unhashable
    tasks, agents = tuple(t.id for t in spec.tasks), tuple(a.id for a in spec.agents)
    for c in changes:
        if c.task is not None and c.task not in tasks:
            raise ScenarioError(f"{c.kind} change at {c.time} names unknown task {c.task!r}")
        if c.agent is not None and c.agent not in agents:
            raise ScenarioError(f"{c.kind} change at {c.time} names unknown agent {c.agent!r}")
        if c.kind == "C4" and not spec.has_capability(c.agent, c.task):
            raise ScenarioError(f"C4 change at {c.time}: agent {c.agent!r} has no capability for task {c.task!r}")


def simulate(
    spec: ProblemSpec,
    plan: Plan,
    model: ParametricPlanModel,
    archive: ParetoArchive,
    deploy: ArchiveEntry,
    changes: list[Change],
    seed: int = 0,
    ga: Optional[GaConfig] = None,
    planner_cfg: Optional[PlannerConfig] = None,
) -> Trace:
    """Execute the deployed plan against scripted changes.

    Task outcomes sample Bernoulli(p) from a seeded generator; a scripted C1
    forces the matching attempt to fail.  Every observed failure and every
    scripted requirement change runs the adaptation algorithm.  Deterministic
    for fixed inputs and seed.  The changes are checked against the mission
    (``validate_scenario``) before the first dispatch.  A run still going
    after ``MAX_STEPS`` slots ends as ``step_limit``.  ``model`` is the
    deployed plan's model; the loop does not read it (each decision builds
    the suffix model it needs), but it stays a positional parameter.
    """
    validate_scenario(spec, changes)
    rng = np.random.default_rng(seed)
    ctx = ExecutionContext(
        spec=spec,
        plan=plan,
        archive=archive,
        deployed=deploy,
        progress=Progress(0, {}, 0),
        world=initial_state(spec),
        ga=ga or GaConfig(),
        planner=planner_cfg or PlannerConfig(),
    )
    queue = list(changes)
    steps: list[TraceStep] = []
    result = "step_limit"   # unless the loop breaks on success or a blocked plan

    def apply_outcome(out: AdaptationOutcome, change: Change):
        step_events.append(TraceEvent(ctx.progress.clock, change, out.level, out.reduced_size))
        if out.new_spec is not None:
            ctx.spec = out.new_spec
        if out.level == NA:
            return
        ctx.deployed = out.new_entry
        if out.level == A1:
            return
        # A2/A3: a fresh archive whose budgets count attempts from now on
        ctx.archive = out.new_archive
        if out.level == A2:
            ctx.epoch_failures = dict(ctx.progress.failures)
            return
        # A3: fresh plan from the current world state, fresh attempt ledger
        ctx.plan = out.new_plan
        ctx.epoch_failures = {}
        ctx.progress.failures = {}
        ctx.progress.done = 0

    forced_fail: Optional[str] = None   # task of this slot's scripted C1

    def attempt(act: Do) -> bool:
        # a scripted failure takes the place of this attempt's draw
        nonlocal forced_fail
        if forced_fail == act.task:
            forced_fail = None
            return False
        return bool(rng.random() < ctx.spec.p_success(act.agent, act.task))

    while ctx.progress.clock < MAX_STEPS:
        t = ctx.progress.clock
        step_events: list[TraceEvent] = []
        forced_fail = None

        due = [c for c in queue if c.time == t]
        queue = [c for c in queue if c.time != t]
        for change in due:
            if change.kind == "C1":
                forced_fail = change.task
            else:
                apply_outcome(adapt(ctx, change), change)

        ctx.world, acted, ctx.progress.done = dispatch_slot(
            ctx.spec, ctx.world, ctx.plan.total_order, ctx.progress.done, attempt
        )
        for act, ok in acted.values():
            if not ok:  # a failed attempt stops the slot's scan, so it comes last
                ctx.progress.failures[act.task] = ctx.progress.failure_count(act.task) + 1
                change = Change("C1", t, task=act.task)
                apply_outcome(adapt(ctx, change), change)

        if forced_fail is not None:
            raise ScenarioError(
                f"scripted failure of '{forced_fail}' at time {t}, but no attempt ran then"
            )

        steps.append(
            TraceStep(
                t,
                [
                    (a, action_to_json(act), ("success" if ok else "failure") if isinstance(act, Do) else None)
                    for a, (act, ok) in sorted(acted.items())
                ],
                dict(ctx.world.agent_locs),
                step_events,
            )
        )
        ctx.progress.clock = t + 1

        finished = ctx.progress.done == len(ctx.plan.total_order)
        if finished and not queue:
            result = "success"
            break
        if not acted and not queue and not finished:
            result = "stalled"
            break

    return Trace(
        steps=steps,
        result=result,
        clock=ctx.progress.clock,
        travel_cost=ctx.world.travel_cost,
    )


# ---------------------------------------------------------------------------
# scenario files


SCENARIO_KEYS = ("seed", "changes", "ga", "planner", "plan", "seed_entries", "deploy")


def _object(raw, what: str, keys) -> dict:
    """``raw`` once it is a JSON object naming only ``keys``."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ScenarioError(f"{what} names unknown keys {unknown}")
    return raw


def run_scenario(spec: ProblemSpec, scenario: dict) -> Trace:
    """Full pipeline + simulation for a JSON scenario document.

    Schema: {"seed": int, "changes": [{time, type, ...}], "ga": {...}?,
    "planner": {...}?, "plan": [action, ...]?,
    "seed_entries": [{task: budget, ...}]?,
    "deploy": {"require_budget": {task: budget}}?}.

    plan is the deployed sequential trace as ``action_to_json`` objects, so
    the changes' times do not depend on the planner's tie order; without it
    the mission is planned.  It must be a valid plan of the mission
    (``validate_plan``).  A3 replans always search.  seed_entries are extra
    budget vectors verified and folded into the archive before deployment,
    so a scenario can pin the deployed vector.  Unknown keys, values of the
    wrong JSON type (a present ``deploy`` that is not an object among
    them), changes out of time order, changes naming agents or tasks the
    mission does not have, a C4 on a pair whose agent has no capability for
    the task and a malformed or invalid plan are a ScenarioError before
    synthesis; budgets, which need the model's slots, are checked once it is
    built.  No key sets the step limit: it is ``MAX_STEPS``.
    """
    _object(scenario, "a scenario", SCENARIO_KEYS)
    seed = scenario.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise ScenarioError(f"seed must be an integer >= 0, got {seed!r}")
    records, seed_entries = scenario.get("changes", []), scenario.get("seed_entries", [])
    if not isinstance(records, list) or not isinstance(seed_entries, list):
        raise ScenarioError("a scenario's changes and seed_entries must be JSON arrays")
    changes = [Change.from_json(c) for c in records]
    validate_scenario(spec, changes)
    ga_raw = _object(scenario.get("ga", {}), "ga", ("population", "evaluations"))
    planner_raw = _object(scenario.get("planner", {}), "planner", ("timeout",))
    deploy_raw = _object(scenario.get("deploy", {}), "deploy", ("require_budget",))
    try:
        ga = GaConfig(**ga_raw, seed=seed)
        planner_cfg = PlannerConfig(**planner_raw)
    except ValueError as exc:
        raise ScenarioError(f"scenario ga or planner: {exc}") from None
    plan = _stored_plan(spec, scenario["plan"]) if "plan" in scenario else plan_mission(spec, planner_cfg)
    model = build_parametric_model(spec, plan)
    archive = synthesize(model, ga)
    if seed_entries:
        assignments = [
            {**all_min_assignment(model), **checked_budgets(model, raw, ScenarioError, "seed entry")}
            for raw in seed_entries
        ]
        archive = extend_archive(model, archive, assignments)
    deploy = _pick_deploy(model, archive, deploy_raw)
    return simulate(
        spec,
        plan,
        model,
        archive,
        deploy,
        changes,
        seed=seed,
        ga=ga,
        planner_cfg=planner_cfg,
    )


def _stored_plan(spec: ProblemSpec, raw) -> Plan:
    """The plan of a scenario's ``plan`` trace, once it is valid."""
    if not isinstance(raw, list):
        raise ScenarioError(f"a scenario's plan must be a JSON array of actions, got {raw!r}")
    try:
        actions = [action_from_json(a) for a in raw]
    except ValueError as exc:
        raise ScenarioError(f"scenario plan: {exc}") from None
    agents, tasks = {a.id for a in spec.agents}, {t.id for t in spec.tasks}
    for i, act in enumerate(actions):
        if act.agent not in agents or isinstance(act, Do) and act.task not in tasks:
            raise ScenarioError(f"scenario plan action {i} ({act}) names an agent or task the mission lacks")
    plan = build_plan(spec, actions)
    broken = validate_plan(spec, plan)
    if broken:
        raise ScenarioError(f"scenario plan is invalid: {broken[0]}")
    return plan


def _pick_deploy(model: ParametricPlanModel, archive: ParetoArchive, raw: dict) -> ArchiveEntry:
    """The cheapest archive entry with the ``require_budget`` budgets of
    ``raw``, the checked ``deploy`` object (the cheapest entry when it names
    none).  Genotypes are unique within an archive, so a full vector picks
    exactly that entry."""
    if archive.is_empty():
        raise UnrecoverableMission("no feasible budget vector to deploy")
    required = checked_budgets(model, raw.get("require_budget", {}), ScenarioError, "deploy.require_budget")
    candidates = [
        e
        for e in archive.entries
        if all(_entry_budget(e, t) == b for t, b in required.items())
    ]
    if not candidates:
        raise ScenarioError(f"no archive entry matches required budgets {required}")
    return select_new_plan(candidates)
