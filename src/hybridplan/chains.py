"""Uncertainty augmentation: plans become parametric per-agent Markov chains.

Each active agent's action sequence becomes one chain.  A progress counter c
walks the actions (c = n_act means every assigned action succeeded; n_act+1
is the failure sink).  Every task action whose retry cap is positive gets an
attempt-budget variable bounded by [1, cap]; a budget of b means up to b
probabilistic attempts, after which the chain fails deterministically.  Task
actions with cap 0 are a single Bernoulli attempt.

Rewards sit on transitions: moves cost their path distance, every task
attempt costs the agent's declared task cost.  The deterministic
budget-exhausted transition is bookkeeping into the failure sink and is
free.  Chains absorb at success/failure, so no cost accrues past them.

A chain is a DAG with two absorbing sinks, so one forward pass over its steps
(`closed_form_chain_metrics`) gives its metrics exactly; that is the
evaluator synthesis and adaptation use.  The explicit DTMCs (`instantiate`)
feed the model-checking engine, which serves as an oracle and behind
`hybridplan verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .planner import Plan
from .spec import ProblemSpec
from .world import Do, Move
from . import pmc


@dataclass(frozen=True)
class ChainStep:
    """One action of a chain, with its uncertainty data resolved."""

    kind: str                 # "move" | "do"
    cost: float
    task: Optional[str] = None
    p_success: float = 1.0
    retry_cap: int = 0        # upper bound for the attempt budget (0: single try)


@dataclass(frozen=True)
class RetrySlot:
    agent: str
    task: str
    step_index: int
    lo: int
    hi: int


@dataclass(frozen=True)
class AgentChain:
    agent: str
    steps: tuple[ChainStep, ...]

    @property
    def n_act(self) -> int:
        return len(self.steps)

    @property
    def retry_slots(self) -> tuple[RetrySlot, ...]:
        return tuple(
            RetrySlot(self.agent, s.task, i, 1, s.retry_cap)
            for i, s in enumerate(self.steps)
            if s.kind == "do" and s.retry_cap > 0
        )


@dataclass
class ParametricPlanModel:
    """Plan augmented with uncertainty; budgets are the free parameters."""

    chains: list[AgentChain]
    p_succ_threshold: float
    gamma: float
    plan_hash: str

    def retry_slots(self) -> list[RetrySlot]:
        out = []
        for chain in self.chains:
            out.extend(chain.retry_slots)
        return out

    def slot_tasks(self) -> list[str]:
        return [s.task for s in self.retry_slots()]

    def bounds(self) -> list[tuple[int, int]]:
        return [(s.lo, s.hi) for s in self.retry_slots()]

    def space_size(self) -> int:
        n = 1
        for lo, hi in self.bounds():
            n *= hi - lo + 1
        return n


RetryAssignment = dict[str, int]   # task instance id -> attempt budget


def build_parametric_model(spec: ProblemSpec, plan: Plan) -> ParametricPlanModel:
    """One chain per agent with assigned actions, in plan order."""
    chains = []
    for agent_id in sorted(plan.per_agent):
        actions = plan.per_agent[agent_id]
        if not actions:
            continue
        steps = []
        for act in actions:
            if isinstance(act, Move):
                steps.append(ChainStep("move", spec.distance(act.origin, act.dest)))
            elif isinstance(act, Do):
                p = spec.p_success(agent_id, act.task)
                if p <= 0.0:
                    raise ValueError(f"plan assigns {act.task} to incapable agent {agent_id}")
                steps.append(
                    ChainStep(
                        "do",
                        spec.task_cost(agent_id, act.task),
                        task=act.task,
                        p_success=p,
                        retry_cap=spec.max_retries(agent_id, act.task),
                    )
                )
        chains.append(AgentChain(agent_id, tuple(steps)))
    return ParametricPlanModel(
        chains=chains,
        p_succ_threshold=spec.constraints.p_succ,
        gamma=spec.constraints.gamma,
        plan_hash=plan.hash_key(),
    )


def validate_assignment(model: ParametricPlanModel, assignment: RetryAssignment):
    slots = model.retry_slots()
    slot_tasks = {s.task for s in slots}
    for task, budget in assignment.items():
        if task not in slot_tasks:
            raise ValueError(f"assignment names unknown retry slot '{task}'")
    for s in slots:
        budget = assignment.get(s.task)
        if budget is None:
            raise ValueError(f"assignment missing budget for '{s.task}'")
        if not (s.lo <= budget <= s.hi):
            raise ValueError(f"budget {budget} for '{s.task}' outside [{s.lo},{s.hi}]")


def all_min_assignment(model: ParametricPlanModel) -> RetryAssignment:
    return {s.task: s.lo for s in model.retry_slots()}


def all_max_assignment(model: ParametricPlanModel) -> RetryAssignment:
    return {s.task: s.hi for s in model.retry_slots()}


# ---------------------------------------------------------------------------
# concrete chain DTMCs


def instantiate_chain(chain: AgentChain, assignment: RetryAssignment) -> "pmc.Dtmc":
    """Concrete DTMC of one chain under fixed budgets.

    States: position i (about to run step i), success sink (i = n), failure
    sink, plus per-budgeted-task attempt counters 1..budget.  Counters reset
    between tasks by construction (each budgeted task has its own variable,
    and a fresh task starts at count 0).
    """
    n = chain.n_act
    index: dict[tuple[int, int], int] = {}
    for i in range(n):
        index[(i, 0)] = len(index)
        step = chain.steps[i]
        if step.kind == "do" and step.retry_cap > 0:
            budget = assignment[step.task]
            for x in range(1, budget + 1):
                index[(i, x)] = len(index)
    success = len(index)
    fail = success + 1
    n_states = fail + 1

    trans: list[list[tuple[int, float]]] = [[] for _ in range(n_states)]
    rewards: list[list[float]] = [[] for _ in range(n_states)]

    def nxt(i):
        return success if i + 1 == n else index[(i + 1, 0)]

    for (i, x), sid in index.items():
        step = chain.steps[i]
        if step.kind == "move":
            trans[sid] = [(nxt(i), 1.0)]
            rewards[sid] = [step.cost]
        elif step.retry_cap == 0:
            p = step.p_success
            if p >= 1.0:
                trans[sid] = [(nxt(i), 1.0)]
                rewards[sid] = [step.cost]
            elif p <= 0.0:
                trans[sid] = [(fail, 1.0)]
                rewards[sid] = [step.cost]
            else:
                trans[sid] = [(nxt(i), p), (fail, 1.0 - p)]
                rewards[sid] = [step.cost, step.cost]
        else:
            budget = assignment[step.task]
            if x < budget:
                p = step.p_success
                if p >= 1.0:
                    trans[sid] = [(nxt(i), 1.0)]
                    rewards[sid] = [step.cost]
                elif p <= 0.0:
                    trans[sid] = [(index[(i, x + 1)], 1.0)]
                    rewards[sid] = [step.cost]
                else:
                    trans[sid] = [(nxt(i), p), (index[(i, x + 1)], 1.0 - p)]
                    rewards[sid] = [step.cost, step.cost]
            else:
                trans[sid] = [(fail, 1.0)]
                rewards[sid] = [0.0]

    for sink in (success, fail):
        trans[sink] = [(sink, 1.0)]
        rewards[sink] = [0.0]

    labels = {
        "success": frozenset({success}),
        "done": frozenset({success, fail}),
    }
    initial = index[(0, 0)] if n > 0 else success
    return pmc.Dtmc(
        n_states=n_states,
        initial=initial,
        transitions=trans,
        labels=labels,
        rewards={"cost": rewards},
    )


def instantiate(model: ParametricPlanModel, assignment: RetryAssignment) -> list[tuple[str, "pmc.Dtmc"]]:
    """Factored concrete model: one component chain DTMC per agent."""
    validate_assignment(model, assignment)
    return [(c.agent, instantiate_chain(c, assignment)) for c in model.chains]


# ---------------------------------------------------------------------------
# closed forms (independent of the explicit-state engine)


def _task_success(p: float, budget: int) -> float:
    return 1.0 - (1.0 - p) ** budget


def _expected_attempts(p: float, budget: int) -> float:
    q = 1.0 - p
    if q == 0.0:
        return 1.0
    if q == 1.0:
        return float(budget)
    return (1.0 - q ** budget) / (1.0 - q)


def closed_form_chain_metrics(chain: AgentChain, assignment: RetryAssignment) -> tuple[float, float]:
    """(success probability, expected cost) of one chain via geometric sums."""
    reach = 1.0
    cost = 0.0
    succ = 1.0
    for step in chain.steps:
        if step.kind == "move":
            cost += reach * step.cost
            continue
        budget = assignment[step.task] if step.retry_cap > 0 else 1
        p_task = _task_success(step.p_success, budget)
        cost += reach * step.cost * _expected_attempts(step.p_success, budget)
        succ *= p_task
        reach *= p_task
    return succ, cost


def closed_form_mission_metrics(model: ParametricPlanModel, assignment: RetryAssignment) -> tuple[float, float]:
    """Mission success = product of chain successes; cost = sum of chain costs."""
    succ = 1.0
    cost = 0.0
    for chain in model.chains:
        s, c = closed_form_chain_metrics(chain, assignment)
        succ *= s
        cost += c
    return succ, cost


# ---------------------------------------------------------------------------
# Monte-Carlo cross-validation


def simulate_mission_mc(
    model: ParametricPlanModel,
    assignment: RetryAssignment,
    runs: int = 1_000_000,
    seed: int = 0,
    chunk: int = 100_000,
) -> dict:
    """Sample missions at attempt granularity with a seeded generator.

    Per run and per budgeted task, the number of attempts needed follows a
    geometric distribution; the task succeeds when that count fits its
    budget.  Costs accumulate along the executed prefix only.
    Returns point estimates plus standard errors.
    """
    validate_assignment(model, assignment)
    rng = np.random.default_rng(seed)
    succ_sum = 0
    cost_sum = 0.0
    cost_sq_sum = 0.0
    remaining = runs
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        mission_ok = np.ones(size, dtype=bool)
        total_cost = np.zeros(size)
        for chain in model.chains:
            alive = np.ones(size, dtype=bool)
            for step in chain.steps:
                if step.kind == "move":
                    total_cost += np.where(alive, step.cost, 0.0)
                    continue
                budget = assignment[step.task] if step.retry_cap > 0 else 1
                p = step.p_success
                if p >= 1.0:
                    attempts = np.ones(size, dtype=np.int64)
                    ok = np.ones(size, dtype=bool)
                elif p <= 0.0:
                    attempts = np.full(size, budget, dtype=np.int64)
                    ok = np.zeros(size, dtype=bool)
                else:
                    needed = rng.geometric(p, size=size)
                    ok = needed <= budget
                    attempts = np.minimum(needed, budget)
                total_cost += np.where(alive, attempts * step.cost, 0.0)
                alive = alive & ok
            mission_ok &= alive
        succ_sum += int(mission_ok.sum())
        cost_sum += float(total_cost.sum())
        cost_sq_sum += float((total_cost ** 2).sum())
    p_hat = succ_sum / runs
    cost_hat = cost_sum / runs
    cost_var = max(cost_sq_sum / runs - cost_hat ** 2, 0.0)
    return {
        "runs": runs,
        "success_prob": p_hat,
        "success_se": math.sqrt(max(p_hat * (1 - p_hat), 1e-300) / runs),
        "expected_cost": cost_hat,
        "cost_se": math.sqrt(cost_var / runs),
    }
