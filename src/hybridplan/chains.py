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
(`closed_form_chain_metrics`) gives its metrics exactly; that is the one
chain evaluator.  `closed_form_mission_metrics` combines the chains for a
budget dictionary (synthesis's public `evaluate`); synthesis's
genotype path calls the chain form directly, memoised per chain on the
chain's slice of the genotype, and combines the chains in the same order, so
both give the same bits.  The explicit DTMCs (`instantiate`)
feed the model-checking engine, which serves as an oracle and behind
`hybridplan verify`; each is a `pmc.Mdp` with one choice per state, the
same model type as the baseline's MDPs.

A `ParametricPlanModel` is immutable.  Its table of retry slots (the budget
space: chain order, then step order) is built once, when the model is
constructed; every genotype, bound and enumeration reads that one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputError
from .planner import Plan
from .spec import ProblemSpec
from .world import Do, Move
from . import pmc


@dataclass(frozen=True)
class ChainStep:
    """One action of a chain, with its uncertainty data resolved.

    A move is the step without a task: ``ChainStep(distance)``, certain.  A
    task step succeeds on each attempt with probability 0 < p_success <= 1
    (``build_chains`` rejects an incapable agent)."""

    cost: float
    task: Optional[str] = None
    p_success: float = 1.0
    retry_cap: int = 0        # upper bound for the attempt budget (0: single try)


@dataclass(frozen=True)
class RetrySlot:
    task: str
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
        return tuple(RetrySlot(s.task, 1, s.retry_cap) for s in self.steps if s.retry_cap > 0)


@dataclass(frozen=True)
class ParametricPlanModel:
    """Plan augmented with uncertainty; budgets are the free parameters.

    Immutable: ``chains`` is held as a tuple, and the retry slots are built
    once at construction."""

    chains: tuple[AgentChain, ...]
    p_succ_threshold: float
    plan_hash: str
    _slots: tuple[RetrySlot, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "chains", tuple(self.chains))
        object.__setattr__(self, "_slots", tuple(s for chain in self.chains for s in chain.retry_slots))

    def retry_slots(self) -> tuple[RetrySlot, ...]:
        return self._slots

    def bounds(self) -> tuple[tuple[int, int], ...]:
        return tuple((s.lo, s.hi) for s in self._slots)

    def space_size(self) -> int:
        return math.prod(s.hi - s.lo + 1 for s in self._slots)


RetryAssignment = dict[str, int]   # task instance id -> attempt budget


def build_chains(
    spec: ProblemSpec, per_agent: dict[str, list], failures: Optional[dict[str, int]] = None
) -> list[AgentChain]:
    """One chain per agent with actions, in agent-id order.

    ``failures`` (task id -> observed failed attempts) shrinks each retry cap,
    so that a model of the remaining mission budgets only the attempts still
    physically available.
    """
    failures = failures or {}
    chains = []
    for agent_id in sorted(per_agent):
        steps = []
        for act in per_agent[agent_id]:
            if isinstance(act, Move):
                steps.append(ChainStep(spec.distance(act.origin, act.dest)))
            elif isinstance(act, Do):
                cap = spec.capability(agent_id, act.task)
                if cap.p_success <= 0.0:
                    raise ValueError(f"plan assigns {act.task} to incapable agent {agent_id}")
                retry_cap = max(0, cap.max_retries - failures.get(act.task, 0))
                steps.append(ChainStep(cap.cost, act.task, cap.p_success, retry_cap))
        if steps:
            chains.append(AgentChain(agent_id, tuple(steps)))
    return chains


def build_parametric_model(spec: ProblemSpec, plan: Plan) -> ParametricPlanModel:
    """One chain per agent with assigned actions, in plan order."""
    return ParametricPlanModel(
        chains=build_chains(spec, plan.per_agent),
        p_succ_threshold=spec.constraints.p_succ,
        plan_hash=plan.hash_key(),
    )


def validate_assignment(model: ParametricPlanModel, assignment: RetryAssignment):
    """``assignment`` budgets every retry slot of ``model`` by the rule of
    ``checked_budgets``; InputError otherwise."""
    checked_budgets(model, assignment, InputError, "assignment")
    for s in model.retry_slots():
        if s.task not in assignment:
            raise InputError(f"assignment missing budget for '{s.task}'")


def checked_budgets(model: ParametricPlanModel, budgets, error: type, what: str) -> RetryAssignment:
    """``budgets`` once it is a dictionary naming retryable tasks of
    ``model``, each with a JSON integer (not a float, not a boolean) within
    its slot's bounds; ``error(message)`` is raised otherwise.  ``what``
    names the input in that message."""
    if not isinstance(budgets, dict):
        raise error(f"{what} must be a JSON dictionary")
    slots = {slot.task: slot for slot in model.retry_slots()}
    for task, budget in budgets.items():
        if task not in slots:
            raise error(f"{what} names unknown retryable task '{task}'")
        lo, hi = slots[task].lo, slots[task].hi
        if type(budget) is not int or not lo <= budget <= hi:
            raise error(f"{what}: budget of '{task}' must be an integer in [{lo}, {hi}], got {budget!r}")
    return budgets


def all_min_assignment(model: ParametricPlanModel) -> RetryAssignment:
    return {s.task: s.lo for s in model.retry_slots()}


def all_max_assignment(model: ParametricPlanModel) -> RetryAssignment:
    return {s.task: s.hi for s in model.retry_slots()}


# ---------------------------------------------------------------------------
# concrete chain DTMCs


def instantiate_chain(chain: AgentChain, assignment: RetryAssignment) -> pmc.Mdp:
    """Concrete DTMC of one chain under fixed budgets: an `Mdp` with one
    choice per state, whose reward is its step's cost (0 past the budget and at the sinks).

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
        if step.retry_cap > 0:
            for x in range(1, assignment[step.task] + 1):
                index[(i, x)] = len(index)
    success = len(index)
    fail = success + 1
    choices: list = [None] * (fail + 1)

    def nxt(i):
        return success if i + 1 == n else index[(i + 1, 0)]

    for (i, x), sid in index.items():
        step = chain.steps[i]
        p = step.p_success
        if step.retry_cap > 0 and x == assignment[step.task]:
            row, cost = [(fail, 1.0)], 0.0
        elif p >= 1.0:
            row, cost = [(nxt(i), 1.0)], step.cost
        else:
            # a failed single try ends in the sink, a failed counted retry
            # moves to the next counter
            miss = index[(i, x + 1)] if step.retry_cap > 0 else fail
            row, cost = [(nxt(i), p), (miss, 1.0 - p)], step.cost
        choices[sid] = [("step", row, cost)]

    for sink in (success, fail):
        choices[sink] = [("step", [(sink, 1.0)], 0.0)]

    labels = {
        "success": frozenset({success}),
        "done": frozenset({success, fail}),
    }
    initial = index[(0, 0)] if n > 0 else success
    return pmc.Mdp(fail + 1, initial, choices, labels)


def instantiate(model: ParametricPlanModel, assignment: RetryAssignment) -> list[tuple[str, pmc.Mdp]]:
    """Factored concrete model: one chain (an `Mdp` with one choice per
    state) per agent."""
    validate_assignment(model, assignment)
    return [(c.agent, instantiate_chain(c, assignment)) for c in model.chains]


# ---------------------------------------------------------------------------
# closed forms (independent of the explicit-state engine)


# below this per-attempt success, 1 - (1 - p)**b loses digits to rounding
SMALL_P = 1e-3


def task_factors(p: float, budget: int) -> tuple[float, float]:
    """(success probability, expected attempts) of a task step with
    per-attempt success 0 < p <= 1 and ``budget`` attempts.

    With miss chance q = 1 - p the task succeeds with 1 - q**b and makes
    (1 - q**b) / p attempts on average: one power per task step.  Below
    ``SMALL_P``, q rounds away digits of p (to q == 1 below about 1e-16), so
    the success is -expm1(b * log1p(-p)) and the attempts divide by p
    itself."""
    if p < SMALL_P:
        success = -math.expm1(budget * math.log1p(-p))
        return success, success / p
    q = 1.0 - p
    success = 1.0 - q ** budget
    return success, success / (1.0 - q)


def closed_form_chain_metrics(chain: AgentChain, assignment: RetryAssignment) -> tuple[float, float]:
    """(success probability, expected cost) of one chain in one forward
    pass: each task step's factors come from ``task_factors``."""
    reach = 1.0
    cost = 0.0
    for step in chain.steps:
        if step.task is None:
            cost += reach * step.cost
            continue
        p_task, attempts = task_factors(step.p_success, assignment[step.task] if step.retry_cap > 0 else 1)
        cost += reach * step.cost * attempts
        reach *= p_task
    return reach, cost


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

MC_CHUNK = 100_000   # runs sampled per vectorised batch


def simulate_mission_mc(
    model: ParametricPlanModel,
    assignment: RetryAssignment,
    runs: int = 1_000_000,
    seed: int = 0,
) -> dict:
    """Sample missions at attempt granularity with a seeded generator.

    Per run and per budgeted task, the number of attempts needed follows a
    geometric distribution; the task succeeds when that count fits its
    budget.  Costs accumulate along the executed prefix only.
    Returns point estimates plus standard errors.
    """
    if type(runs) is not int or runs < 1:
        raise InputError(f"runs must be an integer >= 1, got {runs!r}")
    validate_assignment(model, assignment)
    rng = np.random.default_rng(seed)
    succ_sum = 0
    cost_sum = 0.0
    cost_sq_sum = 0.0
    remaining = runs
    while remaining > 0:
        size = min(MC_CHUNK, remaining)
        remaining -= size
        mission_ok = np.ones(size, dtype=bool)
        total_cost = np.zeros(size)
        for chain in model.chains:
            alive = np.ones(size, dtype=bool)
            for step in chain.steps:
                if step.task is None:
                    total_cost += np.where(alive, step.cost, 0.0)
                    continue
                budget = assignment[step.task] if step.retry_cap > 0 else 1
                p = step.p_success
                if p >= 1.0:
                    attempts = np.ones(size, dtype=np.int64)
                    ok = np.ones(size, dtype=bool)
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
