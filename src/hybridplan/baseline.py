"""Whole-problem MDP baseline.

Builds allocation, scheduling, retries and stochastic task outcomes into a
single explicit MDP: the scheduler nondeterministically picks any enabled
agent action; task attempts resolve stochastically; per-(agent,task) failure
counters exhaust the declared retry cap into mission failure.  A task failed
to exhaustion by one agent fails the mission even if another agent could
still do it, mirroring the chain semantics so comparisons stay like-for-like
(stricter than a reallocate-on-failure reading, which would solve a
different problem).

The builder reports blow-ups through StateBudgetExceeded carrying the state
count reached; hitting the budget on realistic missions is an expected
result, not a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LimitExceeded, StateBudgetExceeded
from .pmc import Mdp, expected_reward, induced_chain, reach_probability
from .spec import ProblemSpec
from .world import Do, Move, WorldState, apply_action, enabled_actions, initial_state

RUNNING, SUCCESS, FAIL = 0, 1, 2


@dataclass(frozen=True)
class JointState:
    world: WorldState
    counters: tuple[tuple[str, str, int], ...]   # per capable (agent, task) failure counts
    terminal: int

    def key(self):
        return (self.world.key(), self.counters, self.terminal)


def build_full_mdp(spec: ProblemSpec, state_budget: int = 500_000) -> Mdp:
    """Explicit MDP over joint states; raises StateBudgetExceeded on blow-up."""
    counter_pairs = sorted(
        (a.id, t.id)
        for a in spec.agents
        for t in spec.tasks
        if t.id in spec.pending and spec.p_success(a.id, t.id) >= spec.constraints.gamma
    )
    world0 = initial_state(spec)
    start = JointState(
        world0,
        tuple((a, t, 0) for a, t in counter_pairs),
        SUCCESS if spec.pending <= world0.done else RUNNING,
    )

    index: dict = {start.key(): 0}
    states = [start]
    choices: list = []
    frontier = [start]

    def intern(js: JointState) -> int:
        k = js.key()
        if k not in index:
            if len(states) >= state_budget:
                raise StateBudgetExceeded(
                    f"full MDP exceeded the {state_budget}-state budget", len(states)
                )
            index[k] = len(states)
            states.append(js)
            frontier.append(js)
        return index[k]

    def bump(counters, agent, task):
        return tuple(
            (a, t, c + 1) if (a, t) == (agent, task) else (a, t, c) for a, t, c in counters
        )

    def count_of(counters, agent, task):
        for a, t, c in counters:
            if (a, t) == (agent, task):
                return c
        return 0

    while frontier:
        js = frontier.pop()
        sid = index[js.key()]
        while len(choices) <= sid:
            choices.append(None)
        if js.terminal != RUNNING:
            choices[sid] = [("stay", [(sid, 1.0)], [0.0])]
            continue

        acts = enabled_actions(spec, js.world)
        rows = []
        for act in acts:
            if isinstance(act, Move):
                njs = JointState(apply_action(spec, js.world, act), js.counters, RUNNING)
                rows.append(
                    (str(act), [(intern(njs), 1.0)], [spec.distance(act.origin, act.dest)])
                )
            elif isinstance(act, Do):
                p = spec.p_success(act.agent, act.task)
                cost = spec.task_cost(act.agent, act.task)
                succ_world = apply_action(spec, js.world, act)
                succ_terminal = SUCCESS if spec.pending <= succ_world.done else RUNNING
                succ_js = JointState(succ_world, js.counters, succ_terminal)
                cap = spec.max_retries(act.agent, act.task)
                used = count_of(js.counters, act.agent, act.task)
                if p >= 1.0:
                    rows.append((str(act), [(intern(succ_js), 1.0)], [cost]))
                else:
                    if used + 1 >= cap or cap == 0:
                        fail_js = JointState(js.world, js.counters, FAIL)
                    else:
                        fail_js = JointState(js.world, bump(js.counters, act.agent, act.task), RUNNING)
                    rows.append(
                        (
                            str(act),
                            [(intern(succ_js), p), (intern(fail_js), 1.0 - p)],
                            [cost, cost],
                        )
                    )
        if not rows:
            # mutually blocked agents with pending tasks: a dead state; keep the
            # MDP well-formed with a free self-loop (never reaches success)
            rows = [("stall", [(sid, 1.0)], [0.0])]
        choices[sid] = rows

    n = len(states)
    labels = {
        "success": frozenset(
            i for i, js in enumerate(states) if js.terminal == SUCCESS
        ),
        "done": frozenset(i for i, js in enumerate(states) if js.terminal != RUNNING),
    }
    return Mdp(n, 0, choices, labels)


def baseline_queries(mdp: Mdp, bound: int = 20, tol: float = 1e-10) -> dict:
    """The two single-objective queries used for baseline comparison."""
    from .pmc import mdp_max_reach_prob, mdp_min_bounded_reward

    return {
        "p_max": mdp_max_reach_prob(mdp, "success", tol),
        "r_min_bounded": mdp_min_bounded_reward(mdp, bound),
        "bound": bound,
        "states": mdp.n_states,
    }


def enumerate_policies(mdp: Mdp, limit: int = 200_000, tol: float = 1e-10) -> dict:
    """Exact Pareto points over memoryless deterministic policies.

    Enumerates action assignments over policy-reachable states by
    backtracking; each complete policy induces a chain solved for success
    probability and expected cost to absorption.  Policies that do not
    absorb almost surely get infinite cost.  Raises LimitExceeded past
    `limit` complete policies.
    """
    mdp.check()
    n = mdp.n_states

    policies: list[dict[int, int]] = []

    def successors(state: int, choice: int):
        _, row, _ = mdp.choices[state][choice]
        return [j for j, p in row if p > 0.0]

    def expand(assignment: dict[int, int], pending: tuple[int, ...]):
        # pending: reached states without an assigned choice yet
        todo = [s for s in pending if s not in assignment]
        if not todo:
            if len(policies) >= limit:
                raise LimitExceeded(f"policy enumeration exceeded {limit}")
            policies.append(dict(assignment))
            return
        s = todo[-1]
        rest = tuple(todo[:-1])
        for choice in range(len(mdp.choices[s])):
            assignment[s] = choice
            new = tuple(
                j for j in successors(s, choice) if j not in assignment and j not in rest and j != s
            )
            expand(assignment, rest + new)
            del assignment[s]

    expand({}, (mdp.initial,))

    points = []
    for pol in policies:
        chain = induced_chain(mdp, pol)
        succ = reach_probability(chain, "success", tol)
        try:
            cost = expected_reward(chain, "cost", "done", tol)
        except Exception:
            cost = math.inf
        points.append((cost, succ))

    pareto = []
    for c, s in sorted(set(points)):
        if not any((c2 <= c and s2 >= s and (c2 < c or s2 > s)) for c2, s2 in points):
            pareto.append((c, s))
    return {
        "policies": len(policies),
        "points": sorted(set(points)),
        "pareto": pareto,
    }
