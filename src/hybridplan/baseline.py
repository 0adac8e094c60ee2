"""Whole-problem MDP baseline.

Builds allocation, scheduling, retries and stochastic task outcomes into a
single explicit MDP: the scheduler nondeterministically picks any enabled
agent action; task attempts resolve stochastically; per-(agent,task) failure
counters exhaust the declared retry cap into mission failure.  A task failed
to exhaustion by one agent fails the mission even if another agent could
still do it, mirroring the chain semantics so comparisons stay like-for-like
(stricter than a reallocate-on-failure reading, which would solve a
different problem).

The world part of a state is the planner's compact key and its actions come
from the planner's successor generator without the forced-task pruning, so
the planner and the baseline share one successor function.  The scheduler
may pick any enabled action, so every one of them is a choice.

The builder reports blow-ups through StateBudgetExceeded carrying the state
count reached; hitting the budget on realistic missions is an expected
result, not a bug.
"""

from __future__ import annotations

import math

from .errors import InfiniteRewardError, LimitExceeded, StateBudgetExceeded
from .planner import _Compact
from .pmc import Mdp, expected_reward, induced_chain, reach_probability
from .spec import ProblemSpec
# The builder runs on compact states and no longer calls this, but it stays
# a baseline attribute: benchmark/spans.py wraps it by name.
from .world import enabled_actions  # noqa: F401

RUNNING, SUCCESS, FAIL = 0, 1, 2


def build_full_mdp(spec: ProblemSpec, state_budget: int = 500_000) -> Mdp:
    """Explicit MDP over joint states; raises StateBudgetExceeded on blow-up.

    A joint state is ``(world, counters, terminal)``: the compact world key,
    the non-zero failure counters as sorted ``(Do code, count)`` pairs, and
    the terminal flag.  States are numbered in discovery order from a
    depth-first stack, the initial state first.
    """
    problem = _Compact(spec)
    n_tasks, n_locs, pending = len(problem.task_ids), len(problem.loc_ids), problem.pending
    # Do code -> (success probability, cost, retry cap)
    attempts = {}
    for t, tid in enumerate(problem.task_ids):
        for a in problem.capable[t]:
            aid = problem.agent_ids[a]
            attempts[~(a * n_tasks + t)] = (
                spec.p_success(aid, tid), spec.task_cost(aid, tid), spec.max_retries(aid, tid)
            )
    names: dict = {}   # (code, origin) -> choice name

    def name(code: int, positions: tuple) -> str:
        k = (code, positions[code // n_locs] if code >= 0 else -1)
        if k not in names:
            names[k] = str(problem.action((positions,), code))
        return names[k]

    def finished(world: tuple) -> int:
        return SUCCESS if world[2] & pending == pending else RUNNING

    start = (problem.start, (), finished(problem.start))
    index = {start: 0}
    terminal = [start[2]]
    choices: list = [None]
    frontier = [(0, start)]

    def intern(key: tuple) -> int:
        sid = index.get(key)
        if sid is None:
            if len(terminal) >= state_budget:
                raise StateBudgetExceeded(
                    f"full MDP exceeded the {state_budget}-state budget", len(terminal)
                )
            sid = index[key] = len(terminal)
            terminal.append(key[2])
            choices.append(None)
            frontier.append((sid, key))
        return sid

    while frontier:
        sid, (world, counters, term) = frontier.pop()
        if term != RUNNING:
            choices[sid] = [("stay", [(sid, 1.0)], [0.0])]
            continue
        rows = []
        for code, child, step in problem.successors(world, False):
            label = name(code, world[0])
            if code >= 0:
                rows.append((label, [(intern((child, counters, RUNNING)), 1.0)], [step]))
                continue
            p, cost, cap = attempts[code]
            succ = intern((child, counters, finished(child)))
            if p >= 1.0:
                rows.append((label, [(succ, 1.0)], [cost]))
                continue
            held = dict(counters)
            used = held.get(code, 0)
            if used + 1 >= cap or cap == 0:
                fail = (world, counters, FAIL)
            else:
                held[code] = used + 1
                fail = (world, tuple(sorted(held.items())), RUNNING)
            rows.append((label, [(succ, p), (intern(fail), 1.0 - p)], [cost, cost]))
        # no row: mutually blocked agents with pending tasks, a dead state;
        # keep the MDP well-formed with a free self-loop (never reaches success)
        choices[sid] = rows or [("stall", [(sid, 1.0)], [0.0])]

    labels = {
        "success": frozenset(i for i, t in enumerate(terminal) if t == SUCCESS),
        "done": frozenset(i for i, t in enumerate(terminal) if t != RUNNING),
    }
    return Mdp(len(terminal), 0, choices, labels)


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
        except InfiniteRewardError:
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
