"""Whole-problem MDP baseline.

Builds allocation, scheduling, retries and stochastic task outcomes into a
single explicit MDP: the scheduler nondeterministically picks any enabled
agent action; task attempts resolve stochastically; per-(agent,task) failure
counters exhaust the declared retry cap into mission failure.  A task failed
to exhaustion by one agent fails the mission even if another agent could
still do it, mirroring the chain semantics so comparisons stay like-for-like
(stricter than a reallocate-on-failure reading, which would solve a
different problem).

The world part of a state is the planner's packed key (one int: done-task
mask, empty-location mask, one location field per agent; emptiness is kept
as a mask because agents sharing a start location leave it marked empty once
the first departs) and its actions come from the planner's successor
generator without the forced-task pruning, so
the planner and the baseline share one successor function, and a task
action's probability, cost and retry cap come from the planner's capability
table.  The scheduler may pick any enabled action, so every one of them is a
choice.  Successors and choice names depend on the world part alone, so
each world part is numbered on first sight and its rows are built once, on
its first expansion; joint states are keyed by world number.  Rows are immutable
tuples, and each choice carries one reward: a move's step or a task
attempt's cost, whatever the attempt's outcome.

The builder reports blow-ups through StateBudgetExceeded carrying the state
count reached; hitting the budget on realistic missions is an expected
result, not a bug.

`p_max` is solved on the rows of a greedy policy routed breadth-first from
the target in the compiled MDP; policy enumeration solves one induced chain
per policy (`pmc.induced_chain`, an `Mdp` with one choice per state, compiled
once for both of its queries); `synthesis.pareto_front` filters its points.
"""

from __future__ import annotations

import math

from .errors import InfiniteRewardError, InputError, LimitExceeded, StateBudgetExceeded
from .planner import _Compact
from .pmc import Mdp, expected_reward, induced_chain, reach_probability
from .spec import ProblemSpec
from .synthesis import pareto_front
# The builder runs on compact states and no longer calls this, but it stays
# a baseline attribute: benchmark/spans.py wraps it by name.
from .world import enabled_actions  # noqa: F401

RUNNING, SUCCESS, FAIL = 0, 1, 2


def build_full_mdp(spec: ProblemSpec, state_budget: int = 500_000) -> Mdp:
    """Explicit MDP over joint states; raises StateBudgetExceeded on blow-up
    and InputError for a budget below one state.

    A joint state is ``(world, counters, terminal)``: the number of the
    packed world key, the non-zero failure counters as sorted ``(Do code,
    count)`` pairs, and the terminal flag.  States are numbered in discovery
    order from a depth-first stack, the initial state first.
    """
    if state_budget < 1:
        raise InputError(f"state budget must be at least 1, got {state_budget!r}")
    problem = _Compact(spec)
    n_tasks, n_locs, pending = len(problem.task_ids), len(problem.loc_ids), problem.pending
    shift, field = problem.shift, problem.field
    names: dict = {}   # (code, origin) -> choice name

    def name(code: int, world: int) -> str:
        k = (code, world >> shift[code // n_locs] & field if code >= 0 else -1)
        if k not in names:
            names[k] = str(problem.action(world, code))
        return names[k]

    def finished(world: int) -> int:
        return SUCCESS if world & pending == pending else RUNNING

    # world part -> number in first-sight order; a world's row templates
    # (name, Do code, child number, child flag, p, 1 - p, cap, reward) are
    # built on its first expansion
    numbers: dict = {}
    worlds: list = []
    templates: dict = {}

    def number(world: int) -> int:
        if world not in numbers:
            numbers[world] = len(worlds)
            worlds.append(world)
        return numbers[world]

    def template(wid: int) -> list:
        world = worlds[wid]
        rows = []
        for code, child, step in problem.successors(world, False):
            # a move keeps p 1: the reward is its step, its child still runs
            p, cost, cap = 1.0, step, 0
            if code < 0:   # Do code ~(agent * n_tasks + task)
                c = problem.capability[~code // n_tasks][~code % n_tasks]
                p, cost, cap = c.p_success, c.cost, c.max_retries
            rows.append((name(code, world), code, number(child), finished(child), p, 1.0 - p, cap, cost))
        return rows

    start = (number(problem.start), (), finished(problem.start))
    index = {start: 0}
    terminal = [start[2]]
    choices: list = [None]
    frontier = [(0, start)]

    def add(key: tuple) -> int:
        """Number a joint state not seen before and queue it."""
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
        sid, (wid, counters, term) = frontier.pop()
        if term != RUNNING:
            choices[sid] = [("stay", ((sid, 1.0),), 0.0)]
            continue
        if wid not in templates:
            templates[wid] = template(wid)
        rows = []
        for label, code, child, child_term, p, q, cap, cost in templates[wid]:
            key = (child, counters, child_term)
            succ = index.get(key)
            if succ is None:
                succ = add(key)
            if p >= 1.0:
                rows.append((label, ((succ, 1.0),), cost))
                continue
            held = dict(counters)
            used = held.get(code, 0)
            if used + 1 >= cap or cap == 0:
                key = (wid, counters, FAIL)
            else:
                held[code] = used + 1
                key = (wid, tuple(sorted(held.items())), RUNNING)
            fail = index.get(key)
            if fail is None:
                fail = add(key)
            rows.append((label, ((succ, p), (fail, q)), cost))
        # no row: mutually blocked agents with pending tasks, a dead state;
        # keep the MDP well-formed with a free self-loop (never reaches success)
        choices[sid] = rows or [("stall", ((sid, 1.0),), 0.0)]

    labels = {
        "success": frozenset(i for i, t in enumerate(terminal) if t == SUCCESS),
        "done": frozenset(i for i, t in enumerate(terminal) if t != RUNNING),
    }
    return Mdp(len(terminal), 0, choices, labels)


def baseline_queries(mdp: Mdp, bound: int = 20) -> dict:
    """The two single-objective queries used for baseline comparison."""
    from .pmc import mdp_max_reach_prob, mdp_min_bounded_reward

    return {
        "p_max": mdp_max_reach_prob(mdp, "success"),
        "r_min_bounded": mdp_min_bounded_reward(mdp, bound),
        "bound": bound,
        "states": mdp.n_states,
    }


def enumerate_policies(mdp: Mdp, limit: int = 200_000) -> dict:
    """Exact Pareto points over memoryless deterministic policies.

    Enumerates action assignments over policy-reachable states depth-first
    with an explicit stack; each complete policy induces a chain solved for
    success probability and expected cost to absorption.  Policies that do
    not absorb almost surely get infinite cost.  Raises LimitExceeded past
    `limit` complete policies.
    """
    mdp.check()

    policies: list[dict[int, int]] = []
    # (assignment, pending): pending lists reached states, some maybe assigned
    stack: list[tuple[dict[int, int], tuple[int, ...]]] = [({}, (mdp.initial,))]
    while stack:
        assignment, pending = stack.pop()
        todo = [s for s in pending if s not in assignment]
        if not todo:
            if len(policies) >= limit:
                raise LimitExceeded(f"policy enumeration exceeded {limit}")
            policies.append(assignment)
            continue
        s = todo[-1]
        rest = tuple(todo[:-1])
        # pushed last choice first, so choices pop in index order
        for choice in reversed(range(len(mdp.choices[s]))):
            _, row, _ = mdp.choices[s][choice]
            new = tuple(j for j, p in row if p > 0.0 and j not in assignment and j not in rest and j != s)
            stack.append(({**assignment, s: choice}, rest + new))

    points = []
    for pol in policies:
        chain = induced_chain(mdp, pol)
        succ = reach_probability(chain, "success")
        try:
            cost = expected_reward(chain, "done")
        except InfiniteRewardError:
            cost = math.inf
        points.append((cost, succ))
    return {
        "policies": len(policies),
        "points": sorted(set(points)),
        "pareto": pareto_front(points),
    }
