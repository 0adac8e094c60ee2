"""Grounded deterministic planning semantics.

States track agent positions, location emptiness flags, completed tasks and
accumulated travel cost.  Action enabledness follows the mission constraints:
moves need a path, the agent at the origin and an empty destination; task
execution needs co-location, a pending task and agent competency at or above
the allocation threshold.

Emptiness is seeded exactly like the exported planning problem: every
location is empty except those hosting an agent.  When several agents share
a start location, the first one to depart marks it empty even though others
remain; this depot quirk is deliberate (it mirrors the exported model) and
is why the occupancy invariant below is stated for non-depot locations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .spec import ProblemSpec


@dataclass(frozen=True)
class Move:
    agent: str
    origin: str
    dest: str

    def __str__(self):
        return f"Move({self.agent},{self.origin},{self.dest})"


@dataclass(frozen=True)
class Do:
    agent: str
    task: str
    location: str

    def __str__(self):
        return f"Do({self.agent},{self.task},{self.location})"


@dataclass(frozen=True)
class Wait:
    """Schedule filler; never part of a planner trace."""

    agent: str

    def __str__(self):
        return f"Wait({self.agent})"


Action = Union[Move, Do, Wait]


@dataclass(frozen=True)
class WorldState:
    agent_locs: tuple[tuple[str, str], ...]   # (agent id, location), agent-sorted
    empty: frozenset[str]
    done: frozenset[str]
    travel_cost: float = 0.0

    def location_of(self, agent: str) -> str:
        for aid, loc in self.agent_locs:
            if aid == agent:
                return loc
        raise KeyError(agent)

    def key(self):
        """Hashable identity ignoring accumulated cost."""
        return (self.agent_locs, self.empty, self.done)


def initial_state(spec: ProblemSpec) -> WorldState:
    locs = tuple(sorted(spec.initial_locations.items()))
    occupied = {loc for _, loc in locs}
    empty = frozenset(spec.location_ids() - occupied)
    done = frozenset(t.id for t in spec.tasks) - frozenset(spec.pending)
    return WorldState(locs, empty, done, 0.0)


def enabled_actions(spec: ProblemSpec, state: WorldState) -> list[Action]:
    """All actions applicable in `state`, in canonical order (Do before Move,
    each sorted by agent then target)."""
    gamma = spec.constraints.gamma
    dos: list[Action] = []
    moves: list[Action] = []
    for aid, loc in state.agent_locs:
        for task in spec.tasks:
            if task.id in state.done or task.id not in spec.pending:
                continue
            if task.location == loc and spec.p_success(aid, task.id) >= gamma:
                dos.append(Do(aid, task.id, loc))
        for dest in spec.neighbors(loc):
            if dest in state.empty:
                moves.append(Move(aid, loc, dest))
    dos.sort(key=lambda a: (a.agent, a.task))
    moves.sort(key=lambda a: (a.agent, a.dest))
    return dos + moves


def is_enabled(spec: ProblemSpec, state: WorldState, action: Action) -> bool:
    if isinstance(action, Wait):
        return True
    if isinstance(action, Move):
        return (
            spec.has_path(action.origin, action.dest)
            and state.location_of(action.agent) == action.origin
            and action.dest in state.empty
        )
    return (
        state.location_of(action.agent) == action.location
        and spec.task_location(action.task) == action.location
        and action.task not in state.done
        and action.task in spec.pending
        and spec.p_success(action.agent, action.task) >= spec.constraints.gamma
    )


def apply_action(spec: ProblemSpec, state: WorldState, action: Action) -> WorldState:
    """Successor state; raises ValueError on a non-enabled action."""
    if not is_enabled(spec, state, action):
        raise ValueError(f"action not enabled: {action}")
    if isinstance(action, Wait):
        return state
    if isinstance(action, Move):
        locs = tuple(
            (aid, action.dest if aid == action.agent else loc) for aid, loc in state.agent_locs
        )
        empty = (state.empty - {action.dest}) | {action.origin}
        return WorldState(locs, frozenset(empty), state.done, state.travel_cost + spec.distance(action.origin, action.dest))
    return WorldState(state.agent_locs, state.empty, state.done | {action.task}, state.travel_cost)


def is_goal(spec: ProblemSpec, state: WorldState) -> bool:
    return spec.pending <= state.done


def replay(spec: ProblemSpec, actions: Iterable[Action], start: Optional[WorldState] = None) -> WorldState:
    """Apply a sequence of actions from the initial (or given) state."""
    state = initial_state(spec) if start is None else start
    for action in actions:
        state = apply_action(spec, state, action)
    return state


def action_to_json(action: Action) -> dict:
    if isinstance(action, Move):
        return {"type": "move", "agent": action.agent, "from": action.origin, "to": action.dest}
    if isinstance(action, Do):
        return {"type": "do", "agent": action.agent, "task": action.task, "location": action.location}
    return {"type": "wait", "agent": action.agent}
