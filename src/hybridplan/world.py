"""Grounded deterministic planning semantics.

States track agent positions, location emptiness flags, completed tasks and
accumulated travel cost.  Each mission rule has one home here:
``violation`` states the action preconditions (moves need a path, the agent
at the origin and an empty destination; task execution needs co-location, a
pending task and an agent eligible under the allocation threshold, which
``ProblemSpec.eligible`` decides), and ``initial_state`` seeds emptiness and
completed tasks.  ``is_enabled``, ``enabled_actions``, plan validation and
the PDDL export all read these two.

Emptiness is seeded exactly like the exported planning problem: every
location is empty except those hosting an agent.  When several agents share
a start location, the first one to depart marks it empty even though others
remain; this depot quirk is deliberate (it mirrors the exported model) and
is why the occupancy invariant below is stated for non-depot locations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import InputError
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


def initial_state(spec: ProblemSpec) -> WorldState:
    """The spec's root: agents at their initial locations, every other
    location empty, every task outside ``pending`` done."""
    locs = tuple(sorted(spec.initial_locations.items()))
    occupied = {loc for _, loc in locs}
    empty = frozenset(spec.location_ids() - occupied)
    done = frozenset(t.id for t in spec.tasks) - frozenset(spec.pending)
    return WorldState(locs, empty, done, 0.0)


def violation(spec: ProblemSpec, state: WorldState, action: Action) -> Optional[tuple[str, str]]:
    """``(constraint, message)`` for the first mission constraint ``action``
    breaks in ``state``, or None when it is enabled.

    A move checks C1 (a path joins origin and destination), C2 (the agent
    stands at the origin) and C3 (the destination is empty); a task checks
    C2 (agent and task both at the action's location), C5 (the task is still
    to do: pending and not done) and C4 (``spec.eligible``).  A wait is
    always enabled.
    """
    if isinstance(action, Move):
        if not spec.has_path(action.origin, action.dest):
            return "C1", f"no path {action.origin}->{action.dest}"
        if state.location_of(action.agent) != action.origin:
            return "C2", f"{action.agent} is not at {action.origin}"
        if action.dest not in state.empty:
            return "C3", f"{action.dest} is occupied"
    elif isinstance(action, Do):
        if state.location_of(action.agent) != action.location or spec.task_location(action.task) != action.location:
            return "C2", f"{action.agent} cannot do {action.task} at {action.location}"
        # a task outside ``pending`` was done before the spec's root
        if action.task in state.done or action.task not in spec.pending:
            return "C5", f"{action.task} done twice"
        if not spec.eligible(action.agent, action.task):
            return "C4", f"{action.agent} below allocation threshold for {action.task}"
    return None


def is_enabled(spec: ProblemSpec, state: WorldState, action: Action) -> bool:
    return violation(spec, state, action) is None


def enabled_actions(spec: ProblemSpec, state: WorldState) -> list[Action]:
    """All actions applicable in `state`, in canonical order (Do before Move,
    each sorted by agent then target): every task at an agent's location and
    every move to a neighbour, kept when enabled."""
    dos = [Do(aid, task.id, loc) for aid, loc in state.agent_locs for task in spec.tasks if task.location == loc]
    moves = [Move(aid, loc, dest) for aid, loc in state.agent_locs for dest in spec.neighbors(loc)]
    return [act for act in dos + moves if is_enabled(spec, state, act)]


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


# the fields of each trace action type's JSON, in constructor order
_ACTION_FIELDS = {"move": (Move, ("agent", "from", "to")), "do": (Do, ("agent", "task", "location"))}


def action_from_json(raw) -> Action:
    """The move or task ``action_to_json`` wrote as ``raw``; InputError for
    any other type (a wait is no trace action), a missing or extra key or a
    field that is no string."""
    kind = raw.get("type") if isinstance(raw, dict) else None
    if not isinstance(kind, str) or kind not in _ACTION_FIELDS:
        raise InputError(f"unknown action {raw!r}")
    cls, keys = _ACTION_FIELDS[kind]
    if set(raw) != {"type", *keys} or not all(isinstance(raw[k], str) for k in keys):
        raise InputError(f"malformed {kind} action {raw!r}")
    return cls(*(raw[k] for k in keys))
