"""Heuristic forward search for feasible minimum-travel plans.

A* over grounded world states with an admissible travel-cost heuristic
produces optimal plans; greedy best-first is available for quick feasible
plans on large instances.  Task execution costs no travel, so whenever a
task action is enabled the search commits to the canonically-first one.
This is safe for travel optimality: executing an available task never
changes positions or emptiness and the goal requires it eventually anyway.

The search runs on a compact encoding compiled once per call: locations,
agents and tasks become indices, a state is (agent positions, empty-location
bitmask, done-task bitmask), and distances, neighbour lists and doable-task
masks are tables.  Emptiness is stored rather than derived from positions
because of the depot quirk in ``world``: the first agent to leave a shared
start location marks it empty while others remain there.  The encoding is a
one-to-one image of ``world``, so plans are the same.  Its successor
generator is the one successor function of the package: the search asks for
the forced-task pruning, the MDP baseline for every enabled action.
``world`` stays the one-step semantics for replay, validation and
adaptation, and the reference the property tests check the encoding against.

The sequential trace is also packed into per-slot parallel lanes.  Actions
dispatch in trace order: an action may start in a slot once every earlier
trace action has started (earlier slot, or earlier in the same slot's scan)
and its preconditions hold; blocked agents get explicit waits.  Gating on
the trace order keeps the packing deadlock-free, which a fixed agent
priority cannot (an agent parked on another's route would stall it forever).
"""

from __future__ import annotations

import heapq
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .errors import NoPlanExists, PlanTimeout
from .spec import ProblemSpec
from .world import (
    Action,
    Do,
    Move,
    Wait,
    WorldState,
    action_from_json,
    action_to_json,
    apply_action,
    initial_state,
    is_enabled,
)
# The search runs on compact states and no longer calls these two, but they
# stay planner attributes: benchmark/spans.py wraps them by name.
from .world import enabled_actions, is_goal  # noqa: F401

STRATEGIES = ("astar", "gbfs")
HEURISTICS = ("blind", "maxmin", "predecessor", "combined")


@dataclass(frozen=True)
class PlannerConfig:
    # the optimisation objective is fixed: minimise total travel distance
    strategy: str = "astar"
    heuristic: str = "combined"
    timeout: float = 120.0
    max_expansions: int = 5_000_000

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy '{self.strategy}'")
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic '{self.heuristic}'")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")


@dataclass
class Plan:
    """Planner output: sequential trace plus derived per-agent views."""

    total_order: list[Action]
    per_agent: dict[str, list[Action]]
    allocation: dict[str, str]            # task instance -> agent
    travel_cost: float
    timed: dict[str, list[Action]] = field(default_factory=dict)  # lanes incl. waits
    # search work counters; not part of the plan's identity or its JSON
    stats: dict = field(default_factory=dict, compare=False)

    def horizons(self) -> dict[str, int]:
        return {a: len(seq) for a, seq in self.per_agent.items() if seq}

    def makespan(self) -> int:
        return max((len(lane) for lane in self.timed.values()), default=0)

    def active_agents(self) -> list[str]:
        return [a for a, seq in self.per_agent.items() if seq]

    def to_json(self) -> dict:
        return {
            "total_order": [action_to_json(a) for a in self.total_order],
            "per_agent": {a: [action_to_json(x) for x in seq] for a, seq in self.per_agent.items() if seq},
            "allocation": dict(sorted(self.allocation.items())),
            "travel_cost": self.travel_cost,
            "timed": {a: [action_to_json(x) for x in lane] for a, lane in self.timed.items()},
        }

    @staticmethod
    def from_json(doc: dict) -> "Plan":
        return Plan(
            total_order=[action_from_json(a) for a in doc["total_order"]],
            per_agent={a: [action_from_json(x) for x in seq] for a, seq in doc["per_agent"].items()},
            allocation=dict(doc["allocation"]),
            travel_cost=float(doc["travel_cost"]),
            timed={a: [action_from_json(x) for x in lane] for a, lane in doc.get("timed", {}).items()},
        )

    def hash_key(self) -> str:
        import hashlib

        body = json.dumps([action_to_json(a) for a in self.total_order], sort_keys=True)
        return hashlib.sha256(body.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# compact encoding


INF = float("inf")


def shortest_path_distances(spec: ProblemSpec) -> dict[str, dict[str, float]]:
    """All-pairs shortest path distances (Dijkstra from every location)."""
    dist: dict[str, dict[str, float]] = {}
    for src in spec.location_ids():
        d = {src: 0.0}
        pq = [(0.0, src)]
        while pq:
            cur, node = heapq.heappop(pq)
            if cur > d.get(node, float("inf")):
                continue
            for nbr in spec.neighbors(node):
                nd = cur + spec.distance(node, nbr)
                if nd < d.get(nbr, float("inf")):
                    d[nbr] = nd
                    heapq.heappush(pq, (nd, nbr))
        dist[src] = d
    return dist


class _Compact:
    """A mission compiled to integer indices for the search.

    Locations, agents and tasks are numbered in sorted-id order.  A state is
    ``(positions, empty, done)``: the agents' location indices, a bitmask of
    empty locations and a bitmask of done tasks (non-pending tasks start
    done).  It is a one-to-one image of ``WorldState.key()``.
    """

    def __init__(self, spec: ProblemSpec):
        self.loc_ids = sorted(spec.location_ids())
        self.agent_ids = [a.id for a in spec.agents]
        self.task_ids = [t.id for t in spec.tasks]
        index = {lid: i for i, lid in enumerate(self.loc_ids)}
        self.loc_index = index
        self.task_loc = [index[t.location] for t in spec.tasks]
        sp = shortest_path_distances(spec)
        self.dist = [[sp[src].get(dst, INF) for dst in self.loc_ids] for src in self.loc_ids]
        self.neighbors = [
            [(index[dst], spec.distance(lid, dst)) for dst in spec.neighbors(lid)] for lid in self.loc_ids
        ]
        gamma = spec.constraints.gamma
        self.capable = [
            tuple(i for i, a in enumerate(spec.agents) if spec.p_success(a.id, t.id) >= gamma) for t in spec.tasks
        ]
        self.pending = sum(1 << i for i, t in enumerate(spec.tasks) if t.id in spec.pending)
        # doable[agent][location]: pending tasks there the agent may execute (C4)
        self.doable = [[0] * len(self.loc_ids) for _ in self.agent_ids]
        for t, agents in enumerate(self.capable):
            if self.pending >> t & 1:
                for a in agents:
                    self.doable[a][self.task_loc[t]] |= 1 << t
        self.start = self.encode(initial_state(spec))

    def encode(self, state: WorldState) -> tuple:
        locs = dict(state.agent_locs)
        positions = tuple(self.loc_index[locs[aid]] for aid in self.agent_ids)
        empty = sum(1 << self.loc_index[lid] for lid in state.empty)
        done = sum(1 << i for i, tid in enumerate(self.task_ids) if tid in state.done)
        return positions, empty, done

    def decode(self, key: tuple, travel_cost: float = 0.0) -> WorldState:
        positions, empty, done = key
        return WorldState(
            tuple((aid, self.loc_ids[p]) for aid, p in zip(self.agent_ids, positions)),
            frozenset(lid for i, lid in enumerate(self.loc_ids) if empty >> i & 1),
            frozenset(tid for i, tid in enumerate(self.task_ids) if done >> i & 1),
            travel_cost,
        )

    def successors(self, key: tuple, forced: bool) -> list[tuple]:
        """``(action code, child, step cost)`` triples in ``world`` order:
        every doable task in (agent, task) order, then every move in (agent,
        destination) order.  With ``forced`` the first doable task is the
        only successor if there is one (the planner's forced-task pruning).
        A move empties its origin even when other agents still stand there
        (the depot quirk), which is why emptiness is part of the state."""
        positions, empty, done = key
        out = []
        n_tasks = len(self.task_ids)
        for a, loc in enumerate(positions):
            todo = self.doable[a][loc] & ~done
            if todo and forced:
                t = (todo & -todo).bit_length() - 1
                return [(~(a * n_tasks + t), (positions, empty, done | 1 << t), 0.0)]
            while todo:
                bit = todo & -todo
                todo ^= bit
                out.append((~(a * n_tasks + bit.bit_length() - 1), (positions, empty, done | bit), 0.0))
        n_locs = len(self.loc_ids)
        for a, loc in enumerate(positions):
            for dest, step in self.neighbors[loc]:
                if empty >> dest & 1:
                    moved = positions[:a] + (dest,) + positions[a + 1:]
                    out.append((a * n_locs + dest, (moved, empty ^ 1 << dest | 1 << loc, done), step))
        return out

    def action(self, key: tuple, code: int) -> Action:
        """The world action that ``code`` names in state ``key``."""
        if code < 0:
            a, t = divmod(~code, len(self.task_ids))
            return Do(self.agent_ids[a], self.task_ids[t], self.loc_ids[self.task_loc[t]])
        a, dest = divmod(code, len(self.loc_ids))
        return Move(self.agent_ids[a], self.loc_ids[key[0][a]], self.loc_ids[dest])


# ---------------------------------------------------------------------------
# heuristics


class _Heuristic:
    """Admissible travel lower bounds over undone tasks, on compact states.

    maxmin: some capable agent must still reach the farthest undone task.
    predecessor: each undone task location is entered by a final leg from
    either an agent position or another undone task location, and those
    legs are disjoint; summing per-location minimal legs is a lower bound.
    combined: max of the two.

    What depends on the done set alone is cached per done mask: the undone
    task locations grouped by capable-agent set, and each undone location's
    minimal leg from the other undone locations.  What depends on positions
    alone is cached per position tuple: for each agent set, the distance from
    its nearest member to every location.  A call then only combines the two.
    The predecessor sum runs in sorted-location order, so its rounding is the
    same however the state was reached.
    """

    def __init__(self, problem: _Compact, kind: str):
        self.problem = problem
        self.kind = kind
        everyone = tuple(range(len(problem.agent_ids)))
        self.sets = list(dict.fromkeys([c for c in problem.capable if c] + [everyone]))
        self.everyone = self.sets.index(everyone)
        self._by_done: dict[int, tuple] = {}
        self._by_positions: dict[tuple, list] = {}

    def _undone(self, done: int) -> tuple:
        """(agent-set index, target locations) groups and (location, minimal
        leg from another undone location) pairs, both in index order."""
        p = self.problem
        tasks = [t for t in range(len(p.task_ids)) if p.pending >> t & 1 and not done >> t & 1]
        if any(not p.capable[t] for t in tasks):
            return None, None  # some task nobody may execute
        targets: dict[int, dict] = {}
        for t in tasks:
            targets.setdefault(self.sets.index(p.capable[t]), {})[p.task_loc[t]] = None
        locs = sorted({p.task_loc[t] for t in tasks})
        legs = [(loc, min([p.dist[o][loc] for o in locs if o != loc], default=INF)) for loc in locs]
        return [(s, list(ls)) for s, ls in targets.items()], legs

    def _nearest(self, positions: tuple) -> list:
        dist = self.problem.dist
        out = []
        for agents in self.sets:
            rows = [dist[positions[a]] for a in agents]
            out.append(rows[0] if len(rows) == 1 else list(map(min, *rows)))
        return out

    def __call__(self, state: tuple) -> float:
        if self.kind == "blind":
            return 0.0
        positions, _, done = state
        cached = self._by_done.get(done)
        if cached is None:
            cached = self._by_done[done] = self._undone(done)
        groups, legs = cached
        if groups is None:
            return INF
        if not groups:
            return 0.0
        nearest = self._by_positions.get(positions)
        if nearest is None:
            nearest = self._by_positions[positions] = self._nearest(positions)

        h_max = 0.0
        for s, locs in groups:
            row = nearest[s]
            for loc in locs:
                if row[loc] > h_max:
                    h_max = row[loc]
        if h_max == INF:
            return INF  # some task unreachable by every capable agent
        if self.kind == "maxmin":
            return h_max

        row = nearest[self.everyone]
        h_pred = 0.0
        for loc, best in legs:
            h_pred += row[loc] if row[loc] < best else best
        if h_pred == INF or self.kind == "predecessor":
            return h_pred
        return max(h_max, h_pred)


# ---------------------------------------------------------------------------
# search


def plan_mission(spec: ProblemSpec, cfg: Optional[PlannerConfig] = None) -> Plan:
    """Search for a plan completing every pending task.

    astar returns a travel-optimal plan (admissible heuristic, re-opening
    on cheaper paths); gbfs returns a feasible plan fast.  Raises
    NoPlanExists when the goal is unreachable and PlanTimeout past the
    configured budget.  The plan's ``stats`` count expansions, generated
    successors, re-opened states (a cheaper path to a state already
    generated) and the start state's heuristic value ``h0``.
    """
    cfg = cfg or PlannerConfig()
    problem = _Compact(spec)
    h = _Heuristic(problem, cfg.heuristic)
    start = problem.start
    h0 = h(start)
    if h0 == INF:
        raise NoPlanExists("some pending task is unreachable or unassignable")

    counter = itertools.count()
    # state -> (best g, predecessor, action code); the start has no predecessor
    best: dict = {start: (0.0, None, None)}
    astar = cfg.strategy == "astar"
    # (f, tie-break, push order, g, state): A* ranks by (g + h, h), gbfs by h
    heap = [(h0, h0 if astar else 0.0, next(counter), 0.0, start)]
    push, pop = heapq.heappush, heapq.heappop
    successors, pending = problem.successors, problem.pending
    deadline = time.monotonic() + cfg.timeout
    expansions = generated = reopened = 0

    while heap:
        _, _, _, g, state = pop(heap)
        if g > best[state][0]:
            continue  # stale entry
        if state[2] & pending == pending:
            plan = build_plan(spec, _extract_actions(problem, state, best))
            plan.stats = {"expansions": expansions, "generated": generated, "reopened": reopened, "h0": h0}
            return plan
        expansions += 1
        if expansions % 1024 == 0 and time.monotonic() > deadline:
            raise PlanTimeout(f"planner exceeded {cfg.timeout}s after {expansions} expansions")
        if expansions > cfg.max_expansions:
            raise PlanTimeout(f"planner exceeded {cfg.max_expansions} expansions")
        for code, child, step in successors(state, True):
            generated += 1
            cg = g + step
            seen = best.get(child)
            if seen is None or cg < seen[0]:
                if seen is not None:
                    reopened += 1
                best[child] = (cg, state, code)
                ch = h(child)
                if ch == INF:
                    continue
                if astar:
                    push(heap, (cg + ch, ch, next(counter), cg, child))
                else:
                    push(heap, (ch, 0.0, next(counter), cg, child))

    raise NoPlanExists("goal unreachable from the initial configuration")


def _extract_actions(problem: _Compact, goal: tuple, best: dict) -> list[Action]:
    actions: list[Action] = []
    _, prev, code = best[goal]
    while prev is not None:
        actions.append(problem.action(prev, code))
        _, prev, code = best[prev]
    actions.reverse()
    return actions


def build_plan(spec: ProblemSpec, actions: list[Action]) -> Plan:
    """Assemble a Plan from a sequential trace; derives per-agent views,
    allocation and parallel lanes.  Tolerates invalid traces (travel falls
    back to 0 for non-paths, lanes stay empty if packing cannot progress) so
    that validate_plan can report the violations."""
    per_agent: dict[str, list[Action]] = {a.id: [] for a in spec.agents}
    allocation: dict[str, str] = {}
    travel = 0.0
    for act in actions:
        per_agent[act.agent].append(act)
        if isinstance(act, Do):
            allocation[act.task] = act.agent
        elif isinstance(act, Move) and spec.has_path(act.origin, act.dest):
            travel += spec.distance(act.origin, act.dest)
    plan = Plan(list(actions), per_agent, allocation, travel)
    try:
        plan.timed = timed_schedule(spec, plan)
    except RuntimeError:
        plan.timed = {}
    return plan


# ---------------------------------------------------------------------------
# parallel packing


def timed_schedule(spec: ProblemSpec, plan: Plan) -> dict[str, list[Action]]:
    """Pack the sequential trace into per-agent lanes of one action per slot.

    Trace-order gating: an action starts once all earlier trace actions have
    started (same slot allowed, scanned in trace order) and its world
    preconditions hold; otherwise its agent waits that slot.
    """
    order = plan.total_order
    n = len(order)
    started = [False] * n
    lanes: dict[str, list[Action]] = {a: [] for a in plan.per_agent if plan.per_agent[a]}
    state = initial_state(spec)
    dispatched = 0
    guard = 0
    while dispatched < n:
        busy: set[str] = set()
        acted_this_slot: dict[str, Action] = {}
        for i, act in enumerate(order):
            if started[i]:
                continue
            agent = act.agent
            if agent in busy:
                break  # later trace actions must not overtake this one
            try:
                nxt = apply_action(spec, state, act)
            except ValueError:
                break
            state = nxt
            started[i] = True
            dispatched += 1
            busy.add(agent)
            acted_this_slot[agent] = act
        for agent, lane in lanes.items():
            lane.append(acted_this_slot.get(agent, Wait(agent)))
        guard += 1
        if guard > 4 * n + 16:
            raise RuntimeError("parallel packing failed to make progress")
    for lane in lanes.values():
        while lane and isinstance(lane[-1], Wait):
            lane.pop()
    return lanes


# ---------------------------------------------------------------------------
# validation & metrics


@dataclass(frozen=True)
class PlanViolation:
    constraint: str     # C1..C5 or "timed"
    index: int          # trace index or slot
    message: str

    def __str__(self):
        return f"[{self.constraint}] @{self.index}: {self.message}"


def validate_plan(spec: ProblemSpec, plan: Plan) -> list[PlanViolation]:
    """Replay-based check of the mission constraints plus a per-slot
    occupancy check of the timed lanes; empty list means the plan is valid."""
    out: list[PlanViolation] = []
    state = initial_state(spec)
    for i, act in enumerate(plan.total_order):
        if isinstance(act, Move):
            if not spec.has_path(act.origin, act.dest):
                out.append(PlanViolation("C1", i, f"no path {act.origin}->{act.dest}"))
                continue
            if state.location_of(act.agent) != act.origin:
                out.append(PlanViolation("C2", i, f"{act.agent} is not at {act.origin}"))
                continue
            if act.dest not in state.empty:
                out.append(PlanViolation("C3", i, f"{act.dest} is occupied"))
                continue
        elif isinstance(act, Do):
            if state.location_of(act.agent) != act.location or spec.task_location(act.task) != act.location:
                out.append(PlanViolation("C2", i, f"{act.agent} cannot do {act.task} at {act.location}"))
                continue
            if act.task in state.done:
                out.append(PlanViolation("C5", i, f"{act.task} done twice"))
                continue
            if spec.p_success(act.agent, act.task) < spec.constraints.gamma:
                out.append(
                    PlanViolation("C4", i, f"{act.agent} below allocation threshold for {act.task}")
                )
                continue
        state = apply_action(spec, state, act) if is_enabled(spec, state, act) else state
    missing = (spec.pending - state.done)
    if missing:
        out.append(PlanViolation("C5", len(plan.total_order), f"unfinished tasks: {sorted(missing)}"))

    # per-slot occupancy over the timed lanes (end-of-slot positions);
    # shared start locations are excluded, matching the seeding semantics
    if plan.timed:
        positions = dict(spec.initial_locations)
        depot = set(spec.initial_locations.values())
        for slot in range(max(len(l) for l in plan.timed.values())):
            for agent, lane in plan.timed.items():
                if slot < len(lane) and isinstance(lane[slot], Move):
                    positions[agent] = lane[slot].dest
            occupied: dict[str, str] = {}
            for agent, loc in positions.items():
                if loc in occupied and loc not in depot:
                    out.append(
                        PlanViolation("timed", slot, f"{agent} and {occupied[loc]} co-located at {loc}")
                    )
                occupied[loc] = agent
    return out


def plan_metrics(plan: Plan) -> dict:
    return {
        "travel_cost": plan.travel_cost,
        "horizons": plan.horizons(),
        "makespan": plan.makespan(),
    }
