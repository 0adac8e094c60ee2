"""Heuristic forward search for feasible minimum-travel plans.

A* over grounded world states with an admissible travel-cost heuristic
produces optimal plans.  Task execution costs no travel, so whenever a
task action is enabled the search commits to the canonically-first one.
This is safe for travel optimality: executing an available task never
changes positions or emptiness and the goal requires it eventually anyway.

A* ranks a child by ``(g + H, H)`` with ``H = max(h, forest)``, where
``h`` is the heuristic (farthest task, predecessor legs) and ``forest`` a
capability-partitioned spanning-forest bound (see ``_Heuristic``): workers
alone may do some tasks and robots alone others, which ``h`` cannot see,
and on the 3x3 grid that, not occupancy, is most of its gap to the optimum.

The search runs on a compact encoding compiled once per call: locations,
agents and tasks become indices, and distances, moves and doable-task masks
are tables.  A state is one int: the done-task mask in the low bits, the
empty-location mask above it, then one fixed-width field per agent holding
its location index (a class of interchangeable agents takes neighbouring
fields).  A dict probe hashes one int, and a child is a bit operation (a
task) or an add and two bit operations (a move).  Emptiness is stored
rather than derived from positions because of the depot quirk in
``world``: the first agent to leave a shared start location marks it empty
while others remain there.  The encoding is a one-to-one image of
``world``, so plans are the same.  Its successor
generator is the one successor function of the package: the search asks for
the forced-task pruning, the MDP baseline for every enabled action.
``world`` stays the one-step semantics for replay, validation and
adaptation, and the reference the property tests check the encoding against.

The search also visits one state per orbit of interchangeable agents (Fox &
Long, IJCAI 1999; Pochter, Zohar & Rosenschein, AAAI 2011).  Agents are
interchangeable when they have the same success probability (after C4
overrides), cost and retry cap on every task; permuting their positions maps
plans to plans of the same travel, and the heuristic is invariant under it.
The search keeps the best g per canonical key (positions sorted within each
class, masks unchanged), so a permutation of a state already reached at no
greater cost is a duplicate.  ``canonical`` defines the key and builds the
start's; every child's key is derived from its parent's, because a task keeps
all positions and a move changes one agent's: ``canon ^ state ^ child``
carries the change over, and a class member's move also puts in its class's
fields sorted.  The heap holds concrete states and each
pushed child keeps its own predecessor link, so the extracted trace names the
agents that actually moved.  ``Plan.stats`` therefore counts canonical
states: one expansion per orbit, not per permutation.  The MDP baseline does
not use the reduction; it stays the unquotiented native model.

The sequential trace is also packed into per-slot parallel lanes.  Actions
dispatch in trace order: an action may start in a slot once every earlier
trace action has started (earlier slot, or earlier in the same slot's scan)
and its preconditions hold; blocked agents get explicit waits.  Gating on
the trace order keeps the packing deadlock-free, which a fixed agent
priority cannot (an agent parked on another's route would stall it forever).
``dispatch_slot`` runs one slot of it and is the one trace-order dispatcher
of the package: ``timed_schedule`` packs lanes with it, and the adaptation
harness executes plans with it, deciding each task attempt's outcome.  What
has started is always a prefix of the trace, so one cursor (its length)
records it.
"""

from __future__ import annotations

import heapq
import itertools
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .errors import ExpansionLimit, InputError, InternalError, NoPlanExists, PlanTimeout
from .spec import ProblemSpec
from .world import (
    Action,
    Do,
    Move,
    Wait,
    WorldState,
    action_to_json,
    apply_action,
    initial_state,
    violation,
)
# The search runs on compact states and no longer calls these two, but they
# stay planner attributes: benchmark/spans.py wraps them by name.
from .world import enabled_actions, is_goal  # noqa: F401

HEURISTICS = ("blind", "combined")


@dataclass(frozen=True)
class PlannerConfig:
    # the optimisation objective is fixed: minimise total travel distance
    heuristic: str = "combined"
    timeout: float = 120.0
    max_expansions: int = 5_000_000

    def __post_init__(self):
        if self.heuristic not in HEURISTICS:
            raise InputError(f"unknown heuristic '{self.heuristic}'")
        # NaN fails both comparisons; inf would let the search run unbounded
        if type(self.timeout) not in (int, float) or not 0 < self.timeout < INF:
            raise InputError(f"timeout must be a finite number > 0, got {self.timeout!r}")
        if type(self.max_expansions) is not int or self.max_expansions < 1:
            raise InputError(f"max_expansions must be an integer >= 1, got {self.max_expansions!r}")


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

    def to_json(self) -> dict:
        return {
            "total_order": [action_to_json(a) for a in self.total_order],
            "per_agent": {a: [action_to_json(x) for x in seq] for a, seq in self.per_agent.items() if seq},
            "allocation": dict(sorted(self.allocation.items())),
            "travel_cost": self.travel_cost,
            "timed": {a: [action_to_json(x) for x in lane] for a, lane in self.timed.items()},
        }

    def hash_key(self) -> str:
        return self._trace_hash

    @cached_property
    def _trace_hash(self) -> str:
        # hashed once: nothing changes a plan's trace after it is built
        import hashlib

        body = json.dumps([action_to_json(a) for a in self.total_order], sort_keys=True)
        return hashlib.sha256(body.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# compact encoding


INF = float("inf")


class _Compact:
    """A mission compiled to integer indices for the search.

    Locations, agents and tasks are numbered in sorted-id order.  A state is
    one int.  Its low bits are the done-task mask (non-pending tasks start
    done), the next ``len(loc_ids)`` bits the empty-location mask, and above
    them one ``bits``-wide field per agent holds the agent's location index,
    ``bits`` being the fewest that hold every index.  Each class of
    interchangeable agents takes contiguous fields in ascending agent order,
    so a class's positions are one block of bits.  A state is a one-to-one
    image of a ``WorldState`` without its travel cost; ``decode`` gives it
    back as ``(positions, empty, done)`` and ``pack`` takes that triple back.
    """

    def __init__(self, spec: ProblemSpec):
        self.loc_ids = sorted(spec.location_ids())
        self.agent_ids = [a.id for a in spec.agents]
        self.task_ids = [t.id for t in spec.tasks]
        index = {lid: i for i, lid in enumerate(self.loc_ids)}
        self.loc_index = index
        self.task_loc = [index[t.location] for t in spec.tasks]
        self.dist = spec.travel   # locations are in sorted-id order there too
        self.capable = [tuple(i for i, a in enumerate(spec.agents) if spec.eligible(a.id, t.id)) for t in spec.tasks]
        self.pending = sum(1 << i for i, t in enumerate(spec.tasks) if t.id in spec.pending)
        # doable[agent][location]: pending tasks there the agent may execute (C4)
        doable = [[0] * len(self.loc_ids) for _ in self.agent_ids]
        for t, agents in enumerate(self.capable):
            if self.pending >> t & 1:
                for a in agents:
                    doable[a][self.task_loc[t]] |= 1 << t
        # capability[agent][task]: the spec's record, C4 overrides applied
        self.capability = [[spec.capability(a.id, t.id) for t in spec.tasks] for a in spec.agents]
        # interchangeable agents: the same capability row on every task; only
        # classes of two or more matter to the orbit reduction
        rows: dict[tuple, list] = {}
        for i, row in enumerate(self.capability):
            rows.setdefault(tuple(row), []).append(i)
        self.classes = [tuple(members) for members in rows.values() if len(members) > 1]

        n_tasks, n_locs, n = len(self.task_ids), len(self.loc_ids), len(self.agent_ids)
        self.bits = b = (n_locs - 1).bit_length()
        self.field = (1 << b) - 1
        self.done_mask = (1 << n_tasks) - 1
        self.positions_shift = n_tasks + n_locs
        # field order: agents ascending, a class placed whole at its first member
        order: list[int] = []
        for a in range(n):
            if a not in order:
                order.extend(next((m for m in self.classes if a in m), (a,)))
        self.shift = [0] * n
        for slot, a in enumerate(order):
            self.shift[a] = self.positions_shift + slot * b
        # blocks: per class (shift, mask, clear, size, sorted); ``clear``
        # zeroes the class's fields in a key and ``sorted`` memoises each
        # block of positions sorted within the class, shifted into place
        self.blocks = []
        block_of: dict[int, tuple] = {}
        for members in self.classes:
            shift, mask = self.shift[members[0]], (1 << b * len(members)) - 1
            self.blocks.append((shift, mask, ~(mask << shift), len(members), {}))
            block_of.update(dict.fromkeys(members, self.blocks[-1]))
        self.move_blocks = [block_of.get(a) for a in range(n) for _ in range(n_locs)]   # by move code
        # agent_rows[a]: (Do code base, shift, doable row, moves row); a moves
        # row holds per location (code, destination's empty bit, origin's
        # empty bit, field change, step) for each neighbour
        steps = [[(index[dst], spec.distance(lid, dst)) for dst in spec.neighbors(lid)] for lid in self.loc_ids]
        self.agent_rows = [
            (a * n_tasks, self.shift[a], doable[a], [
                [(a * n_locs + dest, 1 << n_tasks + dest, 1 << n_tasks + loc, dest - loc << self.shift[a], step)
                 for dest, step in steps[loc]]
                for loc in range(n_locs)
            ])
            for a in range(n)
        ]
        self.start = self.encode(initial_state(spec))

    def pack(self, positions: tuple, empty: int, done: int) -> int:
        """The key of ``(positions, empty, done)``; ``decode`` inverts it."""
        key = done | empty << len(self.task_ids)
        for shift, loc in zip(self.shift, positions):
            key |= loc << shift
        return key

    def decode(self, key: int) -> tuple:
        """``(positions, empty, done)``: the agents' location indices, the
        empty-location mask and the done-task mask of ``key``."""
        n_tasks = len(self.task_ids)
        positions = tuple(key >> shift & self.field for shift in self.shift)
        return positions, key >> n_tasks & (1 << len(self.loc_ids)) - 1, key & self.done_mask

    def encode(self, state: WorldState) -> int:
        locs = dict(state.agent_locs)
        return self.pack(
            tuple(self.loc_index[locs[aid]] for aid in self.agent_ids),
            sum(1 << self.loc_index[lid] for lid in state.empty),
            sum(1 << i for i, tid in enumerate(self.task_ids) if tid in state.done),
        )

    def successors(self, key: int, forced: bool) -> list[tuple]:
        """``(action code, child, step cost)`` triples in ``world`` order:
        every doable task in (agent, task) order, then every move in (agent,
        destination) order.  With ``forced`` the first doable task is the
        only successor if there is one (the planner's forced-task pruning).
        A task sets its done bit; a move clears its destination's empty bit,
        sets its origin's and adds the change to the agent's field.  A move
        empties its origin even when other agents still stand there (the
        depot quirk), which is why emptiness is part of the state."""
        field, undone = self.field, ~key
        out = []
        moves = []
        for base, shift, doable, row in self.agent_rows:
            loc = key >> shift & field
            todo = doable[loc] & undone
            if todo and forced:
                bit = todo & -todo
                return [(~(base + bit.bit_length() - 1), key | bit, 0.0)]
            while todo:
                bit = todo & -todo
                todo ^= bit
                out.append((~(base + bit.bit_length() - 1), key | bit, 0.0))
            moves.append(row[loc])
        for options in moves:
            for code, dest, origin, change, step in options:
                if key & dest:
                    out.append((code, (key ^ dest | origin) + change, step))
        return out

    def _sorted(self, block: tuple, raw: int) -> int:
        """A class's block of positions ``raw`` sorted within the class, the
        least location in the lowest field, shifted into place; memoised."""
        shift, _, _, size, memo = block
        out = memo.get(raw)
        if out is None:
            b = self.bits
            locs = sorted(raw >> k * b & self.field for k in range(size))
            out = memo[raw] = sum(loc << k * b for k, loc in enumerate(locs)) << shift
        return out

    def canonical(self, key: int) -> int:
        """The representative of ``key``'s orbit under permutations of
        interchangeable agents: positions sorted within each class.  The
        masks stay as they are; a permutation changes neither."""
        for block in self.blocks:
            shift, mask, clear = block[:3]
            key = key & clear | self._sorted(block, key >> shift & mask)
        return key

    def child_canonical(self, canon: int, key: int, code: int, child: int) -> int:
        """``canonical(child)`` derived from ``canon``, the canonical key of
        ``key``, where ``child`` is the successor of ``key`` under ``code``.
        ``key`` and ``child`` differ in the masks and, for a move, in the
        mover's field, so ``canon ^ key ^ child`` carries the change over;
        for a class member's move the class's block is then replaced by the
        child's block sorted."""
        if code < 0:
            return canon ^ key ^ child
        block = self.move_blocks[code]
        if block is None:
            return canon ^ key ^ child
        shift, mask, clear, _, memo = block
        raw = child >> shift & mask
        ordered = memo.get(raw)
        if ordered is None:
            ordered = self._sorted(block, raw)
        return (canon ^ key ^ child) & clear | ordered

    def action(self, key: int, code: int) -> Action:
        """The world action that ``code`` names in state ``key``."""
        if code < 0:
            a, t = divmod(~code, len(self.task_ids))
            return Do(self.agent_ids[a], self.task_ids[t], self.loc_ids[self.task_loc[t]])
        a, dest = divmod(code, len(self.loc_ids))
        return Move(self.agent_ids[a], self.loc_ids[key >> self.shift[a] & self.field], self.loc_ids[dest])


# ---------------------------------------------------------------------------
# heuristics


class _Heuristic:
    """Admissible travel lower bounds over undone tasks, on compact states.

    combined is the max of two bounds.  The farthest-task bound: some
    capable agent must still reach the farthest undone task.  The
    predecessor bound: each undone task location is entered by a final leg
    from either an agent position or another undone task location, and
    those legs are disjoint; summing per-location minimal legs is a lower
    bound.  blind is 0 everywhere (uniform-cost search).

    The forest bound is a third one, which A* ranks by alongside the other
    two.  Its classes are pairwise-disjoint capable sets of pending tasks, taken
    smallest first and then by members; a class owns every pending task
    whose capable set lies inside it.  Only the class's agents may do its
    owned tasks, so their walks, started at their positions, visit every
    undone owned location; joined at a super-root that reaches each
    member's position at cost 0, those walks contain a tree spanning the
    locations, which costs no less than Prim's minimum one over the
    shortest travel distances (Held & Karp's 1-tree argument).  Disjoint
    classes walk disjoint routes, so the forests add up.

    A call gives both, ``(h, forest)``.  What depends on the done set alone
    is one cache entry per done mask: the undone task locations grouped by
    capable-agent set, each undone location's minimal leg from the other
    undone locations, and each class's owned undone locations as a mask.
    What depends on positions alone is one entry per positions field (the
    state shifted past its masks): for each agent set, the distance from
    its nearest member to every location, and each class's positions as a
    mask.  Positions are decoded only on a miss.  A call then only combines
    the two, and a class's forest is cached per (positions mask, owned mask)
    pair; a key over every class at once would almost never repeat.  The
    predecessor sum runs in sorted-location order and Prim's in its own
    deterministic order from the two masks, so rounding is the same however
    the state was reached.
    """

    def __init__(self, problem: _Compact, kind: str):
        self.problem = problem
        self.kind = kind
        everyone = tuple(range(len(problem.agent_ids)))
        self.sets = list(dict.fromkeys([c for c in problem.capable if c] + [everyone]))
        self.everyone = self.sets.index(everyone)
        self.classes: list[tuple] = []
        pending = {c for t, c in enumerate(problem.capable) if c and problem.pending >> t & 1}
        for agents in sorted(pending, key=lambda c: (len(c), c)):
            if all(set(agents).isdisjoint(other) for other in self.classes):
                self.classes.append(agents)
        # owner[task]: the index of the class that owns it, or None
        self.owner = [
            next((c for c, members in enumerate(self.classes) if agents and set(agents) <= set(members)), None)
            if problem.pending >> t & 1 else None
            for t, agents in enumerate(problem.capable)
        ]
        self.done_mask, self.positions_shift = problem.done_mask, problem.positions_shift
        self._by_done: dict[int, tuple] = {}
        self._by_positions: dict[int, tuple] = {}
        self._forests: dict[tuple, float] = {}

    def _undone(self, done: int) -> tuple:
        """(agent-set index, target locations) groups and (location, minimal
        leg from another undone location) pairs, both in index order, and
        per class the mask of the locations of its owned undone tasks."""
        p = self.problem
        tasks = [t for t in range(len(p.task_ids)) if p.pending >> t & 1 and not done >> t & 1]
        if any(not p.capable[t] for t in tasks):
            return None, None, None  # some task nobody may execute
        targets: dict[int, dict] = {}
        owned = [0] * len(self.classes)
        for t in tasks:
            targets.setdefault(self.sets.index(p.capable[t]), {})[p.task_loc[t]] = None
            if self.owner[t] is not None:
                owned[self.owner[t]] |= 1 << p.task_loc[t]
        locs = sorted({p.task_loc[t] for t in tasks})
        legs = [(loc, min([p.dist[o][loc] for o in locs if o != loc], default=INF)) for loc in locs]
        return [(s, list(ls)) for s, ls in targets.items()], legs, tuple(owned)

    def _positions(self, state: int) -> tuple:
        """For each agent set the distance from its nearest member to every
        location, and per class the mask of its members' locations."""
        dist = self.problem.dist
        positions = self.problem.decode(state)[0]
        nearest = []
        for agents in self.sets:
            rows = [dist[positions[a]] for a in agents]
            nearest.append(rows[0] if len(rows) == 1 else list(map(min, *rows)))
        roots = tuple(sum({1 << positions[a] for a in agents}) for agents in self.classes)
        return nearest, roots

    def __call__(self, state: int) -> tuple[float, float]:
        """``(h, forest)`` of ``state``: the two-bound heuristic and the
        spanning-forest bound, both 0 for blind and ``inf`` when some
        pending task is unassignable or unreachable."""
        if self.kind == "blind":
            return 0.0, 0.0
        done = state & self.done_mask
        cached = self._by_done.get(done)
        if cached is None:
            cached = self._by_done[done] = self._undone(done)
        groups, legs, owned = cached
        if groups is None:
            return INF, INF
        if not groups:
            return 0.0, 0.0
        positions = state >> self.positions_shift
        cached = self._by_positions.get(positions)
        if cached is None:
            cached = self._by_positions[positions] = self._positions(state)
        nearest, roots = cached

        h_max = 0.0
        for s, locs in groups:
            row = nearest[s]
            for loc in locs:
                if row[loc] > h_max:
                    h_max = row[loc]
        if h_max == INF:
            return INF, INF  # some task unreachable by every capable agent

        row = nearest[self.everyone]
        h_pred = 0.0
        for loc, best in legs:
            h_pred += row[loc] if row[loc] < best else best

        # per class, the minimum forest rooted at its members' positions
        # that spans its owned undone task locations
        forest = 0.0
        forests = self._forests
        for pair in zip(roots, owned):
            if pair[1]:
                cost = forests.get(pair)
                if cost is None:
                    cost = forests[pair] = self._prim(*pair)
                forest += cost
        return (h_max if h_max > h_pred else h_pred), forest

    def _prim(self, roots: int, targets: int) -> float:
        """Prim's minimum spanning tree over the locations of ``targets``
        and a super-root joined to the locations of ``roots`` at cost 0:
        each step attaches the nearest unattached location (lowest index on
        a tie).  ``inf`` if some location is unreachable from every root."""
        dist = self.problem.dist
        sources = [loc for loc in range(len(dist)) if roots >> loc & 1]
        left = [loc for loc in range(len(dist)) if targets >> loc & 1]
        cost = [min(dist[r][loc] for r in sources) for loc in left]
        total = 0.0
        while left:
            i = cost.index(min(cost))
            total += cost.pop(i)
            joined = left.pop(i)
            row = dist[joined]
            cost = [c if c < row[loc] else row[loc] for c, loc in zip(cost, left)]
        return total


# ---------------------------------------------------------------------------
# search


def plan_mission(spec: ProblemSpec, cfg: Optional[PlannerConfig] = None) -> Plan:
    """Search for a plan completing every pending task.

    Returns a travel-optimal plan (A* with an admissible heuristic,
    re-opening on cheaper paths).  Raises NoPlanExists when the goal is
    unreachable, PlanTimeout past the configured wall-clock budget and its
    subclass ExpansionLimit past the expansion cap.  The plan's ``stats``
    count expansions, generated successors, re-opened states (a cheaper
    path to a state already generated) and the start state's heuristic
    value ``h0``; states are counted once per orbit of interchangeable
    agents.  Each child's orbit key
    is derived from the popped state's (``_Compact.child_canonical``) rather
    than rebuilt by ``_Compact.canonical``, which defines it.
    """
    cfg = cfg or PlannerConfig()
    problem = _Compact(spec)
    h = _Heuristic(problem, cfg.heuristic)
    start = problem.start
    h0, f0 = h(start)
    if h0 == INF:
        raise NoPlanExists("some pending task is unreachable or unassignable")

    counter = itertools.count()
    start_key = problem.canonical(start)
    # canonical state -> best g, for the duplicate and stale checks
    best: dict = {start_key: 0.0}
    # concrete state -> (predecessor, action code) of the push that reached it
    links: dict = {start: (None, None)}
    # (g + H, H, push order, g, state, canonical state), H = max(h, forest)
    bound = max(h0, f0)
    heap = [(bound, bound, next(counter), 0.0, start, start_key)]
    push, pop = heapq.heappush, heapq.heappop
    successors, derive, pending = problem.successors, problem.child_canonical, problem.pending
    # without classes a state is its own key, so the derivation is skipped
    reduced = bool(problem.classes)
    deadline = time.monotonic() + cfg.timeout
    expansions = generated = reopened = 0

    while heap:
        _, _, _, g, state, canon = pop(heap)
        if g > best[canon]:
            continue  # stale entry
        if state & pending == pending:
            plan = build_plan(spec, _extract_actions(problem, state, links))
            plan.stats = {"expansions": expansions, "generated": generated, "reopened": reopened, "h0": h0}
            return plan
        expansions += 1
        if expansions % 1024 == 0 and time.monotonic() > deadline:
            raise PlanTimeout(f"planner exceeded {cfg.timeout}s after {expansions} expansions")
        if expansions > cfg.max_expansions:
            raise ExpansionLimit(f"planner exceeded {cfg.max_expansions} expansions")
        for code, child, step in successors(state, True):
            generated += 1
            cg = g + step
            key = derive(canon, state, code, child) if reduced else child
            seen = best.get(key)
            if seen is None or cg < seen:
                if seen is not None:
                    reopened += 1
                best[key] = cg
                ch, cf = h(key)
                links[child] = (state, code)
                bound = ch if ch > cf else cf
                push(heap, (cg + bound, bound, next(counter), cg, child, key))

    raise NoPlanExists("goal unreachable from the initial configuration")


def _extract_actions(problem: _Compact, goal: int, links: dict) -> list[Action]:
    """Follow predecessor links back from ``goal``.  Each link joins two
    concrete states, so the actions name the agents that moved."""
    actions: list[Action] = []
    prev, code = links[goal]
    while prev is not None:
        actions.append(problem.action(prev, code))
        prev, code = links[prev]
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
    except InternalError:
        plan.timed = {}
    return plan


# ---------------------------------------------------------------------------
# parallel packing


def dispatch_slot(
    spec: ProblemSpec,
    state: WorldState,
    order: list[Action],
    done: int,
    attempt: Optional[Callable[[Do], bool]] = None,
) -> tuple[WorldState, dict[str, tuple[Action, bool]], int]:
    """Run one slot of trace-order dispatch from the cursor ``done``, the
    number of actions of ``order`` already started.

    The scan starts at ``order[done]`` and stops at the first action whose
    agent has already acted this slot or whose world preconditions fail, so
    no action overtakes an earlier one and the started actions are always a
    prefix of the trace.  ``attempt`` decides each task's outcome (every
    task succeeds without it); a failed attempt holds its agent for the
    slot, stays unstarted and stops the scan.  Returns the new state,
    ``{agent: (action, succeeded)}`` in dispatch order, and the new cursor.
    """
    acted: dict[str, tuple[Action, bool]] = {}
    for act in order[done:]:
        if act.agent in acted:
            break
        try:
            nxt = apply_action(spec, state, act)
        except ValueError:
            break
        ok = attempt is None or not isinstance(act, Do) or attempt(act)
        acted[act.agent] = (act, ok)
        if not ok:
            break
        state = nxt
        done += 1
    return state, acted, done


def timed_schedule(spec: ProblemSpec, plan: Plan) -> dict[str, list[Action]]:
    """Pack the sequential trace into per-agent lanes of one action per slot.

    Each slot is one ``dispatch_slot``; an agent that starts nothing waits.
    A slot that starts nothing leaves the state unchanged, so packing can
    never progress again and raises ``InternalError``: a planned trace always
    packs, and ``build_plan`` catches the error for a trace that does not.
    """
    order = plan.total_order
    done = 0
    lanes: dict[str, list[Action]] = {a: [] for a, seq in plan.per_agent.items() if seq}
    state = initial_state(spec)
    while done < len(order):
        state, acted, done = dispatch_slot(spec, state, order, done)
        if not acted:
            raise InternalError("parallel packing failed to make progress")
        for agent, lane in lanes.items():
            lane.append(acted[agent][0] if agent in acted else Wait(agent))
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
        broken = violation(spec, state, act)
        if broken:
            out.append(PlanViolation(broken[0], i, broken[1]))
        else:
            state = apply_action(spec, state, act)
    missing = (spec.pending - state.done)
    if missing:
        out.append(PlanViolation("C5", len(plan.total_order), f"unfinished tasks: {sorted(missing)}"))

    # per-slot occupancy over the timed lanes (end-of-slot positions);
    # shared start locations are excluded, matching the seeding semantics
    if plan.timed:
        positions = dict(spec.initial_locations)
        starts = list(positions.values())
        depot = {loc for loc in starts if starts.count(loc) > 1}
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
