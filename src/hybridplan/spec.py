"""Mission specification model: parsing, validation and symbol tables.

The JSON mission file declares locations, paths, task groups with located
instances, agents with per-group capabilities, and the two mission
constraints (success floor and allocation threshold).  Everything downstream
(planner, uncertainty model, synthesis, adaptation) reads the world through
this module's accessors.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import SpecError

WORKER = "worker"
ROBOT = "robot"
AGENT_KINDS = (WORKER, ROBOT)


@dataclass(frozen=True)
class Location:
    id: str
    description: Optional[str] = None


@dataclass(frozen=True)
class Path:
    start: str
    end: str
    distance: float
    description: Optional[str] = None


@dataclass(frozen=True)
class TaskInstance:
    id: str
    group: str
    location: str


@dataclass(frozen=True)
class TaskGroup:
    id: str
    description: Optional[str] = None


@dataclass(frozen=True)
class Capability:
    """Cost / success-probability / retry cap of one agent on one task group."""

    group: str
    cost: float
    p_success: float
    max_retries: int


@dataclass(frozen=True)
class Agent:
    id: str
    kind: str
    start: str
    capabilities: tuple[Capability, ...]


@dataclass(frozen=True)
class MissionConstraints:
    p_succ: float      # mission success floor (C6)
    gamma: float       # minimum competency for allocation (C4)


@dataclass(frozen=True)
class Violation:
    severity: str      # "error" | "warning"
    path: str          # field path into the JSON document
    message: str

    def __str__(self):
        return f"[{self.severity}] {self.path}: {self.message}"


class ProblemSpec:
    """Fully resolved mission specification.

    The constructor takes the mission: collections ordered lexicographically
    by id so every downstream stage is deterministic, and the symbol tables
    built from them, which nothing writes to afterwards.  It roots the spec
    at the default runtime state: the declared starts, every task pending,
    no probability overrides.  ``with_runtime_state`` is the one place that
    sets runtime state (agent placement, pending tasks, overrides and the
    mission constraints): it re-roots a copy that shares every mission table
    with the spec it was built from.
    """

    def __init__(
        self,
        locations: Iterable[Location],
        paths: Iterable[Path],
        task_groups: Iterable[TaskGroup],
        tasks: Iterable[TaskInstance],
        agents: Iterable[Agent],
        constraints: MissionConstraints,
    ):
        self.locations = tuple(sorted(locations, key=lambda l: l.id))
        self.task_groups = tuple(sorted(task_groups, key=lambda g: g.id))
        self.tasks = tuple(sorted(tasks, key=lambda t: t.id))
        self.agents = tuple(sorted(agents, key=lambda a: a.id))
        self.constraints = constraints

        self._location_ids = frozenset(l.id for l in self.locations)
        self._task_by_id = {t.id: t for t in self.tasks}
        self._capabilities = {a.id: {c.group: c for c in a.capabilities} for a in self.agents}
        self.paths = tuple(
            sorted(paths, key=lambda p: (p.start, p.end))
        )
        # every location reference names a declared location
        references = [(f"path {p.start}-{p.end}", loc) for p in self.paths for loc in (p.start, p.end)]
        references += [(f"task {t.id}", t.location) for t in self.tasks]
        references += [(f"agent {a.id}", a.start) for a in self.agents]
        for owner, loc in references:
            if loc not in self._location_ids:
                raise SpecError(f"{owner} names unknown location {loc!r}")

        # symmetric closure over declared paths: one path per pair, and no
        # loop, whose two directions are one pair
        self._dist: dict[tuple[str, str], float] = {}
        self._neighbors: dict[str, list[str]] = {l.id: [] for l in self.locations}
        for p in self.paths:
            for a, b in ((p.start, p.end), (p.end, p.start)):
                if (a, b) in self._dist:
                    raise SpecError(f"duplicate path {p.start}-{p.end}")
                self._neighbors[a].append(b)
                self._dist[(a, b)] = p.distance
        for lid in self._neighbors:
            self._neighbors[lid].sort()
        # shortest travel distances: travel[i][j] from the i-th location to
        # the j-th, in `locations` order, inf where no path leads
        index = {l.id: i for i, l in enumerate(self.locations)}
        edges = [[(index[b], self._dist[(l.id, b)]) for b in self._neighbors[l.id]] for l in self.locations]
        self.travel = tuple(_shortest_from(edges, src) for src in range(len(edges)))

        self.initial_locations = {a.id: a.start for a in self.agents}
        self.pending = frozenset(t.id for t in self.tasks)
        self.p_overrides: dict[tuple[str, str], float] = {}

    # -- symbol tables -------------------------------------------------

    def location_ids(self) -> frozenset[str]:
        return self._location_ids

    def has_path(self, a: str, b: str) -> bool:
        return (a, b) in self._dist

    def distance(self, a: str, b: str) -> float:
        return self._dist[(a, b)]

    def neighbors(self, lid: str) -> list[str]:
        return self._neighbors.get(lid, [])

    def task_location(self, tid: str) -> str:
        return self._task_by_id[tid].location

    # -- capabilities (honouring runtime overrides) ---------------------

    def has_capability(self, agent_id: str, task_id: str) -> bool:
        """The agent declares a capability for the task's group.  A mission
        file or a scenario that overrides the probability of a pair without
        one is rejected."""
        return self._task_by_id[task_id].group in self._capabilities[agent_id]

    def capability(self, agent_id: str, task_id: str) -> Capability:
        """The agent's capability on the task's group, its success
        probability replaced by a runtime override if there is one.  An
        agent without a capability for the group gets cost 0, probability 0
        and retry cap 0."""
        group = self._task_by_id[task_id].group
        cap = self._capabilities[agent_id].get(group) or Capability(group, 0.0, 0.0, 0)
        p = self.p_overrides.get((agent_id, task_id))
        return cap if p is None else Capability(group, cap.cost, p, cap.max_retries)

    def p_success(self, agent_id: str, task_id: str) -> float:
        """Success probability of an agent on a task instance (0 if incapable)."""
        return self.capability(agent_id, task_id).p_success

    def eligible(self, agent_id: str, task_id: str) -> bool:
        """The allocation threshold (C4): the agent may be given the task iff
        its success probability, after overrides, is at least gamma.  This
        is the one place the threshold is compared."""
        return self.p_success(agent_id, task_id) >= self.constraints.gamma

    def capable_agents(self, task_id: str) -> list[str]:
        """Agents eligible for a task under the allocation threshold."""
        return [a.id for a in self.agents if self.eligible(a.id, task_id)]

    # -- derived copies --------------------------------------------------

    def with_runtime_state(
        self,
        initial_locations: Optional[Mapping[str, str]] = None,
        pending: Optional[Iterable[str]] = None,
        p_overrides: Optional[Mapping[tuple[str, str], float]] = None,
        gamma: Optional[float] = None,
        p_succ: Optional[float] = None,
    ) -> "ProblemSpec":
        """Copy of this spec re-rooted at a mid-mission configuration.  It
        shares every mission table with this spec and replaces only the
        runtime state it is given; ``p_overrides`` merge into a new dict, so
        this spec never changes."""
        out = copy.copy(self)
        if gamma is not None or p_succ is not None:
            out.constraints = MissionConstraints(
                p_succ=self.constraints.p_succ if p_succ is None else p_succ,
                gamma=self.constraints.gamma if gamma is None else gamma,
            )
        if initial_locations is not None:
            out.initial_locations = dict(sorted(initial_locations.items()))
        if pending is not None:
            out.pending = frozenset(pending)
        out.p_overrides = {**self.p_overrides, **(p_overrides or {})}
        return out

    # -- equality / serialization ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        return serialize(self) == serialize(other)

    def __repr__(self):
        return (
            f"ProblemSpec(|L|={len(self.locations)}, |paths|={len(self.paths)}, "
            f"|T|={len(self.tasks)}, |A|={len(self.agents)})"
        )


def _shortest_from(edges: list[list[tuple[int, float]]], src: int) -> tuple[float, ...]:
    """Dijkstra from location index ``src`` over ``edges`` (per location, its
    (neighbour index, distance) pairs in index order); ties pop the lower
    index first."""
    d = [math.inf] * len(edges)
    d[src] = 0.0
    pq = [(0.0, src)]
    while pq:
        cur, node = heapq.heappop(pq)
        if cur > d[node]:
            continue
        for nbr, step in edges[node]:
            nd = cur + step
            if nd < d[nbr]:
                d[nbr] = nd
                heapq.heappush(pq, (nd, nbr))
    return tuple(d)


# ---------------------------------------------------------------------------
# parsing


def _require(cond: bool, path: str, message: str, errs: list[Violation]):
    if not cond:
        errs.append(Violation("error", path, message))


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str, errs: list[Violation]):
    for key in obj:
        if key not in allowed:
            errs.append(Violation("error", path, f"unknown key '{key}'"))
    for key in required:
        if key not in obj:
            errs.append(Violation("error", path, f"missing key '{key}'"))


def _number(value) -> bool:
    """A finite JSON number that fits a float: an int or a float, not a
    boolean, not Infinity or NaN (which ``json.loads`` accepts)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


_NAME_KEYS = ("id", "type", "start", "end", "location", "agent", "task")


def _entries(obj: dict, key: str, path: str, errs: list[Violation]) -> list[tuple[str, dict]]:
    """(field path, entry) of each object in the array ``obj[key]`` (none if
    absent).  A value that is not an array, an entry that is not an object
    and an id or reference that is not a string are violations; such
    entries are left out."""
    array = obj.get(key, [])
    if not isinstance(array, list):
        errs.append(Violation("error", path, "must be a JSON array"))
        return []
    out = []
    for i, entry in enumerate(array):
        if not isinstance(entry, dict):
            errs.append(Violation("error", f"{path}[{i}]", "must be a JSON object"))
            continue
        names = [k for k in _NAME_KEYS if k in entry and not isinstance(entry[k], str)]
        errs.extend(Violation("error", f"{path}[{i}].{k}", "must be a JSON string") for k in names)
        if not names:
            out.append((f"{path}[{i}]", entry))
    return out


def parse_problem_spec(text: str) -> ProblemSpec:
    """Parse and fully resolve a JSON mission document.

    Raises SpecError on malformed JSON, unknown references, out-of-range
    probabilities or duplicate ids; every violation names its field path.
    Unknown keys are rejected: specification files are contracts and silent
    typos corrupt missions.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON: {exc}") from exc
    return build_problem_spec(doc)


def build_problem_spec(doc) -> ProblemSpec:
    """Build a ProblemSpec from an already-decoded JSON document."""
    errs: list[Violation] = []
    if not isinstance(doc, dict):
        raise SpecError("top level must be a JSON object")
    _check_keys(
        doc,
        {"locations", "paths", "tasks", "agents", "constraints", "initial", "overrides"},
        {"locations", "paths", "tasks", "agents", "constraints"},
        "$",
        errs,
    )
    for key in ("constraints", "initial"):
        _require(isinstance(doc.get(key, {}), dict), key, "must be a JSON object", errs)
    if errs:
        raise SpecError("invalid specification", errs)

    locations: list[Location] = []
    seen_loc: set[str] = set()
    for path, raw in _entries(doc, "locations", "locations", errs):
        _check_keys(raw, {"id", "description"}, {"id"}, path, errs)
        lid = raw.get("id")
        if lid is None:
            continue
        _require(lid not in seen_loc, path + ".id", f"duplicate location id '{lid}'", errs)
        seen_loc.add(lid)
        locations.append(Location(lid, raw.get("description")))

    paths: list[Path] = []
    seen_pairs: set[tuple[str, str]] = set()
    for ppath, raw in _entries(doc, "paths", "paths", errs):
        _check_keys(raw, {"start", "end", "distance", "description"}, {"start", "end", "distance"}, ppath, errs)
        start, end = raw.get("start"), raw.get("end")
        dist = raw.get("distance", 1)
        if start is None or end is None:
            continue
        _require(start in seen_loc, ppath + ".start", f"unknown location '{start}'", errs)
        _require(end in seen_loc, ppath + ".end", f"unknown location '{end}'", errs)
        _require(start != end, ppath, "path start and end must differ", errs)
        _require(_number(dist) and dist > 0, ppath + ".distance", "distance must be > 0", errs)
        pair = (min(start, end), max(start, end))
        _require(pair not in seen_pairs, ppath, f"duplicate path {start}-{end}", errs)
        seen_pairs.add(pair)
        if _number(dist):
            paths.append(Path(start, end, float(dist), raw.get("description")))

    groups: list[TaskGroup] = []
    tasks: list[TaskInstance] = []
    seen_group: set[str] = set()
    seen_task: set[str] = set()
    for gpath, raw in _entries(doc, "tasks", "tasks", errs):
        _check_keys(raw, {"id", "description", "instances"}, {"id", "instances"}, gpath, errs)
        gid = raw.get("id")
        if gid is None:
            continue
        _require(gid not in seen_group, gpath + ".id", f"duplicate task group id '{gid}'", errs)
        seen_group.add(gid)
        _require(raw.get("instances", []) != [], gpath + ".instances", "task group has no instances", errs)
        for ipath, inst in _entries(raw, "instances", gpath + ".instances", errs):
            _check_keys(inst, {"id", "location"}, {"id", "location"}, ipath, errs)
            tid, loc = inst.get("id"), inst.get("location")
            if tid is None:
                continue
            _require(tid not in seen_task and tid not in seen_group, ipath + ".id", f"duplicate task id '{tid}'", errs)
            seen_task.add(tid)
            _require(loc in seen_loc, ipath + ".location", f"unknown location '{loc}'", errs)
            tasks.append(TaskInstance(tid, gid, loc))
        groups.append(TaskGroup(gid, raw.get("description")))

    agents: list[Agent] = []
    seen_agent: set[str] = set()
    for apath, raw in _entries(doc, "agents", "agents", errs):
        _check_keys(raw, {"id", "type", "start", "tasks"}, {"id", "type", "start", "tasks"}, apath, errs)
        aid = raw.get("id")
        if aid is None:
            continue
        _require(aid not in seen_agent, apath + ".id", f"duplicate agent id '{aid}'", errs)
        seen_agent.add(aid)
        kind = raw.get("type")
        _require(kind in AGENT_KINDS, apath + ".type", f"type must be one of {AGENT_KINDS}", errs)
        start = raw.get("start")
        _require(start in seen_loc, apath + ".start", f"unknown start location '{start}'", errs)
        caps: list[Capability] = []
        seen_cap: set[str] = set()
        for cpath, cap in _entries(raw, "tasks", apath + ".tasks", errs):
            _check_keys(cap, {"id", "cost", "p_success", "retries"}, {"id", "cost", "p_success", "retries"}, cpath, errs)
            gid = cap.get("id")
            _require(gid in seen_group, cpath + ".id", f"unknown task group '{gid}'", errs)
            _require(gid not in seen_cap, cpath + ".id", f"duplicate capability for group '{gid}'", errs)
            seen_cap.add(gid)
            cost = cap.get("cost", 0)
            p = cap.get("p_success", 0)
            retries = cap.get("retries", 0)
            _require(_number(cost) and cost >= 0, cpath + ".cost", "cost must be >= 0", errs)
            _require(
                _number(p) and 0.0 <= p <= 1.0,
                cpath + ".p_success",
                f"p_success must lie in [0,1], got {p!r}",
                errs,
            )
            _require(type(retries) is int and retries >= 0, cpath + ".retries", "retries must be an integer >= 0", errs)
            if gid is not None and _number(cost) and _number(p):
                caps.append(Capability(gid, float(cost), float(p), retries if type(retries) is int else 0))
        agents.append(Agent(aid, kind, start, tuple(sorted(caps, key=lambda c: c.group))))

    craw = doc["constraints"]
    _check_keys(
        craw,
        {"mission_probability_of_success", "min_assignment_probability"},
        {"mission_probability_of_success", "min_assignment_probability"},
        "constraints",
        errs,
    )
    p_succ = craw.get("mission_probability_of_success", 1.0)
    gamma = craw.get("min_assignment_probability", 1.0)
    for name, value in (("mission_probability_of_success", p_succ), ("min_assignment_probability", gamma)):
        _require(
            _number(value) and 0.0 < value <= 1.0,
            f"constraints.{name}",
            f"must lie in (0,1], got {value!r}",
            errs,
        )

    initial_locations = None
    pending = None
    if "initial" in doc:
        iraw = doc["initial"]
        _check_keys(iraw, {"locations", "pending"}, set(), "initial", errs)
        if "locations" in iraw:
            initial_locations = iraw["locations"]
            if not isinstance(initial_locations, dict):
                errs.append(Violation("error", "initial.locations", "must be a JSON object"))
                initial_locations = None
            else:
                for aid, loc in initial_locations.items():
                    _require(aid in seen_agent, f"initial.locations.{aid}", f"unknown agent '{aid}'", errs)
                    _require(isinstance(loc, str) and loc in seen_loc, f"initial.locations.{aid}",
                             f"unknown location {loc!r}", errs)
                for aid in sorted(seen_agent - initial_locations.keys()):
                    errs.append(Violation("error", f"initial.locations.{aid}", f"no location for agent '{aid}'"))
        if "pending" in iraw:
            pending = iraw["pending"]
            if not isinstance(pending, list):
                errs.append(Violation("error", "initial.pending", "must be a JSON array"))
                pending = []
            for tid in pending:
                _require(isinstance(tid, str) and tid in seen_task, "initial.pending", f"unknown task {tid!r}", errs)

    p_overrides = {}
    group_of = {t.id: t.group for t in tasks}
    groups_of = {a.id: {c.group for c in a.capabilities} for a in agents}
    for opath, raw in _entries(doc, "overrides", "overrides", errs):
        _check_keys(raw, {"agent", "task", "p_success"}, {"agent", "task", "p_success"}, opath, errs)
        aid, tid, p = raw.get("agent"), raw.get("task"), raw.get("p_success", 0)
        _require(aid in seen_agent, opath + ".agent", f"unknown agent '{aid}'", errs)
        _require(tid in seen_task, opath + ".task", f"unknown task '{tid}'", errs)
        _require(_number(p) and 0.0 <= p <= 1.0, opath + ".p_success", f"p_success must lie in [0,1], got {p!r}", errs)
        if aid in seen_agent and tid in seen_task:
            group = group_of[tid]
            _require(
                group in groups_of[aid],
                opath,
                f"agent '{aid}' has no capability for task '{tid}' (group '{group}')",
                errs,
            )
        if _number(p):
            p_overrides[(aid, tid)] = float(p)

    if errs:
        raise SpecError(f"invalid specification ({len(errs)} violations)", errs)

    spec = ProblemSpec(locations, paths, groups, tasks, agents, MissionConstraints(float(p_succ), float(gamma)))
    return spec.with_runtime_state(initial_locations, pending, p_overrides)


def validate(spec: ProblemSpec) -> list[Violation]:
    """Warnings about a parsed spec; empty list iff there are none.

    The parser already rejects every structural error, so what remains is a
    pending task nobody can perform at the allocation threshold: only a
    warning, since the mission may still be edited.
    """
    out: list[Violation] = []
    for t in spec.tasks:
        if t.id in spec.pending and not spec.capable_agents(t.id):
            out.append(
                Violation(
                    "warning",
                    f"tasks.{t.id}",
                    f"no agent reaches the allocation threshold {spec.constraints.gamma} for this task",
                )
            )
    return out


def serialize(spec: ProblemSpec) -> str:
    """Canonical JSON form; parse(serialize(spec)) == spec."""
    doc = {
        "locations": [
            {"id": l.id, **({"description": l.description} if l.description else {})} for l in spec.locations
        ],
        "paths": [
            {
                "start": p.start,
                "end": p.end,
                "distance": p.distance,
                **({"description": p.description} if p.description else {}),
            }
            for p in spec.paths
        ],
        "tasks": [
            {
                "id": g.id,
                **({"description": g.description} if g.description else {}),
                "instances": [
                    {"id": t.id, "location": t.location} for t in spec.tasks if t.group == g.id
                ],
            }
            for g in spec.task_groups
        ],
        "agents": [
            {
                "id": a.id,
                "type": a.kind,
                "start": a.start,
                "tasks": [
                    {"id": c.group, "cost": c.cost, "p_success": c.p_success, "retries": c.max_retries}
                    for c in a.capabilities
                ],
            }
            for a in spec.agents
        ],
        "constraints": {
            "mission_probability_of_success": spec.constraints.p_succ,
            "min_assignment_probability": spec.constraints.gamma,
        },
    }
    default_locs = {a.id: a.start for a in spec.agents}
    default_pending = frozenset(t.id for t in spec.tasks)
    if spec.initial_locations != default_locs or spec.pending != default_pending:
        doc["initial"] = {
            "locations": spec.initial_locations,
            "pending": sorted(spec.pending),
        }
    if spec.p_overrides:
        doc["overrides"] = [
            {"agent": aid, "task": tid, "p_success": p}
            for (aid, tid), p in sorted(spec.p_overrides.items())
        ]
    return json.dumps(doc, indent=2, sort_keys=False)
