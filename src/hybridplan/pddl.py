"""PDDL 2.1 export of the deterministic planning problem.

The domain declares agents, locations and tasks with move/do action schemas
guarded by the mission constraints (path existence, origin occupancy, empty
destination; co-location, pending task, competency at or above the
allocation threshold).  The problem file grounds the symmetric path
relation, distances, emptiness, task locations, agent starts and the full
success-probability table (zero for incapable pairs), with total travel
distance as the minimisation metric.  The files let external numeric
planners cross-check the built-in search.
"""

from __future__ import annotations

from .spec import ProblemSpec
from .world import initial_state


def _fmt(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(x)


def export_pddl_domain(spec: ProblemSpec) -> str:
    gamma = spec.constraints.gamma
    return f""";; generated mission domain
(define (domain mission)
  (:requirements :strips :typing :negative-preconditions :numeric-fluents)
  (:types location task agent)
  (:predicates
    (agent_at ?a - agent ?l - location)
    (path ?l1 - location ?l2 - location)
    (empty ?l - location)
    (task_loc ?t - task ?l - location)
    (task_done ?t - task))
  (:functions
    (p_success ?a - agent ?t - task)
    (distance ?l1 - location ?l2 - location)
    (travel_dist))
  (:action move
    :parameters (?a - agent ?from - location ?to - location)
    :precondition (and
      (path ?from ?to)
      (agent_at ?a ?from)
      (empty ?to))
    :effect (and
      (not (agent_at ?a ?from))
      (agent_at ?a ?to)
      (empty ?from)
      (not (empty ?to))
      (increase (travel_dist) (distance ?from ?to))))
  (:action do
    :parameters (?a - agent ?t - task ?l - location)
    :precondition (and
      (agent_at ?a ?l)
      (task_loc ?t ?l)
      (not (task_done ?t))
      (>= (p_success ?a ?t) {_fmt(gamma)}))
    :effect (and
      (task_done ?t)))
)
"""


def export_pddl_problem(spec: ProblemSpec) -> str:
    object_lines = []
    if spec.locations:
        object_lines.append(" ".join(l.id for l in spec.locations) + " - location")
    if spec.tasks:
        object_lines.append(" ".join(t.id for t in spec.tasks) + " - task")
    if spec.agents:
        object_lines.append(" ".join(a.id for a in spec.agents) + " - agent")
    objects = "\n    ".join(object_lines)

    init: list[str] = ["(= (travel_dist) 0)"]
    for p in spec.paths:
        for a, b in ((p.start, p.end), (p.end, p.start)):
            init.append(f"(path {a} {b})")
            init.append(f"(= (distance {a} {b}) {_fmt(p.distance)})")
    start = initial_state(spec)
    for l in spec.locations:
        if l.id in start.empty:
            init.append(f"(empty {l.id})")
    for t in spec.tasks:
        init.append(f"(task_loc {t.id} {t.location})")
        if t.id in start.done:
            init.append(f"(task_done {t.id})")
    for aid, loc in spec.initial_locations.items():
        init.append(f"(agent_at {aid} {loc})")
    for a in spec.agents:
        for t in spec.tasks:
            init.append(f"(= (p_success {a.id} {t.id}) {_fmt(spec.p_success(a.id, t.id))})")

    goal = "\n    ".join(f"(task_done {t.id})" for t in spec.tasks if t.id in spec.pending)
    if not goal:
        goal = "(= (travel_dist) 0)"  # vacuous goal for empty missions

    init_text = "\n    ".join(init)
    return f""";; generated mission problem
(define (problem mission-1)
  (:domain mission)
  (:objects
    {objects})
  (:init
    {init_text})
  (:goal (and
    {goal}))
  (:metric minimize (travel_dist))
)
"""
