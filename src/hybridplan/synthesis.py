"""Multi-objective synthesis of retry budgets.

NSGA-II over integer attempt-budget vectors, scoring each candidate exactly
with the closed form of its independent per-agent chains (success
probabilities multiply, expected costs add).  The mission success
floor enters the search through constrained dominance: feasible solutions
beat infeasible ones, infeasible ones compare by constraint violation.  The
archive accumulates every feasible evaluation ever seen and keeps the
nondominated ones, found by one sorted sweep that the baseline shares
(`pareto_front`); several budget vectors may share one front point.

The search, the enumeration and `extend_archive` score genotypes through one
path, `_Evaluator`: each chain owns a contiguous slice of the genotype (the
model's retry slots run in chain order), and the chain's closed form is
memoised on that slice for the length of one run, so a chain whose budgets
repeat is not walked again.  The chains combine in chain order, exactly as
`closed_form_mission_metrics` does, so the objectives equal the public
`evaluate`'s to the bit.  Genotypes drawn by the search or the enumeration
lie inside the slot bounds by construction and are not validated; budget
dictionaries from outside are, by `evaluate` and `extend_archive` (scenario
budgets) and by `chains.checked_budgets` (``verify --retries``).

Genotype spaces no larger than the evaluation budget (and the exhaustive
limit) are enumerated outright instead of sampled; a randomised search
cannot guarantee covering them, and for such small spaces enumeration is
cheaper anyway.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .chains import (
    ParametricPlanModel,
    RetryAssignment,
    closed_form_chain_metrics,
    closed_form_mission_metrics,
    validate_assignment,
)
from .errors import InputError, LimitExceeded

# Evaluation no longer calls these two, but they stay synthesis attributes:
# benchmark/spans.py wraps them by name.
from .chains import instantiate  # noqa: F401
from .pmc import factored_mission_metrics  # noqa: F401

EXHAUSTIVE_LIMIT = 4096
CROSSOVER_RATE = 0.9


@dataclass(frozen=True)
class Objectives:
    expected_cost: float
    success_prob: float
    feasible: bool
    violation: float

    def as_pair(self) -> tuple[float, float]:
        return (self.expected_cost, self.success_prob)


@dataclass
class ArchiveEntry:
    genotype: tuple[int, ...]
    retries: dict[str, int]
    objectives: Objectives

    def point(self) -> tuple[float, float]:
        return self.objectives.as_pair()


@dataclass
class GaConfig:
    population: int = 30
    evaluations: int = 150
    seed: int = 0

    def __post_init__(self):
        if type(self.population) is not int or self.population < 2:
            raise InputError(f"population must be an integer >= 2, got {self.population!r}")
        if type(self.evaluations) is not int or self.evaluations < self.population:
            raise InputError(f"evaluations must be an integer >= population, got {self.evaluations!r}")


@dataclass
class ParetoArchive:
    """Feasible nondominated evaluations plus run provenance.

    audit_log holds every (genotype, objectives) evaluation behind the
    archive, feasible or not, in evaluation order and each genotype once;
    it backs post-run soundness checks and is not serialized.
    """

    plan_hash: str
    entries: list[ArchiveEntry]
    seed: int
    config: dict
    audit_log: list[tuple[tuple[int, ...], Objectives]]
    exhaustive: bool = False

    @property
    def evaluated(self) -> int:
        return len(self.audit_log)

    def front(self) -> list[tuple[float, float]]:
        """Distinct nondominated objective points, cost-ascending."""
        pts = sorted({e.point() for e in self.entries})
        return pts

    def is_empty(self) -> bool:
        return not self.entries

    def to_json(self) -> dict:
        return {
            "plan_hash": self.plan_hash,
            "seed": self.seed,
            "config": self.config,
            "evaluated": self.evaluated,
            "exhaustive": self.exhaustive,
            "entries": [
                {
                    "retries": dict(sorted(e.retries.items())),
                    "expected_cost": e.objectives.expected_cost,
                    "success_prob": e.objectives.success_prob,
                    "feasible": e.objectives.feasible,
                }
                for e in self.entries
            ],
        }

    def front_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["expected_cost", "success_prob"])
        for cost, prob in self.front():
            writer.writerow([repr(cost), repr(prob)])
        return buf.getvalue()


def _log_sort_key(item: tuple[tuple[int, ...], Objectives]):
    genotype, o = item
    return (o.expected_cost, -o.success_prob, genotype)


def _entry_sort_key(e: ArchiveEntry):
    return _log_sort_key((e.genotype, e.objectives))


# ---------------------------------------------------------------------------
# evaluation and dominance


def _objectives(threshold: float, success_prob: float, expected_cost: float) -> Objectives:
    """The one feasibility rule: a success below the floor ``threshold`` is
    infeasible by the shortfall."""
    violation = max(0.0, threshold - success_prob)
    return Objectives(expected_cost, success_prob, violation == 0.0, violation)


def evaluate(model: ParametricPlanModel, assignment: RetryAssignment) -> Objectives:
    """Exact objectives of one validated budget vector by the chains' closed
    form."""
    validate_assignment(model, assignment)
    success_prob, expected_cost = closed_form_mission_metrics(model, assignment)
    return _objectives(model.p_succ_threshold, success_prob, expected_cost)


def dominates(a: Objectives, b: Objectives) -> bool:
    """Constrained dominance: feasibility first, then cost/probability."""
    if a.feasible and not b.feasible:
        return True
    if not a.feasible and b.feasible:
        return False
    if not a.feasible and not b.feasible:
        return a.violation < b.violation
    better_somewhere = a.expected_cost < b.expected_cost or a.success_prob > b.success_prob
    worse_nowhere = a.expected_cost <= b.expected_cost and a.success_prob >= b.success_prob
    return worse_nowhere and better_somewhere


def pareto_front(points) -> list[tuple[float, float]]:
    """The (cost, success) points no other point dominates, by ascending
    cost: one sweep by cost, keeping each point that beats the best success
    seen so far (a tie in cost sorts the higher success first)."""
    front = []
    for c, s in sorted(set(points), key=lambda p: (p[0], -p[1])):
        if not front or s > front[-1][1]:
            front.append((c, s))
    return front


def _nondominated(log: list[tuple[tuple[int, ...], Objectives]]) -> list[tuple[tuple[int, ...], Objectives]]:
    """Takes feasible (genotype, objectives) evaluations, among which
    constrained dominance is plain (cost, success) dominance: keeps every
    evaluation at a `pareto_front` point, by ascending cost."""
    front = set(pareto_front(o.as_pair() for _, o in log))
    return sorted((item for item in log if item[1].as_pair() in front), key=_log_sort_key)


class _Evaluator:
    """Genotype evaluation for one run.  The cache is the evaluation log: a
    dict keeps insertion order, so it lists each genotype once, in the order
    it was first evaluated.  ``log`` seeds it with earlier evaluations.

    Each chain is scored on its own slice of the genotype and memoised on
    that slice; the memos live as long as the evaluator, one run."""

    def __init__(self, model: ParametricPlanModel, log=()):
        self.model = model
        self.cache: dict[tuple[int, ...], Objectives] = dict(log)
        self.chains = []    # (chain, slice start, slice end, budgeted task ids, memo)
        start = 0
        for chain in model.chains:
            tasks = tuple(slot.task for slot in chain.retry_slots)
            self.chains.append((chain, start, start + len(tasks), tasks, {}))
            start += len(tasks)

    def __call__(self, genotype: tuple[int, ...]) -> Objectives:
        objectives = self.cache.get(genotype)
        if objectives is None:
            succ = 1.0
            cost = 0.0
            for chain, lo, hi, tasks, memo in self.chains:
                key = genotype[lo:hi]
                metrics = memo.get(key)
                if metrics is None:
                    metrics = memo[key] = closed_form_chain_metrics(chain, dict(zip(tasks, key)))
                succ *= metrics[0]
                cost += metrics[1]
            objectives = self.cache[genotype] = _objectives(self.model.p_succ_threshold, succ, cost)
        return objectives

    def evaluate_batch(self, genotypes: list[tuple[int, ...]]):
        """Evaluate the uncached genotypes of a batch in sorted order."""
        for g in sorted({g for g in genotypes if g not in self.cache}):
            self(g)

    @property
    def count(self):
        return len(self.cache)

    def archive(self, seed: int, config: dict, exhaustive: bool) -> ParetoArchive:
        """The run's archive: the feasible nondominated evaluations of the
        log, each with its budget dictionary."""
        log = list(self.cache.items())
        tasks = [slot.task for slot in self.model.retry_slots()]
        front = _nondominated([item for item in log if item[1].feasible])
        entries = [ArchiveEntry(g, dict(zip(tasks, g)), o) for g, o in front]
        return ParetoArchive(self.model.plan_hash, entries, seed, config, log, exhaustive)


# ---------------------------------------------------------------------------
# NSGA-II


def _fast_nondominated_sort(objs: list[Objectives]) -> list[list[int]]:
    """Deb's fronts, each in the order Deb's pairwise loop builds it, by a
    sweep in O(N log N) plus the order windows (Jensen, IEEE TEC 2003).

    The feasible points are placed in (cost, -success) order: every point
    that dominates one comes before it, so each point joins the first
    front whose last point does not dominate it, found by binary search.
    In that order a front's costs and successes both ascend (equal points
    aside) and its last point has the highest success; the keys
    ``(-success, cost)`` of the fronts' last points ascend across fronts.
    The infeasible points follow, one front per distinct violation in
    ascending order, since violation alone orders them.

    Deb's loop appends a point of front k+1 when it meets the point's last
    dominator in front k, so front 0 is in index order and front k+1 in
    order of (the greatest front-k position among the point's dominators,
    index).  Those dominators are one window of front k in sweep order,
    cost <= c and success >= s, and two ``bisect`` calls find it.  An
    infeasible front is dominated by the whole front before it, so it
    keeps index order."""
    feasible = sorted(
        (i for i, o in enumerate(objs) if o.feasible),
        key=lambda i: (objs[i].expected_cost, -objs[i].success_prob),
    )
    sweep: list[list[int]] = []        # fronts in sweep order
    lasts: list[tuple] = []            # (-success, cost) of each front's last point
    for i in feasible:
        o = objs[i]
        key = (-o.success_prob, o.expected_cost)
        k = bisect.bisect_left(lasts, key)
        if k == len(sweep):
            sweep.append([i])
            lasts.append(key)
        else:
            sweep[k].append(i)
            lasts[k] = key
    fronts: list[list[int]] = []
    position: dict[int, int] = {}      # Deb position of each point of the last front
    for k, members in enumerate(sweep):
        if k == 0:
            front = sorted(members)
        else:
            prev = sweep[k - 1]
            costs = [objs[i].expected_cost for i in prev]
            succs = [objs[i].success_prob for i in prev]
            order = {}
            for i in members:
                lo = bisect.bisect_left(succs, objs[i].success_prob)
                hi = bisect.bisect_right(costs, objs[i].expected_cost)
                order[i] = (max(position[j] for j in prev[lo:hi]), i)
            front = sorted(members, key=order.__getitem__)
        position = {i: p for p, i in enumerate(front)}
        fronts.append(front)
    by_violation: dict[float, list[int]] = {}
    for i, o in enumerate(objs):
        if not o.feasible:
            by_violation.setdefault(o.violation, []).append(i)
    fronts.extend(by_violation[v] for v in sorted(by_violation))
    return fronts


def _crowding(objs: list[Objectives], front: list[int]) -> dict[int, float]:
    """Deb's crowding distance of each member of ``front``, indices into
    ``objs``: per objective, the members ranked by value (ties in front
    order), the two ends infinite and each inner member the normalised gap
    between its neighbours."""
    if len(front) <= 2:
        return dict.fromkeys(front, float("inf"))
    dist = dict.fromkeys(front, 0.0)
    for value in ({i: objs[i].expected_cost for i in front}, {i: objs[i].success_prob for i in front}):
        ranked = sorted(front, key=value.__getitem__)
        lo, hi = value[ranked[0]], value[ranked[-1]]
        dist[ranked[0]] = dist[ranked[-1]] = float("inf")
        if hi - lo <= 0:
            continue
        for pos in range(1, len(ranked) - 1):
            dist[ranked[pos]] += (value[ranked[pos + 1]] - value[ranked[pos - 1]]) / (hi - lo)
    return dist


def _tournament(rng: random.Random, pop: list, rank_of: dict, crowd_of: dict) -> tuple[int, ...]:
    """Binary tournament: lower rank, then larger crowding distance, then
    the smaller genotype."""
    a, b = rng.randrange(len(pop)), rng.randrange(len(pop))
    ga, gb = pop[a], pop[b]
    if rank_of[ga] != rank_of[gb]:
        return ga if rank_of[ga] < rank_of[gb] else gb
    if crowd_of[ga] != crowd_of[gb]:
        return ga if crowd_of[ga] > crowd_of[gb] else gb
    return min(ga, gb)


def _next_generation(
    pop: list[tuple[int, ...]], ev: _Evaluator, rng: random.Random, bounds, cfg: GaConfig
) -> list[tuple[int, ...]]:
    """One NSGA-II generation: rank and crowd ``pop``, breed offspring by
    tournament, uniform crossover and per-gene mutation, evaluate those the
    budget still allows, and keep the best ``cfg.population`` of the union."""
    log = ev.cache    # every member of pop and of the union below is in it
    objs = [log[g] for g in pop]
    rank_of: dict[tuple[int, ...], int] = {}
    crowd_of: dict[tuple[int, ...], float] = {}
    for r, front in enumerate(_fast_nondominated_sort(objs)):
        cd = _crowding(objs, front)
        for i in front:
            rank_of[pop[i]] = r
            crowd_of[pop[i]] = cd[i]

    mut_rate = 1.0 / len(bounds)
    rand = rng.random
    offspring: list[tuple[int, ...]] = []
    while len(offspring) < cfg.population:
        c1 = list(_tournament(rng, pop, rank_of, crowd_of))
        c2 = list(_tournament(rng, pop, rank_of, crowd_of))
        if rand() < CROSSOVER_RATE:
            for k in range(len(bounds)):
                if rand() < 0.5:
                    c1[k], c2[k] = c2[k], c1[k]
        for child in (c1, c2):
            for k, (lo, hi) in enumerate(bounds):
                if rand() < mut_rate:
                    child[k] = rng.randint(lo, hi)
        offspring.append(tuple(c1))
        if len(offspring) < cfg.population:
            offspring.append(tuple(c2))
    offspring = offspring[: cfg.evaluations - ev.count]
    ev.evaluate_batch(offspring)

    union = list(dict.fromkeys(pop + offspring))
    uobjs = [log[g] for g in union]
    new_pop: list[tuple[int, ...]] = []
    for front in _fast_nondominated_sort(uobjs):
        if len(new_pop) + len(front) <= cfg.population:
            new_pop.extend(union[i] for i in sorted(front, key=lambda i: union[i]))
        else:
            cd = _crowding(uobjs, front)
            rest = sorted(front, key=lambda i: (-cd[i], union[i]))
            new_pop.extend(union[i] for i in rest[: cfg.population - len(new_pop)])
            break
    return new_pop


def synthesize(model: ParametricPlanModel, cfg: Optional[GaConfig] = None) -> ParetoArchive:
    """Search the budget space; returns the archive of feasible nondominated
    evaluations.  Small spaces are enumerated exhaustively (see module doc);
    a model without retry slots has a space of one vector, the empty
    genotype.  An empty archive is a reported outcome, not an error: it
    means no feasible budget vector was found."""
    cfg = cfg or GaConfig()
    bounds = model.bounds()
    space = model.space_size()
    if space <= min(cfg.evaluations, EXHAUSTIVE_LIMIT):
        return replace(exhaustive_synthesize(model), seed=cfg.seed, config=_config_echo(cfg))

    rng = random.Random(cfg.seed)
    ev = _Evaluator(model)
    pop = [tuple(rng.randint(lo, hi) for lo, hi in bounds) for _ in range(cfg.population)]
    ev.evaluate_batch(pop)

    stalled = 0
    while ev.count < cfg.evaluations:
        before = ev.count
        pop = _next_generation(pop, ev, rng, bounds, cfg)
        # a converged population can keep emitting cached genotypes; give up
        # on the remaining budget after enough fruitless generations
        stalled = stalled + 1 if ev.count == before else 0
        if stalled >= 50:
            break

    return ev.archive(cfg.seed, _config_echo(cfg), exhaustive=False)


def exhaustive_synthesize(model: ParametricPlanModel) -> ParetoArchive:
    """Enumerate the whole budget space; exact Pareto set and front.  A
    model without retry slots has one vector, the empty genotype."""
    space = model.space_size()
    if space > EXHAUSTIVE_LIMIT:
        raise LimitExceeded(f"genotype space {space} exceeds limit {EXHAUSTIVE_LIMIT}")
    ev = _Evaluator(model)
    for genotype in itertools.product(*(range(lo, hi + 1) for lo, hi in model.bounds())):
        ev(genotype)
    return ev.archive(0, {"exhaustive": True, "limit": EXHAUSTIVE_LIMIT}, exhaustive=True)


def _config_echo(cfg: GaConfig) -> dict:
    return {
        "population": cfg.population,
        "evaluations": cfg.evaluations,
        "crossover_rate": CROSSOVER_RATE,
        "mutation_rate": None,   # 1 / number of retry slots
    }


def extend_archive(
    model: ParametricPlanModel, archive: ParetoArchive, assignments: Sequence[RetryAssignment]
) -> ParetoArchive:
    """Evaluate extra budget vectors and rebuild the archive from its log.

    The archive accumulates every feasible evaluation ever seen, so scenario
    harnesses may pin specific deployable vectors.  The new vectors join the
    end of the archive's evaluation log (a vector already there is not
    evaluated again) and the nondominated filter reruns over the whole log.
    """
    ev = _Evaluator(model, archive.audit_log)
    for assignment in assignments:
        validate_assignment(model, assignment)
        ev(tuple(assignment[s.task] for s in model.retry_slots()))
    return ev.archive(archive.seed, archive.config, archive.exhaustive)


def save_archive(archive: ParetoArchive, path):
    with open(path, "w") as fh:
        json.dump(archive.to_json(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
