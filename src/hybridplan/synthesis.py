"""Multi-objective synthesis of retry budgets.

NSGA-II over integer attempt-budget vectors, scoring each candidate exactly
with the closed form of its independent per-agent chains (success
probabilities multiply, expected costs add).  The mission success
floor enters the search through constrained dominance: feasible solutions
beat infeasible ones, infeasible ones compare by constraint violation.  The
archive accumulates every feasible evaluation ever seen and keeps the
nondominated ones, so several budget vectors may share one front point.

Genotype spaces no larger than the evaluation budget (and the exhaustive
limit) are enumerated outright instead of sampled; a randomised search
cannot guarantee covering them, and for such small spaces enumeration is
cheaper anyway.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .chains import ParametricPlanModel, RetryAssignment, closed_form_mission_metrics, validate_assignment
from .errors import LimitExceeded

# Evaluation no longer calls these two, but they stay synthesis attributes:
# benchmark/spans.py wraps them by name.
from .chains import instantiate  # noqa: F401
from .pmc import factored_mission_metrics  # noqa: F401

EXHAUSTIVE_LIMIT = 4096


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
    crossover_rate: float = 0.9
    mutation_rate: Optional[float] = None    # default 1/n_slots
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.evaluations < self.population:
            raise ValueError("evaluations must be >= population")


@dataclass
class ParetoArchive:
    """Feasible nondominated evaluations plus run provenance.

    audit_log holds every evaluation the run performed (feasible or not);
    it backs post-run soundness checks and is not serialized.
    """

    plan_hash: str
    entries: list[ArchiveEntry]
    seed: int
    config: dict
    evaluated: int = 0
    exhaustive: bool = False
    audit_log: list = None

    def front(self) -> list[tuple[float, float]]:
        """Distinct nondominated objective points, cost-ascending."""
        pts = sorted({e.point() for e in self.entries})
        return pts

    def is_empty(self) -> bool:
        return not self.entries

    def min_cost_entry(self) -> ArchiveEntry:
        return sorted(self.entries, key=_entry_sort_key)[0]

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

    @staticmethod
    def from_json(doc: dict) -> "ParetoArchive":
        entries = []
        for raw in doc["entries"]:
            retries = dict(raw["retries"])
            genotype = tuple(retries[k] for k in sorted(retries))
            entries.append(
                ArchiveEntry(
                    genotype,
                    retries,
                    Objectives(
                        raw["expected_cost"],
                        raw["success_prob"],
                        raw["feasible"],
                        0.0 if raw["feasible"] else 1.0,
                    ),
                )
            )
        arch = ParetoArchive(
            doc["plan_hash"], entries, doc["seed"], doc.get("config", {}),
            doc.get("evaluated", 0), doc.get("exhaustive", False),
        )
        return arch

    def front_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["expected_cost", "success_prob"])
        for cost, prob in self.front():
            writer.writerow([repr(cost), repr(prob)])
        return buf.getvalue()


def _entry_sort_key(e: ArchiveEntry):
    return (e.objectives.expected_cost, -e.objectives.success_prob, e.genotype)


# ---------------------------------------------------------------------------
# evaluation and dominance


def evaluate(model: ParametricPlanModel, assignment: RetryAssignment) -> Objectives:
    """Exact objectives of one budget vector by the chains' closed form."""
    validate_assignment(model, assignment)
    success_prob, expected_cost = closed_form_mission_metrics(model, assignment)
    violation = max(0.0, model.p_succ_threshold - success_prob)
    return Objectives(
        expected_cost=expected_cost,
        success_prob=success_prob,
        feasible=violation == 0.0,
        violation=violation,
    )


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


def _nondominated(entries: list[ArchiveEntry]) -> list[ArchiveEntry]:
    keep = []
    for e in entries:
        if not any(dominates(o.objectives, e.objectives) for o in entries if o is not e):
            keep.append(e)
    # dedupe identical genotypes, canonical order
    seen = set()
    out = []
    for e in sorted(keep, key=_entry_sort_key):
        if e.genotype not in seen:
            seen.add(e.genotype)
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# genotype helpers


def _genotype_to_assignment(model: ParametricPlanModel, genotype: Sequence[int]) -> RetryAssignment:
    return {slot.task: g for slot, g in zip(model.retry_slots(), genotype)}


def _space_iter(bounds):
    def rec(i, prefix):
        if i == len(bounds):
            yield tuple(prefix)
            return
        lo, hi = bounds[i]
        for v in range(lo, hi + 1):
            prefix.append(v)
            yield from rec(i + 1, prefix)
            prefix.pop()

    yield from rec(0, [])


class _Evaluator:
    """Caching evaluation wrapper; also logs every evaluation for auditing."""

    def __init__(self, model: ParametricPlanModel):
        self.model = model
        self.cache: dict[tuple[int, ...], Objectives] = {}
        self.log: list[tuple[tuple[int, ...], Objectives]] = []

    def __call__(self, genotype: tuple[int, ...]) -> Objectives:
        if genotype not in self.cache:
            obj = evaluate(self.model, _genotype_to_assignment(self.model, genotype))
            self.cache[genotype] = obj
            self.log.append((genotype, obj))
        return self.cache[genotype]

    def evaluate_batch(self, genotypes: list[tuple[int, ...]]):
        """Evaluate the uncached genotypes of a batch in sorted order."""
        for g in sorted({g for g in genotypes if g not in self.cache}):
            self(g)

    @property
    def count(self):
        return len(self.cache)


# ---------------------------------------------------------------------------
# NSGA-II


def _fast_nondominated_sort(objs: list[Objectives]) -> list[list[int]]:
    n = len(objs)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    dom_count = [0] * n
    fronts: list[list[int]] = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(objs[i], objs[j]):
                dominated_by[i].append(j)
            elif dominates(objs[j], objs[i]):
                dom_count[i] += 1
        if dom_count[i] == 0:
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        nxt = []
        for i in fronts[k]:
            for j in dominated_by[i]:
                dom_count[j] -= 1
                if dom_count[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
        k += 1
    return [f for f in fronts if f]


def _crowding(objs: list[Objectives], front: list[int]) -> dict[int, float]:
    dist = {i: 0.0 for i in front}
    if len(front) <= 2:
        for i in front:
            dist[i] = float("inf")
        return dist
    for key in (lambda o: o.expected_cost, lambda o: o.success_prob):
        ranked = sorted(front, key=lambda i: key(objs[i]))
        lo, hi = key(objs[ranked[0]]), key(objs[ranked[-1]])
        dist[ranked[0]] = dist[ranked[-1]] = float("inf")
        if hi - lo <= 0:
            continue
        for pos in range(1, len(ranked) - 1):
            gap = key(objs[ranked[pos + 1]]) - key(objs[ranked[pos - 1]])
            dist[ranked[pos]] += gap / (hi - lo)
    return dist


def synthesize(model: ParametricPlanModel, cfg: Optional[GaConfig] = None) -> ParetoArchive:
    """Search the budget space; returns the archive of feasible nondominated
    evaluations.  Small spaces are enumerated exhaustively (see module doc).
    An empty archive is a reported outcome, not an error: it means no
    feasible budget vector was found."""
    cfg = cfg or GaConfig()
    slots = model.retry_slots()
    if not slots:
        raise ValueError("model has no retry slots to synthesise over")
    bounds = model.bounds()
    space = model.space_size()
    if space <= min(cfg.evaluations, EXHAUSTIVE_LIMIT):
        archive = exhaustive_synthesize(model, limit=EXHAUSTIVE_LIMIT)
        archive.seed = cfg.seed
        archive.config = _config_echo(cfg)
        return archive

    rng = random.Random(cfg.seed)
    ev = _Evaluator(model)
    mut_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / len(slots)

    def random_genotype():
        return tuple(rng.randint(lo, hi) for lo, hi in bounds)

    pop = [random_genotype() for _ in range(cfg.population)]
    ev.evaluate_batch(pop)

    def tournament(ranked_pop, rank_of, crowd_of):
        a, b = rng.randrange(len(ranked_pop)), rng.randrange(len(ranked_pop))
        ga, gb = ranked_pop[a], ranked_pop[b]
        if rank_of[ga] != rank_of[gb]:
            return ga if rank_of[ga] < rank_of[gb] else gb
        if crowd_of[ga] != crowd_of[gb]:
            return ga if crowd_of[ga] > crowd_of[gb] else gb
        return min(ga, gb)

    stalled = 0
    while ev.count < cfg.evaluations:
        before = ev.count
        objs = [ev(g) for g in pop]
        fronts = _fast_nondominated_sort(objs)
        rank_of: dict[tuple[int, ...], int] = {}
        crowd_of: dict[tuple[int, ...], float] = {}
        for r, front in enumerate(fronts):
            cd = _crowding(objs, front)
            for i in front:
                rank_of[pop[i]] = r
                crowd_of[pop[i]] = cd[i]

        offspring: list[tuple[int, ...]] = []
        while len(offspring) < cfg.population:
            p1 = tournament(pop, rank_of, crowd_of)
            p2 = tournament(pop, rank_of, crowd_of)
            c1, c2 = list(p1), list(p2)
            if rng.random() < cfg.crossover_rate:
                for k in range(len(bounds)):
                    if rng.random() < 0.5:
                        c1[k], c2[k] = c2[k], c1[k]
            for child in (c1, c2):
                for k, (lo, hi) in enumerate(bounds):
                    if rng.random() < mut_rate:
                        child[k] = rng.randint(lo, hi)
            offspring.append(tuple(c1))
            if len(offspring) < cfg.population:
                offspring.append(tuple(c2))
        budget_left = cfg.evaluations - ev.count
        offspring = offspring[: max(0, budget_left)] or offspring[:1]
        ev.evaluate_batch(offspring)

        union = list(dict.fromkeys(pop + offspring))
        uobjs = [ev(g) for g in union]
        ufronts = _fast_nondominated_sort(uobjs)
        new_pop: list[tuple[int, ...]] = []
        for front in ufronts:
            if len(new_pop) + len(front) <= cfg.population:
                new_pop.extend(union[i] for i in sorted(front, key=lambda i: union[i]))
            else:
                cd = _crowding(uobjs, front)
                rest = sorted(front, key=lambda i: (-cd[i], union[i]))
                new_pop.extend(union[i] for i in rest[: cfg.population - len(new_pop)])
                break
        pop = new_pop
        # a converged population can keep emitting cached genotypes; give up
        # on the remaining budget after enough fruitless generations
        stalled = stalled + 1 if ev.count == before else 0
        if stalled >= 50:
            break

    entries = [
        ArchiveEntry(g, _genotype_to_assignment(model, g), obj)
        for g, obj in ev.log
        if obj.feasible
    ]
    return ParetoArchive(
        plan_hash=model.plan_hash,
        entries=_nondominated(entries),
        seed=cfg.seed,
        config=_config_echo(cfg),
        evaluated=ev.count,
        exhaustive=False,
        audit_log=list(ev.log),
    )


def exhaustive_synthesize(model: ParametricPlanModel, limit: int = EXHAUSTIVE_LIMIT) -> ParetoArchive:
    """Enumerate the whole budget space; exact Pareto set and front."""
    slots = model.retry_slots()
    if not slots:
        raise ValueError("model has no retry slots to synthesise over")
    space = model.space_size()
    if space > limit:
        raise LimitExceeded(f"genotype space {space} exceeds limit {limit}")
    ev = _Evaluator(model)
    entries = []
    for genotype in _space_iter(model.bounds()):
        obj = ev(genotype)
        if obj.feasible:
            entries.append(ArchiveEntry(genotype, _genotype_to_assignment(model, genotype), obj))
    return ParetoArchive(
        plan_hash=model.plan_hash,
        entries=_nondominated(entries),
        seed=0,
        config={"exhaustive": True, "limit": limit},
        evaluated=ev.count,
        exhaustive=True,
        audit_log=list(ev.log),
    )


def _config_echo(cfg: GaConfig) -> dict:
    return {
        "population": cfg.population,
        "evaluations": cfg.evaluations,
        "crossover_rate": cfg.crossover_rate,
        "mutation_rate": cfg.mutation_rate,
    }


def extend_archive(
    model: ParametricPlanModel, archive: ParetoArchive, assignments: Sequence[RetryAssignment]
) -> ParetoArchive:
    """Evaluate extra budget vectors and fold the feasible ones in.

    The archive accumulates every feasible evaluation ever seen, so scenario
    harnesses may pin specific deployable vectors; the nondominated filter
    reruns afterwards, keeping the archive sound.
    """
    entries = list(archive.entries)
    added = 0
    for assignment in assignments:
        obj = evaluate(model, assignment)
        added += 1
        if obj.feasible:
            genotype = tuple(assignment[s.task] for s in model.retry_slots())
            entries.append(ArchiveEntry(genotype, dict(assignment), obj))
    return ParetoArchive(
        plan_hash=archive.plan_hash,
        entries=_nondominated(entries),
        seed=archive.seed,
        config=archive.config,
        evaluated=archive.evaluated + added,
        exhaustive=archive.exhaustive,
    )


def save_archive(archive: ParetoArchive, path):
    with open(path, "w") as fh:
        json.dump(archive.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
