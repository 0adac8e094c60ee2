"""The benchmark's workloads: their ops, reference answers and checks.

A workload is a list of ops built from the workload seed.  Each op is one
closed-loop call into the library (one caller; the next op starts after the
previous one returns) and takes only a generated mission document as input.
Missions come from ``hybridplan.bench.random_instance`` through the checked-in
catalogue (``data/catalogue.json``), which also holds their reference answers,
plus the bundled fixtures.

Draws from the catalogue are stratified: the catalogue is sorted by a work
measure (the op's measured time on plan-heavy and synth-heavy, A* expansions
on adapt, MDP states on baseline) and cut into as many equal strata as the
workload has random ops; the seed picks one mission per stratum.  Every seed therefore gets a different set of missions with the same
spread of difficulty, which keeps medians comparable across seeds.  Two more
rules serve the same end.  On plan-heavy and synth-heavy every mission is
synthesised with a GA seed of its own (its catalogue seed, 0 for a fixture),
so a mission yields the same archive under every workload seed.  On
plan-heavy the slowest missions of the pool run under every seed (a take-all
stratum), because op_s_p90 rests on the few slowest ops and the top strata
are the widest.

Checks use reference data and independent evaluators where they exist: the
blind-heuristic optimum from the catalogue, the closed-form chain metrics
instead of the explicit solve (also for the exhaustive-route oracle, which
enumerates the budget space here), and the MDP baseline's own acceptance
properties.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import hybridplan.adaptation as hp_adaptation
import hybridplan.baseline as hp_baseline
import hybridplan.chains as hp_chains
import hybridplan.planner as hp_planner
import hybridplan.spec as hp_spec
import hybridplan.synthesis as hp_synthesis
from hybridplan.bench import random_instance
from hybridplan.fixtures import fixture_text, load_fixture
from hybridplan.world import Do

import calibrate

TOL = 1e-9

# Per-run sizes: one pass over the ops takes about 20 s on the reference
# machine (see DESIGN.md).  More distinct missions per pass, rather than more
# passes, is what keeps the medians steady across seeds.
PLAN_HEAVY_DRAWS = 22
PLAN_HEAVY_TAIL = 3
SYNTH_HEAVY_DRAWS = 44
SYNTH_SMALL_DRAWS = 8
ADAPT_DRAWS_PER_SHAPE = 5
ADAPT_VINEYARD_STREAMS = 4
BASELINE_DRAWS = 24

PLAN_HEAVY_GA = dict(population=30, evaluations=150)
SYNTH_HEAVY_GA = dict(population=40, evaluations=300)
ADAPT_GA = dict(population=30, evaluations=150)


@dataclass
class Op:
    """One timed call.  ``run`` is the timed region; ``check`` returns the
    correctness problems of its result, ``counters`` its exact work counters
    and ``fronts`` the normalised hypervolumes of the archives it produced."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    counters: Callable[[Any], dict]
    fronts: Callable[[Any], list]
    known: Callable[[Any], list] = lambda result: []   # see AdaptResult.violations


@dataclass
class Workload:
    name: str
    ops: list
    decisions: Optional["DecisionTimer"] = None   # adapt: samples are adapt() calls

    def measure(self, op: Op, checking: bool) -> tuple[list, Any]:
        """Run one op; returns its latency samples (CPU seconds, less the
        calibration kernel's) and result."""
        if self.decisions is None:
            t0 = calibrate.clock()
            result = op.run()
            return [calibrate.clock() - t0], result
        timer = self.decisions
        timer.start(checking)
        try:
            result = op.run()
        finally:
            samples = timer.stop()
        return samples, result


# ---------------------------------------------------------------------------
# shared helpers


def stratified(entries: list, n: int, rng: random.Random, key) -> list:
    """One entry from each of n equal strata of entries sorted by key."""
    ordered = sorted(entries, key=lambda e: (key(e), e["tasks"], e["agents"], e["seed"]))
    if len(ordered) < n:
        raise ValueError(f"catalogue has {len(ordered)} entries, {n} strata requested")
    picks = []
    for i in range(n):
        lo, hi = i * len(ordered) // n, (i + 1) * len(ordered) // n
        picks.append(ordered[rng.randrange(lo, hi)])
    return picks


def run_order(ops: list, rng: random.Random) -> list:
    """The fixture op first (set-up warms up on it), the others shuffled.
    Draws come out of ``stratified`` sorted by difficulty; run in that order,
    the ops around one quantile would run back to back, and a slow spell of
    the machine lasting a few seconds would shift that quantile alone."""
    rest = ops[1:]
    rng.shuffle(rest)
    return ops[:1] + rest


def mission_text(entry: dict) -> str:
    return hp_spec.serialize(random_instance(entry["tasks"], entry["agents"], entry["seed"]))


def normalised_hv(model, points) -> float:
    """Hypervolume of (cost, success) points (cost minimised, success
    maximised) inside the box spanned by the closed-form all-min and all-max
    budget points and the success floor, as a share of the box."""
    floor = model.p_succ_threshold
    _, c_lo = hp_chains.closed_form_mission_metrics(model, hp_chains.all_min_assignment(model))
    s_hi, c_hi = hp_chains.closed_form_mission_metrics(model, hp_chains.all_max_assignment(model))
    if c_hi <= c_lo or s_hi <= floor:
        return 1.0 if points else 0.0
    clipped = sorted((min(max(c, c_lo), c_hi), min(s, s_hi)) for c, s in points)
    area, best = 0.0, floor
    for i, (c, s) in enumerate(clipped):
        best = max(best, s)
        right = clipped[i + 1][0] if i + 1 < len(clipped) else c_hi
        area += (right - c) * (best - floor)
    return area / ((c_hi - c_lo) * (s_hi - floor))


def archive_problems(model, archive, where: str) -> list:
    """Every entry re-verified by the closed form, feasible, and mutually
    nondominated with the others; an exhaustive-route archive also matches
    the oracle."""
    out = []
    if archive.is_empty():
        return [f"{where}: empty archive"]
    floor = model.p_succ_threshold
    points = []
    for e in archive.entries:
        s, c = hp_chains.closed_form_mission_metrics(model, e.retries)
        o = e.objectives
        if abs(s - o.success_prob) > TOL or abs(c - o.expected_cost) > TOL * max(1.0, abs(c)):
            out.append(f"{where}: {e.retries} stored ({o.expected_cost}, {o.success_prob}) "
                       f"!= closed form ({c}, {s})")
        if not o.feasible or s < floor - TOL:
            out.append(f"{where}: {e.retries} infeasible (success {s} < floor {floor})")
        points.append((o.expected_cost, o.success_prob))
    for i, (ci, si) in enumerate(points):
        for cj, sj in points:
            if cj <= ci and sj >= si and (cj < ci or sj > si):
                out.append(f"{where}: entry {i} ({ci}, {si}) is dominated by ({cj}, {sj})")
                break
    if archive.exhaustive:
        out += exhaustive_problems(model, archive, where)
    return out


def exhaustive_problems(model, archive, where: str) -> list:
    """An exhaustive-route archive against an oracle built here.

    The benchmark enumerates the budget space itself and takes the
    library's value for every vector from the archive's audit log, which must
    cover the space exactly.  Each value must match the closed form to TOL,
    and its feasibility flag must match its success against the floor.  The
    feasible nondominated set of these values, by the dominance test below,
    must then hold exactly the archive's genotypes.  Dominance is decided on
    the logged values, not the closed form: the two differ in the last bits
    (0.9999999999999999 against 1.0), and such near-ties decide membership.
    """
    slots = model.retry_slots()
    floor = model.p_succ_threshold
    space = list(itertools.product(*(range(lo, hi + 1) for lo, hi in model.bounds())))
    log = archive.audit_log or []
    logged = dict(log)
    if len(log) != len(space) or set(logged) != set(space):
        return [f"{where}: exhaustive route evaluated {len(log)} vectors, the space holds {len(space)}"]
    out, feasible = [], []
    for g in space:
        o = logged[g]
        s, c = hp_chains.closed_form_mission_metrics(model, {sl.task: x for sl, x in zip(slots, g)})
        if abs(s - o.success_prob) > TOL or abs(c - o.expected_cost) > TOL * max(1.0, abs(c)):
            out.append(f"{where}: vector {g} evaluated ({o.expected_cost}, {o.success_prob}) "
                       f"!= closed form ({c}, {s})")
        if o.feasible != (o.success_prob >= floor):
            out.append(f"{where}: vector {g} flagged feasible={o.feasible} at success {o.success_prob}")
        if o.success_prob >= floor:
            feasible.append((g, o.expected_cost, o.success_prob))
    front = {g for g, c, s in feasible
             if not any(c2 <= c and s2 >= s and (c2 < c or s2 > s) for _, c2, s2 in feasible)}
    got = {e.genotype for e in archive.entries}
    out += [f"{where}: exhaustive route misses nondominated vector {g}" for g in sorted(front - got)]
    out += [f"{where}: exhaustive route keeps dominated or infeasible vector {g}" for g in sorted(got - front)]
    out += [f"{where}: entry {e.genotype} objectives differ from the evaluated ones"
            for e in archive.entries if e.genotype in logged and e.objectives != logged[e.genotype]]
    return out


def archive_digest(archive) -> list:
    return [[list(e.genotype), repr(e.objectives.expected_cost), repr(e.objectives.success_prob)]
            for e in archive.entries]


# ---------------------------------------------------------------------------
# plan-heavy and synth-heavy: one mission from spec build to deployable archive


@dataclass
class MissionResult:
    spec: Any
    plan: Any
    violations: list
    model: Any
    archive: Any


def mission_op(name: str, text: str, ref_cost: float, ga: hp_synthesis.GaConfig) -> Op:
    def run():
        spec = hp_spec.parse_problem_spec(text)
        plan = hp_planner.plan_mission(spec, hp_planner.PlannerConfig())
        violations = hp_planner.validate_plan(spec, plan)
        model = hp_chains.build_parametric_model(spec, plan)
        archive = hp_synthesis.synthesize(model, ga)
        return MissionResult(spec, plan, violations, model, archive)

    def check(r: MissionResult) -> list:
        out = [f"{name}: plan violation {v}" for v in r.violations]
        if r.plan.travel_cost != ref_cost:
            out.append(f"{name}: travel cost {r.plan.travel_cost} != reference optimum {ref_cost}")
        out += archive_problems(r.model, r.archive, name)
        return out

    def counters(r: MissionResult) -> dict:
        return {
            "travel_cost": r.plan.travel_cost,
            "plan_actions": len(r.plan.total_order),
            "evaluations": r.archive.evaluated,
            "archive_entries": len(r.archive.entries),
            "exhaustive": r.archive.exhaustive,
            "archive": archive_digest(r.archive),
        }

    def fronts(r: MissionResult) -> list:
        return [normalised_hv(r.model, [e.point() for e in r.archive.entries])]

    return Op(name, run, check, counters, fronts)


def fixture_mission(name: str, catalogue: dict, ga: hp_synthesis.GaConfig) -> Op:
    ref = catalogue["fixtures"][name]["travel_cost"]
    return mission_op(name, fixture_text(name), ref, ga)


def catalogue_mission(entry: dict, ga: hp_synthesis.GaConfig) -> Op:
    name = f"rand{entry['tasks']}x{entry['agents']}s{entry['seed']}"
    return mission_op(name, mission_text(entry), entry["travel_cost"], ga)


def build_plan_heavy(seed: int, catalogue: dict) -> Workload:
    """The slowest missions of the pool run in every pass (a take-all
    stratum): they set op_s_p90, which would otherwise swing with the one
    mission a seed draws from the widest top strata."""
    rng = random.Random(f"plan-heavy/{seed}")
    pool = sorted(catalogue["plan_heavy"], key=lambda e: (e["op_s"], e["tasks"], e["agents"], e["seed"]))
    tail = pool[-PLAN_HEAVY_TAIL:]
    draws = stratified(pool[:-PLAN_HEAVY_TAIL], PLAN_HEAVY_DRAWS, rng, key=lambda e: e["op_s"]) + tail
    ops = [fixture_mission("vineyard", catalogue, hp_synthesis.GaConfig(**PLAN_HEAVY_GA, seed=0))]
    for entry in draws:
        ops.append(catalogue_mission(entry, hp_synthesis.GaConfig(**PLAN_HEAVY_GA, seed=entry["seed"])))
    return Workload("plan-heavy", run_order(ops, rng))


def build_synth_heavy(seed: int, catalogue: dict) -> Workload:
    rng = random.Random(f"synth-heavy/{seed}")
    heavy = stratified(catalogue["synth_heavy"], SYNTH_HEAVY_DRAWS, rng, key=lambda e: e["op_s"])
    small_pool = [e for e in catalogue["synth_small"] if e["space"] <= SYNTH_HEAVY_GA["evaluations"]]
    small = stratified(small_pool, SYNTH_SMALL_DRAWS, rng, key=lambda e: e["space"])
    ops = [fixture_mission(n, catalogue, hp_synthesis.GaConfig(**SYNTH_HEAVY_GA, seed=0))
           for n in ("m2", "m1_mini")]
    for entry in small + heavy:
        ops.append(catalogue_mission(entry, hp_synthesis.GaConfig(**SYNTH_HEAVY_GA, seed=entry["seed"])))
    return Workload("synth-heavy", run_order(ops, rng))


# ---------------------------------------------------------------------------
# adapt: change streams driven through the execution harness


class DecisionTimer:
    """Times every ``adaptation.adapt`` call the harness makes (looked up in
    the adaptation module) and, while checking, verifies that the entry
    deployed after each decision meets the success floor then in force."""

    def __init__(self):
        self.samples: list = []
        self.problems: list = []
        self.violations: list = []
        self.archives: list = []     # (model, archive) produced by A2/A3
        self.checking = False
        self._original = None

    def install(self):
        self._original = original = hp_adaptation.adapt

        def timed_adapt(ctx, change):
            t0 = calibrate.clock()
            out = original(ctx, change)
            self.samples.append(calibrate.clock() - t0)
            if out.new_archive is not None and out.new_model is not None and out.new_model.retry_slots():
                self.archives.append((out.new_model, out.new_archive))
            if self.checking:
                problems, violations = decision_problems(ctx, change, out)
                self.problems += problems
                self.violations += violations
            return out

        hp_adaptation.adapt = timed_adapt

    def uninstall(self):
        hp_adaptation.adapt = self._original

    def start(self, checking: bool):
        self.samples, self.problems, self.violations, self.archives = [], [], [], []
        self.checking = checking

    def stop(self) -> list:
        return self.samples


def remaining_closed_form(ctx, entry) -> float:
    """Success of the remaining suffix under the entry's budgets net of the
    failures consumed since its epoch, by the closed form."""
    model = hp_adaptation.build_suffix_model(ctx)
    assignment = {}
    for slot in model.retry_slots():
        budget = entry.retries.get(slot.task, 1) - ctx.failures_since_epoch(slot.task)
        if budget < slot.lo:
            return 0.0
        assignment[slot.task] = min(budget, slot.hi)
    return hp_chains.closed_form_mission_metrics(model, assignment)[0]


def decision_problems(ctx, change, out) -> tuple[list, list]:
    """Whether the entry deployed after a decision meets the floor then in
    force, by its success on the remaining mission computed by the closed
    form: a fresh A2/A3 entry on its new model (its stored success is
    re-verified too), a surviving NA/A1 entry on the remaining suffix net of
    the failures consumed since its archive's epoch.

    Returns (problems, violations).  A shortfall is a problem where the
    adaptation algorithm verifies success: fresh A2/A3 entries, and C2
    survivors, which it re-verifies on the remaining suffix.  C1, C3 and C4
    survivors are filtered by budget, allocation and executed prefix only, so
    a failure absorbed as NA can leave the deployed entry below the floor;
    such a shortfall is a known gap of the algorithm, returned as a
    violation and reported apart from failed ops."""
    spec_after = out.new_spec or ctx.spec
    floor = spec_after.constraints.p_succ
    where = f"t={change.time} {change.kind}->{out.level}"
    if out.level in (hp_adaptation.A2, hp_adaptation.A3):
        e = out.new_entry
        s, _ = hp_chains.closed_form_mission_metrics(out.new_model, e.retries)
        if abs(s - e.objectives.success_prob) > TOL:
            return [f"{where}: stored success {e.objectives.success_prob} != closed form {s}"], []
    else:
        e = ctx.deployed if out.level == hp_adaptation.NA else out.new_entry
        s = remaining_closed_form(dataclasses.replace(ctx, spec=spec_after), e)
    if s >= floor - TOL:
        return [], []
    shortfall = [f"{where}: deployed entry's remaining success {s} below the floor {floor}"]
    if out.level in (hp_adaptation.A2, hp_adaptation.A3) or change.kind == "C2":
        return shortfall, []
    return [], shortfall


@dataclass
class AdaptResult:
    trace: Any
    problems: list
    violations: list      # known floor shortfalls (see decision_problems)
    archives: list = field(default_factory=list)


def change_stream(plan, rng: random.Random) -> list:
    """Seeded changes against a plan: a failure of the first task attempt,
    five success-floor changes, an allocation-threshold change and a
    success-probability change on the plan's last task.  Values keep every
    mission recoverable (floors at most the declared 0.9, thresholds below
    every worker rate, probabilities above the threshold).  The C2 changes
    are most of the stream so that the median decision runs verification.
    The changes fall one in each equal slice of the mission and the floors
    one in each fifth of their range: a C2 decision's cost follows the
    length of the remaining mission and how many entries the floor keeps,
    so spreading them evenly steadies op_s_p50 across seeds."""
    Change = hp_adaptation.Change
    first = min((slot, agent, act.task)
                for agent, lane in plan.timed.items()
                for slot, act in enumerate(lane) if isinstance(act, Do))
    last = max((slot, agent, act.task)
               for agent, lane in plan.timed.items()
               for slot, act in enumerate(lane) if isinstance(act, Do))
    t0 = first[0]
    kinds = ["C2", "C2", "C3", "C2", "C2", "C4", "C2"]
    span = range(t0 + 1, max(plan.makespan(), t0 + 1 + len(kinds)))
    n = len(kinds)
    times = [span[rng.randrange(i * len(span) // n, (i + 1) * len(span) // n)] for i in range(n)]
    floors = [round(0.80 + 0.02 * (j + rng.random()), 4) for j in range(kinds.count("C2"))]
    rng.shuffle(floors)
    changes = [Change("C1", t0, task=first[2])]
    for t, kind in zip(times, kinds):
        if kind == "C2":
            changes.append(Change("C2", t, value=floors.pop()))
        elif kind == "C3":
            changes.append(Change("C3", t, value=round(rng.uniform(0.975, 0.98), 4)))
        else:
            changes.append(Change("C4", t, agent=last[1], task=last[2],
                                  value=round(rng.uniform(0.981, 0.999), 4)))
    return changes


def adapt_problems(name: str, r: AdaptResult) -> list:
    out = [f"{name}: {p}" for p in r.problems]
    if r.trace.result != "success":
        out.append(f"{name}: trace ended {r.trace.result}")
    for i, (model, archive) in enumerate(r.archives):
        out += archive_problems(model, archive, f"{name} archive {i}")
    return out


def adapt_counters(r: AdaptResult) -> dict:
    t = r.trace
    return {
        "levels": t.levels(),
        "result": t.result,
        "clock": t.clock,
        "travel_cost": t.travel_cost,
        "stage_counts": dict(sorted(t.stage_counts.items())),
        "archives": [archive_digest(a) for _, a in r.archives],
    }


def adapt_fronts(r: AdaptResult) -> list:
    return [normalised_hv(m, [e.point() for e in a.entries]) for m, a in r.archives]


def stream_op(name: str, text: str, sim_seed: int, ga: hp_synthesis.GaConfig, timer: DecisionTimer) -> Op:
    def run():
        spec = hp_spec.parse_problem_spec(text)
        plan = hp_planner.plan_mission(spec, hp_planner.PlannerConfig())
        model = hp_chains.build_parametric_model(spec, plan)
        archive = hp_synthesis.synthesize(model, ga)
        deploy = hp_adaptation.select_new_plan(archive.entries)
        changes = change_stream(plan, random.Random(sim_seed))
        trace = hp_adaptation.simulate(spec, plan, model, archive, deploy, changes, seed=sim_seed, ga=ga)
        return AdaptResult(trace, list(timer.problems), list(timer.violations),
                           [(model, archive)] + list(timer.archives))

    return Op(name, run, lambda r: adapt_problems(name, r), adapt_counters, adapt_fronts,
              known=lambda r: [f"{name}: {v}" for v in r.violations])


def bundled_scenario_op(timer: DecisionTimer) -> Op:
    text = fixture_text("vineyard")
    scenario = json.loads(fixture_text("scenario_adaptation"))
    expected = ["NA", "A1", "NA", "A2", "A3"]

    def run():
        spec = hp_spec.parse_problem_spec(text)
        trace = hp_adaptation.run_scenario(spec, scenario)
        return AdaptResult(trace, list(timer.problems), list(timer.violations), list(timer.archives))

    def check(r: AdaptResult) -> list:
        out = adapt_problems("scenario_adaptation", r)
        if r.trace.levels() != expected:
            out.append(f"scenario_adaptation: levels {r.trace.levels()} != {expected}")
        return out

    return Op("scenario_adaptation", run, check, adapt_counters, adapt_fronts,
              known=lambda r: [f"scenario_adaptation: {v}" for v in r.violations])


def build_adapt(seed: int, catalogue: dict) -> Workload:
    """Unlike the other workloads, every mission here is synthesised with the
    workload seed as its GA seed.  The archive decides whether a failure
    absorbed as NA leaves the deployed entry below the floor (a known gap,
    see decision_problems): with each mission's own GA seed no mission of
    the pool shows it, and the workload must keep showing it."""
    rng = random.Random(f"adapt/{seed}")
    timer = DecisionTimer()
    ga = hp_synthesis.GaConfig(**ADAPT_GA, seed=seed)
    ops = [bundled_scenario_op(timer)]
    for i in range(ADAPT_VINEYARD_STREAMS):
        ops.append(stream_op(f"vineyard-stream{i}", fixture_text("vineyard"), rng.randrange(1 << 30), ga, timer))
    shapes = sorted({(e["agents"], e["tasks"]) for e in catalogue["adapt"]})
    for agents, tasks in shapes:
        pool = [e for e in catalogue["adapt"] if (e["agents"], e["tasks"]) == (agents, tasks)]
        for entry in stratified(pool, ADAPT_DRAWS_PER_SHAPE, rng, key=lambda e: e["expansions"]):
            name = f"rand{tasks}x{agents}s{entry['seed']}-stream"
            ops.append(stream_op(name, mission_text(entry), rng.randrange(1 << 30), ga, timer))
    return Workload("adapt", run_order(ops, rng), decisions=timer)


# ---------------------------------------------------------------------------
# baseline: the whole-problem MDP


@dataclass
class BaselineResult:
    states: int
    queries: dict
    policies: Optional[dict]


def baseline_op(name: str, text: str, states: int, budget: int, enumerate_: bool, hybrid) -> Op:
    """hybrid: (model, archive) of the decomposed pipeline on the same
    mission, computed at set-up; its points must be reachable by the MDP."""
    model, archive = hybrid

    def run():
        spec = hp_spec.parse_problem_spec(text)
        mdp = hp_baseline.build_full_mdp(spec, state_budget=budget)
        queries = hp_baseline.baseline_queries(mdp)
        policies = hp_baseline.enumerate_policies(mdp, limit=100_000) if enumerate_ else None
        return BaselineResult(mdp.n_states, queries, policies)

    def check(r: BaselineResult) -> list:
        out = []
        if r.states != states:
            out.append(f"{name}: {r.states} MDP states != reference {states}")
        p_max = r.queries["p_max"]
        if name in ("m1", "m1_mini") and abs(p_max - 0.99) > TOL:
            out.append(f"{name}: p_max {p_max} != 0.99")
        best_hybrid = max(e.objectives.success_prob for e in archive.entries)
        if not best_hybrid - TOL <= p_max <= 1.0 + TOL:
            out.append(f"{name}: p_max {p_max} outside [{best_hybrid}, 1] (hybrid plan is one policy)")
        if r.policies is not None:
            pareto = r.policies["pareto"]
            for e in archive.entries:
                c, p = e.point()
                if not any(c2 <= c + TOL and p2 >= p - TOL for c2, p2 in pareto):
                    out.append(f"{name}: hybrid point ({c}, {p}) not weakly dominated by {pareto}")
        return out

    def counters(r: BaselineResult) -> dict:
        out = {"states": r.states, "p_max": repr(r.queries["p_max"]),
               "r_min_bounded": repr(r.queries["r_min_bounded"])}
        if r.policies is not None:
            out["policies"] = r.policies["policies"]
            out["pareto"] = [[repr(c), repr(p)] for c, p in r.policies["pareto"]]
        return out

    def fronts(r: BaselineResult) -> list:
        return [normalised_hv(model, r.policies["pareto"])] if r.policies is not None else []

    return Op(name, run, check, counters, fronts)


def hybrid_reference(spec):
    """The decomposed pipeline's exact archive for a baseline mission."""
    plan = hp_planner.plan_mission(spec)
    model = hp_chains.build_parametric_model(spec, plan)
    return model, hp_synthesis.exhaustive_synthesize(model)


def build_baseline(seed: int, catalogue: dict) -> Workload:
    rng = random.Random(f"baseline/{seed}")
    fx = catalogue["fixtures"]
    budget = catalogue["limits"]["baseline_states"]
    ops = [
        baseline_op("m1_mini", fixture_text("m1_mini"), fx["m1_mini"]["states"], budget, True,
                    hybrid_reference(load_fixture("m1_mini"))),
        baseline_op("m1", fixture_text("m1"), fx["m1"]["states"], budget, False,
                    hybrid_reference(load_fixture("m1"))),
    ]
    for entry in stratified(catalogue["baseline"], BASELINE_DRAWS, rng, key=lambda e: e["states"]):
        spec = random_instance(entry["tasks"], entry["agents"], entry["seed"])
        name = f"rand{entry['tasks']}x{entry['agents']}s{entry['seed']}"
        ops.append(baseline_op(name, hp_spec.serialize(spec), entry["states"], budget, False,
                               hybrid_reference(spec)))
    return Workload("baseline", run_order(ops, rng))


FACTORIES = {
    "plan-heavy": build_plan_heavy,
    "synth-heavy": build_synth_heavy,
    "adapt": build_adapt,
    "baseline": build_baseline,
}

# layer groups the traced run must find dominant (> half of all self time)
DOMINANT = {
    "plan-heavy": ("planner", "world"),
    "synth-heavy": ("pmc", "chains", "synthesis"),
    "baseline": ("pmc", "baseline"),
}
