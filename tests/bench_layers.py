"""Layer micro-benchmarks: one hot function timed alone.

Pytest collects only ``test_*.py`` files, so the tier-1 suite runs each of
these once, untimed, through ``tests/test_layer_benchmarks.py``.  Time them
with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_layers.py --benchmark-only

Each benchmark also asserts the deterministic size of its result, so a
faster time cannot come from doing less work.
"""

import random

from hybridplan import pmc
from hybridplan.adaptation import A1, Change, ExecutionContext, Progress, adapt, reduce_ps_psucc
from hybridplan.baseline import build_full_mdp
from hybridplan.bench import random_instance
from hybridplan.chains import all_max_assignment
from hybridplan.planner import _Compact, _Heuristic, plan_mission
from hybridplan.synthesis import GaConfig, _Evaluator, _next_generation, evaluate, synthesize
from hybridplan.world import Do, replay


def test_successors_on_vineyard_start(benchmark, vineyard):
    problem = _Compact(vineyard)
    children = benchmark(problem.successors, problem.start, False)
    assert len(children) == 8


def test_astar_on_the_slowest_plan_heavy_mission(benchmark):
    # one whole search on the plan-heavy catalogue's slowest mission
    spec = random_instance(10, 4, 18)
    plan = benchmark(plan_mission, spec)
    assert (plan.stats["expansions"], plan.travel_cost) == (355, 11.0)


def test_build_full_mdp_m1(benchmark, m1):
    mdp = benchmark(build_full_mdp, m1)
    assert mdp.n_states == 1216


def test_compile_mdp_m1(benchmark, m1):
    mdp = build_full_mdp(m1)
    cm = benchmark(pmc._compile_mdp, mdp)
    assert (mdp.n_states, cm.trans.shape[0], len(cm.trans.data)) == (1216, 5839, 5935)


def test_solve_linear_on_m1_routed_policy(benchmark, m1, monkeypatch):
    # the one linear solve of p_max on m1: its routed greedy policy's chain
    systems = []
    solve = pmc._solve_linear
    monkeypatch.setattr(pmc, "_solve_linear", lambda *args: systems.append(args) or solve(*args))
    pmc.mdp_max_reach_prob(build_full_mdp(m1), "success")
    monkeypatch.undo()
    ((unknowns, coeff, rhs),) = systems
    x = benchmark(pmc._solve_linear, unknowns, coeff, rhs)
    assert len(unknowns) == len(x) == 620


def test_heuristic_on_vineyard_start(benchmark, vineyard):
    # a fresh heuristic each round, so the call fills both of its caches
    problem = _Compact(vineyard)
    h = benchmark.pedantic(
        lambda heuristic: heuristic(problem.start),
        setup=lambda: ((_Heuristic(problem, "combined"),), {}),
        rounds=200,
    )
    assert h == (6.0, 7.0)


def test_evaluate_vineyard_max_budgets(benchmark, vineyard_model):
    assignment = all_max_assignment(vineyard_model)
    objectives = benchmark(evaluate, vineyard_model, assignment)
    assert (len(assignment), objectives.feasible) == (10, True)


def test_evaluate_genotype_vineyard_max_budgets(benchmark, vineyard_model):
    # the search's path to the same vector: one genotype through a fresh
    # evaluator, so every chain is walked and nothing is validated
    genotype = tuple(hi for _, hi in vineyard_model.bounds())
    objectives = benchmark(lambda: _Evaluator(vineyard_model)(genotype))
    assert (len(genotype), objectives) == (10, evaluate(vineyard_model, all_max_assignment(vineyard_model)))
    assert objectives.feasible


def test_nsga2_generation_on_vineyard(benchmark, vineyard_model):
    # each round breeds from the same seeded population with only that
    # population evaluated, so every round evaluates the same offspring
    cfg = GaConfig(population=30, evaluations=10_000, seed=7)
    bounds = vineyard_model.bounds()
    rng = random.Random(cfg.seed)
    pop = [tuple(rng.randint(lo, hi) for lo, hi in bounds) for _ in range(cfg.population)]
    log = _Evaluator(vineyard_model)
    log.evaluate_batch(pop)
    state = rng.getstate()

    def setup():
        rng = random.Random()
        rng.setstate(state)
        return (list(pop), _Evaluator(vineyard_model, log.cache.items()), rng), {}

    def generation(pop, ev, rng):
        return len(_next_generation(pop, ev, rng, bounds, cfg)), ev.count

    assert benchmark.pedantic(generation, setup=setup, rounds=50) == (30, 60)


def mid_vineyard(vineyard, plan, model) -> ExecutionContext:
    """The vineyard archive five actions into the scenario's stored plan,
    after one failure of its first task, with its first entry deployed."""
    archive = synthesize(model, GaConfig(seed=3))
    done = 5
    first = next(act.task for act in plan.total_order if isinstance(act, Do))
    return ExecutionContext(
        vineyard,
        plan,
        archive,
        archive.entries[0],
        Progress(done, {first: 1}, done),
        replay(vineyard, plan.total_order[:done]),
    )


def test_c2_reduction_mid_vineyard(benchmark, vineyard, scenario_plan, scenario_model):
    # against a floor that 36 of the archive's 54 entries clear
    ctx = mid_vineyard(vineyard, scenario_plan, scenario_model)
    survivors = benchmark(reduce_ps_psucc, ctx, 0.9)
    assert (len(ctx.archive.entries), len(survivors)) == (54, 36)


def test_c2_decision_mid_vineyard(benchmark, vineyard, scenario_plan, scenario_model):
    # the whole decision: check the change, re-root the spec at the new
    # floor, reduce the archive and swap to one of the 36 survivors (the
    # deployed entry is not among them)
    ctx = mid_vineyard(vineyard, scenario_plan, scenario_model)
    out = benchmark(adapt, ctx, Change("C2", ctx.progress.clock, value=0.9))
    assert (out.level, out.reduced_size, out.new_spec.constraints.p_succ) == (A1, 36, 0.9)


def test_re_root_vineyard(benchmark, vineyard):
    # the golden plans' mid-mission root: seven tasks pending, two overrides
    spec = benchmark(
        vineyard.with_runtime_state,
        {"r1": "l5", "r2": "l5", "w1": "l4", "w2": "l4"},
        ["t1l6a", "t1l6b", "t1l7", "t2l5", "t2l8a", "t2l8b", "t3l9"],
        {("w1", "t1l7"): 0.2, ("r2", "t1l6b"): 0.9},
    )
    assert (len(spec.pending), len(spec.p_overrides), spec.tasks is vineyard.tasks) == (7, 2, True)
