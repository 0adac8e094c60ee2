"""Layer micro-benchmarks: one hot function timed alone.

Pytest collects only ``test_*.py`` files, so the tier-1 suite never runs
these.  Run them with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_layers.py --benchmark-only

Each benchmark also asserts the deterministic size of its result, so a
faster time cannot come from doing less work.
"""

from hybridplan import pmc
from hybridplan.baseline import build_full_mdp
from hybridplan.planner import _Compact


def test_successors_on_vineyard_start(benchmark, vineyard):
    problem = _Compact(vineyard)
    children = benchmark(problem.successors, problem.start, False)
    assert len(children) == 8


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
