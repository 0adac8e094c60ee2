"""Layer micro-benchmarks: one hot function timed alone.

Pytest collects only ``test_*.py`` files, so the tier-1 suite never runs
these.  Run them with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_layers.py --benchmark-only

Each benchmark also asserts the deterministic size of its result, so a
faster time cannot come from doing less work.
"""

from hybridplan.baseline import build_full_mdp
from hybridplan.planner import _Compact


def test_successors_on_vineyard_start(benchmark, vineyard):
    problem = _Compact(vineyard)
    children = benchmark(problem.successors, problem.start, False)
    assert len(children) == 8


def test_build_full_mdp_m1(benchmark, m1):
    mdp = benchmark(build_full_mdp, m1)
    assert mdp.n_states == 1216
