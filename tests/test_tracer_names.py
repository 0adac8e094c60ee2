"""The benchmark tracer's boundaries name attributes that exist.

``benchmark/spans.py`` wraps module and class attributes by name
(``owner.__dict__[attr]``), so a renamed or deleted function would only
surface as a ``KeyError`` in a traced benchmark run.  These tests read the
boundary table and install the tracer around a few queries; they change
nothing under ``benchmark/``.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_names_an_attribute():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name in load_spans().BOUNDARIES
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_traced_queries_feed_the_solve_counters(m1_mini, m2_model):
    # a smoke run through the wrapped names: a changed signature of a
    # wrapped function or of what a result hook reads fails here
    from hybridplan import baseline, synthesis
    from hybridplan.chains import all_min_assignment

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        mdp = baseline.build_full_mdp(m1_mini)
        baseline.baseline_queries(mdp)
        baseline.enumerate_policies(mdp)
        synthesis.factored_mission_metrics(synthesis.instantiate(m2_model, all_min_assignment(m2_model)))
    finally:
        tracer.uninstall()
    assert tracer.counters["pmc.solve.unknowns"] > 0
    assert tracer.counters["baseline.policies"] > 0
    calls = {name: row["calls"] for name, row in tracer.by_name().items()}
    assert calls["pmc.solve"] > 0 and calls["pmc.factored_mission_metrics"] == 1
