"""Each rule and record has one home.

``ProblemSpec.eligible`` is the one comparison against gamma, and every
other module asks it.  Besides ``spec`` (which parses, copies and writes
gamma), only the PDDL export reads gamma, to write it into the domain file.
The scan reads the package sources and imports nothing from them.

The Pareto filter has one home: ``synthesis.pareto_front`` is the sorted
sweep behind every archive and the baseline's policy enumeration, and the
archive filter asks it rather than testing pairs with ``dominates``.

The adaptation harness records what has run once, as the dispatcher's trace
cursor, and the stages each level reruns once, in ``STAGES``.

A chain step has one shape: a move is the step without a task, so no kind
tag is stored beside the data it would restate.

An agent's capability on a task is resolved in one place,
``ProblemSpec.capability``, overrides included: no other module reads an
agent's declared ``capabilities``, and the baseline reads the planner's
table rather than asking the spec again.
"""

import ast
import dataclasses
from pathlib import Path

import hybridplan.adaptation as adaptation
from hybridplan.adaptation import Progress
from hybridplan.chains import ChainStep, ParametricPlanModel, RetrySlot
from hybridplan.spec import Agent, ProblemSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "hybridplan"
READERS = {"spec.py", "pddl.py"}


def attribute_reads(path: Path, attr: str) -> list[int]:
    """Line numbers of every ``<expr>.<attr>`` load in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load)
    ]


def test_gamma_read_only_in_spec_and_pddl():
    outside = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in READERS
        for line in attribute_reads(path, "gamma")
    ]
    assert outside == []
    assert attribute_reads(SRC / "spec.py", "gamma")   # the scan sees the reads it allows


def test_capabilities_read_only_in_spec():
    readers = [path.name for path in sorted(SRC.glob("*.py")) if attribute_reads(path, "capabilities")]
    assert readers == ["spec.py"]


def test_baseline_asks_the_spec_for_no_capability():
    tree = ast.parse((SRC / "baseline.py").read_text())
    calls = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert calls.isdisjoint({"capability", "p_success", "eligible", "task_cost", "max_retries"})
    assert attribute_reads(SRC / "baseline.py", "capability")   # the planner's table


def test_one_capability_accessor():
    assert not any(hasattr(ProblemSpec, name) for name in ("task_cost", "max_retries"))
    assert not hasattr(Agent, "capability_for")


def function_defs(path: Path, name: str) -> list[ast.FunctionDef]:
    """Every ``def name`` in one source file, nested ones included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name]


def test_pareto_front_defined_only_in_synthesis():
    homes = [path.name for path in sorted(SRC.glob("*.py")) for _ in function_defs(path, "pareto_front")]
    assert homes == ["synthesis.py"]


def test_archive_filter_runs_the_sweep():
    (node,) = function_defs(SRC / "synthesis.py", "_nondominated")
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    assert "pareto_front" in names and "dominates" not in names


def test_parametric_model_carries_no_threshold():
    assert "gamma" not in {f.name for f in dataclasses.fields(ParametricPlanModel)}


def test_chain_step_is_one_shape():
    assert [f.name for f in dataclasses.fields(ChainStep)] == ["cost", "task", "p_success", "retry_cap"]
    assert [f.name for f in dataclasses.fields(RetrySlot)] == ["task", "lo", "hi"]


def test_progress_keeps_one_record_of_what_ran():
    assert [f.name for f in dataclasses.fields(Progress)] == ["clock", "failures", "done"]


def test_stages_come_from_the_level_table():
    assert [name for name in vars(adaptation) if name.startswith("STAGES_")] == []
    assert set(adaptation.STAGES) == {adaptation.NA, adaptation.A1, adaptation.A2, adaptation.A3}
