"""Each rule and record has one home.

``ProblemSpec.eligible`` is the one comparison against gamma, and every
other module asks it.  Besides ``spec`` (which parses, copies and writes
gamma), only the PDDL export reads gamma, to write it into the domain file.
The scan reads the package sources and imports nothing from them.

The Pareto filter has one home: ``synthesis.pareto_front`` is the sorted
sweep behind every archive and the baseline's policy enumeration, and the
archive filter asks it rather than testing pairs with ``dominates``.

The adaptation harness records what has run once, as the dispatcher's trace
cursor, and the stages each level reruns once, in ``STAGES``.  Its Analyse
phase states the survivor rule once, in ``_survivors``, which takes no
per-change test, and asks the allocation question once, in
``_allocation_holds``.

A chain step has one shape: a move is the step without a task, so no kind
tag is stored beside the data it would restate.

An agent's capability on a task is resolved in one place,
``ProblemSpec.capability``, overrides included: no other module reads an
agent's declared ``capabilities``, and the baseline reads the planner's
table rather than asking the spec again.

Stage timing has one home: ``bench.stage`` reads the CPU clock for both the
CLI's manifest and the scaling sweep.

A spec's runtime state has one home: the constructor takes the mission only
and roots it at the default state, and ``ProblemSpec.with_runtime_state`` is
the one place that sets placement, pending tasks, overrides or constraints.

Whose fault an error is has one home, the exception's class: the user must
fix an ``InputError``, and ``cli.main`` decides its exit code by that class,
not by a list of builtin bases.  ``InfiniteRewardError`` stays outside it:
only ``pmc.expected_reward`` raises it, every agent chain ends in its success
or failure sink, and ``enumerate_policies`` catches it, so if it ever escapes
it is a fault.
"""

import ast
import builtins
import dataclasses
import inspect
from pathlib import Path

import hybridplan.adaptation as adaptation
import hybridplan.errors as errors
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


def test_one_survivor_rule_and_one_allocation_check():
    assert list(inspect.signature(adaptation._survivors).parameters) == ["ctx"]
    path = SRC / "adaptation.py"
    for name in ("reduce_ps_tf", "reduce_ps_psucc", "reduce_ps_passign", "reduce_ps_ptask"):
        (node,) = function_defs(path, name)
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        assert "_survivors" in names and "_entry_budget" not in names, name
    (holds,) = function_defs(path, "_allocation_holds")
    reads = attribute_reads(path, "eligible")
    assert reads and all(holds.lineno <= line <= holds.end_lineno for line in reads)


def test_cpu_clock_read_only_in_the_stage_timer():
    reads = [(path.name, line) for path in sorted(SRC.glob("*.py")) for line in attribute_reads(path, "process_time")]
    (timer,) = function_defs(SRC / "bench.py", "stage")
    assert reads and all(name == "bench.py" and timer.lineno <= line <= timer.end_lineno for name, line in reads)


def test_stages_come_from_the_level_table():
    assert [name for name in vars(adaptation) if name.startswith("STAGES_")] == []
    assert set(adaptation.STAGES) == {adaptation.NA, adaptation.A1, adaptation.A2, adaptation.A3}


RUNTIME_STATE = {"initial_locations", "pending", "p_overrides", "constraints"}


def runtime_state_writes(path: Path) -> list[tuple[str, str, str]]:
    """(class, function, attribute) of every assignment to a runtime-state
    attribute in one source file, except a class's ``__init__`` setting its
    own (``self.<attr>``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn)
            elif isinstance(child, ast.FunctionDef):
                visit(child, cls, child.name)
            else:
                targets = []
                if isinstance(child, ast.Assign):
                    targets = child.targets
                elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
                    targets = [child.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Attribute) and n.attr in RUNTIME_STATE:
                            own = fn == "__init__" and isinstance(n.value, ast.Name) and n.value.id == "self"
                            if not own:
                                out.append((cls, fn, n.attr))
                visit(child, cls, fn)

    visit(tree, None, None)
    return out


def test_spec_constructor_takes_the_mission_only():
    params = list(inspect.signature(ProblemSpec.__init__).parameters)
    assert params == ["self", "locations", "paths", "task_groups", "tasks", "agents", "constraints"]


def test_runtime_state_is_set_only_by_the_re_root():
    writes = [(path.name, *w) for path in sorted(SRC.glob("*.py")) for w in runtime_state_writes(path)]
    assert {w[:3] for w in writes} == {("spec.py", "ProblemSpec", "with_runtime_state")}
    assert {w[3] for w in writes} == RUNTIME_STATE   # the scan sees every write it allows


def test_input_errors_are_one_class_tree():
    classes = {name: cls for name, cls in vars(errors).items() if isinstance(cls, type)}
    inputs = {name for name, cls in classes.items() if issubclass(cls, errors.InputError)}
    assert inputs == {
        "InputError", "SpecError", "ScenarioError", "NoPlanExists", "PlanTimeout", "ExpansionLimit",
        "StateBudgetExceeded", "LimitExceeded", "UnrecoverableMission",
    }
    assert {"ModelError", "InfiniteRewardError", "InternalError", "ConvergenceError"} <= classes.keys() - inputs
    # one base each, so no second parent (RuntimeError) can decide anything
    assert all(len(classes[name].__bases__) == 1 for name in inputs)


def test_cli_exit_code_names_no_builtin_base():
    (main,) = function_defs(SRC / "cli.py", "main")
    (handler,) = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert isinstance(handler.type, ast.Name) and handler.type.id == "Exception"   # the one catch-all
    builtin_errors = {
        node.id
        for stmt in handler.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(getattr(builtins, node.id, None), type)
        and issubclass(getattr(builtins, node.id), BaseException)
    }
    assert builtin_errors == {"OSError"}
    attributes = {ast.unparse(node) for node in ast.walk(main) if isinstance(node, ast.Attribute)}
    assert "json.JSONDecodeError" in attributes
