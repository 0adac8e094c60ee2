import re

import pytest

from hybridplan.fixtures import load_fixture
from hybridplan.pddl import export_pddl_domain, export_pddl_problem
from hybridplan.world import Do, Move, enabled_actions, initial_state


def parse_sexprs(text):
    """Minimal s-expression reader for the generated files."""
    tokens = re.findall(r"\(|\)|[^\s()]+", re.sub(r";;[^\n]*", "", text))
    stack = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    return stack[0]


def init_atoms(problem_text):
    tree = parse_sexprs(problem_text)
    define = tree[0]
    init = next(node for node in define if isinstance(node, list) and node and node[0] == ":init")
    return init[1:]


class TestDomain:
    def test_exactly_two_action_schemas(self, vineyard):
        text = export_pddl_domain(vineyard)
        assert text.count("(:action") == 2
        assert "(:action move" in text and "(:action do" in text

    def test_requirements_line(self, vineyard):
        text = export_pddl_domain(vineyard)
        assert ":strips :typing :negative-preconditions :numeric-fluents" in text

    def test_threshold_inlined(self, vineyard):
        assert "(>= (p_success ?a ?t) 0.5)" in export_pddl_domain(vineyard)

    def test_declared_predicates_and_functions(self, vineyard):
        text = export_pddl_domain(vineyard)
        for name in ("agent_at", "path", "empty", "task_loc", "task_done"):
            assert f"({name} " in text
        assert "(p_success ?a - agent ?t - task)" in text
        assert "(travel_dist)" in text


class TestProblem:
    def test_travel_dist_initialised_to_zero(self, vineyard):
        assert "(= (travel_dist) 0)" in export_pddl_problem(vineyard)

    def test_symmetric_paths(self, vineyard):
        text = export_pddl_problem(vineyard)
        assert "(path l1 l4)" in text and "(path l4 l1)" in text

    def test_incapable_pair_zeroed(self, vineyard):
        text = export_pddl_problem(vineyard)
        # robots cannot harvest: probability literal 0 for each instance
        for tid in ("t1l4", "t1l6a", "t1l6b", "t1l7"):
            assert f"(= (p_success r1 {tid}) 0)" in text

    def test_goal_covers_all_tasks(self, vineyard):
        text = export_pddl_problem(vineyard)
        for t in vineyard.tasks:
            assert f"(task_done {t.id})" in text

    def test_metric(self, vineyard):
        assert "(:metric minimize (travel_dist))" in export_pddl_problem(vineyard)

    def test_done_tasks_of_a_re_rooted_spec_are_facts(self, vineyard):
        text = export_pddl_problem(vineyard.with_runtime_state(pending=["t2l5"]))
        init, goal = text.split("(:goal")
        assert "(task_done t1l4)" in init and "(task_done t2l5)" not in init
        assert re.findall(r"\(task_done (\w+)\)", goal) == ["t2l5"]

    def test_nothing_pending_is_the_vacuous_goal(self, vineyard):
        goal = export_pddl_problem(vineyard.with_runtime_state(pending=[])).split("(:goal")[1]
        assert "(= (travel_dist) 0)" in goal and "task_done" not in goal

    def test_occupied_starts_not_empty(self, vineyard):
        text = export_pddl_problem(vineyard)
        assert "(empty l1)" not in text
        assert "(empty l5)" in text


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["vineyard", "m1", "m2"])
    def test_grounded_init_reproduces_enabled_actions(self, name):
        """Re-parse our own export and ground the two schemas on the initial
        atoms; the enabled-action set must match the in-process semantics."""
        spec = load_fixture(name)
        atoms = init_atoms(export_pddl_problem(spec))

        paths = set()
        empty = set()
        agent_at = {}
        task_loc = {}
        task_done = set()
        p_success = {}
        for atom in atoms:
            if atom[0] == "path":
                paths.add((atom[1], atom[2]))
            elif atom[0] == "empty":
                empty.add(atom[1])
            elif atom[0] == "agent_at":
                agent_at[atom[1]] = atom[2]
            elif atom[0] == "task_loc":
                task_loc[atom[1]] = atom[2]
            elif atom[0] == "task_done":
                task_done.add(atom[1])
            elif atom[0] == "=" and atom[1][0] == "p_success":
                p_success[(atom[1][1], atom[1][2])] = float(atom[2])

        gamma = spec.constraints.gamma
        grounded = set()
        for agent, loc in agent_at.items():
            for dest in {b for a, b in paths if a == loc}:
                if dest in empty:
                    grounded.add(Move(agent, loc, dest))
            for task, tloc in task_loc.items():
                if tloc == loc and task not in task_done and p_success[(agent, task)] >= gamma:
                    grounded.add(Do(agent, task, loc))

        native = set(enabled_actions(spec, initial_state(spec)))
        assert grounded == native
