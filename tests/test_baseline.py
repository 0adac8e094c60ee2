import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridplan.baseline import baseline_queries, build_full_mdp, enumerate_policies
from hybridplan.chains import all_max_assignment, build_parametric_model, instantiate
from hybridplan.errors import LimitExceeded, ModelError, StateBudgetExceeded
from hybridplan.planner import plan_mission
from hybridplan.pmc import Mdp
from hybridplan.spec import build_problem_spec
from hybridplan.synthesis import exhaustive_synthesize, pareto_front


def zero_task_spec():
    return build_problem_spec(
        {
            "locations": [{"id": "l1"}],
            "paths": [],
            "tasks": [],
            "agents": [{"id": "a1", "type": "robot", "start": "l1", "tasks": []}],
            "constraints": {
                "mission_probability_of_success": 0.9,
                "min_assignment_probability": 0.5,
            },
        }
    )


class TestBuild:
    def test_small_instance_builds_and_solves(self, m1):
        mdp = build_full_mdp(m1)
        queries = baseline_queries(mdp)
        assert queries["p_max"] == pytest.approx(0.99, abs=1e-9)
        assert queries["r_min_bounded"] >= 0.0

    def test_field_scale_blows_the_budget(self, vineyard):
        with pytest.raises(StateBudgetExceeded) as err:
            build_full_mdp(vineyard, state_budget=20_000)
        assert err.value.states_reached == 20_000

    def test_zero_task_spec_trivial(self):
        mdp = build_full_mdp(zero_task_spec())
        queries = baseline_queries(mdp)
        assert queries["p_max"] == 1.0
        assert queries["r_min_bounded"] == 0.0

    def test_robot_only_alternative(self):
        # single robot, one fallible task: the only policy succeeds at 0.97
        spec = build_problem_spec(
            {
                "locations": [{"id": "l1"}, {"id": "l2"}],
                "paths": [{"start": "l1", "end": "l2", "distance": 1}],
                "tasks": [{"id": "t3", "instances": [{"id": "t3a", "location": "l2"}]}],
                "agents": [
                    {
                        "id": "r1",
                        "type": "robot",
                        "start": "l1",
                        "tasks": [{"id": "t3", "cost": 1, "p_success": 0.97, "retries": 1}],
                    }
                ],
                "constraints": {
                    "mission_probability_of_success": 0.9,
                    "min_assignment_probability": 0.5,
                },
            }
        )
        assert baseline_queries(build_full_mdp(spec))["p_max"] == pytest.approx(0.97, abs=1e-9)


class TestStateSpace:
    def test_builder_is_deterministic_and_wellformed(self, m1_mini):
        # interning by full variable valuation: two builds agree exactly,
        # every transition targets an interned state, and the model checks
        a = build_full_mdp(m1_mini)
        b = build_full_mdp(m1_mini)
        assert a.n_states == b.n_states
        assert a.choices == b.choices
        assert a.labels == b.labels
        a.check()
        for acts in a.choices:
            for _, row, _ in acts:
                for j, _p in row:
                    assert 0 <= j < a.n_states


class TestPolicies:
    def test_two_policy_toy_keeps_both_points(self):
        # one location hosts the task; worker is safer, robot is cheaper
        spec = build_problem_spec(
            {
                "locations": [{"id": "l1"}, {"id": "l2"}, {"id": "l3"}],
                "paths": [
                    {"start": "l1", "end": "l2", "distance": 1},
                    {"start": "l2", "end": "l3", "distance": 1},
                ],
                "tasks": [{"id": "t3", "instances": [{"id": "t3a", "location": "l2"}]}],
                "agents": [
                    {
                        "id": "r1",
                        "type": "robot",
                        "start": "l1",
                        "tasks": [{"id": "t3", "cost": 1, "p_success": 0.97, "retries": 1}],
                    },
                    {
                        "id": "w1",
                        "type": "worker",
                        "start": "l3",
                        "tasks": [{"id": "t3", "cost": 5, "p_success": 0.99, "retries": 1}],
                    },
                ],
                "constraints": {
                    "mission_probability_of_success": 0.9,
                    "min_assignment_probability": 0.5,
                },
            }
        )
        result = enumerate_policies(build_full_mdp(spec), limit=100_000)
        pareto = result["pareto"]
        assert (2.0, 0.97) in pareto   # robot: move 1 + attempt 1
        assert (6.0, 0.99) in pareto   # worker: move 1 + attempt 5
        assert len(pareto) == 2

    def test_single_policy_model(self):
        spec = zero_task_spec()
        result = enumerate_policies(build_full_mdp(spec), limit=10)
        assert result["policies"] == 1
        assert result["pareto"] == [(0.0, 1.0)]

    def test_non_absorbing_policy_costs_infinity(self):
        # "wait" loops forever short of the target; its policy keeps success 0
        mdp = Mdp(
            2,
            0,
            [[("wait", [(0, 1.0)], [1.0]), ("go", [(1, 1.0)], [2.0])], [("stay", [(1, 1.0)], [0.0])]],
            {"success": frozenset({1}), "done": frozenset({1})},
        )
        result = enumerate_policies(mdp, limit=10)
        assert result["points"] == [(2.0, 1.0), (math.inf, 0.0)]
        assert result["pareto"] == [(2.0, 1.0)]

    def test_missing_done_label_is_not_swallowed(self):
        mdp = Mdp(1, 0, [[("stay", [(0, 1.0)], [0.0])]], {"success": frozenset({0})})
        with pytest.raises(ModelError):
            enumerate_policies(mdp, limit=10)

    def test_limit_enforced(self, m1_mini):
        with pytest.raises(LimitExceeded):
            enumerate_policies(build_full_mdp(m1_mini), limit=3)

    def test_limit_counts_complete_policies(self, m1_mini):
        mdp = build_full_mdp(m1_mini)
        assert enumerate_policies(mdp, limit=42)["policies"] == 42
        with pytest.raises(LimitExceeded):
            enumerate_policies(mdp, limit=41)

    def test_long_chain_needs_no_recursion(self):
        # each policy-reached state is one level of the search: 1,500 of them
        n = 1500
        choices = [[("go", [(s + 1, 1.0)], [1.0])] for s in range(n - 1)]
        choices.append([("stay", [(n - 1, 1.0)], [0.0])])
        last = frozenset({n - 1})
        result = enumerate_policies(Mdp(n, 0, choices, {"success": last, "done": last}))
        assert result["policies"] == 1
        assert result["pareto"] == [(1499.0, 1.0)]

    def test_mini_instance_dominance(self, m1_mini):
        mdp = build_full_mdp(m1_mini)
        result = enumerate_policies(mdp, limit=100_000)
        plan = plan_mission(m1_mini)
        model = build_parametric_model(m1_mini, plan)
        archive = exhaustive_synthesize(model)
        for entry in archive.entries:
            cost, prob = entry.objectives.expected_cost, entry.objectives.success_prob
            assert any(c <= cost + 1e-9 and p >= prob - 1e-9 for c, p in result["pareto"])

    def test_pmax_not_exceeded_by_hybrid(self, m1_mini):
        mdp = build_full_mdp(m1_mini)
        p_max = baseline_queries(mdp)["p_max"]
        plan = plan_mission(m1_mini)
        model = build_parametric_model(m1_mini, plan)
        archive = exhaustive_synthesize(model)
        assert all(e.objectives.success_prob <= p_max + 1e-9 for e in archive.entries)


def quadratic_pareto(points):
    """Reference filter: each distinct point checked against every other."""
    return [
        (c, s) for c, s in sorted(set(points))
        if not any(c2 <= c and s2 >= s and (c2 < c or s2 > s) for c2, s2 in points)
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(
    st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.inf]), st.floats(0.0, 10.0)),
    st.one_of(st.sampled_from([0.0, 0.5, 0.97, 1.0]), st.floats(0.0, 1.0)),
), max_size=12))
def test_pareto_sweep_matches_the_quadratic_filter(points):
    assert pareto_front(points) == quadratic_pareto(points)


class TestSizeOrdering:
    @pytest.mark.parametrize("name", ["m1", "m1_mini", "m2"])
    def test_hybrid_model_smaller_than_mdp(self, name, request):
        spec = request.getfixturevalue(name)
        plan = plan_mission(spec)
        model = build_parametric_model(spec, plan)
        hybrid_states = sum(
            d.n_states for _, d in instantiate(model, all_max_assignment(model))
        )
        mdp = build_full_mdp(spec)
        assert hybrid_states < mdp.n_states
