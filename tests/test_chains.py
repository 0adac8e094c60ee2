import pytest

from hybridplan.chains import (
    all_max_assignment,
    all_min_assignment,
    build_parametric_model,
    closed_form_mission_metrics,
    instantiate,
    instantiate_chain,
    simulate_mission_mc,
    validate_assignment,
)
from hybridplan.planner import build_plan, plan_mission
from hybridplan.pmc import factored_mission_metrics, reach_probability
from hybridplan.spec import build_problem_spec
from hybridplan.world import Do, Move


def geometric_expected_attempts(p, budget):
    # independent oracle: direct summation of the attempt distribution
    q = 1.0 - p
    total, reach = 0.0, 1.0
    for _ in range(budget):
        total += reach
        reach *= q
    return total


def path_enumeration_success(p, budget):
    # task succeeds iff any of `budget` independent attempts succeeds
    fail_all = (1.0 - p) ** budget
    return 1.0 - fail_all


def single_task_doc(p=0.97, cost=1.0, retries=10):
    return {
        "locations": [{"id": "l1"}, {"id": "l2"}],
        "paths": [{"start": "l1", "end": "l2", "distance": 1}],
        "tasks": [{"id": "tg", "instances": [{"id": "tg1", "location": "l2"}]}],
        "agents": [
            {
                "id": "r1",
                "type": "robot",
                "start": "l1",
                "tasks": [{"id": "tg", "cost": cost, "p_success": p, "retries": retries}],
            }
        ],
        "constraints": {
            "mission_probability_of_success": 0.5,
            "min_assignment_probability": 0.5,
        },
    }


@pytest.fixture(scope="module")
def single_task_model():
    spec = build_problem_spec(single_task_doc())
    plan = plan_mission(spec)
    return build_parametric_model(spec, plan)


class TestModelShape:
    def test_field_mission_chains(self, vineyard_model):
        by_agent = {c.agent: c for c in vineyard_model.chains}
        assert set(by_agent) == {"w1", "r1"}
        assert by_agent["w1"].n_act == 12
        assert len(by_agent["w1"].retry_slots) == 7
        assert by_agent["r1"].n_act == 6
        assert len(by_agent["r1"].retry_slots) == 3

    def test_slot_bounds_follow_caps(self, vineyard_model):
        slots = {s.task: (s.lo, s.hi) for s in vineyard_model.retry_slots()}
        assert slots["t1l4"] == (1, 5)
        assert slots["t2l8b"] == (1, 10)

    def test_every_action_in_exactly_one_chain(self, vineyard_model, vineyard_plan):
        total = sum(c.n_act for c in vineyard_model.chains)
        assert total == len(vineyard_plan.total_order)

    def test_incapable_assignment_rejected(self, vineyard):
        bad = build_plan(vineyard, [Move("r1", "l1", "l4"), Do("r1", "t1l4", "l4")])
        with pytest.raises(ValueError, match="incapable"):
            build_parametric_model(vineyard, bad)

    def test_move_only_plan_is_certain(self, vineyard):
        plan = build_plan(vineyard, [Move("w1", "l1", "l4"), Move("w1", "l4", "l5")])
        model = build_parametric_model(vineyard, plan)
        assert model.retry_slots() == []
        metrics = factored_mission_metrics(instantiate(model, {}))
        assert metrics.success_prob == 1.0
        assert metrics.expected_cost == 2.0


class TestBudgetSemantics:
    def test_single_attempt(self, single_task_model):
        succ, _ = closed_form_mission_metrics(single_task_model, {"tg1": 1})
        assert succ == pytest.approx(0.97, abs=1e-12)

    def test_two_attempts(self, single_task_model):
        succ, _ = closed_form_mission_metrics(single_task_model, {"tg1": 2})
        assert succ == pytest.approx(1 - 0.03**2, abs=1e-12)
        assert succ == pytest.approx(path_enumeration_success(0.97, 2), abs=1e-12)

    def test_expected_task_cost_geometric(self):
        spec = build_problem_spec(single_task_doc(p=0.99, cost=5.0, retries=5))
        plan = plan_mission(spec)
        model = build_parametric_model(spec, plan)
        _, cost = closed_form_mission_metrics(model, {"tg1": 2})
        # move 1 + task cost 5 * expected attempts
        assert cost == pytest.approx(1 + 5 * 1.01, abs=1e-12)
        assert cost == pytest.approx(1 + 5 * geometric_expected_attempts(0.99, 2), abs=1e-12)

    def test_retry_cap_zero_is_bernoulli(self):
        spec = build_problem_spec(single_task_doc(p=0.8, retries=0))
        plan = plan_mission(spec)
        model = build_parametric_model(spec, plan)
        assert model.retry_slots() == []
        metrics = factored_mission_metrics(instantiate(model, {}))
        assert metrics.success_prob == pytest.approx(0.8, abs=1e-12)

    def test_out_of_range_budget_rejected(self, single_task_model):
        with pytest.raises(ValueError):
            validate_assignment(single_task_model, {"tg1": 11})
        with pytest.raises(ValueError):
            validate_assignment(single_task_model, {"tg1": 0})
        with pytest.raises(ValueError):
            validate_assignment(single_task_model, {"tg1": 1, "ghost": 1})


class TestEngineAgreement:
    def test_closed_form_matches_solver(self, vineyard_model):
        for assignment in (
            all_min_assignment(vineyard_model),
            all_max_assignment(vineyard_model),
            {**all_min_assignment(vineyard_model), "t3l4": 2, "t2l5": 3},
        ):
            cf_succ, cf_cost = closed_form_mission_metrics(vineyard_model, assignment)
            metrics = factored_mission_metrics(instantiate(vineyard_model, assignment))
            assert metrics.success_prob == pytest.approx(cf_succ, abs=1e-9)
            assert metrics.expected_cost == pytest.approx(cf_cost, abs=1e-9)

    def test_rows_are_stochastic(self, vineyard_model):
        for _, dtmc in instantiate(vineyard_model, all_max_assignment(vineyard_model)):
            dtmc.check()
            for row in dtmc.transitions:
                assert sum(p for _, p in row) == pytest.approx(1.0, abs=1e-12)

    def test_budget_monotonicity(self, vineyard_model):
        base = all_min_assignment(vineyard_model)
        last = factored_mission_metrics(instantiate(vineyard_model, base)).success_prob
        for budget in range(2, 6):
            bumped = dict(base)
            bumped["t3l9"] = budget
            now = factored_mission_metrics(instantiate(vineyard_model, bumped)).success_prob
            assert now >= last - 1e-15
            last = now

    def test_chain_success_product_form(self, vineyard_model):
        assignment = all_min_assignment(vineyard_model)
        for chain in vineyard_model.chains:
            dtmc = instantiate_chain(chain, assignment)
            engine = reach_probability(dtmc, "success")
            closed = 1.0
            for step in chain.steps:
                if step.kind == "do":
                    budget = assignment[step.task] if step.retry_cap else 1
                    closed *= path_enumeration_success(step.p_success, budget)
            assert engine == pytest.approx(closed, abs=1e-9)

    def test_monte_carlo_agreement_smoke(self, vineyard_model):
        assignment = all_min_assignment(vineyard_model)
        runs = 200_000
        mc = simulate_mission_mc(vineyard_model, assignment, runs=runs, seed=11)
        exact = factored_mission_metrics(instantiate(vineyard_model, assignment))
        assert abs(mc["success_prob"] - exact.success_prob) <= 4 * mc["success_se"]
        assert abs(mc["expected_cost"] - exact.expected_cost) <= 4 * mc["cost_se"]
