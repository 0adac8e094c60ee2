import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridplan.bench import random_instance
from hybridplan.chains import (
    AgentChain,
    ChainStep,
    ParametricPlanModel,
    all_min_assignment,
    build_parametric_model,
    instantiate,
)
from hybridplan.errors import LimitExceeded
from hybridplan.planner import plan_mission
from hybridplan.pmc import factored_mission_metrics
from hybridplan.synthesis import (
    GaConfig,
    Objectives,
    ParetoArchive,
    dominates,
    evaluate,
    exhaustive_synthesize,
    extend_archive,
    save_archive,
    synthesize,
)


def truncate_model(model, keep, cap):
    """Test helper: keep the first `keep` retry slots (capped ranges) and
    turn the rest into single-attempt steps."""
    kept = {s.task for s in model.retry_slots()[:keep]}
    chains = []
    for chain in model.chains:
        steps = []
        for step in chain.steps:
            if step.kind == "do" and step.retry_cap > 0:
                if step.task in kept:
                    steps.append(
                        ChainStep(step.kind, step.cost, step.task, step.p_success, min(step.retry_cap, cap))
                    )
                else:
                    steps.append(ChainStep(step.kind, step.cost, step.task, step.p_success, 0))
            else:
                steps.append(step)
        chains.append(AgentChain(chain.agent, tuple(steps)))
    return ParametricPlanModel(chains, model.p_succ_threshold, model.gamma, model.plan_hash + f"-trunc{keep}")


def two_slot_model(p1=0.9, p2=0.92, cost1=2.0, cost2=2.0, cap=3, floor=0.95):
    chains = [
        AgentChain(
            "r1",
            (
                ChainStep("move", 1.0),
                ChainStep("do", cost1, "a", p1, cap),
                ChainStep("do", cost2, "b", p2, cap),
            ),
        )
    ]
    return ParametricPlanModel(chains, floor, 0.5, "toy")


class TestEvaluate:
    def test_all_min_infeasible(self, vineyard_model):
        obj = evaluate(vineyard_model, all_min_assignment(vineyard_model))
        assert obj.expected_cost == pytest.approx(37.522893, abs=1e-9)
        assert obj.success_prob == pytest.approx(0.941480149401, abs=1e-9)
        assert not obj.feasible
        assert obj.violation == pytest.approx(0.95 - 0.941480149401, abs=1e-9)

    def test_single_bump_feasible(self, vineyard_model):
        assignment = all_min_assignment(vineyard_model)
        assignment["t3l4"] = 2
        obj = evaluate(vineyard_model, assignment)
        assert obj.success_prob == pytest.approx(0.950894951, abs=1e-9)
        assert obj.feasible

    def test_no_retry_slots_single_outcome(self, vineyard):
        from hybridplan.planner import build_plan
        from hybridplan.world import Move

        plan = build_plan(vineyard, [Move("w1", "l1", "l4")])
        model = build_parametric_model(vineyard, plan)
        with pytest.raises(ValueError, match="no retry slots"):
            synthesize(model, GaConfig())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(2, 6),
        st.integers(2, 3),
        st.integers(0, 10_000),
        st.sampled_from([None, 0.55, 0.8]),
        st.data(),
    )
    def test_matches_factored_solve(self, n_tasks, n_agents, seed, degraded, data):
        # the closed form against the explicit-state engine, over random
        # missions (optionally with one worse task) and in-bound budgets
        spec = random_instance(n_tasks, n_agents, seed)
        if degraded is not None:
            task = sorted(spec.pending)[0]
            agent = spec.capable_agents(task)[0]
            spec = spec.with_runtime_state(
                spec.initial_locations, spec.pending, p_overrides={(agent, task): degraded}
            )
        model = build_parametric_model(spec, plan_mission(spec))
        assignment = {s.task: data.draw(st.integers(s.lo, s.hi)) for s in model.retry_slots()}
        obj = evaluate(model, assignment)
        oracle = factored_mission_metrics(instantiate(model, assignment))
        assert obj.success_prob == pytest.approx(oracle.success_prob, rel=1e-12, abs=0)
        assert obj.expected_cost == pytest.approx(oracle.expected_cost, rel=1e-12, abs=0)
        assert obj.feasible == (oracle.success_prob >= model.p_succ_threshold)


class TestDominance:
    def feas(self, cost, prob):
        return Objectives(cost, prob, True, 0.0)

    def infeas(self, cost, prob, floor=0.95):
        return Objectives(cost, prob, False, floor - prob)

    def test_plain_dominance(self):
        assert dominates(self.feas(10, 0.99), self.feas(12, 0.98))

    def test_feasibility_first(self):
        assert not dominates(self.infeas(10, 0.94), self.feas(50, 0.96))
        assert dominates(self.feas(50, 0.96), self.infeas(10, 0.94))

    def test_identical_points_incomparable(self):
        a = self.feas(10, 0.99)
        assert not dominates(a, a)

    def test_infeasible_compare_by_violation(self):
        assert dominates(self.infeas(30, 0.94), self.infeas(10, 0.90))


class TestExhaustive:
    def test_nine_vector_instance(self, m2_model):
        archive = exhaustive_synthesize(m2_model)
        assert archive.evaluated == 9
        assert len(archive.entries) == 4
        assert [e.genotype for e in archive.entries] == [(2, 2), (2, 3), (3, 2), (3, 3)]
        assert archive.front() == [
            (5.3384, 0.983664),
            (5.351072, 0.98949312),
            (5.37784, 0.9926064),
            (5.3906272, 0.998488512),
        ]

    def test_single_point_space(self):
        model = two_slot_model(cap=1, floor=0.5)
        archive = exhaustive_synthesize(model)
        assert archive.evaluated == 1
        assert len(archive.entries) == 1

    def test_space_limit(self, vineyard_model):
        with pytest.raises(LimitExceeded):
            exhaustive_synthesize(vineyard_model, limit=100)

    def test_infeasible_space_reports_empty(self):
        model = two_slot_model(floor=1.0)
        archive = exhaustive_synthesize(model)
        assert archive.is_empty()
        assert archive.evaluated == 9


class TestGaOracleEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_m2_equals_oracle(self, m2_model, seed):
        oracle = exhaustive_synthesize(m2_model)
        ga = synthesize(m2_model, GaConfig(population=5, evaluations=30, seed=seed))
        assert [e.genotype for e in ga.entries] == [e.genotype for e in oracle.entries]
        assert ga.front() == oracle.front()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_truncated_field_model_equals_oracle(self, vineyard_model, seed):
        model = truncate_model(vineyard_model, keep=3, cap=2)
        assert model.space_size() == 8
        oracle = exhaustive_synthesize(model)
        ga = synthesize(model, GaConfig(population=4, evaluations=8, seed=seed))
        assert ga.front() == oracle.front()
        assert [e.genotype for e in ga.entries] == [e.genotype for e in oracle.entries]

    @pytest.mark.parametrize("seed", [10, 20])
    def test_mid_size_space_equals_oracle(self, vineyard_model, seed):
        model = truncate_model(vineyard_model, keep=5, cap=4)
        assert model.space_size() == 4 ** 5 == 1024
        oracle = exhaustive_synthesize(model)
        ga = synthesize(model, GaConfig(population=30, evaluations=1024, seed=seed))
        assert ga.front() == oracle.front()


class TestGaSearch:
    def test_field_mission_finds_feasible(self, vineyard_model):
        archive = synthesize(vineyard_model, GaConfig(population=30, evaluations=150, seed=42))
        assert not archive.is_empty()
        assert all(e.objectives.feasible for e in archive.entries)
        assert any(e.objectives.success_prob >= 0.95 for e in archive.entries)

    def test_seed_determinism(self, vineyard_model):
        a = synthesize(vineyard_model, GaConfig(population=20, evaluations=100, seed=7))
        b = synthesize(vineyard_model, GaConfig(population=20, evaluations=100, seed=7))
        assert a.to_json() == b.to_json()

    def test_different_seeds_allowed_to_differ(self, vineyard_model):
        a = synthesize(vineyard_model, GaConfig(population=20, evaluations=100, seed=7))
        b = synthesize(vineyard_model, GaConfig(population=20, evaluations=100, seed=8))
        # both are valid archives; no exact equality expected
        assert not a.is_empty() and not b.is_empty()

    def test_archive_soundness_reevaluation(self, vineyard_model):
        archive = synthesize(vineyard_model, GaConfig(population=20, evaluations=80, seed=3))
        for entry in archive.entries:
            again = evaluate(vineyard_model, entry.retries)
            assert again.expected_cost == entry.objectives.expected_cost
            assert again.success_prob == entry.objectives.success_prob

    def test_front_not_dominated_by_any_evaluation(self, m2_model):
        # audit over the full evaluation log (exhaustive here)
        archive = exhaustive_synthesize(m2_model)
        log = [
            evaluate(m2_model, {"t4l2": i, "t5l2": j})
            for i in range(1, 4)
            for j in range(1, 4)
        ]
        for entry in archive.entries:
            assert not any(dominates(obj, entry.objectives) for obj in log)

    def test_ga_front_not_dominated_by_its_own_log(self, vineyard_model):
        archive = synthesize(vineyard_model, GaConfig(population=20, evaluations=100, seed=6))
        assert archive.audit_log and len(archive.audit_log) == archive.evaluated
        for entry in archive.entries:
            for _genotype, obj in archive.audit_log:
                assert not dominates(obj, entry.objectives)

    def test_infeasible_mission_reports_empty(self):
        model = two_slot_model(floor=1.0)
        archive = synthesize(model, GaConfig(population=4, evaluations=16, seed=1))
        assert archive.is_empty()


class TestArchivePersistence:
    def test_round_trip(self, m2_model, tmp_path):
        archive = exhaustive_synthesize(m2_model)
        path = tmp_path / "archive.json"
        save_archive(archive, path)
        again = ParetoArchive.from_json(json.loads(path.read_text()))
        assert [e.retries for e in again.entries] == [e.retries for e in archive.entries]
        assert again.front() == archive.front()

    def test_front_csv(self, m2_model):
        archive = exhaustive_synthesize(m2_model)
        csv_text = archive.front_csv()
        assert csv_text.splitlines()[0] == "expected_cost,success_prob"
        assert len(csv_text.strip().splitlines()) == 5

    def test_extend_archive_keeps_soundness(self, vineyard_model):
        archive = synthesize(vineyard_model, GaConfig(population=10, evaluations=40, seed=1))
        base = all_min_assignment(vineyard_model)
        pinned = dict(base)
        pinned.update({"t1l4": 2, "t2l8b": 2})
        bigger = extend_archive(vineyard_model, archive, [pinned, base])
        assert any(e.retries == pinned for e in bigger.entries)
        # the infeasible all-min vector must not enter
        assert not any(e.retries == base for e in bigger.entries)
