"""End-to-end acceptance suite.

Each test prints one PASS line with its headline numbers when it succeeds,
so a plain `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import json
import math
import time

import pytest

from hybridplan.adaptation import (
    A1,
    A2,
    A3,
    NA,
    Change,
    adapt,
    run_scenario,
)
from hybridplan.baseline import baseline_queries, build_full_mdp, enumerate_policies
from hybridplan.chains import (
    all_max_assignment,
    all_min_assignment,
    build_parametric_model,
    closed_form_mission_metrics,
    instantiate,
    simulate_mission_mc,
)
from hybridplan.fixtures import fixture_text
from hybridplan.planner import PlannerConfig, plan_mission, validate_plan
from hybridplan.pmc import (
    compose_product,
    expected_reward,
    factored_mission_metrics,
    reach_probability,
)
from hybridplan.synthesis import (
    GaConfig,
    evaluate,
    exhaustive_synthesize,
    synthesize,
)
from hybridplan.world import Do, replay

EXPECT_SUCCESS = 0.941480149401
EXPECT_COST = 37.522893
EXPECT_BUMPED = 0.950894951


def ok(n, message):
    print(f"\nACCEPTANCE {n}: PASS - {message}")


class TestAcceptance:
    def test_1_plan_optimality(self, vineyard):
        t0 = time.monotonic()
        plan = plan_mission(vineyard, PlannerConfig(timeout=60))
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        # the deterministic companion of the timing check: the search's work
        assert plan.stats == {"expansions": 109, "generated": 391, "reopened": 0, "h0": 6.0}
        assert plan.travel_cost == 8
        done = {a.task for a in plan.total_order if isinstance(a, Do)}
        assert len(done) == 10
        assert validate_plan(vineyard, plan) == []
        end = replay(vineyard, plan.total_order)
        assert end.done == frozenset(t.id for t in vineyard.tasks)
        ok(1, f"optimal travel cost 8 for all 10 tasks in {elapsed:.2f}s, replay clean")

    def test_2_verification_exactness(self, vineyard_model):
        ones = all_min_assignment(vineyard_model)

        cf_succ, cf_cost = closed_form_mission_metrics(vineyard_model, ones)
        assert cf_succ == pytest.approx(EXPECT_SUCCESS, abs=1e-9)
        assert cf_cost == pytest.approx(EXPECT_COST, abs=1e-9)

        comps = instantiate(vineyard_model, ones)
        fact = factored_mission_metrics(comps)
        assert fact.success_prob == pytest.approx(EXPECT_SUCCESS, abs=1e-9)
        assert fact.expected_cost == pytest.approx(EXPECT_COST, abs=1e-9)

        product = compose_product(comps)
        assert reach_probability(product, "success") == pytest.approx(EXPECT_SUCCESS, abs=1e-9)
        assert expected_reward(product, "done") == pytest.approx(EXPECT_COST, abs=1e-9)

        runs = 1_000_000
        mc = simulate_mission_mc(vineyard_model, ones, runs=runs, seed=7)
        p_bound = 4 * math.sqrt(EXPECT_SUCCESS * (1 - EXPECT_SUCCESS) / runs)
        assert abs(mc["success_prob"] - EXPECT_SUCCESS) <= p_bound
        assert abs(mc["expected_cost"] - EXPECT_COST) <= 4 * mc["cost_se"]
        ok(
            2,
            f"success {fact.success_prob:.12f} and cost {fact.expected_cost:.6f} agree "
            f"across closed form, factored, product ({product.n_states} states) and "
            f"{runs} simulations (|dp|={abs(mc['success_prob']-EXPECT_SUCCESS):.2e}<={p_bound:.2e})",
        )

    def test_3_feasibility_frontier(self, vineyard_model):
        ones = all_min_assignment(vineyard_model)
        base = evaluate(vineyard_model, ones)
        assert not base.feasible
        cf_succ, _ = closed_form_mission_metrics(vineyard_model, ones)
        assert cf_succ < 0.95  # the oracle confirms all budgets 1 cannot meet the floor

        bumped = dict(ones)
        bumped["t3l4"] = 2
        obj = evaluate(vineyard_model, bumped)
        assert obj.success_prob == pytest.approx(EXPECT_BUMPED, abs=1e-9)
        assert obj.feasible

        archive = synthesize(vineyard_model, GaConfig(population=30, evaluations=150, seed=42))
        assert not archive.is_empty()
        assert all(e.objectives.success_prob >= 0.95 for e in archive.entries)
        ok(
            3,
            f"single bump reaches {obj.success_prob:.9f} >= 0.95; archive holds "
            f"{len(archive.entries)} feasible entries; all-ones confirmed infeasible "
            f"({base.success_prob:.9f})",
        )

    def test_4_ga_oracle_equivalence(self, vineyard_model, m2_model):
        from test_synthesis import truncate_model

        instances = [
            ("m2-9", m2_model, 30),
            ("trunc-8", truncate_model(vineyard_model, keep=3, cap=2), 16),
            ("trunc-1024", truncate_model(vineyard_model, keep=5, cap=4), 1024),
            ("trunc-4096", truncate_model(vineyard_model, keep=6, cap=4), 4096),
        ]
        checked = []
        for name, model, evals in instances:
            space = model.space_size()
            assert space <= 4096
            oracle = exhaustive_synthesize(model)
            for seed in (1, 2, 3, 4, 5):
                ga = synthesize(
                    model,
                    GaConfig(population=10, evaluations=max(evals, space), seed=seed),
                )
                assert ga.front() == oracle.front(), f"{name} seed {seed}"
                assert [e.genotype for e in ga.entries] == [e.genotype for e in oracle.entries]
            checked.append(f"{name}(|S|={space}, front={len(oracle.front())})")
        m2_oracle = exhaustive_synthesize(m2_model)
        assert m2_oracle.evaluated == 9
        assert len(m2_oracle.entries) == 4  # the other five lose on feasibility
        ok(4, "GA equals the exhaustive front on " + ", ".join(checked) + ", 5 seeds each")

    def test_5_baseline_dominance(self, m1, m1_mini):
        # optimality yardstick on the small baseline instance
        mdp = build_full_mdp(m1)
        queries = baseline_queries(mdp)
        assert queries["p_max"] == pytest.approx(0.99, abs=1e-9)

        plan = plan_mission(m1)
        model = build_parametric_model(m1, plan)
        hybrid_states = sum(
            d.n_states for _, d in instantiate(model, all_max_assignment(model))
        )
        ratio = mdp.n_states / hybrid_states
        assert ratio >= 100.0

        # exact policy enumeration on the mini variant
        mini_mdp = build_full_mdp(m1_mini)
        assert baseline_queries(mini_mdp)["p_max"] == pytest.approx(0.99, abs=1e-9)
        result = enumerate_policies(mini_mdp, limit=100_000)
        mini_plan = plan_mission(m1_mini)
        mini_model = build_parametric_model(m1_mini, mini_plan)
        archive = exhaustive_synthesize(mini_model)
        assert not archive.is_empty()
        for entry in archive.entries:
            cost, prob = entry.objectives.expected_cost, entry.objectives.success_prob
            assert any(
                c <= cost + 1e-9 and p >= prob - 1e-9 for c, p in result["pareto"]
            ), f"hybrid point ({cost}, {prob}) undominated by {result['pareto']}"
        ok(
            5,
            f"p_max 0.99 on both instances; state ratio {ratio:.0f}x "
            f"({mdp.n_states} vs {hybrid_states}); every hybrid point weakly dominated "
            f"by one of {len(result['pareto'])} policy points from {result['policies']} policies",
        )

    def test_6_adaptation_scenario(self, vineyard, scenario_plan):
        scenario = json.loads(fixture_text("scenario_adaptation"))
        trace = run_scenario(vineyard, scenario)
        assert trace.result == "success"
        assert trace.levels() == [NA, A1, NA, A2, A3]
        assert [e.time for e in trace.events] == [1, 2, 4, 11, 13]
        stage_sets = [e.stages_rerun for e in trace.events]
        assert stage_sets == [
            frozenset(),
            frozenset(),
            frozenset(),
            frozenset({"S3", "S4"}),
            frozenset({"S0", "S1", "S2", "S3", "S4"}),
        ]

        # prefix preservation: per-agent executed sequences never deviate from
        # the deployed plan order, the scenario's stored plan (retries repeat
        # the same task action)
        plan = scenario_plan
        a3_time = trace.events[-1].time
        executed: dict[str, list] = {}
        for step in trace.steps:
            if step.time >= a3_time:
                break
            for agent, action, _outcome in step.actions:
                seq = executed.setdefault(agent, [])
                if not (seq and seq[-1] == action):
                    seq.append(action)
        for agent, seq in executed.items():
            planned = [json.dumps(a, sort_keys=True) for a in
                       (x for x in map(_action_json, plan.per_agent[agent]))]
            got = [json.dumps(a, sort_keys=True) for a in seq]
            assert got == planned[: len(got)], f"{agent} deviated from the deployed prefix"
        ok(
            6,
            "levels [NA, A1, NA, A2, A3] at times [1, 2, 4, 11, 13] with stage sets "
            "[{}, {}, {}, {S3,S4}, {S0..S4}]; executed prefixes preserved",
        )

    def test_7_branch_coverage(self, vineyard, vineyard_plan, vineyard_model):
        from test_adaptation import ctx_at, make_entry
        from hybridplan.adaptation import remaining_success

        deployed = make_entry(vineyard_model, {"t1l4": 2, "t2l8b": 2})
        sibling = make_entry(vineyard_model, {"t1l4": 3, "t2l8b": 2})
        # both bumps sit late in the mission, so they survive either prefix
        strong = make_entry(vineyard_model, {"t3l9": 2, "t2l8a": 2})
        degraded = vineyard.with_runtime_state(
            vineyard.initial_locations, vineyard.pending,
            p_overrides={("w1", "t1l6a"): 0.89},
        )
        degraded_model = build_parametric_model(degraded, vineyard_plan)
        degraded_deploy = make_entry(degraded_model, {"t2l8b": 2})

        covered = set()
        for prefix_len in (1, 6):
            base = dict(
                spec=vineyard, plan=vineyard_plan, model=vineyard_model,
            )

            ctx = ctx_at(**base, entries=[deployed, sibling], deployed=deployed,
                         prefix_len=prefix_len, failures={"t1l4": 1})
            out = adapt(ctx, Change("C1", ctx.progress.clock, task="t1l4"))
            assert out.level == NA
            covered.add(("C1", NA))

            ctx = ctx_at(**base, entries=[deployed, sibling], deployed=deployed,
                         prefix_len=prefix_len, failures={"t1l4": 2})
            out = adapt(ctx, Change("C1", ctx.progress.clock, task="t1l4"))
            assert out.level == A1
            assert out.new_entry.retries["t1l4"] > 2  # survivor re-verified
            covered.add(("C1", A1))

            ctx = ctx_at(**base, entries=[deployed], deployed=deployed,
                         prefix_len=prefix_len, failures={"t1l4": 2})
            out = adapt(ctx, Change("C1", ctx.progress.clock, task="t1l4"))
            assert out.level == A3
            covered.add(("C1", A3))

            ctx = ctx_at(**base, entries=[deployed, strong], deployed=deployed,
                         prefix_len=prefix_len)
            out = adapt(ctx, Change("C2", ctx.progress.clock, value=0.8))
            assert out.level == NA
            covered.add(("C2", NA))

            lo = remaining_success(ctx, deployed)
            hi = remaining_success(ctx, strong)
            floor = (lo + hi) / 2
            out = adapt(ctx, Change("C2", ctx.progress.clock, value=floor))
            assert out.level == A1
            assert remaining_success(ctx, out.new_entry) >= floor
            covered.add(("C2", A1))

            ctx = ctx_at(**base, entries=[deployed], deployed=deployed,
                         prefix_len=prefix_len)
            out = adapt(ctx, Change("C2", ctx.progress.clock, value=0.99))
            assert out.level == A3
            assert all(e.objectives.success_prob >= 0.99 for e in out.new_archive.entries)
            covered.add(("C2", A3))

            out = adapt(ctx, Change("C3", ctx.progress.clock, value=0.9))
            assert out.level == NA
            covered.add(("C3", NA))

            dctx = ctx_at(spec=degraded, plan=vineyard_plan, model=degraded_model,
                          entries=[degraded_deploy], deployed=degraded_deploy,
                          prefix_len=prefix_len)
            out = adapt(dctx, Change("C3", dctx.progress.clock, value=0.9))
            assert out.level == A3
            assert out.new_plan.allocation["t1l6a"] != "w1"
            covered.add(("C3", A3))

            ctx = ctx_at(**base, entries=[deployed], deployed=deployed, prefix_len=6)
            out = adapt(ctx, Change("C4", ctx.progress.clock, agent="w1", task="t3l4", value=0.5))
            assert out.level == NA  # completed task
            covered.add(("C4", NA))

            ctx = ctx_at(**base, entries=[deployed], deployed=deployed,
                         prefix_len=prefix_len)
            out = adapt(ctx, Change("C4", ctx.progress.clock, agent="w1", task="t3l9", value=0.89))
            assert out.level == A2
            chain = {c.agent: c for c in out.new_model.chains}["w1"]
            assert any(s.task == "t3l9" and s.p_success == 0.89 for s in chain.steps)
            covered.add(("C4", A2))

            out = adapt(ctx, Change("C4", ctx.progress.clock, agent="w1", task="t3l9", value=0.4))
            assert out.level == A3
            assert out.new_plan.allocation["t3l9"] != "w1"
            covered.add(("C4", A3))

        expected = {
            ("C1", NA), ("C1", A1), ("C1", A3),
            ("C2", NA), ("C2", A1), ("C2", A3),
            ("C3", NA), ("C3", A3),
            ("C4", NA), ("C4", A2), ("C4", A3),
        }
        assert covered == expected
        ok(7, f"all {len(expected)} reachable (change, level) pairs driven at two injection times")

    def test_8_scaling_smoke(self):
        from hybridplan.bench import run_sweep

        t0 = time.monotonic()
        rows = run_sweep(
            task_counts=(10, 11, 12, 13),
            agent_counts=(2, 4, 6),
            seeds=(11, 12, 13),
            planner_cfg=PlannerConfig(timeout=600),
        )
        elapsed = time.monotonic() - t0
        assert len(rows) == 12
        per_cell = elapsed / len(rows)
        assert per_cell < 600.0  # ten minutes per cell

        for row in rows:
            assert row["s2_plan_gmedian_s"] >= 0.0
            assert row["s4_synthesis_gmedian_s"] >= 0.0
            assert row["s2_plan_gsd"] >= 1.0

        by_tasks: dict[int, list] = {}
        for row in rows:
            by_tasks.setdefault(row["tasks"], []).append(
                (row["agents"], row["s2_plan_gmedian_s"], row["s2_plan_expansions"])
            )
        for tasks, cells in sorted(by_tasks.items()):
            cells.sort()
            times = [t for _, t, _ in cells]
            assert all(a <= b for a, b in zip(times, times[1:])), (
                f"planner time not monotone in agents for {tasks} tasks: {times}"
            )
            # the same trend on a deterministic counter, free of timing noise
            expansions = [e for _, _, e in cells]
            assert all(a <= b for a, b in zip(expansions, expansions[1:])), (
                f"planner expansions not monotone in agents for {tasks} tasks: {expansions}"
            )
        ok(
            8,
            f"12-cell sweep in {elapsed:.1f}s ({per_cell:.1f}s/cell); planner time and "
            "expansions monotone in agent count for every task count",
        )


def _action_json(action):
    from hybridplan.world import action_to_json

    return action_to_json(action)
