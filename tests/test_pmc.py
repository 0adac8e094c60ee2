import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hybridplan
from hybridplan.chains import all_min_assignment, instantiate
from hybridplan.errors import ConvergenceError, InfiniteRewardError, ModelError, StateBudgetExceeded
from hybridplan.pmc import (
    Mdp,
    compose_product,
    expected_reward,
    factored_mission_metrics,
    induced_chain,
    mdp_max_reach_prob,
    mdp_min_bounded_reward,
    prob01_sets,
    reach_probability,
)


def chain(rows, labels, costs=None):
    """A DTMC from state 0: an Mdp whose state s has the one choice
    ("step", rows[s], costs[s]); the costs default to zero."""
    costs = costs or [0.0] * len(rows)
    return Mdp(len(rows), 0, [[("step", row, cost)] for row, cost in zip(rows, costs)], labels)


def chain_dtmc(p, cost=1.0):
    """Two-state coin: initial -> success with p, else fail; both absorb."""
    return chain(
        [[(1, p), (2, 1 - p)], [(1, 1.0)], [(2, 1.0)]],
        {"success": frozenset({1}), "done": frozenset({1, 2})},
        [cost, 0.0, 0.0],
    )


class TestReachability:
    def test_absorbing_success(self):
        d = chain([[(0, 1.0)]], {"success": frozenset({0})})
        assert reach_probability(d, "success") == 1.0

    def test_two_state_coin(self):
        assert reach_probability(chain_dtmc(0.97), "success") == pytest.approx(0.97, abs=1e-12)

    def test_unlabeled_target_raises(self):
        with pytest.raises(ModelError):
            reach_probability(chain_dtmc(0.5), "nope")

    def test_declared_label_without_states_is_never_reached(self):
        d = chain([[(1, 1.0)], [(1, 1.0)]], {"success": frozenset(), "done": frozenset({1})})
        assert reach_probability(d, "success") == 0.0
        assert mdp_max_reach_prob(d, "success") == 0.0

    def test_non_stochastic_row_raises(self):
        d = chain([[(1, 0.5)], [(1, 1.0)]], {"success": frozenset({1})})
        with pytest.raises(ModelError):
            reach_probability(d, "success")

    def test_prob01_sets(self):
        prob0, prob1 = prob01_sets(chain_dtmc(0.5).compiled().trans, np.array([False, True, False]))
        assert prob0.tolist() == [False, False, True]
        assert prob1.tolist() == [False, True, False]

    def test_target_left_again_counts_as_reached(self):
        # 0 -> 1 (target) -> 2 (sink): the target is hit with certainty
        d = chain([[(1, 1.0)], [(2, 1.0)], [(2, 1.0)]], {"success": frozenset({1})})
        prob0, prob1 = prob01_sets(d.compiled().trans, np.array([False, True, False]))
        assert (prob0.tolist(), prob1.tolist()) == ([False, False, True], [True, True, False])
        assert reach_probability(d, "success") == 1.0

    def test_loop_before_target(self):
        # initial loops with 0.5, exits to success with 0.5: reach prob 1
        d = chain([[(0, 0.5), (1, 0.5)], [(1, 1.0)]], {"success": frozenset({1})})
        assert reach_probability(d, "success") == pytest.approx(1.0, abs=1e-12)


class TestExpectedReward:
    def test_zero_rewards(self):
        assert expected_reward(chain_dtmc(0.5, cost=0.0), "done") == 0.0

    def test_coin_cost(self):
        assert expected_reward(chain_dtmc(0.97), "done") == pytest.approx(1.0, abs=1e-12)

    def test_target_left_again_stops_the_reward(self):
        # 0 -> 1 (target) -> 2 (sink), cost 1 per step: only the first step is paid
        d = chain([[(1, 1.0)], [(2, 1.0)], [(2, 1.0)]], {"done": frozenset({1})}, [1.0, 1.0, 1.0])
        assert expected_reward(d, "done") == 1.0

    def test_immediate_failure_costs_nothing(self):
        d = chain([[(1, 1.0)], [(1, 1.0)]], {"success": frozenset(), "done": frozenset({1})})
        assert expected_reward(d, "done") == 0.0

    def test_unreachable_target_is_infinite(self):
        d = chain([[(0, 1.0)], [(1, 1.0)]], {"done": frozenset({1})}, [1.0, 0.0])
        with pytest.raises(InfiniteRewardError):
            expected_reward(d, "done")

    def test_geometric_accumulation(self):
        # retry loop: cost 1 per trial, success 0.5: expected trials = 2
        d = chain([[(0, 0.5), (1, 0.5)], [(1, 1.0)]], {"done": frozenset({1})}, [1.0, 0.0])
        assert expected_reward(d, "done") == pytest.approx(2.0, abs=1e-10)


class TestSolvers:
    def test_duplicate_free_product_states(self, vineyard_model):
        comps = instantiate(vineyard_model, all_min_assignment(vineyard_model))
        prod = compose_product(comps)
        # every state id distinct by construction; transition targets in range
        for ((_, row, _),) in prod.choices:
            for j, p in row:
                assert 0 <= j < prod.n_states


class TestFactoredAndProduct:
    def test_two_coin_product(self):
        a, b = chain_dtmc(0.9), chain_dtmc(0.8)
        prod = compose_product([("a", a), ("b", b)])
        assert prod.n_states <= 2 * 3 * 3
        assert reach_probability(prod, "success") == pytest.approx(0.72, abs=1e-9)
        assert expected_reward(prod, "done") == pytest.approx(2.0, abs=1e-9)

    def test_single_chain_product_identity(self):
        a = chain_dtmc(0.6)
        prod = compose_product([("a", a)])
        assert reach_probability(prod, "success") == pytest.approx(0.6, abs=1e-12)

    def test_field_mission_product_equals_factored(self, vineyard_model):
        comps = instantiate(vineyard_model, all_min_assignment(vineyard_model))
        fact = factored_mission_metrics(comps)
        prod = compose_product(comps)
        assert reach_probability(prod, "success") == pytest.approx(fact.success_prob, abs=1e-9)
        assert expected_reward(prod, "done") == pytest.approx(fact.expected_cost, abs=1e-9)

    def test_single_chain_factored_identity(self):
        a = chain_dtmc(0.42)
        m = factored_mission_metrics([("a", a)])
        assert m.success_prob == pytest.approx(0.42, abs=1e-12)

    def test_state_budget(self, vineyard_model):
        comps = instantiate(vineyard_model, all_min_assignment(vineyard_model))
        with pytest.raises(StateBudgetExceeded):
            compose_product(comps, state_budget=10)

    def test_empty_component_list_is_rejected(self):
        with pytest.raises(ModelError, match="empty component list"):
            compose_product([])

    @pytest.mark.parametrize("budget", [0, -1])
    def test_state_budget_below_one_is_rejected(self, budget):
        with pytest.raises(ValueError, match="at least 1"):
            compose_product([("a", chain_dtmc(0.6))], state_budget=budget)

    def test_one_state_budget_holds_only_the_start(self):
        with pytest.raises(StateBudgetExceeded) as err:
            compose_product([("a", chain_dtmc(0.6))], state_budget=1)
        assert err.value.states_reached == 1


class TestCompileOnce:
    def test_factored_metrics_compile_each_chain_once(self, monkeypatch, m2_model):
        import hybridplan.pmc as pmc

        comps = instantiate(m2_model, all_min_assignment(m2_model))
        compiles = []
        compile_mdp = pmc._compile_mdp

        def count(mdp):
            compiles.append(mdp.n_states)
            return compile_mdp(mdp)

        monkeypatch.setattr(pmc, "_compile_mdp", count)
        metrics = factored_mission_metrics(comps)
        # each chain is compiled once for both reach_probability and expected_reward
        assert len(compiles) == len(comps)
        assert factored_mission_metrics(comps) == metrics
        assert len(compiles) == len(comps)

    def test_second_query_reuses_the_forms(self):
        d = chain_dtmc(0.5)
        assert d.compiled() is d.compiled()


def two_choice_mdp():
    """One decision: do the task as the careful agent (p=.99, cost 5) or the
    cheap one (p=.97, cost 1)."""
    return Mdp(
        n_states=3,
        initial=0,
        choices=[
            [
                ("careful", [(1, 0.99), (2, 0.01)], 5.0),
                ("cheap", [(1, 0.97), (2, 0.03)], 1.0),
            ],
            [("stay", [(1, 1.0)], 0.0)],
            [("stay", [(2, 1.0)], 0.0)],
        ],
        labels={"success": frozenset({1}), "done": frozenset({1, 2})},
    )


class TestMdp:
    def test_max_reach_picks_better_agent(self):
        assert mdp_max_reach_prob(two_choice_mdp(), "success") == pytest.approx(0.99, abs=1e-12)

    def test_target_values_stay_pinned(self):
        # the target's only action leaves it for a sink; reaching it counts
        # all the same, so the sure action must win over the coin flip
        mdp = Mdp(
            3,
            0,
            [
                [("coin", [(1, 0.5), (2, 0.5)], 0.0), ("sure", [(1, 1.0)], 0.0)],
                [("leave", [(2, 1.0)], 0.0)],
                [("stay", [(2, 1.0)], 0.0)],
            ],
            {"success": frozenset({1})},
        )
        assert mdp_max_reach_prob(mdp, "success") == 1.0

    def test_bounded_reward_zero_horizon(self):
        assert mdp_min_bounded_reward(two_choice_mdp(), 0) == 0.0

    def test_bounded_reward_negative_horizon_is_rejected(self):
        with pytest.raises(ValueError, match="bound must be >= 0"):
            mdp_min_bounded_reward(two_choice_mdp(), -1)

    def test_bounded_reward_all_zero(self):
        mdp = two_choice_mdp()
        zeroed = Mdp(
            mdp.n_states,
            mdp.initial,
            [[(n, row, 0.0) for n, row, _ in acts] for acts in mdp.choices],
            mdp.labels,
        )
        assert mdp_min_bounded_reward(zeroed, 20) == 0.0

    def test_bounded_reward_picks_cheap(self):
        # one step accrues the cheap action's cost, then absorbing zero
        assert mdp_min_bounded_reward(two_choice_mdp(), 20) == pytest.approx(1.0, abs=1e-12)

    def test_induced_chain_evaluates_policy(self):
        mdp = two_choice_mdp()
        chain = induced_chain(mdp, {0: 1})
        assert reach_probability(chain, "success") == pytest.approx(0.97, abs=1e-12)

    def test_chain_queries_reject_a_state_with_two_choices(self):
        for query in (lambda m: reach_probability(m, "success"), lambda m: expected_reward(m, "done"),
                      lambda m: compose_product([("a", m)])):
            with pytest.raises(ModelError, match="more than one choice"):
                query(two_choice_mdp())

    def test_malformed_mdp_rejected(self):
        bad = Mdp(2, 0, [[("a", [(1, 0.9)], 0.0)], [("s", [(1, 1.0)], 0.0)]], {"success": frozenset({1})})
        with pytest.raises(ModelError):
            bad.check()


class TestMalformedMdp:
    @pytest.mark.parametrize(
        "choices, message",
        [
            ([[("a", [(1, 1.0)], 0.0)], []], "state 1 has no enabled action"),
            ([[("a", [(1, 0.5), (1, 0.5 - 2e-12)], 0.0)], [("s", [(1, 1.0)], 0.0)]], "sums to"),
            ([[("a", [(1, 1.0)], 0.0)]], "size mismatch"),
            ([[("a", [(5, 1.0)], 0.0)], [("s", [(1, 1.0)], 0.0)]], "state 0 action 'a' target 5 outside [0, 2)"),
            ([[("a", [(1,)], 0.0)], [("s", [(1, 1.0)], 0.0)]], "entry (1,) is not a (target, probability) pair"),
            ([[("a", [(1, 0.5, 0)], 0.0)], [("s", [(1, 1.0)], 0.0)]], "entry (1, 0.5, 0) is not a"),
            ([[("a", [1], 0.0)], [("s", [(1, 1.0)], 0.0)]], "entry 1 is not a"),
            ([[("a", [(1, float("nan"))], 0.0)], [("s", [(1, 1.0)], 0.0)]], "sums to nan"),
            # the old per-entry reward list
            ([[("a", [(1, 1.0)], [0.0])], [("s", [(1, 1.0)], 0.0)]], "state 0 action 'a' reward [0.0] is not a number"),
            ([[("a", [(1, 1.0)], 0.0)], [("s", [(1, 1.0)], "x")]], "state 1 action 's' reward 'x' is not a number"),
        ],
    )
    def test_rejected_by_check_and_queries(self, choices, message):
        def mdp():
            return Mdp(2, 0, choices, {"success": frozenset({1})})

        for query in (Mdp.check, lambda m: mdp_max_reach_prob(m, "success"), mdp_min_bounded_reward):
            with pytest.raises(ModelError, match=re.escape(message)):
                query(mdp())

    def test_per_entry_reward_list_names_its_state_and_action(self):
        with pytest.raises(ModelError, match=re.escape("state 0 action 's' reward [0.0] is not a number")):
            Mdp(1, 0, [[("s", [(0, 1.0)], [0.0])]], {"success": frozenset({0})}).check()

    def test_first_fault_in_state_order(self):
        # state 0's second action sums to 0.9; state 1 has no action
        choices = [
            [("ok", [(0, 1.0)], 0.0), ("bad", [(0, 0.9)], 0.0)],
            [],
        ]
        with pytest.raises(ModelError, match="state 0 action 'bad' sums to 0.9"):
            Mdp(2, 0, choices, {"success": frozenset({0})}).check()

    @pytest.mark.parametrize(
        "choices, message",
        [
            # a bad target comes before its choice's sum
            ([[("a", [(0, 0.5), (2, 0.2)], 0.0)], []], "state 0 action 'a' target 2 outside [0, 2)"),
            # ... but after an earlier state's fault
            ([[], [("a", [(1,)], 0.0)]], "state 0 has no enabled action"),
            ([[("ok", [(0, 1.0)], 0.0), ("bad", [(0, 0.9)], 0.0)], [("a", [(7, 1.0)], 0.0)]],
             "state 0 action 'bad' sums to 0.9"),
            # a bad reward comes after its choice's sum and before a later fault
            ([[("a", [(0, 0.9)], (1,))], []], "state 0 action 'a' sums to 0.9"),
            ([[("a", [(0, 1.0)], (1,))], [("b", [(7, 1.0)], 0.0)]], "state 0 action 'a' reward (1,) is not a number"),
        ],
    )
    def test_entry_faults_in_state_order(self, choices, message):
        with pytest.raises(ModelError, match=re.escape(message)):
            Mdp(2, 0, choices, {"success": frozenset({0})}).check()

    def test_negative_target_is_rejected_in_a_fresh_interpreter(self):
        # an unchecked -1 reaches scipy's sparse kernels, which write outside
        # their arrays; a separate interpreter keeps a corrupted heap from
        # taking the test run down with it
        code = (
            "from hybridplan.errors import ModelError\n"
            "from hybridplan.pmc import Mdp, reach_probability\n"
            "m = Mdp(2, 0, [[('a', [(-1, 1.0)], 0.0)], [('s', [(1, 1.0)], 0.0)]],"
            " {'success': frozenset({1})})\n"
            "try:\n"
            "    reach_probability(m, 'success')\n"
            "except ModelError as e:\n"
            "    print(e)\n"
        )
        src = str(Path(hybridplan.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "state 0 action 'a' target -1 outside [0, 2)"

    def test_row_sum_within_tolerance_accepted(self):
        choices = [[("a", [(1, 0.5), (1, 0.5 - 5e-13)], 0.0)], [("s", [(1, 1.0)], 0.0)]]
        Mdp(2, 0, choices, {"success": frozenset({1})}).check()


class TestConvergenceCap:
    def test_value_iteration_raises(self, monkeypatch):
        import hybridplan.pmc as pmc

        # a 0.9 self-loop needs many sweeps to get within 1e-10
        mdp = Mdp(
            2, 0, [[("try", [(0, 0.9), (1, 0.1)], 1.0)], [("s", [(1, 1.0)], 0.0)]], {"success": frozenset({1})}
        )
        assert mdp_max_reach_prob(mdp, "success") == pytest.approx(1.0, abs=1e-12)
        monkeypatch.setattr(pmc, "MAX_SWEEPS", 5)
        with pytest.raises(ConvergenceError):
            mdp_max_reach_prob(mdp, "success")


def test_dense_and_sparse_solves_agree_on_induced_chains(monkeypatch, m1, m1_mini):
    import hybridplan.pmc as pmc
    from hybridplan.baseline import build_full_mdp

    systems = []
    solve = pmc._solve_linear

    def record(unknowns, coeff, rhs):
        systems.append((unknowns, coeff, rhs.copy()))
        return solve(unknowns, coeff, rhs)

    monkeypatch.setattr(pmc, "_solve_linear", record)
    for spec in (m1_mini, m1):
        mdp_max_reach_prob(build_full_mdp(spec), "success")
    monkeypatch.setattr(pmc, "_solve_linear", solve)
    sizes = [len(u) for u, _, _ in systems]
    assert min(sizes) <= pmc.DENSE_LIMIT < max(sizes)
    for unknowns, coeff, rhs in systems:
        monkeypatch.setattr(pmc, "DENSE_LIMIT", len(unknowns))
        dense = solve(unknowns, coeff, rhs.copy())
        monkeypatch.setattr(pmc, "DENSE_LIMIT", 0)
        sparse = solve(unknowns, coeff, rhs.copy())
        assert np.max(np.abs(dense - sparse)) <= 1e-12
