import numpy as np
import pytest

from hybridplan.chains import all_min_assignment, instantiate
from hybridplan.errors import ConvergenceError, InfiniteRewardError, ModelError, StateBudgetExceeded
from hybridplan.pmc import (
    Dtmc,
    Mdp,
    _solve_linear,
    compose_product,
    expected_reward,
    factored_mission_metrics,
    induced_chain,
    mdp_max_reach_prob,
    mdp_min_bounded_reward,
    prob01_sets,
    reach_probability,
)


def chain_dtmc(p):
    """Two-state coin: initial -> success with p, else fail; both absorb."""
    return Dtmc(
        n_states=3,
        initial=0,
        transitions=[[(1, p), (2, 1 - p)], [(1, 1.0)], [(2, 1.0)]],
        labels={"success": frozenset({1}), "done": frozenset({1, 2})},
        rewards={"cost": [[1.0, 1.0], [0.0], [0.0]]},
    )


class TestReachability:
    def test_absorbing_success(self):
        d = Dtmc(1, 0, [[(0, 1.0)]], {"success": frozenset({0})})
        assert reach_probability(d, "success") == 1.0

    def test_two_state_coin(self):
        assert reach_probability(chain_dtmc(0.97), "success") == pytest.approx(0.97, abs=1e-12)

    def test_unlabeled_target_raises(self):
        with pytest.raises(ModelError):
            reach_probability(chain_dtmc(0.5), "nope")

    def test_non_stochastic_row_raises(self):
        d = Dtmc(2, 0, [[(1, 0.5)], [(1, 1.0)]], {"success": frozenset({1})})
        with pytest.raises(ModelError):
            reach_probability(d, "success")

    def test_prob01_sets(self):
        d = chain_dtmc(0.5)
        prob0, prob1 = prob01_sets(d, frozenset({1}))
        assert prob0 == {2}
        assert prob1 == {1}

    def test_target_left_again_counts_as_reached(self):
        # 0 -> 1 (target) -> 2 (sink): the target is hit with certainty
        d = Dtmc(3, 0, [[(1, 1.0)], [(2, 1.0)], [(2, 1.0)]], {"success": frozenset({1})})
        assert prob01_sets(d, frozenset({1})) == ({2}, {0, 1})
        assert reach_probability(d, "success") == 1.0

    def test_loop_before_target(self):
        # initial loops with 0.5, exits to success with 0.5: reach prob 1
        d = Dtmc(
            2,
            0,
            [[(0, 0.5), (1, 0.5)], [(1, 1.0)]],
            {"success": frozenset({1})},
        )
        assert reach_probability(d, "success") == pytest.approx(1.0, abs=1e-12)


class TestExpectedReward:
    def test_zero_rewards(self):
        d = chain_dtmc(0.5)
        d.rewards["zero"] = [[0.0, 0.0], [0.0], [0.0]]
        assert expected_reward(d, "zero", "done") == 0.0

    def test_coin_cost(self):
        assert expected_reward(chain_dtmc(0.97), "cost", "done") == pytest.approx(1.0, abs=1e-12)

    def test_target_left_again_stops_the_reward(self):
        # 0 -> 1 (target) -> 2 (sink), cost 1 per step: only the first step is paid
        d = Dtmc(3, 0, [[(1, 1.0)], [(2, 1.0)], [(2, 1.0)]], {"done": frozenset({1})},
                 {"cost": [[1.0], [1.0], [1.0]]})
        assert expected_reward(d, "cost", "done") == 1.0

    def test_immediate_failure_costs_nothing(self):
        d = Dtmc(
            2,
            0,
            [[(1, 1.0)], [(1, 1.0)]],
            {"success": frozenset(), "done": frozenset({1})},
            rewards={"cost": [[0.0], [0.0]]},
        )
        assert expected_reward(d, "cost", "done") == 0.0

    def test_unreachable_target_is_infinite(self):
        d = Dtmc(
            2,
            0,
            [[(0, 1.0)], [(1, 1.0)]],
            {"done": frozenset({1})},
            rewards={"cost": [[1.0], [0.0]]},
        )
        with pytest.raises(InfiniteRewardError):
            expected_reward(d, "cost", "done")

    def test_geometric_accumulation(self):
        # retry loop: cost 1 per trial, success 0.5: expected trials = 2
        d = Dtmc(
            2,
            0,
            [[(0, 0.5), (1, 0.5)], [(1, 1.0)]],
            {"done": frozenset({1})},
            rewards={"cost": [[1.0, 1.0], [0.0]]},
        )
        assert expected_reward(d, "cost", "done") == pytest.approx(2.0, abs=1e-10)


class TestSolvers:
    def test_gauss_seidel_matches_direct(self):
        # same system solved by the dense and iterative paths
        rng = np.random.default_rng(5)
        n = 40
        rows = []
        rhs = np.zeros(n)
        for i in range(n):
            stay = rng.uniform(0.1, 0.6)
            rows.append([(j, stay / 2) for j in ((i + 1) % n, (i + 3) % n)])
            rhs[i] = rng.uniform(0.0, 0.4)
        dense = _solve_linear(list(range(n)), rows, rhs.copy(), 1e-12)
        # force the iterative path by calling with a large fake size guard
        import hybridplan.pmc as pmc

        old_dense, old_direct = pmc.DENSE_LIMIT, pmc.DIRECT_LIMIT
        pmc.DENSE_LIMIT, pmc.DIRECT_LIMIT = 0, 0
        try:
            iterative = _solve_linear(list(range(n)), rows, rhs.copy(), 1e-12)
        finally:
            pmc.DENSE_LIMIT, pmc.DIRECT_LIMIT = old_dense, old_direct
        assert np.allclose(dense, iterative, atol=1e-9)

    def test_iterative_monotone_convergence(self):
        # Gauss-Seidel iterates from zero never decrease for these systems
        from hybridplan.pmc import _gauss_seidel

        rng = np.random.default_rng(3)
        n = 25
        rows = []
        rhs = np.zeros(n)
        for i in range(n):
            rows.append([((i + 1) % n, 0.45), ((i + 7) % n, 0.3)])
            rhs[i] = rng.uniform(0.0, 0.25)
        sweeps = []
        _gauss_seidel(rows, rhs, 1e-12, on_sweep=sweeps.append)
        assert len(sweeps) > 3
        for a, b in zip(sweeps, sweeps[1:]):
            assert np.all(b >= a - 1e-15)

    def test_transition_list_export(self):
        d = chain_dtmc(0.25)
        lines = d.export_transitions("cost").strip().splitlines()
        assert lines[0].split("\t") == ["0", "1", "0.25", "1.0"]
        assert len(lines) == 4  # two branches plus two self-loops

    def test_duplicate_free_product_states(self, vineyard_model):
        comps = instantiate(vineyard_model, all_min_assignment(vineyard_model))
        prod = compose_product(comps)
        # every state id distinct by construction; transition targets in range
        for row in prod.transitions:
            for j, p in row:
                assert 0 <= j < prod.n_states


class TestFactoredAndProduct:
    def test_two_coin_product(self):
        a, b = chain_dtmc(0.9), chain_dtmc(0.8)
        prod = compose_product([("a", a), ("b", b)])
        assert prod.n_states <= 2 * 3 * 3
        assert reach_probability(prod, "success") == pytest.approx(0.72, abs=1e-9)
        assert expected_reward(prod, "cost", "done") == pytest.approx(2.0, abs=1e-9)

    def test_single_chain_product_identity(self):
        a = chain_dtmc(0.6)
        prod = compose_product([("a", a)])
        assert reach_probability(prod, "success") == pytest.approx(0.6, abs=1e-12)

    def test_field_mission_product_equals_factored(self, vineyard_model):
        comps = instantiate(vineyard_model, all_min_assignment(vineyard_model))
        fact = factored_mission_metrics(comps)
        prod = compose_product(comps)
        assert reach_probability(prod, "success") == pytest.approx(fact.success_prob, abs=1e-9)
        assert expected_reward(prod, "cost", "done") == pytest.approx(fact.expected_cost, abs=1e-9)

    def test_single_chain_factored_identity(self):
        a = chain_dtmc(0.42)
        m = factored_mission_metrics([("a", a)])
        assert m.success_prob == pytest.approx(0.42, abs=1e-12)

    def test_state_budget(self, vineyard_model):
        comps = instantiate(vineyard_model, all_min_assignment(vineyard_model))
        with pytest.raises(StateBudgetExceeded):
            compose_product(comps, state_budget=10)


def two_choice_mdp():
    """One decision: do the task as the careful agent (p=.99, cost 5) or the
    cheap one (p=.97, cost 1)."""
    return Mdp(
        n_states=3,
        initial=0,
        choices=[
            [
                ("careful", [(1, 0.99), (2, 0.01)], [5.0, 5.0]),
                ("cheap", [(1, 0.97), (2, 0.03)], [1.0, 1.0]),
            ],
            [("stay", [(1, 1.0)], [0.0])],
            [("stay", [(2, 1.0)], [0.0])],
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
                [("coin", [(1, 0.5), (2, 0.5)], [0.0, 0.0]), ("sure", [(1, 1.0)], [0.0])],
                [("leave", [(2, 1.0)], [0.0])],
                [("stay", [(2, 1.0)], [0.0])],
            ],
            {"success": frozenset({1})},
        )
        assert mdp_max_reach_prob(mdp, "success") == 1.0

    def test_bounded_reward_zero_horizon(self):
        assert mdp_min_bounded_reward(two_choice_mdp(), 0) == 0.0

    def test_bounded_reward_all_zero(self):
        mdp = two_choice_mdp()
        zeroed = Mdp(
            mdp.n_states,
            mdp.initial,
            [[(n, row, [0.0] * len(rew)) for n, row, rew in acts] for acts in mdp.choices],
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

    def test_malformed_mdp_rejected(self):
        bad = Mdp(2, 0, [[("a", [(1, 0.9)], [0.0])], [("s", [(1, 1.0)], [0.0])]], {"success": frozenset({1})})
        with pytest.raises(ModelError):
            bad.check()


class TestMalformedMdp:
    @pytest.mark.parametrize(
        "choices, message",
        [
            ([[("a", [(1, 1.0)], [0.0])], []], "state 1 has no enabled action"),
            ([[("a", [(1, 0.5), (1, 0.5 - 2e-12)], [0.0, 0.0])], [("s", [(1, 1.0)], [0.0])]], "sums to"),
            ([[("a", [(1, 1.0)], [0.0, 1.0])], [("s", [(1, 1.0)], [0.0])]], "reward misaligned"),
            ([[("a", [(1, 1.0)], [0.0])]], "size mismatch"),
        ],
    )
    def test_rejected_by_check_and_queries(self, choices, message):
        def mdp():
            return Mdp(2, 0, choices, {"success": frozenset({1})})

        for query in (Mdp.check, lambda m: mdp_max_reach_prob(m, "success"), mdp_min_bounded_reward):
            with pytest.raises(ModelError, match=message):
                query(mdp())

    def test_first_fault_in_state_order(self):
        # state 0's second action is misaligned; state 1 has no action
        choices = [
            [("ok", [(0, 1.0)], [0.0]), ("bad", [(0, 1.0)], [])],
            [],
        ]
        with pytest.raises(ModelError, match="state 0 action 'bad' reward misaligned"):
            Mdp(2, 0, choices, {"success": frozenset({0})}).check()

    def test_row_sum_within_tolerance_accepted(self):
        choices = [[("a", [(1, 0.5), (1, 0.5 - 5e-13)], [0.0, 0.0])], [("s", [(1, 1.0)], [0.0])]]
        Mdp(2, 0, choices, {"success": frozenset({1})}).check()


class TestConvergenceCap:
    def test_value_iteration_raises(self, monkeypatch):
        import hybridplan.pmc as pmc

        # a 0.9 self-loop needs many sweeps to get within 1e-10
        mdp = Mdp(
            2, 0, [[("try", [(0, 0.9), (1, 0.1)], [1.0, 1.0])], [("s", [(1, 1.0)], [0.0])]], {"success": frozenset({1})}
        )
        assert mdp_max_reach_prob(mdp, "success") == pytest.approx(1.0, abs=1e-12)
        monkeypatch.setattr(pmc, "MAX_SWEEPS", 5)
        with pytest.raises(ConvergenceError):
            mdp_max_reach_prob(mdp, "success")

    def test_gauss_seidel_raises(self, monkeypatch):
        import hybridplan.pmc as pmc

        rows = [[(0, 0.9)]]
        assert pmc._gauss_seidel(rows, np.array([0.1]), 1e-10)[0] == pytest.approx(1.0, abs=1e-9)
        monkeypatch.setattr(pmc, "MAX_SWEEPS", 5)
        with pytest.raises(ConvergenceError):
            pmc._gauss_seidel(rows, np.array([0.1]), 1e-10)


def test_dense_and_sparse_solves_agree_on_induced_chains(monkeypatch, m1, m1_mini):
    import hybridplan.pmc as pmc
    from hybridplan.baseline import build_full_mdp

    systems = []
    solve = pmc._solve_linear

    def record(unknowns, rows, rhs, tol):
        systems.append((unknowns, rows, rhs.copy(), tol))
        return solve(unknowns, rows, rhs, tol)

    monkeypatch.setattr(pmc, "_solve_linear", record)
    for spec in (m1_mini, m1):
        mdp_max_reach_prob(build_full_mdp(spec), "success")
    monkeypatch.setattr(pmc, "_solve_linear", solve)
    sizes = [len(u) for u, _, _, _ in systems]
    assert min(sizes) <= pmc.DENSE_LIMIT < max(sizes)
    for unknowns, rows, rhs, tol in systems:
        monkeypatch.setattr(pmc, "DENSE_LIMIT", len(unknowns))
        dense = solve(unknowns, rows, rhs.copy(), tol)
        monkeypatch.setattr(pmc, "DENSE_LIMIT", 0)
        sparse = solve(unknowns, rows, rhs.copy(), tol)
        assert np.max(np.abs(dense - sparse)) <= 1e-12
