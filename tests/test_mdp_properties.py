"""Property tests: the array MDP engines agree with per-state loops.

The reference functions below are the loop forms of the two MDP queries
(Gauss-Seidel value iteration with the same polish, and backward induction
one state and one choice at a time).  They run on random small MDPs and on
the whole-problem MDPs of 2-task random missions (those above 3,000 states
are skipped to keep the loops quick).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hybridplan.baseline import build_full_mdp
from hybridplan.bench import random_instance
from hybridplan.errors import StateBudgetExceeded
from hybridplan.pmc import Mdp, induced_chain, mdp_max_reach_prob, mdp_min_bounded_reward, reach_probability

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
CLOSE = dict(rel=1e-12, abs=1e-12)


def loop_max_reach_prob(mdp: Mdp, label: str, tol: float = 1e-10) -> float:
    target = mdp.states_with_label(label)
    x = np.zeros(mdp.n_states)
    for s in target:
        x[s] = 1.0
    while True:
        delta = 0.0
        for s in range(mdp.n_states):
            if s in target:
                continue
            best = 0.0
            for _, row, _ in mdp.choices[s]:
                best = max(best, sum(p * x[j] for j, p in row))
            delta = max(delta, abs(best - x[s]))
            x[s] = best
        if delta < tol:
            break
    opt_actions = {}
    for s in range(mdp.n_states):
        if s in target:
            continue
        vals = [sum(p * x[j] for j, p in row) for _, row, _ in mdp.choices[s]]
        opt_actions[s] = [i for i, v in enumerate(vals) if v >= max(vals) - 1e-12]
    dist = {s: 0 for s in target}
    policy = {}
    changed = True
    while changed:
        changed = False
        for s, idxs in opt_actions.items():
            if s in policy:
                continue
            for idx in idxs:
                _, row, _ = mdp.choices[s][idx]
                reachable = [dist[j] for j, p in row if p > 0.0 and j in dist]
                if reachable:
                    policy[s] = idx
                    dist[s] = 1 + min(reachable)
                    changed = True
                    break
    return reach_probability(induced_chain(mdp, policy), label)


def loop_min_bounded_reward(mdp: Mdp, bound: int) -> float:
    x = np.zeros(mdp.n_states)
    for _ in range(bound):
        nxt = np.zeros(mdp.n_states)
        for s in range(mdp.n_states):
            nxt[s] = min(
                sum(p * (r + x[j]) for (j, p), r in zip(row, rew)) for _, row, rew in mdp.choices[s]
            )
        x = nxt
    return float(x[mdp.initial])


@st.composite
def small_mdps(draw):
    n = draw(st.integers(1, 8))
    choices = []
    for s in range(n):
        acts = []
        for a in range(draw(st.integers(1, 3))):
            targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
            weights = [draw(st.floats(0.05, 1.0)) for _ in targets]
            row = [(j, w / sum(weights)) for j, w in zip(targets, weights)]
            rew = [draw(st.floats(0.0, 10.0)) for _ in row]
            acts.append((f"a{a}", row, rew))
        choices.append(acts)
    target = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Mdp(n, draw(st.integers(0, n - 1)), choices, {"success": frozenset(target)})


class TestArrayEnginesMatchLoops:
    @PROPERTY
    @given(small_mdps(), st.integers(0, 25))
    def test_random_small_mdps(self, mdp, bound):
        assert mdp_max_reach_prob(mdp, "success") == pytest.approx(loop_max_reach_prob(mdp, "success"), **CLOSE)
        assert mdp_min_bounded_reward(mdp, bound) == pytest.approx(loop_min_bounded_reward(mdp, bound), **CLOSE)

    @settings(PROPERTY, max_examples=8)
    @given(st.integers(1, 2), st.integers(0, 10_000))
    def test_two_task_missions(self, agents, seed):
        try:
            mdp = build_full_mdp(random_instance(2, agents, seed), state_budget=3_000)
        except StateBudgetExceeded:
            assume(False)
        assume(mdp.labels["success"])   # some task no agent can do
        assert mdp_max_reach_prob(mdp, "success") == pytest.approx(loop_max_reach_prob(mdp, "success"), **CLOSE)
        assert mdp_min_bounded_reward(mdp, 20) == pytest.approx(loop_min_bounded_reward(mdp, 20), **CLOSE)


def test_reference_loops_on_two_choice_toy():
    mdp = Mdp(
        3,
        0,
        [
            [("careful", [(1, 0.99), (2, 0.01)], [5.0, 5.0]), ("cheap", [(1, 0.97), (2, 0.03)], [1.0, 1.0])],
            [("stay", [(1, 1.0)], [0.0])],
            [("stay", [(2, 1.0)], [0.0])],
        ],
        {"success": frozenset({1})},
    )
    assert math.isclose(loop_max_reach_prob(mdp, "success"), 0.99, abs_tol=1e-12)
    assert math.isclose(loop_min_bounded_reward(mdp, 20), 1.0, abs_tol=1e-12)
