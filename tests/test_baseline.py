import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridplan.baseline import (
    FAIL, RUNNING, SUCCESS, baseline_queries, build_full_mdp, enumerate_policies,
)
from hybridplan.bench import random_instance
from hybridplan.chains import all_max_assignment, build_parametric_model, instantiate
from hybridplan.errors import LimitExceeded, ModelError, StateBudgetExceeded
from hybridplan.planner import _Compact, plan_mission
from hybridplan.pmc import Mdp
from hybridplan.spec import build_problem_spec
from hybridplan.synthesis import exhaustive_synthesize, pareto_front
from test_golden_mdps import digest


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

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_state_is_rejected(self, m1_mini, budget):
        with pytest.raises(ValueError, match="at least 1"):
            build_full_mdp(m1_mini, state_budget=budget)

    def test_one_state_budget_holds_only_the_start(self, m1_mini):
        with pytest.raises(StateBudgetExceeded) as err:
            build_full_mdp(m1_mini, state_budget=1)
        assert err.value.states_reached == 1

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


def reference_full_mdp(spec, state_budget=500_000):
    """The per-state builder: successors and choice names are recomputed
    for every joint state, which is keyed by the packed world key itself."""
    problem = _Compact(spec)
    n_tasks, pending = len(problem.task_ids), problem.pending
    attempts = {}
    for t, tid in enumerate(problem.task_ids):
        for a in problem.capable[t]:
            cap = spec.capability(problem.agent_ids[a], tid)
            attempts[~(a * n_tasks + t)] = (cap.p_success, cap.cost, cap.max_retries)

    def name(code, world):
        return str(problem.action(world, code))

    def finished(world):
        return SUCCESS if problem.decode(world)[2] & pending == pending else RUNNING

    start = (problem.start, (), finished(problem.start))
    index = {start: 0}
    terminal = [start[2]]
    choices = [None]
    frontier = [(0, start)]

    def intern(key):
        sid = index.get(key)
        if sid is None:
            if len(terminal) >= state_budget:
                raise StateBudgetExceeded("reference budget", len(terminal))
            sid = index[key] = len(terminal)
            terminal.append(key[2])
            choices.append(None)
            frontier.append((sid, key))
        return sid

    while frontier:
        sid, (world, counters, term) = frontier.pop()
        if term != RUNNING:
            choices[sid] = [("stay", [(sid, 1.0)], 0.0)]
            continue
        rows = []
        for code, child, step in problem.successors(world, False):
            label = name(code, world)
            if code >= 0:
                rows.append((label, [(intern((child, counters, RUNNING)), 1.0)], step))
                continue
            p, cost, cap = attempts[code]
            succ = intern((child, counters, finished(child)))
            if p >= 1.0:
                rows.append((label, [(succ, 1.0)], cost))
                continue
            held = dict(counters)
            used = held.get(code, 0)
            if used + 1 >= cap or cap == 0:
                fail = (world, counters, FAIL)
            else:
                held[code] = used + 1
                fail = (world, tuple(sorted(held.items())), RUNNING)
            rows.append((label, [(succ, p), (intern(fail), 1.0 - p)], cost))
        choices[sid] = rows or [("stall", [(sid, 1.0)], 0.0)]

    labels = {
        "success": frozenset(i for i, t in enumerate(terminal) if t == SUCCESS),
        "done": frozenset(i for i, t in enumerate(terminal) if t != RUNNING),
    }
    return Mdp(len(terminal), 0, choices, labels)


def outcome(build, spec, budget):
    """The MDP's digest, or the states reached when the budget is hit."""
    try:
        return digest(build(spec, state_budget=budget))
    except StateBudgetExceeded as err:
        return ("budget", err.states_reached)


@st.composite
def baseline_specs(draw):
    """2-task random missions, some re-rooted with a random pending subset
    and C4 overrides at or above gamma (an override may make an agent
    without the capability eligible, with no retries)."""
    spec = random_instance(2, draw(st.sampled_from([1, 2])), draw(st.integers(0, 40)))
    if draw(st.booleans()):
        tasks = [t.id for t in spec.tasks]
        pairs = [(a.id, t) for a in spec.agents for t in tasks]
        overrides = draw(st.dictionaries(
            st.sampled_from(pairs), st.sampled_from([spec.constraints.gamma, 0.8, 1.0]), max_size=3
        ))
        pending = draw(st.lists(st.sampled_from(tasks), unique=True))
        spec = spec.with_runtime_state(pending=pending, p_overrides=overrides)
    return spec


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(baseline_specs(), st.one_of(st.just(3000), st.integers(1, 400)))
def test_builder_matches_the_per_state_reference(spec, budget):
    # equal digests, or the budget hit at the same state count on both sides
    assert outcome(build_full_mdp, spec, budget) == outcome(reference_full_mdp, spec, budget)


def successor_calls(monkeypatch, spec) -> list:
    """The world keys build_full_mdp(spec) expands, one per successors call."""
    calls = []
    successors = _Compact.successors

    def counted(self, key, forced):
        calls.append(key)
        return successors(self, key, forced)

    monkeypatch.setattr(_Compact, "successors", counted)
    build_full_mdp(spec)
    return calls


@pytest.mark.parametrize("make, expected", [
    (lambda: random_instance(2, 2, 0), 267),   # 2,670 with one call per joint state
    ("m1", 1085),
    ("m1_mini", 21),
], ids=["rand2x2s0", "m1", "m1_mini"])
def test_successors_run_once_per_world_part(monkeypatch, request, make, expected):
    spec = request.getfixturevalue(make) if isinstance(make, str) else make()
    calls = successor_calls(monkeypatch, spec)
    assert len(calls) == expected
    assert len(set(calls)) == len(calls)


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
            [[("wait", [(0, 1.0)], 1.0), ("go", [(1, 1.0)], 2.0)], [("stay", [(1, 1.0)], 0.0)]],
            {"success": frozenset({1}), "done": frozenset({1})},
        )
        result = enumerate_policies(mdp, limit=10)
        assert result["points"] == [(2.0, 1.0), (math.inf, 0.0)]
        assert result["pareto"] == [(2.0, 1.0)]

    def test_missing_done_label_is_not_swallowed(self):
        mdp = Mdp(1, 0, [[("stay", [(0, 1.0)], 0.0)]], {"success": frozenset({0})})
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
        choices = [[("go", [(s + 1, 1.0)], 1.0)] for s in range(n - 1)]
        choices.append([("stay", [(n - 1, 1.0)], 0.0)])
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
