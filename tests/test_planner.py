import random

import pytest

from hybridplan.errors import NoPlanExists, PlanTimeout
from hybridplan.planner import (
    PlannerConfig,
    _Compact,
    _Heuristic,
    build_plan,
    plan_metrics,
    plan_mission,
    shortest_path_distances,
    validate_plan,
)
from hybridplan.spec import build_problem_spec
from hybridplan.world import Do, Move, Wait, initial_state, replay

# the published optimal trace for the field mission, used as external input
REFERENCE_TRACE = [
    Move("w2", "l1", "l4"),
    Do("w2", "t1l4", "l4"),
    Do("w2", "t3l4", "l4"),
    Move("w2", "l4", "l7"),
    Do("w2", "t1l7", "l7"),
    Do("w2", "t3l7", "l7"),
    Move("r1", "l1", "l4"),
    Move("r1", "l4", "l5"),
    Do("r1", "t2l5", "l5"),
    Move("w2", "l7", "l8"),
    Move("w2", "l8", "l9"),
    Move("r1", "l5", "l8"),
    Do("r1", "t2l8a", "l8"),
    Do("r1", "t2l8b", "l8"),
    Do("w2", "t3l9", "l9"),
    Move("w2", "l9", "l6"),
    Do("w2", "t1l6b", "l6"),
    Do("w2", "t1l6a", "l6"),
]


def grid_doc(rows, cols, tasks, agents, p_succ=0.9, gamma=0.5):
    """Unit grid mission for randomized planner tests."""
    locs = [f"g{r}{c}" for r in range(rows) for c in range(cols)]
    paths = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                paths.append({"start": f"g{r}{c}", "end": f"g{r}{c+1}", "distance": 1})
            if r + 1 < rows:
                paths.append({"start": f"g{r}{c}", "end": f"g{r+1}{c}", "distance": 1})
    return {
        "locations": [{"id": l} for l in locs],
        "paths": paths,
        "tasks": tasks,
        "agents": agents,
        "constraints": {
            "mission_probability_of_success": p_succ,
            "min_assignment_probability": gamma,
        },
    }


class TestOptimality:
    def test_field_mission_optimal_cost(self, vineyard, vineyard_plan):
        assert vineyard_plan.travel_cost == 8
        assert validate_plan(vineyard, vineyard_plan) == []
        end = replay(vineyard, vineyard_plan.total_order)
        assert end.done == frozenset(t.id for t in vineyard.tasks)

    def test_reference_trace_validates(self, vineyard):
        plan = build_plan(vineyard, REFERENCE_TRACE)
        assert validate_plan(vineyard, plan) == []
        metrics = plan_metrics(plan)
        assert metrics["travel_cost"] == 8
        assert metrics["horizons"] == {"w2": 12, "r1": 6}

    def test_trivial_colocated_task(self):
        doc = grid_doc(
            1,
            2,
            [{"id": "t1", "instances": [{"id": "t1a", "location": "g00"}]}],
            [
                {
                    "id": "a1",
                    "type": "worker",
                    "start": "g00",
                    "tasks": [{"id": "t1", "cost": 1, "p_success": 1.0, "retries": 1}],
                }
            ],
        )
        plan = plan_mission(build_problem_spec(doc))
        assert plan.travel_cost == 0
        assert plan.total_order == [Do("a1", "t1a", "g00")]

    def test_expansion_budget_exhausted(self, vineyard):
        with pytest.raises(PlanTimeout):
            plan_mission(vineyard, PlannerConfig(max_expansions=2))

    def test_unreachable_island(self):
        doc = grid_doc(
            1,
            2,
            [{"id": "t1", "instances": [{"id": "t1a", "location": "island"}]}],
            [
                {
                    "id": "a1",
                    "type": "worker",
                    "start": "g00",
                    "tasks": [{"id": "t1", "cost": 1, "p_success": 1.0, "retries": 1}],
                }
            ],
        )
        doc["locations"].append({"id": "island"})
        with pytest.raises(NoPlanExists):
            plan_mission(build_problem_spec(doc))

    @pytest.mark.parametrize("seed", range(8))
    def test_astar_matches_blind_search_on_random_grids(self, seed):
        # optimality oracle: uniform-cost search (blind heuristic) on
        # instances with <= 6 locations
        rng = random.Random(seed)
        rows, cols = 2, 3
        locs = [f"g{r}{c}" for r in range(rows) for c in range(cols)]
        n_tasks = rng.randint(1, 3)
        tasks = [
            {
                "id": "t1",
                "instances": [
                    {"id": f"t1x{i}", "location": rng.choice(locs)} for i in range(n_tasks)
                ],
            }
        ]
        agents = [
            {
                "id": f"a{i}",
                "type": "worker",
                "start": "g00",
                "tasks": [{"id": "t1", "cost": 1, "p_success": 1.0, "retries": 1}],
            }
            for i in range(rng.randint(1, 2))
        ]
        spec = build_problem_spec(grid_doc(rows, cols, tasks, agents))
        optimal = plan_mission(spec, PlannerConfig(strategy="astar", heuristic="blind"))
        fast = plan_mission(spec, PlannerConfig(strategy="astar"))
        assert fast.travel_cost == optimal.travel_cost
        assert validate_plan(spec, fast) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_random_solvable_instances_validate(self, seed):
        # feasibility property: whatever the planner returns must replay
        from hybridplan.bench import random_instance

        spec = random_instance(n_tasks=6, n_agents=2, seed=seed)
        plan = plan_mission(spec, PlannerConfig(strategy="gbfs"))
        assert validate_plan(spec, plan) == []


class TestHeuristic:
    # the heuristic reads compact states; world states go through the encoder
    def test_admissible_at_root(self, vineyard, vineyard_plan):
        problem = _Compact(vineyard)
        h = _Heuristic(problem, "combined")
        assert h(problem.encode(initial_state(vineyard))) <= vineyard_plan.travel_cost

    @pytest.mark.parametrize("kind", ["maxmin", "predecessor", "combined"])
    def test_admissible_along_optimal_path(self, vineyard, vineyard_plan, kind):
        problem = _Compact(vineyard)
        h = _Heuristic(problem, kind)
        state = initial_state(vineyard)
        remaining = vineyard_plan.travel_cost
        for act in vineyard_plan.total_order:
            assert h(problem.encode(state)) <= remaining + 1e-9
            if isinstance(act, Move):
                remaining -= vineyard.distance(act.origin, act.dest)
            state = replay(vineyard, [act], start=state)

    def test_distances(self, vineyard):
        dist = shortest_path_distances(vineyard)
        assert dist["l1"]["l9"] == 4
        assert dist["l1"]["l1"] == 0


class TestViolations:
    def test_non_path_move_flagged(self, vineyard):
        bad = [Move("w2", "l1", "l9")]
        plan = build_plan(vineyard, bad)
        assert any(v.constraint == "C1" for v in validate_plan(vineyard, plan))

    def test_missing_task_flagged(self, vineyard):
        trace = [a for a in REFERENCE_TRACE if not (isinstance(a, Do) and a.task == "t2l5")]
        plan = build_plan(vineyard, trace)
        violations = validate_plan(vineyard, plan)
        assert any(v.constraint == "C5" and "t2l5" in v.message for v in violations)

    def test_occupied_destination_flagged(self, vineyard):
        bad = [Move("w2", "l1", "l4"), Move("w1", "l1", "l4")]
        plan = build_plan(vineyard, bad)
        assert any(v.constraint == "C3" for v in validate_plan(vineyard, plan))

    def test_incompetent_do_flagged(self, vineyard):
        bad = [Move("r1", "l1", "l4"), Do("r1", "t1l4", "l4")]
        plan = build_plan(vineyard, bad)
        assert any(v.constraint == "C4" for v in validate_plan(vineyard, plan))


class TestTimedSchedule:
    def test_lanes_cover_all_actions(self, vineyard, vineyard_plan):
        lanes = vineyard_plan.timed
        placed = [a for lane in lanes.values() for a in lane if not isinstance(a, Wait)]
        assert len(placed) == len(vineyard_plan.total_order)

    def test_one_action_per_agent_per_slot(self, vineyard, vineyard_plan):
        for agent, lane in vineyard_plan.timed.items():
            for act in lane:
                assert act.agent == agent

    def test_reference_trace_parallelizes_without_deadlock(self, vineyard):
        plan = build_plan(vineyard, REFERENCE_TRACE)
        assert plan.makespan() >= max(len(s) for s in plan.per_agent.values() if s)
        assert validate_plan(vineyard, plan) == []

    def test_gbfs_feasible(self, vineyard):
        plan = plan_mission(vineyard, PlannerConfig(strategy="gbfs"))
        assert validate_plan(vineyard, plan) == []
        assert plan.travel_cost >= 8  # astar optimum lower-bounds it


class TestDeterminism:
    def test_same_inputs_same_plan(self, vineyard):
        p1 = plan_mission(vineyard, PlannerConfig())
        p2 = plan_mission(vineyard, PlannerConfig())
        assert p1.to_json() == p2.to_json()

    def test_stats_stay_out_of_plan_json(self, vineyard_plan):
        from hybridplan.planner import Plan

        stats = vineyard_plan.stats
        assert set(stats) == {"expansions", "generated", "reopened", "h0"}
        assert stats["expansions"] > 0 and stats["generated"] > 0
        assert "stats" not in vineyard_plan.to_json()
        assert Plan.from_json(vineyard_plan.to_json()).stats == {}

    def test_plan_json_round_trip(self, vineyard_plan):
        from hybridplan.planner import Plan

        again = Plan.from_json(vineyard_plan.to_json())
        assert again.total_order == vineyard_plan.total_order
        assert again.allocation == vineyard_plan.allocation
        assert again.travel_cost == vineyard_plan.travel_cost
        assert again.timed == vineyard_plan.timed
        assert again.hash_key() == vineyard_plan.hash_key()
