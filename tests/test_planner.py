import random

import pytest

from hybridplan.errors import ExpansionLimit, NoPlanExists, PlanTimeout
from hybridplan.planner import (
    PlannerConfig,
    _Compact,
    _Heuristic,
    build_plan,
    plan_metrics,
    plan_mission,
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


def travel_by_id(spec):
    """spec.travel keyed by location id: {from: {to: distance}}."""
    ids = [l.id for l in spec.locations]
    return {a: dict(zip(ids, row)) for a, row in zip(ids, spec.travel)}


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
        # the cap is deterministic and has its own error, still a PlanTimeout
        with pytest.raises(ExpansionLimit):
            plan_mission(vineyard, PlannerConfig(max_expansions=2))
        assert issubclass(ExpansionLimit, PlanTimeout)

    def test_wall_clock_timeout(self, vineyard):
        # the blind search needs over 13,000 expansions here; the clock is
        # read every 1,024, so the first read already finds it past due
        with pytest.raises(PlanTimeout) as err:
            plan_mission(vineyard, PlannerConfig(heuristic="blind", timeout=1e-9))
        assert not isinstance(err.value, ExpansionLimit)
        assert "after 1024 expansions" in str(err.value)

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

    def test_open_list_runs_dry(self):
        # corridor g00-g01-g02: the idle robot at g01 blocks the worker's way
        # to its task at g00 and can never clear it, so the start's
        # heuristic is finite but no state reaches the goal
        doc = grid_doc(
            1,
            3,
            [{"id": "t1", "instances": [{"id": "t1a", "location": "g00"}]}],
            [
                {"id": "r1", "type": "robot", "start": "g01", "tasks": []},
                {
                    "id": "w1",
                    "type": "worker",
                    "start": "g02",
                    "tasks": [{"id": "t1", "cost": 1, "p_success": 1.0, "retries": 1}],
                },
            ],
        )
        with pytest.raises(NoPlanExists, match="goal unreachable from the initial configuration"):
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
        optimal = plan_mission(spec, PlannerConfig(heuristic="blind"))
        fast = plan_mission(spec, PlannerConfig())
        assert fast.travel_cost == optimal.travel_cost
        assert validate_plan(spec, fast) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_random_solvable_instances_validate(self, seed):
        # feasibility property: whatever the planner returns must replay
        from hybridplan.bench import random_instance

        spec = random_instance(n_tasks=6, n_agents=2, seed=seed)
        plan = plan_mission(spec, PlannerConfig())
        assert validate_plan(spec, plan) == []


class TestHeuristic:
    @pytest.mark.parametrize("kind", ["maxmin", "predecessor"])
    def test_only_blind_and_combined(self, kind):
        # combined is the max of the farthest-task and predecessor bounds
        with pytest.raises(ValueError, match="unknown heuristic"):
            PlannerConfig(heuristic=kind)

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf"), float("-inf"), "5", True])
    def test_timeout_is_a_positive_number(self, timeout):
        # NaN > 0 is false: a NaN timeout would never fire, nor would inf
        with pytest.raises(ValueError, match="timeout must be a finite number > 0"):
            PlannerConfig(timeout=timeout)

    @pytest.mark.parametrize("cap", [0, -1, 2.5, "5", True, None])
    def test_expansion_cap_is_a_positive_integer(self, cap):
        # -1 used to raise ExpansionLimit before the first expansion
        with pytest.raises(ValueError, match="max_expansions must be an integer >= 1"):
            PlannerConfig(max_expansions=cap)

    # the heuristic reads compact states; world states go through the encoder
    def test_admissible_at_root(self, vineyard, vineyard_plan):
        problem = _Compact(vineyard)
        h = _Heuristic(problem, "combined")
        assert h(problem.encode(initial_state(vineyard)))[0] <= vineyard_plan.travel_cost

    def test_admissible_along_optimal_path(self, vineyard, vineyard_plan):
        problem = _Compact(vineyard)
        h = _Heuristic(problem, "combined")
        state = initial_state(vineyard)
        remaining = vineyard_plan.travel_cost
        for act in vineyard_plan.total_order:
            assert h(problem.encode(state))[0] <= remaining + 1e-9
            if isinstance(act, Move):
                remaining -= vineyard.distance(act.origin, act.dest)
            state = replay(vineyard, [act], start=state)

    def test_distances(self, vineyard):
        dist = travel_by_id(vineyard)
        assert dist["l1"]["l9"] == 4
        assert dist["l1"]["l1"] == 0

    def test_distances_prefer_a_shorter_detour(self):
        # from a, the direct edge to b is queued first and popped stale
        # after the two-edge detour through c has settled b
        doc = grid_doc(1, 1, [], [])
        doc["locations"] = [{"id": "a"}, {"id": "b"}, {"id": "c"}]
        doc["paths"] = [
            {"start": "a", "end": "b", "distance": 5},
            {"start": "a", "end": "c", "distance": 1},
            {"start": "c", "end": "b", "distance": 1},
        ]
        dist = travel_by_id(build_problem_spec(doc))
        assert dist["a"] == {"a": 0.0, "b": 2.0, "c": 1.0}
        assert dist["b"]["a"] == 2.0


class TestForest:
    """The capability-partitioned spanning-forest bound that A* ranks by."""

    def test_classes_on_vineyard(self, vineyard):
        # workers alone do t1 and robots alone do t2; t3's capable set meets both
        problem = _Compact(vineyard)
        h = _Heuristic(problem, "combined")
        assert [[problem.agent_ids[a] for a in c] for c in h.classes] == [["r1", "r2"], ["w1", "w2"]]

    def test_admissible_along_optimal_path(self, vineyard, vineyard_plan):
        problem = _Compact(vineyard)
        h = _Heuristic(problem, "combined")
        state = initial_state(vineyard)
        remaining = vineyard_plan.travel_cost
        assert h(problem.start) == (vineyard_plan.stats["h0"], 7.0) == (6.0, 7.0)
        for act in vineyard_plan.total_order:
            assert h(problem.encode(state))[1] <= remaining + 1e-9
            if isinstance(act, Move):
                remaining -= vineyard.distance(act.origin, act.dest)
            state = replay(vineyard, [act], start=state)

    def test_zero_when_no_class_owns_an_undone_task(self, vineyard):
        # every t1 and t2 task done: only the t3 tasks, owned by no class, remain
        problem = _Compact(vineyard)
        h = _Heuristic(problem, "combined")
        positions, empty, _ = problem.decode(problem.start)
        done = sum(1 << t for t, tid in enumerate(problem.task_ids) if not tid.startswith("t3"))
        key = problem.pack(positions, empty, done)
        bound, forest = h(key)
        assert forest == 0.0 < bound

    def test_blind_is_zero(self, vineyard):
        problem = _Compact(vineyard)
        assert _Heuristic(problem, "blind")(problem.start) == (0.0, 0.0)

    def test_prim_on_a_hand_built_map(self):
        # non-unit distances, a shorter detour than the direct a-c path, and
        # a location no path reaches
        doc = grid_doc(1, 1, [], [])
        doc["locations"] = [{"id": l} for l in "abcde"]
        doc["paths"] = [
            {"start": "a", "end": "b", "distance": 2.5},
            {"start": "b", "end": "c", "distance": 1.5},
            {"start": "a", "end": "c", "distance": 5},
            {"start": "c", "end": "d", "distance": 0.5},
        ]
        problem = _Compact(build_problem_spec(doc))
        h = _Heuristic(problem, "combined")

        def mask(locs):
            return sum(1 << problem.loc_index[l] for l in locs)

        assert h._prim(mask("a"), mask("bcd")) == 2.5 + 1.5 + 0.5
        # two roots: c hangs off d at 0.5, then b off c at 1.5, not off a at 2.5
        assert h._prim(mask("ad"), mask("bc")) == 0.5 + 1.5
        assert h._prim(mask("a"), mask("a")) == 0.0
        assert h._prim(mask("a"), mask("be")) == float("inf")


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

    @pytest.mark.parametrize(
        ("trace", "expected"),
        [
            ([Move("w2", "l1", "l9")], ("C1", 0, "no path l1->l9")),
            ([Move("w2", "l4", "l5")], ("C2", 0, "w2 is not at l4")),
            ([Move("w2", "l1", "l4"), Move("w1", "l1", "l4")], ("C3", 1, "l4 is occupied")),
            ([Do("w2", "t1l4", "l4")], ("C2", 0, "w2 cannot do t1l4 at l4")),
            ([Move("w2", "l1", "l4"), Do("w2", "t1l4", "l1")], ("C2", 1, "w2 cannot do t1l4 at l1")),
            ([Move("r1", "l1", "l4"), Do("r1", "t1l4", "l4")], ("C4", 1, "r1 below allocation threshold for t1l4")),
            (
                [Move("w2", "l1", "l4"), Do("w2", "t1l4", "l4"), Do("w2", "t1l4", "l4")],
                ("C5", 2, "t1l4 done twice"),
            ),
        ],
    )
    def test_first_violation_names_constraint_and_cause(self, vineyard, trace, expected):
        first = validate_plan(vineyard, build_plan(vineyard, trace))[0]
        assert (first.constraint, first.index, first.message) == expected

    def test_co_location_exempt_only_at_shared_start(self, vineyard):
        # r1 and r2 share l1 (the depot quirk); w1 and w2 each start alone
        spec = vineyard.with_runtime_state(initial_locations={"r1": "l1", "r2": "l1", "w1": "l2", "w2": "l3"},
                                           pending=[])
        plan = build_plan(spec, [])
        plan.timed = {"w1": [Move("w1", "l2", "l1")]}
        assert validate_plan(spec, plan) == []
        plan.timed = {"w2": [Move("w2", "l3", "l2")]}
        found = [(v.constraint, v.index, v.message) for v in validate_plan(spec, plan)]
        assert found == [("timed", 0, "w2 and w1 co-located at l2")]


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

    def test_one_search(self):
        # A* is the only search: the config takes no strategy
        with pytest.raises(TypeError, match="strategy"):
            PlannerConfig(strategy="gbfs")


class TestDeterminism:
    def test_same_inputs_same_plan(self, vineyard):
        p1 = plan_mission(vineyard, PlannerConfig())
        p2 = plan_mission(vineyard, PlannerConfig())
        assert p1.to_json() == p2.to_json()

    def test_stats_stay_out_of_plan_json(self, vineyard_plan):
        stats = vineyard_plan.stats
        assert set(stats) == {"expansions", "generated", "reopened", "h0"}
        assert stats["expansions"] > 0 and stats["generated"] > 0
        assert "stats" not in vineyard_plan.to_json()
