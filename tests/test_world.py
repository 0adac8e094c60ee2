import random
from dataclasses import replace

import pytest

from hybridplan.planner import PlanViolation
from hybridplan.spec import build_problem_spec
from hybridplan.world import (
    Do,
    Move,
    Wait,
    action_from_json,
    action_to_json,
    apply_action,
    enabled_actions,
    initial_state,
    is_goal,
    replay,
)


class TestEnabled:
    def test_initial_moves_only(self, vineyard):
        state = initial_state(vineyard)
        acts = enabled_actions(vineyard, state)
        assert Move("w2", "l1", "l4") in acts
        assert not any(isinstance(a, Do) for a in acts)

    def test_do_enabled_at_task_location(self, vineyard):
        state = initial_state(vineyard)
        state = apply_action(vineyard, state, Move("w2", "l1", "l4"))
        acts = enabled_actions(vineyard, state)
        assert Do("w2", "t1l4", "l4") in acts

    def test_do_gated_by_competency(self, vineyard):
        state = initial_state(vineyard)
        state = apply_action(vineyard, state, Move("r1", "l1", "l4"))
        acts = enabled_actions(vineyard, state)
        # robots cannot harvest: zero competency is below the threshold
        assert Do("r1", "t1l4", "l4") not in acts
        assert Do("r1", "t3l4", "l4") in acts

    def test_occupied_destination_blocked(self, vineyard):
        state = initial_state(vineyard)
        state = apply_action(vineyard, state, Move("w2", "l1", "l4"))
        acts = enabled_actions(vineyard, state)
        assert Move("w1", "l1", "l4") not in acts


class TestActionJson:
    @pytest.mark.parametrize("action", [Move("w1", "l1", "l4"), Do("w1", "t1l4", "l4")])
    def test_round_trip(self, action):
        assert action_from_json(action_to_json(action)) == action

    @pytest.mark.parametrize(
        ("raw", "message"),
        [
            ({"type": "fly", "agent": "w1"}, "unknown action"),
            ({"type": "wait", "agent": "w1"}, "unknown action"),
            ({"type": ["move"], "agent": "w1", "from": "l1", "to": "l4"}, "unknown action"),
            (["move", "w1", "l1", "l4"], "unknown action"),
            ({"type": "move", "agent": "w1", "from": "l1"}, "malformed move action"),
            ({"type": "do", "agent": "w1", "task": 3, "location": "l4"}, "malformed do action"),
        ],
    )
    def test_anything_else_is_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            action_from_json(raw)


class TestApply:
    def test_move_effects(self, vineyard):
        state = initial_state(vineyard)
        nxt = apply_action(vineyard, state, Move("w2", "l1", "l4"))
        assert nxt.location_of("w2") == "l4"
        assert "l4" not in nxt.empty
        assert "l1" in nxt.empty  # departing marks the shared start empty
        assert nxt.travel_cost == 1

    def test_move_frame_property(self, vineyard):
        state = initial_state(vineyard)
        nxt = apply_action(vineyard, state, Move("w2", "l1", "l4"))
        changed = set(state.empty) ^ set(nxt.empty)
        assert changed == {"l1", "l4"}
        moved = [a for a, l in nxt.agent_locs if dict(state.agent_locs)[a] != l]
        assert moved == ["w2"]
        assert nxt.done == state.done

    def test_do_frame_property(self, vineyard):
        state = initial_state(vineyard)
        state = apply_action(vineyard, state, Move("w2", "l1", "l4"))
        nxt = apply_action(vineyard, state, Do("w2", "t1l4", "l4"))
        assert nxt.done == {"t1l4"}
        assert nxt.empty == state.empty
        assert nxt.agent_locs == state.agent_locs
        assert nxt.travel_cost == state.travel_cost

    def test_non_enabled_raises(self, vineyard):
        state = initial_state(vineyard)
        with pytest.raises(ValueError):
            apply_action(vineyard, state, Do("w2", "t1l4", "l4"))

    def test_move_to_occupied_raises(self, vineyard):
        state = initial_state(vineyard)
        state = apply_action(vineyard, state, Move("w2", "l1", "l4"))
        with pytest.raises(ValueError):
            apply_action(vineyard, state, Move("w1", "l1", "l4"))

    def test_wait_keeps_the_state(self, vineyard):
        state = initial_state(vineyard)
        assert apply_action(vineyard, state, Wait("w2")) is state

    def test_unknown_agent_has_no_location(self, vineyard):
        with pytest.raises(KeyError, match="zz"):
            initial_state(vineyard).location_of("zz")


@pytest.mark.parametrize(
    "record, text",
    [
        (Wait("w2"), "Wait(w2)"),
        (PlanViolation("C3", 4, "l4 is occupied"), "[C3] @4: l4 is occupied"),
    ],
)
def test_str(record, text):
    assert str(record) == text


class TestGoal:
    def test_all_done(self, vineyard):
        state = initial_state(vineyard)
        done = frozenset(t.id for t in vineyard.tasks)
        assert is_goal(vineyard, replace(state, done=done))

    def test_nine_of_ten(self, vineyard):
        state = initial_state(vineyard)
        done = frozenset(list(t.id for t in vineyard.tasks)[:9])
        assert not is_goal(vineyard, replace(state, done=done))

    def test_zero_task_mission(self):
        doc = {
            "locations": [{"id": "l1"}],
            "paths": [],
            "tasks": [],
            "agents": [{"id": "a1", "type": "robot", "start": "l1", "tasks": []}],
            "constraints": {
                "mission_probability_of_success": 0.9,
                "min_assignment_probability": 0.5,
            },
        }
        spec = build_problem_spec(doc)
        assert is_goal(spec, initial_state(spec))


class TestInvariants:
    def test_travel_cost_equals_move_distances(self, vineyard):
        state = initial_state(vineyard)
        actions = [Move("w2", "l1", "l4"), Do("w2", "t1l4", "l4"), Move("w2", "l4", "l5")]
        end = replay(vineyard, actions)
        assert end.travel_cost == sum(
            vineyard.distance(a.origin, a.dest) for a in actions if isinstance(a, Move)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_walk_single_occupancy_off_depot(self, vineyard, seed):
        # C3 restated at the state level: absent the shared start, at most one
        # agent per location along any enabled-action walk
        rng = random.Random(seed)
        state = initial_state(vineyard)
        for _ in range(60):
            acts = enabled_actions(vineyard, state)
            if not acts:
                break
            state = apply_action(vineyard, state, rng.choice(acts))
            positions = [loc for _, loc in state.agent_locs if loc != "l1"]
            assert len(positions) == len(set(positions))
