"""Property tests: the compact search agrees with the world semantics.

Missions are small random instances, optionally re-rooted mid-mission with
shared start locations (the depot quirk), a pending subset and C4 overrides.
"""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hybridplan.bench import GRID, random_instance
from hybridplan.planner import PlannerConfig, _Compact, plan_mission, validate_plan
from hybridplan.world import Do, apply_action, enabled_actions, initial_state

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def missions(draw):
    spec = random_instance(draw(st.integers(1, 4)), draw(st.integers(2, 3)), draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        agents = [a.id for a in spec.agents]
        tasks = [t.id for t in spec.tasks]
        spec = spec.with_runtime_state(
            initial_locations={a: draw(st.sampled_from(GRID[:4])) for a in agents},
            pending=draw(st.lists(st.sampled_from(tasks), min_size=1, unique=True)),
            p_overrides=draw(st.dictionaries(
                st.tuples(st.sampled_from(agents), st.sampled_from(tasks)), st.sampled_from([0.2, 0.9]), max_size=3,
            )),
        )
    assume(all(spec.capable_agents(t) for t in spec.pending))
    return spec


def world_successors(spec, state):
    """Forced first Do, otherwise every move, from the world's action list."""
    acts = enabled_actions(spec, state)
    dos = [a for a in acts if isinstance(a, Do)]
    return dos[:1] if dos else acts


@PROPERTY
@given(missions(), st.integers(0, 2**32 - 1))
def test_compact_successors_match_world(spec, walk_seed):
    problem = _Compact(spec)
    rng = random.Random(walk_seed)
    key, g = problem.start, 0.0
    assert problem.decode(key) == initial_state(spec)
    for _ in range(25):
        state = problem.decode(key, g)
        assert problem.encode(state) == key
        succ = problem.successors(key, True)
        assert [problem.action(key, code) for code, _, _ in succ] == world_successors(spec, state)
        every = problem.successors(key, False)
        assert [problem.action(key, code) for code, _, _ in every] == enabled_actions(spec, state)
        for code, child, step in every:
            assert problem.decode(child, g + step) == apply_action(spec, state, problem.action(key, code))
        assert [s for s in every if s in succ] == succ   # the pruned list, children included
        if not succ:
            break
        _, key, step = rng.choice(succ)
        g += step


@PROPERTY
@given(missions(), st.sampled_from(["maxmin", "predecessor", "combined"]))
def test_plans_valid_and_optimal(spec, heuristic):
    plan = plan_mission(spec, PlannerConfig(heuristic=heuristic))
    assert validate_plan(spec, plan) == []
    blind = plan_mission(spec, PlannerConfig(heuristic="blind"))
    assert plan.travel_cost == blind.travel_cost
    assert plan.stats["h0"] <= plan.travel_cost
