"""Property tests: the compact search agrees with the world semantics.

Missions are small random instances, optionally re-rooted mid-mission with
shared start locations (the depot quirk), a pending subset and C4 overrides.
Optimality is checked against a uniform-cost search over ``world`` that
neither prunes nor reduces by agent symmetry.
"""

import heapq
import itertools
import random

import pytest

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hybridplan.bench import GRID, random_instance
from hybridplan.planner import HEURISTICS, PlannerConfig, _Compact, _Heuristic, plan_mission, validate_plan
from hybridplan.spec import build_problem_spec
from hybridplan.world import Do, Move, apply_action, enabled_actions, initial_state, is_enabled, is_goal

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
    key, state, g = problem.start, initial_state(spec), 0.0
    for _ in range(25):
        assert problem.encode(state) == key
        succ = problem.successors(key, True)
        assert [problem.action(key, code) for code, _, _ in succ] == world_successors(spec, state)
        every = problem.successors(key, False)
        assert [problem.action(key, code) for code, _, _ in every] == enabled_actions(spec, state)
        for code, child, step in every:
            next_state = apply_action(spec, state, problem.action(key, code))
            assert problem.encode(next_state) == child
            assert next_state.travel_cost == g + step
        assert [s for s in every if s in succ] == succ   # the pruned list, children included
        if not succ:
            break
        code, child, step = rng.choice(succ)
        state = apply_action(spec, state, problem.action(key, code))
        key, g = child, g + step


@PROPERTY
@given(missions(), st.data(), st.integers(0, 2**32 - 1))
def test_is_enabled_agrees_with_enabled_actions(spec, data, walk_seed):
    # overrides at exactly the allocation threshold (0.5 in random_instance)
    # put some agent-task pairs on the boundary of C4
    agents = [a.id for a in spec.agents]
    tasks = [t.id for t in spec.tasks]
    spec = spec.with_runtime_state(p_overrides=data.draw(st.dictionaries(
        st.tuples(st.sampled_from(agents), st.sampled_from(tasks)), st.sampled_from([0.2, 0.5, 0.9]), max_size=4,
    )))
    rng = random.Random(walk_seed)
    state = initial_state(spec)
    for _ in range(25):
        enabled = set(enabled_actions(spec, state))
        candidates = [Do(a, t.id, t.location) for a in agents for t in spec.tasks] + [
            Move(a, state.location_of(a), dest) for a in agents
            for dest in sorted(spec.location_ids() - {state.location_of(a)})
        ]
        for act in candidates:
            assert is_enabled(spec, state, act) == (act in enabled), act
        if not enabled:
            break
        state = apply_action(spec, state, rng.choice(sorted(enabled, key=str)))




@st.composite
def capability_missions(draw):
    """Small random missions whose capable sets split and nest: re-rooted
    with C4 overrides on either side of the allocation threshold, and
    sometimes a raised gamma that drops robots from t3 or whole groups."""
    spec = random_instance(draw(st.integers(1, 5)), draw(st.integers(2, 4)), draw(st.integers(0, 10_000)))
    agents = [a.id for a in spec.agents]
    tasks = [t.id for t in spec.tasks]
    spec = spec.with_runtime_state(
        initial_locations={a: draw(st.sampled_from(GRID[:5])) for a in agents},
        pending=draw(st.lists(st.sampled_from(tasks), min_size=1, unique=True)),
        p_overrides=draw(st.dictionaries(
            st.tuples(st.sampled_from(agents), st.sampled_from(tasks)), st.sampled_from([0.2, 0.6, 0.96, 0.999]),
            max_size=4,
        )),
        gamma=draw(st.sampled_from([0.5, 0.98, 0.995])),
    )
    assume(all(spec.capable_agents(t) for t in spec.pending))
    return spec


@PROPERTY
@given(st.one_of(missions(), capability_missions()))
def test_plans_valid_and_optimal(spec):
    # A* ranks by (g + H, H) with H = max(h, forest); the blind search is
    # the reference
    plan = plan_mission(spec, PlannerConfig(heuristic="combined"))
    assert validate_plan(spec, plan) == []
    blind = plan_mission(spec, PlannerConfig(heuristic="blind"))
    assert plan.travel_cost == blind.travel_cost
    assert plan.stats["h0"] <= plan.travel_cost
    problem = _Compact(spec)
    h = _Heuristic(problem, "combined")
    assert all(set(a).isdisjoint(b) for a, b in itertools.combinations(h.classes, 2))
    assert max(h(problem.start)) <= plan.travel_cost


def uniform_cost(spec):
    """Minimum travel to the goal by Dijkstra over world states, expanding
    every enabled action: no forced-task pruning, no agent symmetry.  States
    are told apart without their accumulated cost."""

    def key(state):
        return (state.agent_locs, state.empty, state.done)

    start = initial_state(spec)
    best = {key(start): 0.0}
    heap = [(0.0, 0, start)]
    tie = itertools.count(1)
    while heap:
        g, _, state = heapq.heappop(heap)
        if g > best[key(state)]:
            continue
        if is_goal(spec, state):
            return g
        for act in enabled_actions(spec, state):
            child = apply_action(spec, state, act)
            if child.travel_cost < best.get(key(child), float("inf")):
                best[key(child)] = child.travel_cost
                heapq.heappush(heap, (child.travel_cost, next(tie), child))
    return None


def rerooted_apart(n_tasks, n_agents, seed):
    """Every agent on its own start location, so class members start apart."""
    spec = random_instance(n_tasks, n_agents, seed)
    return spec.with_runtime_state(
        initial_locations={a.id: GRID[i] for i, a in enumerate(spec.agents)},
        pending=[t.id for t in spec.tasks],
    )


@PROPERTY
@given(missions())
@example(random_instance(4, 3, 7))
@example(rerooted_apart(4, 3, 7))
@example(rerooted_apart(3, 4, 21))
def test_travel_cost_matches_unreduced_search(spec):
    assert plan_mission(spec).travel_cost == uniform_cost(spec)


def permuted(problem, key, rng):
    """``key`` with the positions of each class of interchangeable agents
    shuffled among its members."""
    positions, empty, done = problem.decode(key)
    out = list(positions)
    for members in problem.classes:
        locs = [positions[a] for a in members]
        rng.shuffle(locs)
        for a, loc in zip(members, locs):
            out[a] = loc
    return problem.pack(tuple(out), empty, done)


@PROPERTY
@given(missions(), st.integers(0, 2**32 - 1))
def test_permuting_a_class_keeps_canonical_key_and_heuristic(spec, walk_seed):
    problem = _Compact(spec)
    heuristics = [_Heuristic(problem, kind) for kind in HEURISTICS]
    rng = random.Random(walk_seed)
    key = problem.start
    for _ in range(25):
        other = permuted(problem, key, rng)
        assert problem.canonical(other) == problem.canonical(key)
        assert [h(other) for h in heuristics] == [h(key) for h in heuristics]
        succ = problem.successors(key, False)
        if not succ:
            break
        _, key, _ = rng.choice(succ)


@st.composite
def class_splits(draw):
    """``(spec, members, agent, split)``: a 4- or 6-agent random mission, one
    of its classes, one member, and the mission with a C4 override that makes
    that member's row differ from the rest of its class."""
    spec = random_instance(draw(st.integers(1, 6)), draw(st.sampled_from([4, 6])), draw(st.integers(0, 10_000)))
    members = draw(st.sampled_from(_Compact(spec).classes))
    agent = draw(st.sampled_from(members))
    task = draw(st.sampled_from([t.id for t in spec.tasks]))
    aid = spec.agents[agent].id
    value = 0.2 if spec.p_success(aid, task) != 0.2 else 0.9
    split = spec.with_runtime_state(spec.initial_locations, spec.pending, p_overrides={(aid, task): value})
    return spec, members, agent, split


@PROPERTY
@given(st.one_of(missions(), class_splits().map(lambda drawn: drawn[3])), st.integers(0, 2**32 - 1))
def test_child_canonical_matches_canonical(spec, walk_seed):
    # split missions give agents outside every class and, when a middle
    # member leaves a class of three, a class that is not contiguous
    problem = _Compact(spec)
    rng = random.Random(walk_seed)
    key = problem.start
    for _ in range(25):
        canon = problem.canonical(key)
        every = problem.successors(key, False)
        for code, child, _ in problem.successors(key, True) + every:
            assert problem.child_canonical(canon, key, code, child) == problem.canonical(child)
        if not every:
            break
        _, key, _ = rng.choice(every)


@PROPERTY
@given(class_splits())
def test_c4_override_splits_agent_from_its_class(drawn):
    spec, members, agent, split = drawn
    before = _Compact(spec).classes
    after = _Compact(split).classes
    assert not any(agent in m for m in after)
    rest = tuple(a for a in members if a != agent)
    assert (rest in after) == (len(rest) > 1)
    assert [m for m in after if m != rest] == [m for m in before if m != members]


def reference_triple(problem, state):
    """The world state as ``(positions, empty, done)``: the agents' location
    indices, the empty-location mask and the done-task mask."""
    return (
        tuple(problem.loc_index[state.location_of(a)] for a in problem.agent_ids),
        sum(1 << problem.loc_index[lid] for lid in state.empty),
        sum(1 << i for i, tid in enumerate(problem.task_ids) if tid in state.done),
    )


def reference_canonical(problem, triple):
    """``triple`` with the positions sorted within each class."""
    positions, empty, done = triple
    out = list(positions)
    for members in problem.classes:
        for a, loc in zip(members, sorted(positions[a] for a in members)):
            out[a] = loc
    return tuple(out), empty, done


def walk_packed_states(spec, walk_seed, steps=25):
    """Walk random enabled actions; at every state the packed key decodes to
    the world state's triple, packs back, and its canonical key decodes to
    the tuple reference."""
    problem = _Compact(spec)
    rng = random.Random(walk_seed)
    key, state = problem.start, initial_state(spec)
    for _ in range(steps):
        triple = reference_triple(problem, state)
        assert problem.encode(state) == key
        assert problem.decode(key) == triple
        assert problem.pack(*triple) == key
        assert problem.decode(problem.canonical(key)) == reference_canonical(problem, triple)
        every = problem.successors(key, False)
        if not every:
            break
        code, child, _ = rng.choice(every)
        state = apply_action(spec, state, problem.action(key, code))
        key = child
    return problem


@PROPERTY
@given(st.one_of(missions(), class_splits().map(lambda drawn: drawn[3])), st.integers(0, 2**32 - 1))
def test_packed_states_round_trip_and_canonicalise(spec, walk_seed):
    walk_packed_states(spec, walk_seed)


def line_mission(n_locs, n_workers, task_locs):
    """Workers from ``n000`` on a line of ``n_locs`` unit-spaced locations,
    one task at each of ``task_locs``."""
    ids = [f"n{i:03d}" for i in range(n_locs)]
    return build_problem_spec({
        "locations": [{"id": lid} for lid in ids],
        "paths": [{"start": a, "end": b, "distance": 1} for a, b in zip(ids, ids[1:])],
        "tasks": [{"id": "t", "instances": [{"id": f"t{k}", "location": ids[loc]} for k, loc in enumerate(task_locs)]}],
        "agents": [
            {"id": f"w{i}", "type": "worker", "start": ids[0],
             "tasks": [{"id": "t", "cost": 1, "p_success": 0.9, "retries": 3}]}
            for i in range(n_workers)
        ],
        "constraints": {"mission_probability_of_success": 0.5, "min_assignment_probability": 0.5},
    })


@pytest.mark.parametrize("spec, bits, travel", [
    (line_mission(1, 3, [0, 0]), 0, 0.0),        # zero-bit location fields
    (line_mission(130, 3, [2, 3, 5]), 8, 5.0),   # a key past 64 bits
], ids=["one-location", "wide-field"])
def test_field_width_extremes(spec, bits, travel):
    problem = walk_packed_states(spec, 7, steps=40)
    assert (problem.bits, problem.classes) == (bits, [(0, 1, 2)])
    plan = plan_mission(spec)
    assert validate_plan(spec, plan) == []
    assert plan.travel_cost == uniform_cost(spec) == travel
