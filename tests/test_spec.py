import heapq
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridplan.bench import GRID, random_instance
from hybridplan.errors import SpecError
from hybridplan.fixtures import fixture_text, load_fixture
from hybridplan.spec import (
    Agent,
    Location,
    MissionConstraints,
    Path,
    ProblemSpec,
    TaskGroup,
    TaskInstance,
    build_problem_spec,
    parse_problem_spec,
    serialize,
    validate,
)


def minimal_doc(**overrides):
    doc = {
        "locations": [{"id": "l1"}, {"id": "l2"}],
        "paths": [{"start": "l1", "end": "l2", "distance": 1}],
        "tasks": [{"id": "t1", "instances": [{"id": "t1l2", "location": "l2"}]}],
        "agents": [
            {
                "id": "a1",
                "type": "worker",
                "start": "l1",
                "tasks": [{"id": "t1", "cost": 1, "p_success": 0.9, "retries": 2}],
            }
        ],
        "constraints": {
            "mission_probability_of_success": 0.8,
            "min_assignment_probability": 0.5,
        },
    }
    doc.update(overrides)
    return doc


class TestParse:
    def test_vineyard_counts(self, vineyard):
        assert len(vineyard.locations) == 9
        assert len(vineyard.agents) == 4
        assert len(vineyard.tasks) == 10
        assert vineyard.constraints.p_succ == 0.95
        assert vineyard.constraints.gamma == 0.5

    def test_vineyard_is_clean(self, vineyard):
        assert validate(vineyard) == []

    def test_out_of_range_probability_names_field(self):
        doc = minimal_doc()
        doc["agents"][0]["tasks"][0]["p_success"] = 1.2
        with pytest.raises(SpecError) as err:
            build_problem_spec(doc)
        assert any("p_success" in v.path for v in err.value.violations)

    def test_vacuous_mission(self):
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
        assert spec.pending == frozenset()

    def test_malformed_json(self):
        with pytest.raises(SpecError, match="malformed"):
            parse_problem_spec("{nope")

    def test_top_level_must_be_an_object(self):
        with pytest.raises(SpecError, match="top level must be a JSON object"):
            parse_problem_spec("[]")

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_json_numbers_rejected(self, literal):
        # json.loads reads these literals; a mission file must not carry them
        text = json.dumps(minimal_doc()).replace('"cost": 1', f'"cost": {literal}')
        with pytest.raises(SpecError) as err:
            parse_problem_spec(text)
        assert [v.path for v in err.value.violations] == ["agents[0].tasks[0].cost"]

    def test_unknown_location_reference(self):
        doc = minimal_doc(paths=[{"start": "l1", "end": "l99", "distance": 1}])
        with pytest.raises(SpecError) as err:
            build_problem_spec(doc)
        assert any("l99" in v.message for v in err.value.violations)

    def test_duplicate_id(self):
        doc = minimal_doc()
        doc["locations"].append({"id": "l1"})
        with pytest.raises(SpecError) as err:
            build_problem_spec(doc)
        assert any("duplicate" in v.message for v in err.value.violations)

    def test_unknown_keys_rejected(self):
        doc = minimal_doc()
        doc["locations"][0]["colour"] = "green"
        with pytest.raises(SpecError) as err:
            build_problem_spec(doc)
        assert any("unknown key" in v.message for v in err.value.violations)

    def test_negative_distance_rejected(self):
        doc = minimal_doc(paths=[{"start": "l1", "end": "l2", "distance": -2}])
        with pytest.raises(SpecError):
            build_problem_spec(doc)

    @pytest.mark.parametrize(
        ("edit", "path", "message"),
        [
            (lambda d: d.update(initial={"locations": {"w1": "l1"}}), "initial.locations.r1",
             "no location for agent 'r1'"),
            (lambda d: d.update(initial={"locations": ["w1", "l1"]}), "initial.locations", "must be a JSON object"),
            (lambda d: d.update(overrides=[{"agent": "r1", "task": "t3l2", "p_success": "0.5"}]),
             "overrides[0].p_success", "got '0.5'"),
            # r1 declares no capability for group t1: an override would make it
            # eligible at cost 0 with retry cap 0
            (lambda d: d.update(overrides=[{"agent": "r1", "task": "t1l2a", "p_success": 0.5}]),
             "overrides[0]", "agent 'r1' has no capability for task 't1l2a' (group 't1')"),
            (lambda d: d.update(paths={"start": "l1", "end": "l2", "distance": 1}), "paths", "must be a JSON array"),
            (lambda d: d["locations"].append("l3"), "locations[2]", "must be a JSON object"),
            (lambda d: d["agents"][0]["tasks"][0].update(retries=True), "agents[0].tasks[0].retries",
             "must be an integer"),
            (lambda d: d["paths"][0].update(distance=True), "paths[0].distance", "must be > 0"),
            (lambda d: d["constraints"].update(min_assignment_probability=True),
             "constraints.min_assignment_probability", "got True"),
            (lambda d: d["locations"][1].update(id=["l2"]), "locations[1].id", "must be a JSON string"),
            (lambda d: d["agents"][1].update(id=7), "agents[1].id", "must be a JSON string"),
            (lambda d: d.update(initial={"locations": {"w1": ["l1"], "r1": "l1"}}), "initial.locations.w1",
             "unknown location ['l1']"),
            (lambda d: d.update(initial={"pending": [["t3l2"]]}), "initial.pending", "unknown task ['t3l2']"),
            (lambda d: d["agents"][0]["tasks"][0].update(cost=math.inf), "agents[0].tasks[0].cost", "must be >= 0"),
            (lambda d: d["agents"][0]["tasks"][0].update(cost=10**400), "agents[0].tasks[0].cost", "must be >= 0"),
            (lambda d: d["paths"][0].update(distance=math.inf), "paths[0].distance", "must be > 0"),
            (lambda d: d.pop("agents"), "$", "missing key 'agents'"),
            (lambda d: d["constraints"].pop("min_assignment_probability"), "constraints",
             "missing key 'min_assignment_probability'"),
            (lambda d: d.update(constraints=[0.9]), "constraints", "must be a JSON object"),
            (lambda d: d.update(initial="l1"), "initial", "must be a JSON object"),
            (lambda d: d.update(initial={"pending": "t3l2"}), "initial.pending", "must be a JSON array"),
            # an entry without its id or endpoints is reported and left out
            (lambda d: d["locations"][1].pop("id"), "locations[1]", "missing key 'id'"),
            (lambda d: d["paths"][0].pop("start"), "paths[0]", "missing key 'start'"),
            (lambda d: d["paths"][0].pop("end"), "paths[0]", "missing key 'end'"),
            (lambda d: d["tasks"][1].pop("id"), "tasks[1]", "missing key 'id'"),
            (lambda d: d["tasks"][0]["instances"][0].pop("id"), "tasks[0].instances[0]", "missing key 'id'"),
            (lambda d: d["agents"][1].pop("id"), "agents[1]", "missing key 'id'"),
        ],
    )
    def test_malformed_fields_are_spec_errors(self, edit, path, message):
        # every case once crashed with a traceback, was accepted, or had no test
        doc = json.loads(fixture_text("m1_mini"))
        edit(doc)
        with pytest.raises(SpecError) as err:
            build_problem_spec(doc)
        assert any(v.path == path and message in v.message for v in err.value.violations)


class TestAccessors:
    def test_path_symmetry(self, vineyard):
        assert vineyard.has_path("l1", "l4") and vineyard.has_path("l4", "l1")
        assert vineyard.distance("l1", "l4") == vineyard.distance("l4", "l1") == 1

    def test_capability_inheritance(self, vineyard):
        # group-level declaration applies to every instance
        for tid in ("t1l4", "t1l6a", "t1l6b", "t1l7"):
            assert vineyard.p_success("w1", tid) == 1.0
            assert vineyard.capability("w1", tid).cost == 3
            assert vineyard.capability("w1", tid).max_retries == 5

    def test_incapable_pair_is_zero(self, vineyard):
        assert vineyard.p_success("r1", "t1l4") == 0.0

    def test_symbols_reachable(self, vineyard):
        # agents, locations, tasks, action constraints, objectives, initial state
        assert {a.kind for a in vineyard.agents} == {"worker", "robot"}
        assert vineyard.task_location("t2l5") == "l5"
        assert vineyard.initial_locations["r2"] == "l1"
        assert vineyard.pending == frozenset(t.id for t in vineyard.tasks)
        assert vineyard.capable_agents("t3l9") == ["r1", "r2", "w1", "w2"]

    def test_deterministic_ordering(self, vineyard):
        assert [a.id for a in vineyard.agents] == ["r1", "r2", "w1", "w2"]
        assert [t.id for t in vineyard.tasks] == sorted(t.id for t in vineyard.tasks)

    def test_spec_never_equals_another_type(self, vineyard):
        assert vineyard.__eq__(5) is NotImplemented
        assert vineyard != 5


def map_spec(locations, paths):
    """A spec of a map alone: no tasks, no agents."""
    return ProblemSpec(
        [Location(l) for l in locations], [Path(a, b, d) for a, b, d in paths], [], [], [],
        MissionConstraints(0.9, 0.5),
    )


def reference_travel(spec):
    """One Dijkstra per location over the declared paths, keyed by id: each
    location's neighbours relaxed in id order, heap ties popped in id order."""
    edges = {l.id: [] for l in spec.locations}
    for p in spec.paths:
        edges[p.start].append((p.end, p.distance))
        edges[p.end].append((p.start, p.distance))
    rows = []
    for src in edges:
        d = {src: 0.0}
        pq = [(0.0, src)]
        while pq:
            cur, node = heapq.heappop(pq)
            if cur > d.get(node, math.inf):
                continue
            for nbr, step in sorted(edges[node]):
                nd = cur + step
                if nd < d.get(nbr, math.inf):
                    d[nbr] = nd
                    heapq.heappush(pq, (nd, nbr))
        rows.append(tuple(d.get(l.id, math.inf) for l in spec.locations))
    return tuple(rows)


@st.composite
def maps(draw):
    """1-8 locations whose id order is not their number order, some pairs
    joined in either direction at non-integer distances; few paths leave
    parts of the map disconnected."""
    ids = [f"n{k}" for k in draw(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True))]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    joined = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    distance = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1, 2.5]), st.floats(0.01, 10.0))
    paths = [(b, a, draw(distance)) if draw(st.booleans()) else (a, b, draw(distance)) for a, b in joined]
    return map_spec(ids, paths)


class TestTravel:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(maps())
    def test_travel_matches_dijkstra_to_the_bit(self, spec):
        assert spec.travel == reference_travel(spec)

    def test_unreachable_location_is_infinite(self):
        spec = map_spec(["a", "b", "c"], [("a", "b", 0.5)])
        assert spec.travel == ((0.0, 0.5, math.inf), (0.5, 0.0, math.inf), (math.inf, math.inf, 0.0))

    @pytest.mark.parametrize(
        "paths, message",
        [
            # a spec built in code once planned with 3.0 while the PDDL export wrote 1
            ([("a", "b", 1.0), ("b", "a", 3.0)], "duplicate path b-a"),
            ([("a", "a", 1.0)], "duplicate path a-a"),
        ],
    )
    def test_second_path_for_a_pair_is_rejected(self, paths, message):
        with pytest.raises(SpecError, match=message):
            map_spec(["a", "b"], paths)

    @pytest.mark.parametrize(
        "path, task, agent, message",
        [
            (Path("a", "zz", 1.0), TaskInstance("t", "g", "a"), Agent("r", "robot", "a", ()),
             "path a-zz names unknown location 'zz'"),
            (Path("a", "b", 1.0), TaskInstance("t", "g", "zz"), Agent("r", "robot", "a", ()),
             "task t names unknown location 'zz'"),
            (Path("a", "b", 1.0), TaskInstance("t", "g", "a"), Agent("r", "robot", "qq", ()),
             "agent r names unknown location 'qq'"),
        ],
        ids=["path", "task", "agent"],
    )
    def test_unknown_location_reference_is_rejected(self, path, task, agent, message):
        # the parser reports these too; a spec built in code must not slip past
        with pytest.raises(SpecError, match=message):
            ProblemSpec([Location("a"), Location("b")], [path], [TaskGroup("g")], [task], [agent],
                        MissionConstraints(0.9, 0.5))


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["vineyard", "m1", "m1_mini", "m2"])
    def test_parse_serialize_identity(self, name):
        spec = load_fixture(name)
        again = parse_problem_spec(serialize(spec))
        assert again == spec
        assert serialize(again) == serialize(spec)

    def test_runtime_state_round_trip(self, vineyard):
        derived = vineyard.with_runtime_state(
            {"w1": "l9", "w2": "l1", "r1": "l8", "r2": "l1"},
            ["t1l6a"],
            p_overrides={("w1", "t1l6a"): 0.89},
            gamma=0.9,
        )
        again = parse_problem_spec(serialize(derived))
        assert again == derived
        assert again.p_success("w1", "t1l6a") == 0.89
        assert again.constraints.gamma == 0.9


    def test_re_root_shares_the_mission_tables(self, vineyard):
        before = serialize(vineyard)
        derived = vineyard.with_runtime_state(
            {"w1": "l9", "w2": "l1", "r1": "l8", "r2": "l1"},
            ["t1l6a"],
            p_overrides={("w1", "t1l6a"): 0.89},
            gamma=0.9,
            p_succ=0.7,
        )
        for table in ("locations", "paths", "tasks", "agents", "_dist", "_neighbors", "travel", "_capabilities",
                      "_task_by_id"):
            assert getattr(derived, table) is getattr(vineyard, table)
        assert derived.p_overrides is not vineyard.p_overrides
        assert serialize(vineyard) == before
        assert derived.with_runtime_state(p_overrides={("w2", "t1l6a"): 0.5}).p_overrides == {
            ("w1", "t1l6a"): 0.89,
            ("w2", "t1l6a"): 0.5,
        }
        assert derived.p_overrides == {("w1", "t1l6a"): 0.89}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_re_rooted_spec_survives_the_file_round_trip(self, data):
        spec = random_instance(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4)), data.draw(st.integers(0, 10_000)))
        agents, tasks = [a.id for a in spec.agents], [t.id for t in spec.tasks]
        capable = [(a, t) for a in agents for t in tasks if spec.has_capability(a, t)]
        unit = st.floats(0.0, 1.0)
        positive = st.floats(0.0, 1.0, exclude_min=True)
        derived = spec.with_runtime_state(
            initial_locations=data.draw(st.none() | st.fixed_dictionaries({a: st.sampled_from(GRID) for a in agents})),
            pending=data.draw(st.none() | st.lists(st.sampled_from(tasks), unique=True)),
            p_overrides=data.draw(st.dictionaries(st.sampled_from(capable), unit, max_size=4) if capable else st.just({})),
            gamma=data.draw(st.none() | positive),
            p_succ=data.draw(st.none() | positive),
        )
        again = parse_problem_spec(serialize(derived))
        assert again == derived
        for field in ("initial_locations", "pending", "p_overrides", "constraints"):
            assert getattr(again, field) == getattr(derived, field)


class TestValidate:
    def test_unassignable_task_warns(self):
        doc = minimal_doc()
        doc["agents"][0]["tasks"][0]["p_success"] = 0.4  # below gamma
        spec = build_problem_spec(doc)
        issues = validate(spec)
        assert [v.severity for v in issues] == ["warning"]
        # oracle: scan all (agent, task) capability pairs
        assert all(
            spec.p_success(a.id, "t1l2") < spec.constraints.gamma for a in spec.agents
        )

    def test_violation_str(self):
        doc = minimal_doc()
        doc["agents"][0]["tasks"][0]["p_success"] = 0.4
        spec = build_problem_spec(doc)
        text = str(validate(spec)[0])
        assert "warning" in text and "t1l2" in text
