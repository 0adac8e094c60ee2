import pytest

from hybridplan.adaptation import (
    A1,
    A2,
    A3,
    NA,
    Change,
    ExecutionContext,
    Progress,
    adapt,
    build_suffix_model,
    reduce_ps_passign,
    reduce_ps_psucc,
    reduce_ps_tf,
    remaining_success,
    run_scenario,
    select_new_plan,
    simulate,
    validate_scenario,
)
from hybridplan.chains import all_min_assignment, build_parametric_model
from hybridplan.errors import ScenarioError, UnrecoverableMission
from hybridplan.planner import PlannerConfig, plan_mission
from hybridplan.spec import build_problem_spec
from hybridplan.synthesis import (
    ArchiveEntry,
    GaConfig,
    ParetoArchive,
    evaluate,
    exhaustive_synthesize,
)
from hybridplan.world import Do, initial_state, replay


def make_entry(model, overrides):
    assignment = all_min_assignment(model)
    assignment.update(overrides)
    return ArchiveEntry(
        tuple(assignment[s.task] for s in model.retry_slots()),
        assignment,
        evaluate(model, assignment),
    )


def ctx_at(spec, plan, model, entries, deployed, prefix_len, failures=None, clock=None):
    """Execution context after replaying a prefix of the sequential trace."""
    prefix = plan.total_order[:prefix_len]
    world = replay(spec, prefix)
    completed = {a.task for a in prefix if isinstance(a, Do)}
    pointers = {agent: 0 for agent in plan.per_agent}
    for act in prefix:
        pointers[act.agent] += 1
    archive = ParetoArchive(model.plan_hash, list(entries), 0, {}, len(entries))
    return ExecutionContext(
        spec=spec,
        plan=plan,
        model=model,
        archive=archive,
        deployed=deployed,
        progress=Progress(
            clock=prefix_len if clock is None else clock,
            completed=completed,
            failures=dict(failures or {}),
            pointers=pointers,
        ),
        world=world,
        ga=GaConfig(population=10, evaluations=60, seed=1),
        planner=PlannerConfig(timeout=60),
    )


@pytest.fixture(scope="module")
def field(vineyard, vineyard_plan, vineyard_model):
    deployed = make_entry(vineyard_model, {"t1l4": 2, "t2l8b": 2})
    sibling3 = make_entry(vineyard_model, {"t1l4": 3, "t2l8b": 2})
    strong = make_entry(vineyard_model, {"t3l7": 2, "t3l9": 2})
    return {
        "spec": vineyard,
        "plan": vineyard_plan,
        "model": vineyard_model,
        "deployed": deployed,
        "sibling3": sibling3,
        "strong": strong,
    }


class TestReduceTf:
    @pytest.mark.parametrize("prefix_len", [1, 2])
    def test_within_budget_keeps_deployed(self, field, prefix_len):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"], field["sibling3"]], field["deployed"],
            prefix_len=prefix_len, failures={"t1l4": 1},
        )
        survivors = reduce_ps_tf(ctx, "t1l4")
        assert field["deployed"] in survivors
        out = adapt(ctx, Change("C1", ctx.progress.clock, task="t1l4"))
        assert out.level == NA and out.stages_rerun == frozenset()

    @pytest.mark.parametrize("prefix_len", [1, 2])
    def test_exhausted_budget_swaps_to_sibling(self, field, prefix_len):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"], field["sibling3"]], field["deployed"],
            prefix_len=prefix_len, failures={"t1l4": 2},
        )
        survivors = reduce_ps_tf(ctx, "t1l4")
        assert field["deployed"] not in survivors
        assert field["sibling3"] in survivors
        out = adapt(ctx, Change("C1", ctx.progress.clock, task="t1l4"))
        assert out.level == A1
        assert out.new_entry.retries["t1l4"] == 3
        # every survivor still budgets the next retry
        for e in survivors:
            assert e.retries.get("t1l4", 1) > 2

    @pytest.mark.parametrize("prefix_len", [1, 2])
    def test_no_sibling_escalates(self, field, prefix_len):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"],
            prefix_len=prefix_len, failures={"t1l4": 2},
        )
        out = adapt(ctx, Change("C1", ctx.progress.clock, task="t1l4"))
        assert out.level == A3
        assert out.stages_rerun == frozenset({"S0", "S1", "S2", "S3", "S4"})
        assert out.new_plan is not None
        # the replan starts at the current world state
        starts = dict(out.new_spec.initial_locations)
        assert starts == {aid: loc for aid, loc in ctx.world.agent_locs}


class TestReducePsucc:
    @pytest.mark.parametrize("prefix_len", [0, 3])
    def test_floor_cleared_by_all(self, field, prefix_len):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"], field["strong"]], field["deployed"], prefix_len,
        )
        out = adapt(ctx, Change("C2", ctx.progress.clock, value=0.8))
        assert out.level == NA
        assert out.new_spec.constraints.p_succ == 0.8

    @pytest.mark.parametrize("prefix_len", [0, 3])
    def test_floor_between_entries_swaps(self, field, prefix_len):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"], field["strong"]], field["deployed"], prefix_len,
        )
        lo = remaining_success(ctx, field["deployed"])
        hi = remaining_success(ctx, field["strong"])
        assert lo < hi
        floor = (lo + hi) / 2
        survivors = reduce_ps_psucc(ctx, floor)
        assert [e.retries for e in survivors] == [field["strong"].retries]
        out = adapt(ctx, Change("C2", ctx.progress.clock, value=floor))
        assert out.level == A1
        assert out.new_entry.retries == field["strong"].retries
        # survivors re-verify against the new floor
        for e in survivors:
            assert remaining_success(ctx, e) >= floor

    def test_boundary_floor_is_inclusive(self, field):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len=0,
        )
        floor = remaining_success(ctx, field["deployed"])
        out = adapt(ctx, Change("C2", ctx.progress.clock, value=floor))
        assert out.level == NA

    @pytest.mark.parametrize("prefix_len", [0, 3])
    def test_unreachable_floor_escalates(self, field, prefix_len):
        # thin archive, floor above its best but attainable with more budget
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len,
            clock=prefix_len,
        )
        out = adapt(ctx, Change("C2", ctx.progress.clock, value=0.97))
        assert out.level == A3
        assert out.new_archive is not None and not out.new_archive.is_empty()
        for e in out.new_archive.entries:
            assert e.objectives.success_prob >= 0.97

    def test_impossible_floor_unrecoverable(self, field):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], 0,
        )
        with pytest.raises(UnrecoverableMission):
            adapt(ctx, Change("C2", 0, value=1.0))


class TestReducePassign:
    @pytest.mark.parametrize(("gamma", "prefix_len"), [(0.5, 0), (0.9, 3), (0.99, 5)])
    def test_all_allocations_qualify(self, field, gamma, prefix_len):
        # workers carry the plan: harvest at 1.0, imaging at 0.99
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len,
        )
        survivors = reduce_ps_passign(ctx, gamma)
        assert [e.retries for e in survivors] == [field["deployed"].retries]
        out = adapt(ctx, Change("C3", ctx.progress.clock, value=gamma))
        assert out.level == NA
        assert out.new_spec.constraints.gamma == gamma
        # oracle: scan the remaining allocation pairs directly
        for task, agent in ctx.plan.allocation.items():
            if task not in ctx.progress.completed:
                assert ctx.spec.p_success(agent, task) >= gamma

    @pytest.mark.parametrize("prefix_len", [0, 3])
    def test_disqualified_allocation_empties_set(self, vineyard, vineyard_plan, prefix_len):
        # a degraded worker probability sits between the old and new threshold
        spec = vineyard.with_runtime_state(
            vineyard.initial_locations,
            vineyard.pending,
            p_overrides={("w1", "t1l6a"): 0.89},
        )
        model = build_parametric_model(spec, vineyard_plan)
        deployed = make_entry(model, {"t2l8b": 2})
        ctx = ctx_at(spec, vineyard_plan, model, [deployed], deployed, prefix_len)
        assert reduce_ps_passign(ctx, 0.9) == []
        out = adapt(ctx, Change("C3", ctx.progress.clock, value=0.9))
        assert out.level == A3
        # the replan must not give the degraded pair the task
        assert out.new_plan.allocation["t1l6a"] != "w1"

    def test_unsatisfiable_threshold_unrecoverable(self, field):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], 0,
        )
        with pytest.raises(UnrecoverableMission):
            adapt(ctx, Change("C3", 0, value=0.995))


class TestReducePtask:
    @pytest.mark.parametrize("prefix_len", [3, 6])
    def test_completed_task_is_noop(self, field, prefix_len):
        # t3l4 completes at trace index 3
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len,
        )
        assert "t3l4" in ctx.progress.completed
        out = adapt(ctx, Change("C4", ctx.progress.clock, agent="w1", task="t3l4", value=0.6))
        assert out.level == NA and out.stages_rerun == frozenset()

    @pytest.mark.parametrize("prefix_len", [0, 3])
    def test_unallocated_agent_is_noop(self, field, prefix_len):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len,
        )
        out = adapt(ctx, Change("C4", ctx.progress.clock, agent="w2", task="t3l9", value=0.89))
        assert out.level == NA

    @pytest.mark.parametrize("prefix_len", [0, 6])
    def test_degraded_suffix_task_resynthesizes(self, field, prefix_len):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len,
        )
        out = adapt(ctx, Change("C4", ctx.progress.clock, agent="w1", task="t3l9", value=0.89))
        assert out.level == A2
        assert out.stages_rerun == frozenset({"S3", "S4"})
        assert out.new_archive is not None and not out.new_archive.is_empty()
        # the fresh archive models the degraded probability
        suffix_tasks = {s.task for s in out.new_model.retry_slots()}
        assert "t3l9" in suffix_tasks
        chain = {c.agent: c for c in out.new_model.chains}["w1"]
        step = next(s for s in chain.steps if s.task == "t3l9")
        assert step.p_success == 0.89

    @pytest.mark.parametrize("prefix_len", [0, 6])
    def test_threshold_breach_escalates(self, field, prefix_len):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len,
        )
        out = adapt(ctx, Change("C4", ctx.progress.clock, agent="w1", task="t3l9", value=0.4))
        assert out.level == A3
        assert out.new_plan.allocation["t3l9"] != "w1"


class TestContractChecks:
    def test_change_in_the_past_rejected(self, field):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len=3,
        )
        with pytest.raises(ValueError, match="past"):
            adapt(ctx, Change("C2", 0, value=0.8))

    @pytest.mark.parametrize(
        ("kind", "kwargs"),
        [
            ("C1", {}),
            ("C2", {"task": "t"}),
            ("C4", {"value": 0.5, "task": "t"}),
            ("C5", {"task": "t"}),
        ],
    )
    def test_malformed_changes_rejected(self, kind, kwargs):
        with pytest.raises(ValueError):
            Change(kind, 1, **kwargs)


class TestSelectNewPlan:
    def entry(self, cost, prob, genotype=(1,)):
        from hybridplan.synthesis import Objectives

        return ArchiveEntry(genotype, {"t": genotype[0]}, Objectives(cost, prob, True, 0.0))

    def test_min_cost_wins(self):
        pick = select_new_plan([self.entry(38, 0.951), self.entry(40, 0.97)])
        assert pick.objectives.expected_cost == 38

    def test_singleton(self):
        only = self.entry(40, 0.97)
        assert select_new_plan([only]) is only

    def test_tie_breaks_on_probability_then_genotype(self):
        a = self.entry(38, 0.96, (2,))
        b = self.entry(38, 0.97, (3,))
        assert select_new_plan([a, b]) is b
        c = self.entry(38, 0.97, (1,))
        assert select_new_plan([b, c]) is c

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            select_new_plan([])


class TestC2Flag:
    def test_stored_probability_mode(self, field):
        # C2 compares the remaining-suffix probability, which improves as the
        # mission progresses: a floor above the stored whole-plan probability
        # keeps the entry
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len=6,
        )
        stored = field["deployed"].objectives.success_prob
        floor = (stored + remaining_success(ctx, field["deployed"])) / 2
        assert floor > stored
        assert reduce_ps_psucc(ctx, floor) != []


class TestEpochAccounting:
    def test_post_resynthesis_budgets_count_from_their_epoch(self, field):
        """A re-synthesised archive budgets attempts from its epoch, so a
        failure that predates the epoch must not count against it."""
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"],
            prefix_len=1, failures={"t1l4": 1},
        )
        out = adapt(ctx, Change("C4", ctx.progress.clock, agent="w1", task="t3l9", value=0.89))
        assert out.level == A2
        # adopt the fresh archive the way the execution loop would
        ctx.archive = out.new_archive
        ctx.model = out.new_model
        ctx.deployed = out.new_entry
        ctx.spec = out.new_spec
        ctx.epoch_completed = frozenset(ctx.progress.completed)
        ctx.epoch_failures = dict(ctx.progress.failures)

        # one further failure after the epoch: entries budgeting two suffix
        # attempts for t1l4 must survive, even though total failures is two
        ctx.progress.failures["t1l4"] = 2
        survivors = reduce_ps_tf(ctx, "t1l4")
        assert any(e.retries.get("t1l4", 1) >= 2 for e in ctx.archive.entries)
        assert survivors == [e for e in ctx.archive.entries if e.retries.get("t1l4", 1) >= 2]
        for e in survivors:
            assert remaining_success(ctx, e) > 0.0


class TestSuffixModel:
    def test_epoch_skips_completed_tasks(self, field):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len=6,
        )
        model = build_suffix_model(ctx)
        tasks = {s.task for s in model.retry_slots()}
        assert "t1l4" not in tasks and "t3l4" not in tasks
        assert "t3l9" in tasks

    def test_failure_counts_shrink_caps(self, field):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len=1,
            failures={"t1l4": 2},
        )
        model = build_suffix_model(ctx)
        slot = next(s for s in model.retry_slots() if s.task == "t1l4")
        assert slot.hi == 3  # cap 5 minus two observed failures

    def test_remaining_success_conditional(self, field):
        ctx0 = ctx_at(field["spec"], field["plan"], field["model"], [field["deployed"]], field["deployed"], 0)
        ctx6 = ctx_at(field["spec"], field["plan"], field["model"], [field["deployed"]], field["deployed"], 6)
        assert remaining_success(ctx6, field["deployed"]) > remaining_success(ctx0, field["deployed"])


def tiny_mission(p=0.9, retries=2):
    return build_problem_spec(
        {
            "locations": [{"id": "l1"}, {"id": "l2"}],
            "paths": [{"start": "l1", "end": "l2", "distance": 1}],
            "tasks": [{"id": "tg", "instances": [{"id": "tga", "location": "l2"}]}],
            "agents": [
                {
                    "id": "a1",
                    "type": "worker",
                    "start": "l1",
                    "tasks": [{"id": "tg", "cost": 2, "p_success": p, "retries": retries}],
                }
            ],
            "constraints": {
                "mission_probability_of_success": 0.5,
                "min_assignment_probability": 0.5,
            },
        }
    )


def pipeline(spec):
    plan = plan_mission(spec)
    model = build_parametric_model(spec, plan)
    archive = exhaustive_synthesize(model)
    return plan, model, archive


class TestSimulate:
    def test_certain_mission_replays_verbatim(self):
        spec = tiny_mission(p=1.0, retries=1)
        plan, model, archive = pipeline(spec)
        trace = simulate(spec, plan, model, archive, archive.entries[0], [], seed=0)
        assert trace.result == "success"
        assert trace.levels() == []
        assert trace.travel_cost == plan.travel_cost
        executed = [a for s in trace.steps for a in s.actions]
        assert len(executed) == len(plan.total_order)

    def test_forced_failures_exhaust_into_replan(self):
        spec = tiny_mission(p=0.9, retries=2)
        plan, model, archive = pipeline(spec)
        deployed = next(e for e in archive.entries if e.retries == {"tga": 1})
        changes = [Change("C1", 1, task="tga"), Change("C1", 2, task="tga")]
        trace = simulate(spec, plan, model, archive, deployed, changes, seed=1)
        assert trace.levels() == [A1, A3]
        assert trace.stage_counts == {"S0": 1, "S1": 1, "S2": 1, "S3": 1, "S4": 1}
        assert trace.result == "success"

    def test_change_after_completion_is_noop(self):
        spec = tiny_mission(p=1.0, retries=1)
        plan, model, archive = pipeline(spec)
        changes = [Change("C2", 40, value=0.4)]
        trace = simulate(spec, plan, model, archive, archive.entries[0], changes, seed=0)
        assert trace.levels() == [NA]
        assert trace.events[0].stages_rerun == frozenset()
        assert trace.result == "success"

    def test_unrecoverable_mission_propagates(self):
        spec = tiny_mission(p=0.9, retries=1)
        plan, model, archive = pipeline(spec)
        changes = [Change("C3", 0, value=0.95)]  # nobody reaches the new threshold
        with pytest.raises(UnrecoverableMission):
            simulate(spec, plan, model, archive, archive.entries[0], changes, seed=0)

    def test_scripted_failure_must_match_schedule(self):
        spec = tiny_mission(p=1.0, retries=1)
        plan, model, archive = pipeline(spec)
        changes = [Change("C1", 0, task="tga")]  # slot 0 is a move
        with pytest.raises(ScenarioError):
            simulate(spec, plan, model, archive, archive.entries[0], changes, seed=0)

    def test_scenario_ordering_validated(self):
        with pytest.raises(ScenarioError):
            validate_scenario([Change("C2", 2, value=0.5), Change("C2", 1, value=0.4)])
        with pytest.raises(ScenarioError):
            validate_scenario([Change("C2", 1, value=0.5), Change("C3", 1, value=0.4)])

    def test_seed_determinism(self, vineyard):
        import json

        from hybridplan.fixtures import fixture_text

        scenario = json.loads(fixture_text("scenario_adaptation"))
        t1 = run_scenario(vineyard, scenario)
        t2 = run_scenario(vineyard, scenario)
        assert t1.to_jsonl() == t2.to_jsonl()


class TestStochasticSoak:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flaky_mission_recovers_and_completes(self, seed):
        """Low task probabilities make sampled failures certain; the loop
        must absorb them (NA), swap budgets (A1) or replan (A3) until the
        mission completes, with stage counts matching the levels seen."""
        spec = build_problem_spec(
            {
                "locations": [{"id": "l1"}, {"id": "l2"}, {"id": "l3"}],
                "paths": [
                    {"start": "l1", "end": "l2", "distance": 1},
                    {"start": "l2", "end": "l3", "distance": 1},
                ],
                "tasks": [
                    {
                        "id": "tg",
                        "instances": [
                            {"id": "tg2a", "location": "l2"},
                            {"id": "tg2b", "location": "l2"},
                            {"id": "tg3a", "location": "l3"},
                            {"id": "tg3b", "location": "l3"},
                        ],
                    }
                ],
                "agents": [
                    {
                        "id": "a1",
                        "type": "robot",
                        "start": "l1",
                        "tasks": [{"id": "tg", "cost": 1, "p_success": 0.7, "retries": 3}],
                    },
                    {
                        "id": "a2",
                        "type": "robot",
                        "start": "l1",
                        "tasks": [{"id": "tg", "cost": 1, "p_success": 0.7, "retries": 3}],
                    },
                ],
                "constraints": {
                    "mission_probability_of_success": 0.5,
                    "min_assignment_probability": 0.5,
                },
            }
        )
        plan, model, archive = pipeline(spec)
        deployed = select_new_plan(archive.entries)
        events_seen = 0
        for run_seed in range(seed * 10, seed * 10 + 5):
            trace = simulate(spec, plan, model, archive, deployed, [], seed=run_seed, max_steps=400)
            assert trace.result == "success"
            assert set(trace.levels()) <= {NA, A1, A3}
            assert trace.stage_counts.get("S0", 0) == trace.levels().count(A3)
            assert trace.stage_counts.get("S4", 0) == trace.levels().count(A3)
            events_seen += len(trace.events)
        # failures are near-certain across five runs at these probabilities
        assert events_seen > 0


class TestPrefixPreservation:
    def test_na_a1_a2_keep_the_plan(self, field):
        for change, _level in [
            (Change("C1", 1, task="t1l4"), NA),
            (Change("C2", 1, value=0.8), NA),
            (Change("C4", 1, agent="w1", task="t3l9", value=0.89), A2),
        ]:
            ctx = ctx_at(
                field["spec"], field["plan"], field["model"],
                [field["deployed"], field["sibling3"]], field["deployed"],
                prefix_len=1, failures={"t1l4": 1} if change.kind == "C1" else None,
            )
            out = adapt(ctx, change)
            assert out.new_plan is None  # same actions, only budgets may change

    def test_a3_roots_at_current_state(self, field):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len=6,
        )
        out = adapt(ctx, Change("C4", ctx.progress.clock, agent="w1", task="t3l9", value=0.4))
        assert out.level == A3
        locs = {aid: loc for aid, loc in ctx.world.agent_locs}
        replayed = initial_state(out.new_spec)
        assert dict(replayed.agent_locs) == locs
        assert out.new_spec.pending == frozenset(
            t.id for t in field["spec"].tasks if t.id not in ctx.progress.completed
        )
