import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    reduce_ps_ptask,
    reduce_ps_tf,
    remaining_success,
    run_scenario,
    select_new_plan,
    simulate,
    validate_scenario,
)
from hybridplan.bench import random_instance
from hybridplan.chains import all_min_assignment, build_chains, build_parametric_model, closed_form_mission_metrics
from hybridplan.errors import ScenarioError, UnrecoverableMission
from hybridplan.planner import PlannerConfig, dispatch_slot, plan_mission
from hybridplan.spec import ProblemSpec, build_problem_spec
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
    world = replay(spec, plan.total_order[:prefix_len])
    archive = ParetoArchive(model.plan_hash, list(entries), 0, {}, [(e.genotype, e.objectives) for e in entries])
    return ExecutionContext(
        spec=spec,
        plan=plan,
        archive=archive,
        deployed=deployed,
        progress=Progress(
            clock=prefix_len if clock is None else clock,
            failures=dict(failures or {}),
            done=prefix_len,
        ),
        world=world,
        ga=GaConfig(population=10, evaluations=60, seed=1),
        planner=PlannerConfig(timeout=60),
    )


@pytest.fixture(scope="module")
def field(vineyard, scenario_plan, scenario_model):
    deployed = make_entry(scenario_model, {"t1l4": 2, "t2l8b": 2})
    sibling3 = make_entry(scenario_model, {"t1l4": 3, "t2l8b": 2})
    strong = make_entry(scenario_model, {"t3l7": 2, "t3l9": 2})
    return {
        "spec": vineyard,
        "plan": scenario_plan,
        "model": scenario_model,
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

    def test_running_tasks_spent_budgets_rule_entries_out(self):
        """Agent a runs x, agent b runs y, neither finished: x has failed
        twice and y once.  A C1 on y must not swap to an entry that has spent
        x's budget ({x: 1, y: 2} has no attempt of x left)."""
        agents = [
            {"id": a, "type": "robot", "start": "l1", "tasks": [{"id": g, "cost": 1, "p_success": 0.9, "retries": 3}]}
            for a, g in (("a", "gx"), ("b", "gy"))
        ]
        spec = build_problem_spec(
            {
                "locations": [{"id": "l1"}, {"id": "l2"}, {"id": "l3"}],
                "paths": [{"start": "l1", "end": "l2", "distance": 1}, {"start": "l1", "end": "l3", "distance": 1}],
                "tasks": [
                    {"id": "gx", "instances": [{"id": "x", "location": "l2"}]},
                    {"id": "gy", "instances": [{"id": "y", "location": "l3"}]},
                ],
                "agents": agents,
                "constraints": {"mission_probability_of_success": 0.5, "min_assignment_probability": 0.5},
            }
        )
        plan, _model, archive = pipeline(spec)
        assert plan.allocation == {"x": "a", "y": "b"}
        deployed = next(e for e in archive.entries if e.retries == {"x": 3, "y": 1})
        progress = Progress(0, {"x": 2, "y": 1}, 0)
        ctx = ExecutionContext(spec, plan, archive, deployed, progress, initial_state(spec))
        assert [e.retries for e in reduce_ps_tf(ctx, "y")] == [{"x": 3, "y": 2}, {"x": 3, "y": 3}]
        out = adapt(ctx, Change("C1", 0, task="y"))
        assert (out.level, out.reduced_size, out.new_entry.retries) == (A1, 2, {"x": 3, "y": 2})
        assert remaining_success(ctx, out.new_entry) == pytest.approx(0.81)


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

    def test_suffix_model_built_once_per_reduction(self, field, monkeypatch):
        import hybridplan.adaptation as adaptation

        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"], field["strong"]], field["deployed"], prefix_len=3,
        )
        floor = (remaining_success(ctx, field["deployed"]) + remaining_success(ctx, field["strong"])) / 2
        expected = [e for e in ctx.archive.entries if remaining_success(ctx, e) >= floor]
        built = []
        build = adaptation.build_suffix_model
        monkeypatch.setattr(adaptation, "build_suffix_model", lambda c: built.append(c) or build(c))
        assert reduce_ps_psucc(ctx, floor) == expected
        assert len(built) == 1

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
        survivors = reduce_ps_passign(ctx, ctx.spec.with_runtime_state(gamma=gamma))
        assert [e.retries for e in survivors] == [field["deployed"].retries]
        out = adapt(ctx, Change("C3", ctx.progress.clock, value=gamma))
        assert out.level == NA
        assert out.new_spec.constraints.gamma == gamma
        # oracle: scan the remaining allocation pairs directly
        for task, agent in ctx.plan.allocation.items():
            if task not in ctx.completed():
                assert ctx.spec.p_success(agent, task) >= gamma

    def test_threshold_change_re_roots_the_spec_once(self, field, monkeypatch):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], 0,
        )
        calls = []
        re_root = ProblemSpec.with_runtime_state

        def counted(spec, *args, **kwargs):
            calls.append(kwargs)
            return re_root(spec, *args, **kwargs)

        monkeypatch.setattr(ProblemSpec, "with_runtime_state", counted)
        assert adapt(ctx, Change("C3", 0, value=0.5)).level == NA
        assert calls == [{"gamma": 0.5}]

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
        assert reduce_ps_passign(ctx, ctx.spec.with_runtime_state(gamma=0.9)) == []
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
        assert "t3l4" in ctx.completed()
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

    def test_probability_at_threshold_keeps_allocation(self, field):
        # p = gamma (0.5) still qualifies, so the suffix is re-synthesised
        # with w1 on t3l9 instead of replanned
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], 0,
        )
        out = adapt(ctx, Change("C4", ctx.progress.clock, agent="w1", task="t3l9", value=0.5))
        assert out.level == A2 and out.new_plan is None
        chain = {c.agent: c for c in out.new_model.chains}["w1"]
        assert next(s for s in chain.steps if s.task == "t3l9").p_success == 0.5


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
        ctx.deployed = out.new_entry
        ctx.spec = out.new_spec
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

    @pytest.mark.parametrize("seed", range(8))
    def test_done_flags_match_the_pointer_rule(self, seed):
        # reference: each agent has finished its first k_a actions, so its
        # suffix is per_agent[a][k_a:]; dispatch with sampled failures
        rng = random.Random(seed)
        spec = random_instance(3 + seed % 4, 2 + seed % 2, seed)
        plan = plan_mission(spec)
        model = build_parametric_model(spec, plan)
        done, world = 0, initial_state(spec)
        for _ in range(rng.randrange(plan.makespan() + 3)):
            world, _, done = dispatch_slot(spec, world, plan.total_order, done, lambda act: rng.random() < 0.7)
        archive = ParetoArchive(model.plan_hash, [], 0, {}, [])
        ctx = ExecutionContext(spec, plan, archive, None, Progress(0, {}, done), world)
        finished = plan.total_order[:done]
        assert replay(spec, finished) == world
        k = {a: sum(act.agent == a for act in finished) for a in plan.per_agent}
        reference = build_chains(spec, {a: seq[k[a]:] for a, seq in plan.per_agent.items()})
        assert list(build_suffix_model(ctx).chains) == reference
        assert ctx.completed() == {act.task for act in finished if isinstance(act, Do)}

    def test_remaining_success_conditional(self, field):
        ctx0 = ctx_at(field["spec"], field["plan"], field["model"], [field["deployed"]], field["deployed"], 0)
        ctx6 = ctx_at(field["spec"], field["plan"], field["model"], [field["deployed"]], field["deployed"], 6)
        assert remaining_success(ctx6, field["deployed"]) > remaining_success(ctx0, field["deployed"])


@functools.lru_cache(maxsize=None)
def random_pipeline(seed):
    spec = random_instance(3 + seed % 3, 2 + seed % 2, seed)
    plan = plan_mission(spec)
    return spec, plan, build_parametric_model(spec, plan)


@st.composite
def mid_mission_contexts(draw):
    """A random mission part-way through its plan: an executed prefix,
    failure counts up to one past each retry cap, an epoch snapshot below
    them, and an archive of entries whose budgets fall at, below and above
    the attempts consumed."""
    spec, plan, model = random_pipeline(draw(st.integers(0, 5)))
    done = draw(st.integers(0, len(plan.total_order)))
    failures, epoch = {}, {}
    for task, agent in plan.allocation.items():
        failures[task] = draw(st.integers(0, spec.capability(agent, task).max_retries + 1))
        epoch[task] = draw(st.integers(0, failures[task]))
    entries = []
    for _ in range(draw(st.integers(1, 8))):
        genotype = tuple(draw(st.integers(s.lo, s.hi)) for s in model.retry_slots())
        retries = {s.task: b for s, b in zip(model.retry_slots(), genotype)}
        entries.append(ArchiveEntry(genotype, retries, evaluate(model, retries)))
    archive = ParetoArchive(model.plan_hash, entries, 0, {}, [])
    progress = Progress(done, failures, done)
    world = replay(spec, plan.total_order[:done])
    return ExecutionContext(spec, plan, archive, entries[0], progress, world, epoch_failures=epoch)


def closed_form_remaining(ctx, entry):
    """The entry's remaining-suffix success by the closed form on its
    budgets net of the failures since its epoch (0.0 when a slot has no
    attempt left)."""
    model = build_suffix_model(ctx)
    assignment = {}
    for slot in model.retry_slots():
        budget = entry.retries.get(slot.task, 1) - ctx.failures_since_epoch(slot.task)
        if budget < slot.lo:
            return 0.0
        assignment[slot.task] = min(budget, slot.hi)
    return closed_form_mission_metrics(model, assignment)[0]


def consistent(ctx, entry):
    """The survivor rule, restated: the entry budgets more attempts than
    every task has failed since the epoch, finished or still running."""
    return all(entry.retries.get(t, 1) > ctx.failures_since_epoch(t) for t in ctx.progress.failures)


class TestSuccessTable:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mid_mission_contexts(), st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 7)))
    def test_table_equals_the_closed_form_per_entry(self, ctx, floor):
        import hybridplan.adaptation as adaptation

        entries = ctx.archive.entries
        reference = [closed_form_remaining(ctx, e) for e in entries]
        table = adaptation._suffix_success(ctx, build_suffix_model(ctx))
        assert [table(e) for e in entries] == [remaining_success(ctx, e) for e in entries] == reference
        if isinstance(floor, int):
            # an entry's own success, the inclusive boundary, when it is positive
            floor = reference[floor % len(reference)] or 5e-324
        expected = [e for e, s in zip(entries, reference) if consistent(ctx, e) and s >= floor]
        assert reduce_ps_psucc(ctx, floor) == expected


class TestOneSurvivorRule:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mid_mission_contexts(), st.data())
    def test_reductions_and_swaps_keep_only_consistent_entries(self, ctx, data):
        task = data.draw(st.sampled_from(sorted(ctx.plan.allocation)))
        agent = ctx.plan.allocation[task]
        floor, gamma, p = (data.draw(st.floats(0.0, 1.0, exclude_min=True)) for _ in range(3))
        reductions = [
            reduce_ps_tf(ctx, task),
            reduce_ps_psucc(ctx, floor),
            reduce_ps_passign(ctx, ctx.spec.with_runtime_state(gamma=gamma)),
            reduce_ps_ptask(ctx, agent, task) or [],
        ]
        assert all(consistent(ctx, e) for reduced in reductions for e in reduced)
        ctx = replace(ctx, ga=GaConfig(population=6, evaluations=12, seed=1))
        for change in (
            Change("C1", ctx.progress.clock, task=task),
            Change("C2", ctx.progress.clock, value=floor),
            Change("C3", ctx.progress.clock, value=gamma),
            Change("C4", ctx.progress.clock, agent=agent, task=task, value=p),
        ):
            try:
                out = adapt(ctx, change)
            except UnrecoverableMission:
                continue
            if out.level in (NA, A1):
                assert consistent(ctx, ctx.deployed if out.level == NA else out.new_entry)


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


def slotless_suffix_mission():
    """One agent walks l1 -> l2 -> l3: the retryable task ``tr`` at l2 comes
    first, the single-try task ``tn`` (retries 0) at l3 last, so once ``tr``
    is done no remaining task has a retry slot."""
    return build_problem_spec(
        {
            "locations": [{"id": "l1"}, {"id": "l2"}, {"id": "l3"}],
            "paths": [
                {"start": "l1", "end": "l2", "distance": 1},
                {"start": "l2", "end": "l3", "distance": 1},
            ],
            "tasks": [
                {"id": "gr", "instances": [{"id": "tr", "location": "l2"}]},
                {"id": "gn", "instances": [{"id": "tn", "location": "l3"}]},
            ],
            "agents": [
                {
                    "id": "a1",
                    "type": "robot",
                    "start": "l1",
                    "tasks": [
                        {"id": "gr", "cost": 1, "p_success": 0.6, "retries": 2},
                        {"id": "gn", "cost": 1, "p_success": 0.9, "retries": 0},
                    ],
                }
            ],
            "constraints": {
                "mission_probability_of_success": 0.7,
                "min_assignment_probability": 0.5,
            },
        }
    )


class TestSlotlessReplan:
    """A C4 on the last task re-models a suffix without retry slots, so the
    replan's budget space is one vector, the single-try mission."""

    @pytest.fixture(scope="class")
    def ctx(self):
        spec = slotless_suffix_mission()
        plan = plan_mission(spec)
        model = build_parametric_model(spec, plan)
        deployed = make_entry(model, {"tr": 2})
        ctx = ctx_at(spec, plan, model, [deployed], deployed, prefix_len=2)
        assert ctx.completed() == {"tr"}
        assert [s.task for s in model.retry_slots()] == ["tr"]
        return ctx

    def test_feasible_suffix_deploys_the_empty_genotype(self, ctx):
        out = adapt(ctx, Change("C4", ctx.progress.clock, agent="a1", task="tn", value=0.85))
        assert out.level == A3
        assert out.new_model.retry_slots() == ()
        assert out.new_archive.entries == [out.new_entry]
        assert (out.new_entry.genotype, out.new_entry.retries) == ((), {})
        assert out.new_entry.objectives.success_prob == pytest.approx(0.85)

    def test_infeasible_suffix_is_unrecoverable(self, ctx):
        # 0.6 still clears the allocation threshold, not the 0.7 floor
        with pytest.raises(UnrecoverableMission, match="cannot meet the success floor"):
            adapt(ctx, Change("C4", ctx.progress.clock, agent="a1", task="tn", value=0.6))


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

    def test_blocked_plan_stalls(self, m2):
        # the plan's first move takes r1 to l2; starting there, no action of
        # the plan is enabled and the run stops in its first slot
        plan, model, archive = pipeline(m2)
        moved = m2.with_runtime_state(initial_locations={"r1": "l2"})
        trace = simulate(moved, plan, model, archive, archive.entries[0], [], seed=0)
        assert trace.result == "stalled"
        assert trace.clock == 1

    def test_step_limit_names_itself(self, field, monkeypatch):
        # cut after two slots with most of the plan ahead and nothing blocked
        import hybridplan.adaptation as adaptation

        deployed = field["deployed"]
        archive = ParetoArchive(field["model"].plan_hash, [deployed], 0, {}, [(deployed.genotype, deployed.objectives)])
        monkeypatch.setattr(adaptation, "MAX_STEPS", 2)
        trace = simulate(field["spec"], field["plan"], field["model"], archive, deployed, [], seed=0)
        assert trace.result == "step_limit"
        assert trace.clock == 2

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

    def test_scenario_ordering_validated(self, vineyard):
        with pytest.raises(ScenarioError):
            validate_scenario(vineyard, [Change("C2", 2, value=0.5), Change("C2", 1, value=0.4)])
        with pytest.raises(ScenarioError):
            validate_scenario(vineyard, [Change("C2", 1, value=0.5), Change("C3", 1, value=0.4)])

    def test_incapable_c4_is_rejected_before_any_step(self, field, monkeypatch):
        # r1 has no capability for t1l4's group, so the change names no
        # probability the mission has; no slot may be dispatched
        def dispatch(*args):
            raise AssertionError("dispatched a slot")

        monkeypatch.setattr("hybridplan.adaptation.dispatch_slot", dispatch)
        deployed = field["deployed"]
        archive = ParetoArchive(field["model"].plan_hash, [deployed], 0, {}, [(deployed.genotype, deployed.objectives)])
        changes = [Change("C4", 0, agent="r1", task="t1l4", value=1.0)]
        with pytest.raises(ScenarioError, match="agent 'r1' has no capability for task 't1l4'"):
            simulate(field["spec"], field["plan"], field["model"], archive, deployed, changes, seed=0)

    @pytest.mark.parametrize(
        ("change", "message"),
        [
            (Change("C4", 3, agent="r1", task="t1l4", value=1.0), "agent 'r1' has no capability for task 't1l4'"),
            (Change("C4", 3, agent="x9", task="t1l4", value=1.0), "names unknown agent 'x9'"),
            (Change("C1", 3, task="t9"), "names unknown task 't9'"),
        ],
    )
    def test_adapt_checks_its_change_against_the_mission(self, field, change, message):
        ctx = ctx_at(
            field["spec"], field["plan"], field["model"],
            [field["deployed"]], field["deployed"], prefix_len=3,
        )
        with pytest.raises(ScenarioError, match=message):
            adapt(ctx, change)

    def test_seed_determinism(self, vineyard):
        import json

        from hybridplan.fixtures import fixture_text

        scenario = json.loads(fixture_text("scenario_adaptation"))
        t1 = run_scenario(vineyard, scenario)
        t2 = run_scenario(vineyard, scenario)
        assert t1.to_jsonl() == t2.to_jsonl()


class TestStochasticSoak:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flaky_mission_recovers_and_completes(self, seed, monkeypatch):
        """Low task probabilities make sampled failures certain; the loop
        must absorb them (NA), swap budgets (A1) or replan (A3) until the
        mission completes, with stage counts matching the levels seen.  At
        every C1 the failing task is the only unfinished task that has
        failed since the epoch (the dispatch invariant ``_survivors`` relies
        on)."""
        import hybridplan.adaptation as adaptation

        adapt_once = adaptation.adapt

        def checked_adapt(ctx, change):
            if change.kind == "C1":
                running = {
                    t for t in ctx.progress.failures if t not in ctx.world.done and ctx.failures_since_epoch(t) > 0
                }
                assert running == {change.task}
            return adapt_once(ctx, change)

        monkeypatch.setattr(adaptation, "adapt", checked_adapt)
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
            trace = simulate(spec, plan, model, archive, deployed, [], seed=run_seed)
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
            t.id for t in field["spec"].tasks if t.id not in ctx.completed()
        )


def readme_scenario() -> dict:
    """The example under "Scenario files" in the README."""
    import json
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Scenario files", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


# a whole budget vector of the vineyard: every retryable task at one try,
# the bundled scenario's deployed entry apart from t1l4 and t2l8b
FULL_BUDGETS = {
    "t1l4": 1, "t2l8b": 1, "t3l4": 1, "t1l7": 1, "t3l7": 1, "t3l9": 1,
    "t1l6a": 1, "t1l6b": 1, "t2l5": 1, "t2l8a": 1,
}


class TestScenarioDeploy:
    def test_readme_rule_deploys_required_budget(self, vineyard, monkeypatch):
        import hybridplan.adaptation as adaptation

        scenario = readme_scenario()
        assert scenario["deploy"] == {"require_budget": {"t1l4": 2}}
        deployed = []
        run = adaptation.simulate
        monkeypatch.setattr(
            adaptation, "simulate", lambda *args, **kw: deployed.append(args[4]) or run(*args, **kw)
        )
        trace = run_scenario(vineyard, scenario)
        assert deployed[0].retries["t1l4"] == 2
        assert trace.result == "success"
        assert trace.levels() == [NA, NA, A2, A3]

    def test_no_deploy_object_deploys_the_cheapest_entry(self, vineyard, monkeypatch):
        import hybridplan.adaptation as adaptation

        seen = []
        monkeypatch.setattr(adaptation, "simulate", lambda *args, **kw: seen.append(args[3:5]))
        run_scenario(vineyard, {k: v for k, v in readme_scenario().items() if k != "deploy"})
        ((archive, deployed),) = seen
        assert len(archive.entries) > 1
        assert deployed == select_new_plan(archive.entries)
        assert deployed.objectives.expected_cost == min(e.objectives.expected_cost for e in archive.entries)

    def test_empty_archive_deploys_nothing(self):
        # a single try at 0.9 cannot meet a 0.95 floor: no vector is feasible
        spec = tiny_mission(p=0.9, retries=1).with_runtime_state(p_succ=0.95)
        with pytest.raises(UnrecoverableMission, match="no feasible budget vector to deploy"):
            run_scenario(spec, {"seed": 0})

    @pytest.mark.parametrize(
        ("deploy", "message"),
        [
            ({"rule": "max_success"}, r"deploy names unknown keys \['rule'\]"),
            ({"retries": {"t1l4": 2}}, r"deploy names unknown keys \['retries'\]"),
            ({"retries": {"t1l4": 2}, "require_budget": {"t1l4": 3}}, r"deploy names unknown keys \['retries'\]"),
            ({"require_budget": {"t1l4": 5}}, "no archive entry matches required budgets"),
            ({"require_budget": FULL_BUDGETS | {"t1l4": 5}}, "no archive entry matches required budgets"),
        ],
    )
    def test_bad_deploy_is_a_scenario_error(self, vineyard, deploy, message):
        scenario = {**readme_scenario(), "deploy": deploy}
        with pytest.raises(ScenarioError, match=message):
            run_scenario(vineyard, scenario)

    @pytest.mark.parametrize(
        ("index", "key", "value", "message"),
        [
            (2, "time", 4.9, "time must be an integer, got 4.9"),
            (2, "time", -1, "change time must be >= 0"),
            (2, "p_succ", True, "p_succ must be a number, got True"),
            (2, "p_succ", "0.8", "p_succ must be a number, got '0.8'"),
            (2, "p_succ", None, "p_succ must be a number, got None"),   # None: key removed
            (4, "gamma", 1.5, r"probabilities must lie in \[0,1\]"),
            (4, "gamma", 0.0, r"gamma must lie in \(0,1\], got 0.0"),
            (2, "p_succ", 0, r"p_succ must lie in \(0,1\], got 0.0"),
            (3, "p", "0.89", "p must be a number"),
            (0, "task", None, "C1 requires a task"),
            (0, "type", "C9", "unknown change kind 'C9'"),
            (0, "type", ["C1"], r"unknown change kind '\['C1'\]'"),
            (1, "time", 0, "scenario changes must be time-ordered"),
            (1, "time", 1, "at most one change per time unit"),
            (0, "task", "ghost", "C1 change at 1 names unknown task 'ghost'"),
            (3, "task", "ghost", "C4 change at 11 names unknown task 'ghost'"),
            (3, "agent", "zz", "C4 change at 11 names unknown agent 'zz'"),
            (3, "agent", "r1", "C4 change at 11: agent 'r1' has no capability for task 't1l6a'"),
            (None, "seed", "3", "seed must be an integer >= 0, got '3'"),
            (None, "max_steps", 200, r"a scenario names unknown keys \['max_steps'\]"),
            (None, "ga", {"population": "30"}, "population must be an integer >= 2, got '30'"),
            (None, "ga", {"evaluations": 40.5}, "evaluations must be an integer >= population, got 40.5"),
            (None, "planner", {"timeout": "5"}, "timeout must be a finite number > 0, got '5'"),
            (None, "planner", {"timeout": float("nan")}, "timeout must be a finite number > 0, got nan"),
            (None, "planner", {"timeout": float("inf")}, "timeout must be a finite number > 0, got inf"),
            (None, "planner", {"strategy": "astar"}, r"planner names unknown keys \['strategy'\]"),
            (None, "ga", 5, "ga must be a JSON object, got 5"),
            (None, "sead", 3, r"a scenario names unknown keys \['sead'\]"),
            (None, "changes", 5, "changes and seed_entries must be JSON arrays"),
            (None, "seed_entries", 5, "changes and seed_entries must be JSON arrays"),
            (2, "typo", 1, r"C2 change at 4 names unknown keys \['typo'\]"),
            (2, "task", "t1l4", r"C2 change at 4 names unknown keys \['task'\]"),
            (0, "agent", "w1", r"C1 change at 1 names unknown keys \['agent'\]"),
            (3, "p_succ", 0.8, r"C4 change at 11 names unknown keys \['p_succ'\]"),
            (4, "task", "t1l4", r"C3 change at 13 names unknown keys \['task'\]"),
            (None, "deploy", [], r"deploy must be a JSON object, got \[\]"),
            (None, "deploy", 0, "deploy must be a JSON object, got 0"),
            (None, "deploy", False, "deploy must be a JSON object, got False"),
            (None, "deploy", "", "deploy must be a JSON object, got ''"),
            (None, "deploy", 5, "deploy must be a JSON object, got 5"),
            (None, "deploy", {"rule": "max_success"}, r"deploy names unknown keys \['rule'\]"),
            (None, "deploy", {"retries": {}}, r"deploy names unknown keys \['retries'\]"),
        ],
    )
    def test_change_records_are_not_coerced(self, vineyard, monkeypatch, index, key, value, message):
        # the bundled scenario's changes are C1, C1, C2, C4, C3; index None
        # edits the scenario's own settings.  Every case fails before planning.
        import json

        import hybridplan.adaptation as adaptation
        from hybridplan.fixtures import fixture_text

        scenario = json.loads(fixture_text("scenario_adaptation"))
        record = scenario if index is None else scenario["changes"][index]
        monkeypatch.setattr(adaptation, "plan_mission", lambda *a: pytest.fail("planned a bad scenario"))
        if value is None:
            del record[key]
        else:
            record[key] = value
        with pytest.raises(ScenarioError, match=message):
            run_scenario(vineyard, scenario)

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda plan: {"total_order": plan}, "plan must be a JSON array of actions"),
            (lambda plan: [{**plan[0], "type": "fly"}] + plan[1:], "scenario plan: unknown action"),
            (lambda plan: [{**plan[0], "to": 4}] + plan[1:], "scenario plan: malformed move action"),
            (lambda plan: [{"type": "wait", "agent": "w1"}] + plan, "scenario plan: unknown action"),
            (lambda plan: [{**plan[0], "agent": "zz"}] + plan[1:], r"action 0 \(Move\(zz,l1,l4\)\) names an agent or task"),
            (lambda plan: plan[:1] + [{**plan[1], "task": "t9"}] + plan[2:], r"action 1 \(Do\(w1,t9,l4\)\) names an agent"),
            (lambda plan: plan[1:], r"invalid: \[C2\] @0: w1 cannot do t1l4 at l4"),
            (lambda plan: plan[:1] + plan[:1] + plan[1:], r"invalid: \[C2\] @1: w1 is not at l1"),
            (lambda plan: plan[:-1], r"invalid: \[C5\] @17: unfinished tasks: \['t1l6b'\]"),
        ],
        ids=["not-a-list", "unknown-type", "malformed", "wait", "unknown-agent", "unknown-task", "broken-constraint",
             "moved-twice", "tasks-undone"],
    )
    def test_bad_stored_plan_is_rejected_before_synthesis(self, vineyard, monkeypatch, edit, message):
        import json

        import hybridplan.adaptation as adaptation
        from hybridplan.fixtures import fixture_text

        scenario = json.loads(fixture_text("scenario_adaptation"))
        scenario["plan"] = edit(scenario["plan"])
        monkeypatch.setattr(adaptation, "plan_mission", lambda *a: pytest.fail("planned a stored-plan scenario"))
        monkeypatch.setattr(adaptation, "synthesize", lambda *a: pytest.fail("synthesised from a bad plan"))
        with pytest.raises(ScenarioError, match=message):
            run_scenario(vineyard, scenario)

    def test_stored_plan_is_deployed_unplanned(self, vineyard, monkeypatch):
        import json

        import hybridplan.adaptation as adaptation
        from hybridplan.fixtures import fixture_text
        from hybridplan.world import action_to_json

        scenario = json.loads(fixture_text("scenario_adaptation"))
        seen = []
        monkeypatch.setattr(adaptation, "plan_mission", lambda *a: pytest.fail("planned a stored-plan scenario"))
        monkeypatch.setattr(adaptation, "simulate", lambda *args, **kw: seen.append(args[1]))
        run_scenario(vineyard, scenario)
        (plan,) = seen
        assert [action_to_json(a) for a in plan.total_order] == scenario["plan"]
        assert plan.hash_key() == "f5401cba4140bcf8" and plan.travel_cost == 8.0

    def test_a_null_deploy_is_rejected_before_planning(self, vineyard, monkeypatch):
        # only an absent deploy picks the cheapest entry
        import hybridplan.adaptation as adaptation

        monkeypatch.setattr(adaptation, "plan_mission", lambda *a: pytest.fail("planned a bad scenario"))
        with pytest.raises(ScenarioError, match="deploy must be a JSON object, got None"):
            run_scenario(vineyard, {"deploy": None})

    def test_zero_threshold_is_rejected_before_planning(self, vineyard, monkeypatch):
        # a zero threshold would make the p = 0 agent of the C4 eligible
        import hybridplan.adaptation as adaptation

        monkeypatch.setattr(adaptation, "plan_mission", lambda *a: pytest.fail("planned a bad scenario"))
        changes = [
            {"time": 1, "type": "C3", "gamma": 0.0},
            {"time": 2, "type": "C4", "agent": "w1", "task": "t1l6a", "p": 0.0},
        ]
        with pytest.raises(ScenarioError, match=r"C3 change at 1: gamma must lie in \(0,1\]"):
            run_scenario(vineyard, {"changes": changes})

    def test_a_zero_capability_is_still_a_valid_change(self, vineyard):
        change = {"time": 2, "type": "C4", "agent": "w1", "task": "t1l6a", "p": 0.0}
        trace = run_scenario(vineyard, {"changes": [change]})
        assert trace.levels() == ["A3"]
        assert trace.result == "success"

    def test_change_records_are_objects(self, vineyard):
        scenario = {**readme_scenario(), "changes": [5]}
        with pytest.raises(ScenarioError, match="must be a JSON object, got 5"):
            run_scenario(vineyard, scenario)

    @pytest.mark.parametrize(
        ("budgets", "message"),
        [
            ({"t1l4": 2.7}, "budget of 't1l4'"),
            ({"t1l4": True}, "budget of 't1l4'"),
            ({"t1l4": "2"}, "budget of 't1l4'"),
            ({"t1l4": 6}, "budget of 't1l4'"),
            ({"nope": 1}, "unknown retryable task 'nope'"),
        ],
    )
    @pytest.mark.parametrize("where", ["seed_entries", "deploy.require_budget", "deploy.require_budget.full"])
    def test_scenario_budgets_are_integers_within_bounds(self, vineyard, where, budgets, message):
        # the same rule as the CLI's --retries: no truncation, no booleans
        import json

        from hybridplan.fixtures import fixture_text

        scenario = json.loads(fixture_text("scenario_adaptation"))
        if where == "seed_entries":
            scenario["seed_entries"][0].update(budgets)
        elif where == "deploy.require_budget.full":
            scenario["deploy"]["require_budget"].update(budgets)
        else:
            scenario["deploy"] = {"require_budget": budgets}
        with pytest.raises(ScenarioError, match=message):
            run_scenario(vineyard, scenario)
