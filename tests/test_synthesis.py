import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridplan import synthesis
from hybridplan.bench import random_instance
from hybridplan.chains import (
    AgentChain,
    ChainStep,
    ParametricPlanModel,
    all_min_assignment,
    build_parametric_model,
    instantiate,
)
from hybridplan.errors import LimitExceeded
from hybridplan.planner import plan_mission
from hybridplan.pmc import factored_mission_metrics
from hybridplan.synthesis import (
    ArchiveEntry,
    GaConfig,
    Objectives,
    _Evaluator,
    _fast_nondominated_sort,
    _nondominated,
    dominates,
    evaluate,
    exhaustive_synthesize,
    extend_archive,
    save_archive,
    synthesize,
)


def truncate_model(model, keep, cap):
    """Test helper: keep the first `keep` retry slots (capped ranges) and
    turn the rest into single-attempt steps."""
    kept = {s.task for s in model.retry_slots()[:keep]}
    chains = []
    for chain in model.chains:
        steps = []
        for step in chain.steps:
            if step.retry_cap > 0:
                if step.task in kept:
                    steps.append(ChainStep(step.cost, step.task, step.p_success, min(step.retry_cap, cap)))
                else:
                    steps.append(ChainStep(step.cost, step.task, step.p_success, 0))
            else:
                steps.append(step)
        chains.append(AgentChain(chain.agent, tuple(steps)))
    return ParametricPlanModel(chains, model.p_succ_threshold, model.plan_hash + f"-trunc{keep}")


def two_slot_model(p1=0.9, p2=0.92, cost1=2.0, cost2=2.0, cap=3, floor=0.95):
    chains = [
        AgentChain(
            "r1",
            (
                ChainStep(1.0),
                ChainStep(cost1, "a", p1, cap),
                ChainStep(cost2, "b", p2, cap),
            ),
        )
    ]
    return ParametricPlanModel(chains, floor, "toy")


class TestEvaluate:
    def test_all_min_infeasible(self, vineyard_model):
        obj = evaluate(vineyard_model, all_min_assignment(vineyard_model))
        assert obj.expected_cost == pytest.approx(37.522893, abs=1e-9)
        assert obj.success_prob == pytest.approx(0.941480149401, abs=1e-9)
        assert not obj.feasible
        assert obj.violation == pytest.approx(0.95 - 0.941480149401, abs=1e-9)

    def test_single_bump_feasible(self, vineyard_model):
        assignment = all_min_assignment(vineyard_model)
        assignment["t3l4"] = 2
        obj = evaluate(vineyard_model, assignment)
        assert obj.success_prob == pytest.approx(0.950894951, abs=1e-9)
        assert obj.feasible

    def test_no_retry_slots_single_outcome(self, vineyard_model):
        # without retry slots the budget space is one vector, the empty genotype
        single = truncate_model(vineyard_model, keep=0, cap=1)
        assert single.retry_slots() == ()
        archive = synthesize(ParametricPlanModel(single.chains, 0.9, single.plan_hash), GaConfig())
        assert archive.evaluated == 1
        assert [(e.genotype, e.retries) for e in archive.entries] == [((), {})]
        assert archive.entries[0].objectives.success_prob == pytest.approx(0.941480149401, abs=1e-9)
        # the 0.95 floor lies above the single-try success
        empty = synthesize(single, GaConfig())
        assert empty.evaluated == 1 and empty.is_empty()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(2, 6),
        st.integers(2, 3),
        st.integers(0, 10_000),
        st.sampled_from([None, 0.55, 0.8]),
        st.data(),
    )
    def test_matches_factored_solve(self, n_tasks, n_agents, seed, degraded, data):
        # the closed form against the explicit-state engine, over random
        # missions (optionally with one worse task) and in-bound budgets
        spec = random_instance(n_tasks, n_agents, seed)
        if degraded is not None:
            task = sorted(spec.pending)[0]
            agent = spec.capable_agents(task)[0]
            spec = spec.with_runtime_state(
                spec.initial_locations, spec.pending, p_overrides={(agent, task): degraded}
            )
        model = build_parametric_model(spec, plan_mission(spec))
        assignment = {s.task: data.draw(st.integers(s.lo, s.hi)) for s in model.retry_slots()}
        obj = evaluate(model, assignment)
        oracle = factored_mission_metrics(instantiate(model, assignment))
        assert obj.success_prob == pytest.approx(oracle.success_prob, rel=1e-12, abs=0)
        assert obj.expected_cost == pytest.approx(oracle.expected_cost, rel=1e-12, abs=0)
        assert obj.feasible == (oracle.success_prob >= model.p_succ_threshold)


class TestGenotypePath:
    """The search scores genotypes through ``_Evaluator``: per-chain memos
    on budget slices, no validation, and the public ``evaluate``'s result."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 6), st.integers(2, 3), st.integers(0, 10_000), st.data())
    def test_equals_evaluate_to_the_bit(self, n_tasks, n_agents, seed, data):
        # random missions with the retry slots of some chains stripped, so
        # that chains without slots (an empty budget slice) are covered;
        # budgets near the low bound repeat slices, so the warm evaluator
        # answers many chains from its memo
        spec = random_instance(n_tasks, n_agents, seed)
        base = build_parametric_model(spec, plan_mission(spec))
        stripped = data.draw(st.sets(st.sampled_from(range(len(base.chains)))))
        chains = [
            AgentChain(c.agent, tuple(replace(s, retry_cap=0) if k in stripped else s for s in c.steps))
            for k, c in enumerate(base.chains)
        ]
        model = ParametricPlanModel(chains, base.p_succ_threshold, base.plan_hash)
        slots = model.retry_slots()
        genes = [st.one_of(st.integers(s.lo, min(s.lo + 1, s.hi)), st.integers(s.lo, s.hi)) for s in slots]
        genotypes = data.draw(st.lists(st.tuples(*genes), min_size=1, max_size=30, unique=True))
        warm = _Evaluator(model)
        for genotype in genotypes:
            expected = evaluate(model, {s.task: g for s, g in zip(slots, genotype)})
            assert _Evaluator(model)(genotype) == expected
            assert warm(genotype) == expected
        assert list(warm.cache) == genotypes

    def test_seeded_vineyard_run_counts_its_chain_walks(self, vineyard_model, monkeypatch):
        # the memo's deterministic companion: 150 evaluations of two chains
        # walk 233 of the 300 chain slices, and validate nothing; a second
        # run walks 233 again, so no memo outlives its synthesis
        calls = {"chain": 0, "validate": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name, attr in (("chain", "closed_form_chain_metrics"), ("validate", "validate_assignment")):
            monkeypatch.setattr(synthesis, attr, counted(name, getattr(synthesis, attr)))
        for run in (1, 2):
            archive = synthesize(vineyard_model, GaConfig(seed=0))
            assert (archive.exhaustive, archive.evaluated, len(vineyard_model.chains)) == (False, 150, 2)
            assert calls == {"chain": 233 * run, "validate": 0}


class TestDominance:
    def feas(self, cost, prob):
        return Objectives(cost, prob, True, 0.0)

    def infeas(self, cost, prob, floor=0.95):
        return Objectives(cost, prob, False, floor - prob)

    def test_plain_dominance(self):
        assert dominates(self.feas(10, 0.99), self.feas(12, 0.98))

    def test_feasibility_first(self):
        assert not dominates(self.infeas(10, 0.94), self.feas(50, 0.96))
        assert dominates(self.feas(50, 0.96), self.infeas(10, 0.94))

    def test_identical_points_incomparable(self):
        a = self.feas(10, 0.99)
        assert not dominates(a, a)

    def test_infeasible_compare_by_violation(self):
        assert dominates(self.infeas(30, 0.94), self.infeas(10, 0.90))


def quadratic_nondominated(entries):
    """Reference filter: each entry checked against every other one."""
    keep = [e for e in entries if not any(dominates(o.objectives, e.objectives) for o in entries if o is not e)]
    return sorted(keep, key=lambda e: (e.objectives.expected_cost, -e.objectives.success_prob, e.genotype))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(
    st.tuples(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.one_of(st.sampled_from([1.0, 2.5, 4.0]), st.floats(0.0, 10.0)),
        st.one_of(st.sampled_from([0.9, 0.95, 1.0]), st.floats(0.9, 1.0)),
    ),
    max_size=16,
    unique_by=lambda t: t[0],
))
def test_sweep_keeps_the_quadratic_filters_entries(rows):
    # feasible entries with distinct genotypes; small sampled pools repeat
    # costs and whole points, so ties at a front point are exercised
    entries = [ArchiveEntry(g, {"a": g[0], "b": g[1]}, Objectives(c, p, True, 0.0)) for g, c, p in rows]
    log = [(e.genotype, e.objectives) for e in entries]
    assert [g for g, _ in _nondominated(log)] == [e.genotype for e in quadratic_nondominated(entries)]


def pairwise_nondominated_sort(objs):
    """Reference sort: every ordered pair compared, each front built in
    ascending index order."""
    n = len(objs)
    dominated_by = [[] for _ in range(n)]
    dom_count = [0] * n
    fronts = [[]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(objs[i], objs[j]):
                dominated_by[i].append(j)
            elif dominates(objs[j], objs[i]):
                dom_count[i] += 1
        if dom_count[i] == 0:
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        nxt = []
        for i in fronts[k]:
            for j in dominated_by[i]:
                dom_count[j] -= 1
                if dom_count[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
        k += 1
    return [f for f in fronts if f]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(
    st.one_of(
        # feasible points from small pools, so costs, probabilities and whole
        # points tie
        st.builds(Objectives, st.sampled_from([1.0, 2.5, 4.0]), st.sampled_from([0.9, 0.95, 1.0]),
                  st.just(True), st.just(0.0)),
        st.builds(Objectives, st.floats(0.0, 10.0), st.floats(0.9, 1.0), st.just(True), st.just(0.0)),
        # infeasible points, compared by violation alone; equal violations tie
        st.builds(Objectives, st.floats(0.0, 10.0), st.floats(0.0, 0.9), st.just(False),
                  st.sampled_from([0.0, 0.05, 0.1])),
    ),
    max_size=40,
))
def test_sort_gives_the_pairwise_sorts_fronts(objs):
    assert _fast_nondominated_sort(objs) == pairwise_nondominated_sort(objs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(
    st.one_of(
        # feasible points from pools small enough for long dominance chains,
        # many fronts and exact duplicates
        st.builds(Objectives, st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]),
                  st.sampled_from([0.9, 0.92, 0.95, 0.97, 1.0]), st.just(True), st.just(0.0)),
        st.builds(Objectives, st.sampled_from([1.0, 2.0]), st.sampled_from([0.3, 0.6]), st.just(False),
                  st.sampled_from([0.0, 0.3, 0.6])),
    ),
    max_size=120,
))
def test_sort_keeps_deb_order_on_large_tied_populations(objs):
    assert _fast_nondominated_sort(objs) == pairwise_nondominated_sort(objs)


class TestExhaustive:
    def test_nine_vector_instance(self, m2_model):
        archive = exhaustive_synthesize(m2_model)
        assert archive.evaluated == 9
        assert len(archive.entries) == 4
        assert [e.genotype for e in archive.entries] == [(2, 2), (2, 3), (3, 2), (3, 3)]
        assert archive.front() == [
            (5.3384, 0.983664),
            (5.351072, 0.98949312),
            (5.37784, 0.9926064),
            (5.3906272, 0.998488512),
        ]

    def test_single_point_space(self):
        model = two_slot_model(cap=1, floor=0.5)
        archive = exhaustive_synthesize(model)
        assert archive.evaluated == 1
        assert len(archive.entries) == 1

    def test_space_limit(self, vineyard_model):
        with pytest.raises(LimitExceeded):
            exhaustive_synthesize(vineyard_model)

    def test_infeasible_space_reports_empty(self):
        model = two_slot_model(floor=1.0)
        archive = exhaustive_synthesize(model)
        assert archive.is_empty()
        assert archive.evaluated == 9


class TestGaOracleEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_m2_equals_oracle(self, m2_model, seed):
        oracle = exhaustive_synthesize(m2_model)
        ga = synthesize(m2_model, GaConfig(population=5, evaluations=30, seed=seed))
        assert [e.genotype for e in ga.entries] == [e.genotype for e in oracle.entries]
        assert ga.front() == oracle.front()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_truncated_field_model_equals_oracle(self, vineyard_model, seed):
        model = truncate_model(vineyard_model, keep=3, cap=2)
        assert model.space_size() == 8
        oracle = exhaustive_synthesize(model)
        ga = synthesize(model, GaConfig(population=4, evaluations=8, seed=seed))
        assert ga.front() == oracle.front()
        assert [e.genotype for e in ga.entries] == [e.genotype for e in oracle.entries]

    @pytest.mark.parametrize("seed", [10, 20])
    def test_mid_size_space_equals_oracle(self, vineyard_model, seed):
        model = truncate_model(vineyard_model, keep=5, cap=4)
        assert model.space_size() == 4 ** 5 == 1024
        oracle = exhaustive_synthesize(model)
        ga = synthesize(model, GaConfig(population=30, evaluations=1024, seed=seed))
        assert ga.front() == oracle.front()


class TestGaRoute:
    """NSGA-II itself: an evaluation budget below the space size keeps the
    search off the exhaustive route, and the exact front checks its output.
    The share of the exact front found varies by seed and is not asserted."""

    @pytest.fixture(scope="class")
    def mid_size(self, vineyard_model):
        model = truncate_model(vineyard_model, keep=5, cap=4)
        return model, exhaustive_synthesize(model).front()

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_sound_against_the_exact_front(self, mid_size, seed):
        model, exact = mid_size
        archive = synthesize(model, GaConfig(population=30, evaluations=200, seed=seed))
        assert archive.exhaustive is False
        for entry in archive.entries:
            assert evaluate(model, entry.retries) == entry.objectives
        for cost, succ in archive.front():
            assert any(c <= cost and s >= succ for c, s in exact)

    def test_stall_exit_stops_below_the_budget(self, vineyard_model):
        # two individuals converge and keep emitting cached genotypes, so the
        # search gives up on the rest of its budget (71 of 78 evaluations)
        model = truncate_model(vineyard_model, keep=4, cap=3)
        cfg = GaConfig(population=2, evaluations=78, seed=0)
        archive = synthesize(model, cfg)
        assert model.space_size() == 81
        assert archive.exhaustive is False
        assert archive.evaluated == 71
        for entry in archive.entries:
            assert evaluate(model, entry.retries) == entry.objectives
        again = synthesize(model, cfg)
        assert again.to_json() == archive.to_json() and again.audit_log == archive.audit_log


class TestGaSearch:
    def test_field_mission_finds_feasible(self, vineyard_model):
        archive = synthesize(vineyard_model, GaConfig(population=30, evaluations=150, seed=42))
        assert not archive.is_empty()
        assert all(e.objectives.feasible for e in archive.entries)
        assert any(e.objectives.success_prob >= 0.95 for e in archive.entries)

    def test_seed_determinism(self, vineyard_model):
        a = synthesize(vineyard_model, GaConfig(population=20, evaluations=100, seed=7))
        b = synthesize(vineyard_model, GaConfig(population=20, evaluations=100, seed=7))
        assert a.to_json() == b.to_json()

    def test_different_seeds_allowed_to_differ(self, vineyard_model):
        a = synthesize(vineyard_model, GaConfig(population=20, evaluations=100, seed=7))
        b = synthesize(vineyard_model, GaConfig(population=20, evaluations=100, seed=8))
        # both are valid archives; no exact equality expected
        assert not a.is_empty() and not b.is_empty()

    def test_archive_soundness_reevaluation(self, vineyard_model):
        archive = synthesize(vineyard_model, GaConfig(population=20, evaluations=80, seed=3))
        for entry in archive.entries:
            again = evaluate(vineyard_model, entry.retries)
            assert again.expected_cost == entry.objectives.expected_cost
            assert again.success_prob == entry.objectives.success_prob

    def test_front_not_dominated_by_any_evaluation(self, m2_model):
        # audit over the full evaluation log (exhaustive here)
        archive = exhaustive_synthesize(m2_model)
        log = [
            evaluate(m2_model, {"t4l2": i, "t5l2": j})
            for i in range(1, 4)
            for j in range(1, 4)
        ]
        for entry in archive.entries:
            assert not any(dominates(obj, entry.objectives) for obj in log)

    def test_ga_front_not_dominated_by_its_own_log(self, vineyard_model):
        archive = synthesize(vineyard_model, GaConfig(population=20, evaluations=100, seed=6))
        assert archive.audit_log and len(archive.audit_log) == archive.evaluated
        for entry in archive.entries:
            for _genotype, obj in archive.audit_log:
                assert not dominates(obj, entry.objectives)

    def test_infeasible_mission_reports_empty(self):
        model = two_slot_model(floor=1.0)
        archive = synthesize(model, GaConfig(population=4, evaluations=16, seed=1))
        assert archive.is_empty()


class TestArchivePersistence:
    def test_round_trip(self, m2_model, tmp_path):
        archive = exhaustive_synthesize(m2_model)
        path = tmp_path / "archive.json"
        save_archive(archive, path)
        doc = json.loads(path.read_text())
        assert [e["retries"] for e in doc["entries"]] == [e.retries for e in archive.entries]
        saved = sorted({(e["expected_cost"], e["success_prob"]) for e in doc["entries"]})
        assert saved == archive.front()

    def test_front_csv(self, m2_model):
        archive = exhaustive_synthesize(m2_model)
        csv_text = archive.front_csv()
        assert csv_text.splitlines()[0] == "expected_cost,success_prob"
        assert len(csv_text.strip().splitlines()) == 5

    def test_extend_archive_keeps_soundness(self, vineyard_model):
        archive = synthesize(vineyard_model, GaConfig(population=10, evaluations=40, seed=1))
        base = all_min_assignment(vineyard_model)
        pinned = dict(base)
        pinned.update({"t1l4": 2, "t2l8b": 2})
        bigger = extend_archive(vineyard_model, archive, [pinned, base])
        assert any(e.retries == pinned for e in bigger.entries)
        # the infeasible all-min vector must not enter
        assert not any(e.retries == base for e in bigger.entries)

    def test_extend_archive_appends_to_its_log(self, vineyard_model):
        archive = synthesize(vineyard_model, GaConfig(population=10, evaluations=40, seed=1))
        slots = [s.task for s in vineyard_model.retry_slots()]
        base = all_min_assignment(vineyard_model)
        pinned = {**base, "t1l4": 2, "t2l8b": 2}
        logged = dict(zip(slots, archive.audit_log[0][0]))
        new = [tuple(a[t] for t in slots) for a in (pinned, base)]
        assert not set(new) & {g for g, _ in archive.audit_log}
        bigger = extend_archive(vineyard_model, archive, [pinned, base, pinned, logged])
        # the old log is a prefix; each new vector is appended once
        assert bigger.audit_log == archive.audit_log + [(g, evaluate(vineyard_model, dict(zip(slots, g)))) for g in new]
        assert bigger.evaluated == len(bigger.audit_log) == archive.evaluated + 2
        # the entries are the nondominated feasible set of the old entries
        # and the new feasible vectors, as when the log was not kept
        candidates = archive.entries + [
            ArchiveEntry(g, dict(zip(slots, g)), o) for g, o in bigger.audit_log[archive.evaluated :] if o.feasible
        ]
        expected = quadratic_nondominated(candidates)
        assert [(e.genotype, e.objectives) for e in bigger.entries] == [(e.genotype, e.objectives) for e in expected]
        assert (bigger.plan_hash, bigger.seed, bigger.config, bigger.exhaustive) == (
            archive.plan_hash, archive.seed, archive.config, archive.exhaustive
        )
