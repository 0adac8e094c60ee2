import gc
import itertools
import math
import statistics

import pytest

import hybridplan.bench as bench
from hybridplan.bench import (
    geometric_median,
    geometric_sd,
    random_instance,
    run_sweep,
    sweep_to_csv,
)
from hybridplan.errors import InternalError
from hybridplan.planner import PlannerConfig, plan_mission, validate_plan
from hybridplan.spec import validate
from hybridplan.synthesis import GaConfig


class TestRandomInstance:
    @pytest.mark.parametrize("seed", range(4))
    def test_instances_are_wellformed(self, seed):
        spec = random_instance(n_tasks=8, n_agents=4, seed=seed)
        assert not any(v.severity == "error" for v in validate(spec))
        assert len(spec.tasks) == 8
        assert len(spec.agents) == 4

    def test_seeded_generation_is_stable(self):
        a = random_instance(10, 2, seed=5)
        b = random_instance(10, 2, seed=5)
        from hybridplan.spec import serialize

        assert serialize(a) == serialize(b)

    def test_instances_are_solvable(self):
        spec = random_instance(6, 2, seed=9)
        plan = plan_mission(spec, PlannerConfig())
        assert validate_plan(spec, plan) == []


class TestStats:
    def test_geometric_median_is_median(self):
        assert geometric_median([3.0, 1.0, 2.0]) == 2.0

    def test_geometric_sd_of_constant(self):
        assert geometric_sd([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_geometric_sd_spread(self):
        assert geometric_sd([1.0, math.e**2]) == pytest.approx(math.e, rel=1e-9)


class TestSweep:
    def test_cell_and_csv(self):
        (summary,) = run_sweep(task_counts=(5,), agent_counts=(2,), seeds=(0, 1),
                               ga=GaConfig(population=5, evaluations=20, seed=0))
        assert summary["runs"] == 2
        assert summary["s2_plan_gmedian_s"] >= 0.0
        text = sweep_to_csv([summary])
        assert text.splitlines()[0].startswith("tasks,agents,runs")

    def test_csv_of_no_rows_is_empty(self):
        assert sweep_to_csv([]) == ""

    def test_each_seed_keeps_its_fastest_pass(self, monkeypatch):
        times = itertools.cycle([0.3, 0.1, 0.2])
        monkeypatch.setattr(bench, "_run_pipeline", lambda t, a, s, cfg, ga: ({"s2_plan": next(times)}, 5.0, 7, 3))
        (row,) = run_sweep(task_counts=(4,), agent_counts=(2,), seeds=(0,))
        assert bench.SWEEP_PASSES == 3
        assert row["s2_plan_gmedian_s"] == 0.1
        assert row["s2_plan_expansions"] == 7

    def test_passes_must_do_the_same_work(self, monkeypatch):
        expansions = itertools.count()
        monkeypatch.setattr(
            bench, "_run_pipeline", lambda t, a, s, cfg, ga: ({"s2_plan": 0.1}, 5.0, next(expansions), 3)
        )
        with pytest.raises(InternalError, match="differ between passes"):
            run_sweep(task_counts=(4,), agent_counts=(2,), seeds=(0,))

    def test_stage_records_both_clocks_with_the_collector_paused(self, monkeypatch):
        wall, cpu = itertools.count(step=2.0), itertools.count(step=0.5)
        monkeypatch.setattr(bench.time, "monotonic", lambda: next(wall))
        monkeypatch.setattr(bench.time, "process_time", lambda: next(cpu))
        collecting = gc.isenabled()
        try:
            for caller_collects in (True, False):
                (gc.enable if caller_collects else gc.disable)()
                timings = {}
                assert bench.stage(timings, "s2_plan", lambda x: (x, gc.isenabled()), 7) == (7, False)
                assert timings == {"s2_plan": (2.0, 0.5)}
                assert gc.isenabled() is caller_collects
        finally:
            (gc.enable if collecting else gc.disable)()

    @pytest.mark.parametrize(
        ("kwargs", "name"),
        [({"seeds": ()}, "seeds"), ({"agent_counts": ()}, "agent_counts"), ({"agent_counts": (2, 0)}, "agent_counts")],
    )
    def test_empty_or_agentless_sweep_is_rejected(self, kwargs, name, monkeypatch):
        monkeypatch.setattr(bench, "_run_pipeline", lambda *args: pytest.fail("a rejected sweep ran"))
        with pytest.raises(ValueError, match=name):
            run_sweep(**{"task_counts": (4,), "agent_counts": (2,), "seeds": (0,), **kwargs})
