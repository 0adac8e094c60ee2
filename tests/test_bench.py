import math
import statistics

import pytest

from hybridplan.bench import (
    geometric_median,
    geometric_sd,
    random_instance,
    run_cell,
    run_sweep,
    sweep_to_csv,
)
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
        plan = plan_mission(spec, PlannerConfig(strategy="gbfs"))
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
        cell = run_cell(5, 2, seeds=[0, 1], ga=GaConfig(population=5, evaluations=20, seed=0))
        summary = cell.summary()
        assert summary["runs"] == 2
        assert summary["s2_plan_gmedian_s"] >= 0.0
        rows = run_sweep(task_counts=(5,), agent_counts=(2,), seeds=(0,),
                         ga=GaConfig(population=5, evaluations=20, seed=0))
        text = sweep_to_csv(rows)
        assert text.splitlines()[0].startswith("tasks,agents,runs")
