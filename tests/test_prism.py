from pathlib import Path

import pytest

from hybridplan.chains import ParametricPlanModel, all_min_assignment, build_parametric_model
from hybridplan.planner import plan_mission
from hybridplan.prism import export_model_source, export_properties
from hybridplan.spec import build_problem_spec

GOLDEN = Path(__file__).parent / "golden"


class TestModelExport:
    def test_parametric_bounds(self, vineyard_model):
        text = export_model_source(vineyard_model)
        assert "evolve const int xmax_w1_t1l4 [1..5];" in text
        assert "evolve const int xmax_r1_t2l8b [1..10];" in text
        assert "x_w1_t1l4 : [0..5] init 0;" in text

    def test_one_module_per_chain(self, vineyard_model):
        text = export_model_source(vineyard_model)
        assert text.count("module ") == len(vineyard_model.chains)
        assert text.count("endmodule") == len(vineyard_model.chains)

    def test_fixed_assignment_renders_constants(self, vineyard_model):
        assignment = all_min_assignment(vineyard_model)
        assignment["t3l4"] = 2
        text = export_model_source(vineyard_model, assignment)
        assert "const int xmax_w1_t3l4 = 2;" in text
        assert "evolve" not in text

    def test_labels_and_rewards(self, vineyard_model):
        text = export_model_source(vineyard_model)
        assert 'label "success" = r1_final & w1_final;' in text
        assert 'rewards "cost"' in text
        # exhaust transitions (attempt counter at its bound) carry no reward
        assert "= xmax_" not in text.split('rewards "cost"')[1]

    def test_zero_agent_model_rejected(self):
        empty = ParametricPlanModel([], 0.9, "x")
        with pytest.raises(ValueError, match="degenerate"):
            export_model_source(empty)
        with pytest.raises(ValueError, match="degenerate"):
            export_properties(empty)

    def test_single_try_task(self):
        # retries 0: one attempt, no budget constant and no attempt counter
        doc = {
            "locations": [{"id": "l0"}, {"id": "l1"}],
            "paths": [{"start": "l0", "end": "l1", "distance": 1}],
            "tasks": [{"id": "pick", "instances": [{"id": "t1", "location": "l1"}]}],
            "agents": [
                {
                    "id": "w1",
                    "type": "worker",
                    "start": "l0",
                    "tasks": [{"id": "pick", "cost": 2, "p_success": 0.9, "retries": 0}],
                }
            ],
            "constraints": {"mission_probability_of_success": 0.5, "min_assignment_probability": 0.5},
        }
        spec = build_problem_spec(doc)
        text = export_model_source(build_parametric_model(spec, plan_mission(spec)))
        assert "  [] c_w1 = 1 -> p_w1_t1 : (c_w1' = 2) + 1 - p_w1_t1 : (c_w1' = 3);\n" in text
        assert "  [] c_w1 = 1 : 2.0;\n" in text.split('rewards "cost"')[1]
        assert "xmax_" not in text

    def test_byte_stable_golden(self, m2_model):
        assert export_model_source(m2_model) == (GOLDEN / "m2_model.prism").read_text()
        assert export_properties(m2_model) == (GOLDEN / "m2_model.props").read_text()

    def test_repeat_export_identical(self, vineyard_model):
        assert export_model_source(vineyard_model) == export_model_source(vineyard_model)


class TestProperties:
    def test_threshold_from_mission(self, vineyard_model):
        text = export_properties(vineyard_model)
        assert "P>=0.95 [ F \"success\" ]" in text

    def test_objectives_present(self, vineyard_model):
        text = export_properties(vineyard_model)
        assert 'min R{"cost"}=? [ F "done" ]' in text
        assert 'max P=? [ F "success" ]' in text
