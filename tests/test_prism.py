from pathlib import Path

import pytest

from hybridplan.chains import all_min_assignment
from hybridplan.prism import export_model_source, export_properties
from hybridplan.chains import ParametricPlanModel

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
