import json

import pytest

from hybridplan.chains import build_parametric_model
from hybridplan.fixtures import fixture_text, load_fixture
from hybridplan.planner import PlannerConfig, build_plan, plan_mission
from hybridplan.world import action_from_json


@pytest.fixture(scope="session")
def vineyard():
    return load_fixture("vineyard")


@pytest.fixture(scope="session")
def vineyard_plan(vineyard):
    return plan_mission(vineyard, PlannerConfig(timeout=60))


@pytest.fixture(scope="session")
def vineyard_model(vineyard, vineyard_plan):
    return build_parametric_model(vineyard, vineyard_plan)


@pytest.fixture(scope="session")
def scenario_plan(vineyard):
    """Vineyard's plan as the bundled adaptation scenario stores it: the
    trace its change times and the mid-mission tests refer to, whatever
    order the search breaks its ties in."""
    stored = json.loads(fixture_text("scenario_adaptation"))["plan"]
    return build_plan(vineyard, [action_from_json(a) for a in stored])


@pytest.fixture(scope="session")
def scenario_model(vineyard, scenario_plan):
    return build_parametric_model(vineyard, scenario_plan)


@pytest.fixture(scope="session")
def m1():
    return load_fixture("m1")


@pytest.fixture(scope="session")
def m1_mini():
    return load_fixture("m1_mini")


@pytest.fixture(scope="session")
def m2():
    return load_fixture("m2")


@pytest.fixture(scope="session")
def m2_model(m2):
    plan = plan_mission(m2, PlannerConfig())
    return build_parametric_model(m2, plan)
