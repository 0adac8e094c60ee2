"""Plan identity against recorded golden plans.

``golden/plan_hashes.json`` holds, for every case below, the plan's
``hash_key()`` and travel cost (or the fact that the search ran out of its
expansion budget).  Any change to the planner's expansion order, tie-breaking
or successor order shows up here as a changed hash, so downstream artifacts
(chains, archives, fronts) stay byte-identical as long as this test passes.

Regenerate the file only for an intended plan change, and state the reason
next to the change:  ``PYTHONPATH=src python tests/test_golden_plans.py --write``.
"""

import json
import sys
from pathlib import Path

import pytest

from hybridplan.bench import random_instance
from hybridplan.errors import PlanTimeout
from hybridplan.fixtures import FIXTURES, load_fixture
from hybridplan.planner import PlannerConfig, plan_mission

GOLDEN = Path(__file__).parent / "golden" / "plan_hashes.json"

CONFIGS = {
    "astar-blind": ("astar", "blind"),
    "astar-maxmin": ("astar", "maxmin"),
    "astar-predecessor": ("astar", "predecessor"),
    "astar-combined": ("astar", "combined"),
    "gbfs-combined": ("gbfs", "combined"),
}
# random missions keep a small expansion budget so the whole file replays in
# seconds; running out of it is recorded and must recur at the same point
RANDOM_CAP = 3_000
RANDOM_MISSIONS = [(6 + (i // 5) % 5, 2 + i % 5, 100 + i) for i in range(40)]   # (tasks, agents, seed)


def runtime_spec():
    """Vineyard re-rooted mid-mission: two shared start locations (the depot
    quirk) and C4 overrides in both directions."""
    return load_fixture("vineyard").with_runtime_state(
        initial_locations={"r1": "l5", "r2": "l5", "w1": "l4", "w2": "l4"},
        pending=["t1l6a", "t1l6b", "t1l7", "t2l5", "t2l8a", "t2l8b", "t3l9"],
        p_overrides={("w1", "t1l7"): 0.2, ("r2", "t1l6b"): 0.9},
    )


def cases():
    """(case id, spec factory, expansion cap or None)."""
    out = [(name, (lambda n=name: load_fixture(n)), None) for name in FIXTURES]
    out.append(("vineyard-runtime", runtime_spec, None))
    for tasks, agents, seed in RANDOM_MISSIONS:
        out.append((f"rand{tasks}x{agents}s{seed}", (lambda t=tasks, a=agents, s=seed: random_instance(t, a, s)),
                    RANDOM_CAP))
    return out


def outcome(spec, strategy, heuristic, cap):
    cfg = PlannerConfig(strategy=strategy, heuristic=heuristic,
                        **({} if cap is None else {"max_expansions": cap}))
    try:
        plan = plan_mission(spec, cfg)
    except PlanTimeout:
        return {"timeout": True}
    return {"hash": plan.hash_key(), "travel_cost": plan.travel_cost}


def record() -> dict:
    doc = {}
    for case_id, make, cap in cases():
        spec = make()
        for cfg_id, (strategy, heuristic) in CONFIGS.items():
            doc[f"{case_id}/{cfg_id}"] = outcome(spec, strategy, heuristic, cap)
    return doc


def test_plans_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert record() == golden


def test_golden_covers_solved_plans():
    # the file must pin real plans, not only budget exhaustion
    golden = json.loads(GOLDEN.read_text())
    solved = [k for k, v in golden.items() if "hash" in v]
    assert len(golden) == 5 * (len(FIXTURES) + 1 + len(RANDOM_MISSIONS))
    assert 3 * len(solved) >= 2 * len(golden)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_plans.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
