"""MDP identity against recorded golden baseline MDPs.

``golden/mdp_hashes.json`` holds, for every case below, the state count of
``build_full_mdp`` and a sha256 of ``(n_states, choices, sorted labels)``:
choice names, transition rows and rewards in state and choice order.  Any
change to the builder's successor order, state numbering or rewards shows up
here as a changed hash.  Each choice is hashed as ``(label, row, [reward] *
len(row))``, one reward per transition entry, the form the file recorded
before a choice carried one reward.

Regenerate the file only for an intended MDP change, and state the reason
next to the change:  ``PYTHONPATH=src python tests/test_golden_mdps.py --write``.
"""

import hashlib
import json
import sys
from pathlib import Path

from hybridplan.baseline import build_full_mdp
from hybridplan.bench import random_instance
from hybridplan.fixtures import load_fixture

GOLDEN = Path(__file__).parent / "golden" / "mdp_hashes.json"

# (agents, seed) of 2-task random missions whose MDPs stay under a few
# thousand states; every random mission deploys its agents from one shared
# location, so the two-agent cases exercise the depot quirk
RANDOM_MISSIONS = [(1, s) for s in range(10)] + [(2, s) for s in (0, 1, 2, 3, 4, 8, 14, 22, 23, 25)]


def runtime_spec():
    """m1 re-rooted mid-mission: a shared start, a pending subset and C4
    overrides in both directions."""
    return load_fixture("m1").with_runtime_state(
        initial_locations={"r1": "l04", "w1": "l04"},
        pending=["t1l07", "t3l07"],
        p_overrides={("w1", "t1l07"): 0.2, ("r1", "t3l07"): 0.9},
    )


def cases():
    """(case id, spec factory)."""
    out = [(name, (lambda n=name: load_fixture(n))) for name in ("m1", "m1_mini")]
    out.append(("m1-runtime", runtime_spec))
    for agents, seed in RANDOM_MISSIONS:
        out.append((f"rand2x{agents}s{seed}", (lambda a=agents, s=seed: random_instance(2, a, s))))
    return out


def digest(mdp) -> str:
    labels = sorted((name, sorted(states)) for name, states in mdp.labels.items())
    choices = [[(label, row, [reward] * len(row)) for label, row, reward in acts] for acts in mdp.choices]
    body = json.dumps([mdp.n_states, choices, labels])
    return hashlib.sha256(body.encode()).hexdigest()


def record() -> dict:
    doc = {}
    for case_id, make in cases():
        mdp = build_full_mdp(make())
        assert mdp.initial == 0
        doc[case_id] = {"states": mdp.n_states, "sha256": digest(mdp)}
    return doc


def test_mdps_match_golden():
    assert record() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_mdps.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
