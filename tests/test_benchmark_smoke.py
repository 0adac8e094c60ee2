"""The benchmark's workloads build and run against the library.

``benchmark/workloads.py`` calls the library by name (``retry_slots()``,
``bounds()``, ``select_new_plan``, ``run_scenario`` ...), so an API change
that breaks it would otherwise surface only in a benchmark run.  Every
workload is built at seed 0 from the checked-in catalogue, and its first
three ops run and pass their own checks.  This reads ``benchmark/`` and
changes nothing there.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def load_workloads():
    # workloads.py imports its sibling ``calibrate`` as a top-level module
    sys.path.insert(0, str(BENCHMARK))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARK))
    return workloads


def test_first_ops_of_every_workload_pass_their_checks():
    workloads = load_workloads()
    catalogue = json.loads((BENCHMARK / "data" / "catalogue.json").read_text())
    problems = []
    for name, factory in workloads.FACTORIES.items():
        wl = factory(0, catalogue)
        if wl.decisions is not None:
            wl.decisions.install()
        try:
            for op in wl.ops[:3]:
                _, result = wl.measure(op, checking=True)
                problems += op.check(result)
        finally:
            if wl.decisions is not None:
                wl.decisions.uninstall()
    assert problems == []
