"""Add the measured op time ``op_s`` to the catalogue's plan_heavy and
synth_heavy missions.

    python3 benchmark/time_catalogue.py --catalogue benchmark/data/catalogue.json

Run it from the repository root after ``make_catalogue.py``; it rewrites the
file in place and takes about seven minutes, single-threaded.

``plan-heavy`` and ``synth-heavy`` stratify their draws by ``op_s``: the CPU
seconds of the workload's op on the mission (parse, plan, validate, chains,
synthesis with the workload's GA budget and the mission's own GA seed),
scaled to the reference speed as the benchmark scales its timings
(``calibrate.py``), the median of ``REPEATS`` runs.  The work measures used
before sorted the pools too loosely to keep the quantiles steady across
seeds: the planner's time alone (``plan_cpu_s``) leaves out synthesis, about
half of a median plan-heavy mission, and chain steps say little about how
long the GA's evaluations take.  Like ``plan_cpu_s``, ``op_s`` is a
measurement, so a re-run changes which missions the workloads draw; the
checked-in values stay fixed so that runs of later code draw the same
missions.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from hybridplan.synthesis import GaConfig  # noqa: E402

REPEATS = 3
POOLS = {"plan_heavy": workloads.PLAN_HEAVY_GA, "synth_heavy": workloads.SYNTH_HEAVY_GA}


def op_seconds(op) -> float:
    gc.collect()
    calibrate.start()
    t0 = calibrate.clock()
    op.run()
    spent = calibrate.clock() - t0
    return spent * calibrate.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--catalogue", required=True)
    args = ap.parse_args(argv)
    import scipy.sparse.linalg  # noqa: F401  (lazy import inside pmc; finish it before timing)

    with open(args.catalogue) as fh:
        catalogue = json.load(fh)
    entries, ops = [], []
    for pool, ga in POOLS.items():
        for e in catalogue[pool]:
            entries.append(e)
            ops.append(workloads.catalogue_mission(e, GaConfig(**ga, seed=e["seed"])))
    ops[0].run()                                    # warm-up
    times: list = [[] for _ in entries]
    for _ in range(REPEATS):
        for i, op in enumerate(ops):
            times[i].append(op_seconds(op))
    for entry, ts in zip(entries, times):
        entry["op_s"] = round(statistics.median(ts), 4)
        print(entry, flush=True)

    with open(args.catalogue, "w") as fh:
        json.dump(catalogue, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
