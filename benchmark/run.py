#!/usr/bin/env python3
"""hybridplan benchmark.

    python3 benchmark/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library is imported from ``src/`` next to
this directory.  The process is single-threaded with BLAS pinned to one
thread.  Workloads (see ``workloads.py`` and ``DESIGN.md``): plan-heavy,
synth-heavy, adapt, baseline.

--trace 0 (end-to-end): sets up the workload several times (import in a fresh
interpreter, mission generation, reference data, one warm-up op) and reports
the median as ``setup_s``; then repeats whole passes over the ops and stops
at the pass boundary nearest to ``--seconds``.  A pass takes about 20 s on
the reference machine, so a 20 s run times every op once.  Afterwards the
first ops run once more, untimed, and their exact work counters must equal
the timed runs' (the determinism check).  Latencies are CPU seconds of the
timed call, scaled to the reference speed by the calibration kernel run
around and during it (``calibrate.py``).  Every op's output is checked on its first run.

--trace 1 (per layer): one pass in which every op runs untraced, then with
every layer boundary wrapped by ``spans.Tracer``, then untraced again; prints
per-layer shares of self time, exact work counters, the tracing overhead
(traced against the second untraced run), and checks that the workload's
stated dominant layers hold more than half of the self time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details and spans go
to ``.bench_out/`` in the repository root.  Exit code 1 on a failed check,
2 when the library or the benchmark data cannot be found.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CATALOGUE = os.path.join(HERE, "data", "catalogue.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("plan-heavy", "synth-heavy", "adapt", "baseline")
SETUP_REPS = 3
RECHECK_OPS = 3       # ops run again after the timed passes to compare work counters
HARD_STOP_S = 140.0      # never start a pass that could end past this

IMPORT_PROBE = (
    "import hybridplan.spec, hybridplan.world, hybridplan.planner, hybridplan.chains, "
    "hybridplan.pmc, hybridplan.synthesis, hybridplan.adaptation, hybridplan.baseline, "
    "hybridplan.fixtures, hybridplan.bench, scipy.sparse.linalg"
)

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("op_s_p90", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("front_hv", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]

PER_LAYER = [
    ("world.enabled_actions.calls", "count", "lower"),
    ("world.enabled_actions.self_pct", "%", "lower"),
    ("world.apply_action.calls", "count", "lower"),
    ("world.apply_action.self_pct", "%", "lower"),
    ("world.is_goal.calls", "count", "lower"),
    ("planner.plan_mission.calls", "count", "lower"),
    ("planner.plan_mission.self_pct", "%", "lower"),
    ("planner.heuristic.calls", "count", "lower"),
    ("planner.heuristic.self_pct", "%", "lower"),
    ("planner.expansions", "count", "lower"),
    ("planner.generated", "count", "lower"),
    ("planner.expansions_per_s", "1/s", "higher"),
    ("planner.timed_schedule.self_pct", "%", "lower"),
    ("planner.validate_plan.self_pct", "%", "lower"),
    ("spec.build.calls", "count", "lower"),
    ("spec.build.self_pct", "%", "lower"),
    ("spec.runtime_state.calls", "count", "lower"),
    ("spec.runtime_state.self_pct", "%", "lower"),
    ("chains.build_parametric_model.self_pct", "%", "lower"),
    ("chains.instantiate.calls", "count", "lower"),
    ("chains.instantiate.self_pct", "%", "lower"),
    ("pmc.factored_mission_metrics.calls", "count", "lower"),
    ("pmc.factored_mission_metrics.self_pct", "%", "lower"),
    ("pmc.reach_probability.self_pct", "%", "lower"),
    ("pmc.expected_reward.self_pct", "%", "lower"),
    ("pmc.solve.calls", "count", "lower"),
    ("pmc.solve.self_pct", "%", "lower"),
    ("pmc.solve.unknowns", "count", "lower"),
    ("pmc.mdp_max_reach_prob.self_pct", "%", "lower"),
    ("pmc.mdp_min_bounded_reward.self_pct", "%", "lower"),
    ("synthesis.synthesize.calls", "count", "lower"),
    ("synthesis.synthesize.self_pct", "%", "lower"),
    ("synthesis.evaluate.calls", "count", "lower"),
    ("synthesis.evaluate.self_pct", "%", "lower"),
    ("synthesis.evaluations", "count", "lower"),
    ("synthesis.front_yield", "ratio", "higher"),
    ("synthesis.generations", "count", "lower"),
    ("synthesis.sort.self_pct", "%", "lower"),
    ("synthesis.nondominated.self_pct", "%", "lower"),
    ("synthesis.exhaustive.calls", "count", "lower"),
    ("adaptation.adapt.calls", "count", "lower"),
    ("adaptation.adapt.self_pct", "%", "lower"),
    ("adaptation.level.NA", "count", "higher"),
    ("adaptation.level.A1", "count", "higher"),
    ("adaptation.level.A2", "count", "lower"),
    ("adaptation.level.A3", "count", "lower"),
    ("adaptation.remaining_success.calls", "count", "lower"),
    ("adaptation.remaining_success.self_pct", "%", "lower"),
    ("adaptation.reduce.self_pct", "%", "lower"),
    ("adaptation.reduce_ratio", "ratio", "higher"),
    ("adaptation.simulate.self_pct", "%", "lower"),
    ("adaptation.floor_violations", "count", "lower"),
    ("baseline.build_full_mdp.self_pct", "%", "lower"),
    ("baseline.states", "count", "lower"),
    ("baseline.queries.self_pct", "%", "lower"),
    ("baseline.enumerate_policies.self_pct", "%", "lower"),
    ("baseline.policies", "count", "lower"),
    ("layer.spec.self_pct", "%", "lower"),
    ("layer.world.self_pct", "%", "lower"),
    ("layer.planner.self_pct", "%", "lower"),
    ("layer.chains.self_pct", "%", "lower"),
    ("layer.pmc.self_pct", "%", "lower"),
    ("layer.synthesis.self_pct", "%", "lower"),
    ("layer.adaptation.self_pct", "%", "lower"),
    ("layer.baseline.self_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
    ("trace.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]


def fail_setup(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def quantile(xs: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of a non-empty sample.

    A weighted mean of all order statistics (Beta weights centred on q)
    rather than one or two of them: a run holds a few dozen distinct ops, and
    a single order statistic jumps between ops as their timings reorder.
    """
    from scipy.special import betainc

    ys = sorted(xs)
    n = len(ys)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    edges = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((edges[i + 1] - edges[i]) * y for i, y in enumerate(ys))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_seconds() -> float:
    """CPU seconds of importing every layer in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = children_cpu()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True)
    return children_cpu() - t0


class Run:
    """Bookkeeping of one workload run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.known: list = []      # known gaps of the library, not failed ops
        self.counters: list = [None] * len(workload.ops)
        self.fronts: list = []
        self.samples: list = []       # at the reference speed (calibrate.py)
        self.raw_samples: list = []   # CPU seconds as measured
        self.speeds: list = []        # (op, CPU seconds, scale factor) per timed op run

    def execute(self, i: int, checking: bool, runner=None, record: bool = True) -> float:
        """Run op i once; returns its CPU seconds (0 if it raised).  Samples
        are kept for the metrics only when ``record``; then the machine's
        speed is sampled around and during the op to scale them."""
        op = self.workload.ops[i]
        gc.collect()
        self.attempted += 1
        if record:
            calibrate.start()
        t0 = calibrate.clock()
        try:
            if runner is None:
                samples, result = self.workload.measure(op, checking)
            else:
                samples, result = runner(i, self.workload.measure, op, checking)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.failed += 1
            self.problems.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            return 0.0
        finally:
            spent = calibrate.clock() - t0
            speed = calibrate.stop() if record else 1.0
        errors = []
        counters = op.counters(result)
        if checking:
            errors = op.check(result)
            self.fronts += op.fronts(result)
            self.known += op.known(result)
        if self.counters[i] is None:
            self.counters[i] = counters
        elif counters != self.counters[i]:
            errors.append(f"{op.name}: work counters differ between two runs of the op")
        if errors:
            self.failed += 1
            self.problems += errors
        if record:
            self.samples += [s * speed for s in samples]
            self.raw_samples += samples
            self.speeds.append((op.name, spent, speed))
        return spent

    def totals(self) -> dict:
        """Exact work counters summed over the ops (first run of each)."""
        out: dict = {}
        for c in self.counters:
            if c is None:
                continue
            for key, value in c.items():
                if isinstance(value, bool) or key in ("archive", "archives", "pareto"):
                    continue
                if key == "levels":
                    for level in value:
                        out[f"level.{level}"] = out.get(f"level.{level}", 0) + 1
                elif key == "stage_counts":
                    for stage, n in value.items():
                        out[f"stages.{stage}"] = out.get(f"stages.{stage}", 0) + n
                elif isinstance(value, (int, float)):
                    out[key] = out.get(key, 0) + value
        return dict(sorted(out.items()))


def run_end_to_end(run: Run, seconds: float) -> dict:
    start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for i in range(len(run.workload.ops)):
            run.execute(i, checking=passes == 0)
        passes += 1
        now = time.perf_counter()
        pass_s = now - t_pass
        # stop at the pass boundary nearest to the requested length
        if now + pass_s / 2 - start >= seconds or now + pass_s - start > HARD_STOP_S:
            break
    measured_s = time.perf_counter() - start
    for i in range(min(RECHECK_OPS, len(run.workload.ops))):
        run.execute(i, checking=False, record=False)
    samples = run.samples or [float("nan")]
    p90 = quantile(samples, 0.9)
    return {
        "raw_p50_s": quantile(run.raw_samples or [float("nan")], 0.5),
        "passes": passes,
        "samples": len(run.samples),
        "beyond_p90": sum(1 for x in run.samples if x > p90),
        "measured_s": measured_s,
        "samples_s": run.samples,
        "op_speeds": run.speeds,
        "metrics": {
            "op_s_p50": quantile(samples, 0.5),
            "op_s_p90": p90,
            "ops_per_s": len(run.samples) / sum(samples) if run.samples else 0.0,
            "front_hv": statistics.fmean(run.fronts) if run.fronts else 0.0,
        },
    }


def run_traced(run: Run, name: str) -> dict:
    from spans import LAYERS, Tracer
    from workloads import DOMINANT

    # Each op runs untraced (checked), traced, then untraced again; the
    # overhead compares the last two, which both follow a warm run.
    tracer = Tracer()
    untraced = traced = 0.0
    for i in range(len(run.workload.ops)):
        run.execute(i, checking=True, record=False)
        tracer.install()
        try:
            traced += run.execute(i, checking=False, runner=tracer.op, record=False)
        finally:
            tracer.uninstall()
        untraced += run.execute(i, checking=False, record=False)

    rows = tracer.by_name()
    total = sum(r["self_s"] for r in rows.values()) or float("nan")

    def row(name):
        return rows.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    def pct(name):
        return 100.0 * row(name)["self_s"] / total

    c = tracer.counters
    m: dict = {}
    for metric, _, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            m[metric] = row(base)["calls"]
        elif kind == "self_pct" and not base.startswith("layer."):
            m[metric] = pct(base)
    expansions = tracer.calls_under[("world.is_goal", "planner.plan_mission")]
    plan_s = row("planner.plan_mission")["total_s"]
    evaluations = c["synthesis.evaluations"]
    m.update({
        "planner.expansions": expansions,
        "planner.generated": tracer.calls_under[("world.apply_action", "planner.plan_mission")],
        "planner.expansions_per_s": expansions / plan_s if plan_s else 0.0,
        "pmc.solve.unknowns": int(c["pmc.solve.unknowns"]),
        "synthesis.evaluations": int(evaluations),
        "synthesis.front_yield": c["synthesis.archive_entries"] / evaluations if evaluations else 0.0,
        "synthesis.generations": row("synthesis.evaluate_batch")["calls"] - int(c["synthesis.ga_runs"]),
        "adaptation.reduce_ratio": (c["adaptation.reduce.kept"] / c["adaptation.reduce.offered"]
                                    if c["adaptation.reduce.offered"] else 0.0),
        "baseline.states": int(c["baseline.states"]),
        "baseline.policies": int(c["baseline.policies"]),
        "trace.self_s": total,
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced if untraced else 0.0,
        "trace.spans": tracer.next_id,
        "adaptation.floor_violations": len(run.known),
    })
    for level in ("NA", "A1", "A2", "A3"):
        m[f"adaptation.level.{level}"] = int(c[f"adaptation.level.{level}"])
    shares = {layer: 0.0 for layer in LAYERS}
    for span_name, r in rows.items():
        layer = span_name.split(".", 1)[0]
        if layer in shares:
            shares[layer] += 100.0 * r["self_s"] / total
    for layer, share in shares.items():
        m[f"layer.{layer}.self_pct"] = share
    m["trace.unattributed_pct"] = pct("op")

    dominant = DOMINANT.get(name)
    share_check = None
    if dominant:
        held = sum(shares[layer] for layer in dominant)
        share_check = {"layers": list(dominant), "self_pct": held, "pass": held > 50.0}
        if not share_check["pass"]:
            run.failed += 1
            run.problems.append(f"layer-share check: {'+'.join(dominant)} hold {held:.1f}% <= 50% of self time")

    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans-{name}.txt")
    tracer.save(span_path)
    return {
        "metrics": m,
        "untraced_cpu_s": untraced,
        "traced_cpu_s": traced,
        "share_check": share_check,
        "spans_file": os.path.relpath(span_path, ROOT),
        "spans_dropped": tracer.dropped,
        "by_name": rows,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isdir(os.path.join(SRC, "hybridplan")):
        return fail_setup(f"library sources not found at {SRC}")
    if not os.path.isfile(CATALOGUE):
        return fail_setup(f"benchmark data not found at {CATALOGUE}")
    sys.path.insert(0, SRC)
    try:
        import hybridplan
        import workloads
    except ImportError as exc:
        return fail_setup(f"cannot import the library: {exc}")
    if not os.path.abspath(hybridplan.__file__).startswith(SRC + os.sep):
        return fail_setup(f"imported hybridplan from {hybridplan.__file__}, not from {SRC}")
    import scipy.sparse.linalg  # noqa: F401  (lazy import inside pmc; finish it before timing)

    with open(CATALOGUE) as fh:
        catalogue = json.load(fh)

    setup = []
    for _ in range(SETUP_REPS):
        calibrate.start(during=False)          # no timer signals while a child starts
        imported = import_seconds() * calibrate.stop()
        calibrate.start()
        t1 = calibrate.clock()
        wl = workloads.FACTORIES[name](seed, catalogue)
        if wl.decisions is not None:
            wl.decisions.install()
        wl.ops[0].run()                        # warm-up: the workload's fixture op
        if wl.decisions is not None:
            wl.decisions.uninstall()
        spent = calibrate.clock() - t1
        setup.append(imported + spent * calibrate.stop())
    if wl.decisions is not None:
        wl.decisions.install()

    run = Run(wl)
    if trace:
        detail = run_traced(run, name)
    else:
        detail = run_end_to_end(run, seconds)
        detail["metrics"]["setup_s"] = statistics.median(setup)
        detail["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl.decisions is not None:
        wl.decisions.uninstall()

    spec_list = PER_LAYER if trace else END_TO_END
    metrics = {key: {"value": detail["metrics"][key], "unit": unit} for key, unit, _ in spec_list}
    totals = run.totals()
    error_rate = run.failed / run.attempted if run.attempted else 1.0

    print(f"workload {name}  seed {seed}  trace {int(trace)}  ops {len(wl.ops)}  "
          f"attempted {run.attempted}  failed {run.failed}  error_rate {error_rate:.4f} ratio")
    for problem in run.problems[:50]:
        print(f"  FAIL {problem}")
    if wl.decisions is not None:
        print(f"  floor_violations {len(run.known)} count (decisions that left the deployed entry below the "
              f"success floor after a C1/C3/C4 change: a known gap of the adaptation algorithm, not a failed op)")
        for note in run.known[:20]:
            print(f"  KNOWN {note}")
    if not trace:
        print(f"  passes {detail['passes']}  samples {detail['samples']}  "
              f"beyond p90 {detail['beyond_p90']}  measured {detail['measured_s']:.1f} s  "
              f"op p50 as measured {detail['raw_p50_s']:.6g} CPU s")
    else:
        print(f"  untraced {detail['untraced_cpu_s']:.3f} s  traced {detail['traced_cpu_s']:.3f} s  "
              f"spans {detail['metrics']['trace.spans']} (dropped {detail['spans_dropped']})  "
              f"written to {detail['spans_file']}")
        if detail["share_check"]:
            sc = detail["share_check"]
            print(f"  layer-share check: {'+'.join(sc['layers'])} = {sc['self_pct']:.1f}% of self time "
                  f"-> {'PASS' if sc['pass'] else 'FAIL'}")
    for key, unit, _ in spec_list:
        value = detail["metrics"][key]
        print(f"  {key:42s} {value:.6g} {unit}" if isinstance(value, float) else f"  {key:42s} {value} {unit}")
    print(f"  counters {json.dumps(totals, sort_keys=True)}")
    print(f"  counters digest {digest(run.counters)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "trace": int(trace), "setup_samples_s": setup,
                   "problems": run.problems, "floor_violations": run.known, "counters": run.counters,
                   "totals": totals, "detail": detail}, fh, indent=1, sort_keys=True, default=str)

    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory stays per workload."""
    worst = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hybridplan benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
