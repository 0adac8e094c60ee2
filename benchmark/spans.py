"""In-memory span tracing around the hybridplan layer boundaries.

The tracer replaces module and class attributes that callers look up at call
time (``hybridplan.planner.enabled_actions``, ``hybridplan.pmc._solve_linear``,
``hybridplan.planner._Heuristic.__call__``, ...) with timing wrappers, so each
span is attributed to the call site that made it.  ``uninstall`` puts every
original back.

Each span records its name, start, end, parent span and op id.  Spans stay in
memory (up to ``SPAN_CAP`` of them; later ones only feed the aggregates) and are
written out by ``save``.  Self time, the span's duration minus the time its
child spans cover, is accumulated exactly for every span, capped or not.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

import hybridplan.adaptation as hp_adaptation
import hybridplan.baseline as hp_baseline
import hybridplan.chains as hp_chains
import hybridplan.planner as hp_planner
import hybridplan.pmc as hp_pmc
import hybridplan.spec as hp_spec
import hybridplan.synthesis as hp_synthesis

SPAN_CAP = 300_000   # spans kept for the span file; aggregates count every span
LAYERS = ("spec", "world", "planner", "chains", "pmc", "synthesis", "adaptation", "baseline")
ROOT = "op"

# (owner, attribute, span name): the names callers look up, grouped by the
# layer that implements them.  Call sites are kept apart in the span file
# (``name@site``) and summed per name in the metrics.
BOUNDARIES = [
    (hp_spec, "parse_problem_spec", "spec.build"),
    (hp_spec.ProblemSpec, "with_runtime_state", "spec.runtime_state"),
    (hp_planner, "enabled_actions", "world.enabled_actions"),
    (hp_baseline, "enabled_actions", "world.enabled_actions"),
    (hp_planner, "apply_action", "world.apply_action"),
    (hp_adaptation, "apply_action", "world.apply_action"),
    (hp_adaptation, "is_enabled", "world.is_enabled"),
    (hp_planner, "is_goal", "world.is_goal"),
    (hp_planner, "plan_mission", "planner.plan_mission"),
    (hp_adaptation, "plan_mission", "planner.plan_mission"),
    (hp_planner._Heuristic, "__call__", "planner.heuristic"),
    (hp_planner, "timed_schedule", "planner.timed_schedule"),
    (hp_planner, "validate_plan", "planner.validate_plan"),
    (hp_chains, "build_parametric_model", "chains.build_parametric_model"),
    (hp_adaptation, "build_parametric_model", "chains.build_parametric_model"),
    (hp_synthesis, "instantiate", "chains.instantiate"),
    (hp_adaptation, "instantiate", "chains.instantiate"),
    (hp_synthesis, "factored_mission_metrics", "pmc.factored_mission_metrics"),
    (hp_adaptation, "factored_mission_metrics", "pmc.factored_mission_metrics"),
    (hp_pmc, "reach_probability", "pmc.reach_probability"),
    (hp_baseline, "reach_probability", "pmc.reach_probability"),
    (hp_pmc, "expected_reward", "pmc.expected_reward"),
    (hp_baseline, "expected_reward", "pmc.expected_reward"),
    (hp_pmc, "_solve_linear", "pmc.solve"),
    (hp_pmc, "mdp_max_reach_prob", "pmc.mdp_max_reach_prob"),
    (hp_pmc, "mdp_min_bounded_reward", "pmc.mdp_min_bounded_reward"),
    (hp_pmc, "induced_chain", "pmc.induced_chain"),
    (hp_baseline, "induced_chain", "pmc.induced_chain"),
    (hp_synthesis, "synthesize", "synthesis.synthesize"),
    (hp_adaptation, "synthesize", "synthesis.synthesize"),
    (hp_synthesis, "evaluate", "synthesis.evaluate"),
    (hp_synthesis._Evaluator, "evaluate_batch", "synthesis.evaluate_batch"),
    (hp_synthesis, "_fast_nondominated_sort", "synthesis.sort"),
    (hp_synthesis, "_nondominated", "synthesis.nondominated"),
    (hp_synthesis, "exhaustive_synthesize", "synthesis.exhaustive"),
    (hp_adaptation, "run_scenario", "adaptation.run_scenario"),
    (hp_adaptation, "simulate", "adaptation.simulate"),
    (hp_adaptation, "adapt", "adaptation.adapt"),
    (hp_adaptation, "remaining_success", "adaptation.remaining_success"),
    (hp_adaptation, "reduce_ps_tf", "adaptation.reduce"),
    (hp_adaptation, "reduce_ps_psucc", "adaptation.reduce"),
    (hp_adaptation, "reduce_ps_passign", "adaptation.reduce"),
    (hp_adaptation, "reduce_ps_ptask", "adaptation.reduce"),
    (hp_baseline, "build_full_mdp", "baseline.build_full_mdp"),
    (hp_baseline, "baseline_queries", "baseline.queries"),
    (hp_baseline, "enumerate_policies", "baseline.enumerate_policies"),
]


class Tracer:
    """Span recorder; ``install`` wraps every boundary, ``uninstall`` undoes it."""

    def __init__(self):
        self.sites: list[str] = [ROOT]          # site id -> "name@site"
        self.site_name: list[str] = [ROOT]      # site id -> span name
        self.ids: array = array("q")
        self.parents: array = array("q")
        self.site_col: array = array("l")
        self.op_col: array = array("l")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.dropped = 0
        self.next_id = 0
        self.stack: list[list] = []             # [span id, site id, child seconds]
        self.op_id = -1
        self.calls: dict[int, int] = defaultdict(int)
        self.self_s: dict[int, float] = defaultdict(float)
        self.total_s: dict[int, float] = defaultdict(float)
        self.calls_under: dict[tuple[str, str], int] = defaultdict(int)   # (name, parent name)
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple] = []
        hooks = self._result_hooks()
        self._boundaries = [
            (owner, attr, self._site(name, owner.__name__.rsplit(".", 1)[-1]), hooks.get(name))
            for owner, attr, name in BOUNDARIES
        ]

    # -- spans ---------------------------------------------------------

    def _site(self, name: str, site: str) -> int:
        self.sites.append(f"{name}@{site}")
        self.site_name.append(name)
        return len(self.sites) - 1

    def _open(self, sid: int) -> list:
        frame = [self.next_id, sid, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float):
        stack = self.stack
        stack.pop()
        span_id, sid, child = frame
        dur = t1 - t0
        parent_id = -1
        if stack:
            parent = stack[-1]
            parent[2] += dur
            parent_id = parent[0]
            self.calls_under[(self.site_name[sid], self.site_name[parent[1]])] += 1
        self.calls[sid] += 1
        self.self_s[sid] += dur - child
        self.total_s[sid] += dur
        if len(self.starts) < SPAN_CAP:
            self.ids.append(span_id)
            self.parents.append(parent_id)
            self.site_col.append(sid)
            self.op_col.append(self.op_id)
            self.starts.append(t0)
            self.ends.append(t1)
        else:
            self.dropped += 1

    def op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span."""
        self.op_id = op_id
        frame = self._open(0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(frame, t0, time.perf_counter())

    # -- wrapping ------------------------------------------------------

    def _wrap(self, owner, attr: str, sid: int, on_result):
        original = owner.__dict__[attr]
        clock = time.perf_counter
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            frame = opened(sid)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                closed(frame, t0, clock())
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self):
        for owner, attr, sid, on_result in self._boundaries:
            self._wrap(owner, attr, sid, on_result)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- work counters taken from return values --------------------------

    def _result_hooks(self) -> dict:
        c = self.counters

        def solve(args, result):
            c["pmc.solve.unknowns"] += len(args[0])

        def synthesize(args, archive):
            c["synthesis.evaluations"] += archive.evaluated
            c["synthesis.archive_entries"] += len(archive.entries)
            if not archive.exhaustive:
                c["synthesis.ga_runs"] += 1

        def adapt(args, outcome):
            c[f"adaptation.level.{outcome.level}"] += 1

        def reduce(args, result):
            entries = getattr(result, "entries", result)
            if entries is not None:
                c["adaptation.reduce.kept"] += len(entries)
                c["adaptation.reduce.offered"] += len(args[0].archive.entries)

        def mdp(args, result):
            c["baseline.states"] += result.n_states

        def policies(args, result):
            c["baseline.policies"] += result["policies"]

        return {
            "pmc.solve": solve,
            "synthesis.synthesize": synthesize,
            "adaptation.adapt": adapt,
            "adaptation.reduce": reduce,
            "baseline.build_full_mdp": mdp,
            "baseline.enumerate_policies": policies,
        }

    # -- aggregates ----------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for sid, name in enumerate(self.site_name):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += self.calls.get(sid, 0)
            row["self_s"] += self.self_s.get(sid, 0.0)
            row["total_s"] += self.total_s.get(sid, 0.0)
        return out

    def save(self, path: str):
        """Write every kept span: one JSON header line, then one line per span
        (id, parent, site, op, start, end)."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"sites": self.sites, "dropped": self.dropped,
                                 "columns": ["id", "parent", "site", "op", "start", "end"]}) + "\n")
            for row in zip(self.ids, self.parents, self.site_col, self.op_col, self.starts, self.ends):
                fh.write("%d %d %d %d %.9f %.9f\n" % row)
