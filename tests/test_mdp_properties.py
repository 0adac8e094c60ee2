"""Property tests: the array engines agree with per-state loops.

The reference functions below are the loop forms of the queries.  For MDPs:
Gauss-Seidel value iteration with the same polish, and backward induction
one state and one choice at a time.  They run on random small MDPs and on
the whole-problem MDPs of 2-task random missions (those above 3,000 states
are skipped to keep the loops quick).  For DTMCs: the list-based
probability-0/1 closure and linear-system assembly that the compiled
matrix replaced; the DTMC answers must match them to the bit.  On every
golden baseline MDP, the maximum-probability polish must also match, to the
bit, the earlier polish that routed its greedy policy by repeated sweeps over
the states.  The compile itself must give the arrays, or the ModelError text,
of the earlier compile that transposed the whole choice table with zip(*...).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hybridplan.baseline import build_full_mdp
from hybridplan.bench import random_instance
from hybridplan.errors import InfiniteRewardError, ModelError, StateBudgetExceeded
from hybridplan import pmc
from hybridplan.pmc import (
    Mdp,
    expected_reward,
    induced_chain,
    mdp_max_reach_prob,
    mdp_min_bounded_reward,
    reach_probability,
)
from test_golden_mdps import cases as golden_mdp_cases

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
CLOSE = dict(rel=1e-12, abs=1e-12)


def loop_max_reach_prob(mdp: Mdp, label: str, tol: float = 1e-10) -> float:
    target = mdp.labels[label]
    x = np.zeros(mdp.n_states)
    for s in target:
        x[s] = 1.0
    while True:
        delta = 0.0
        for s in range(mdp.n_states):
            if s in target:
                continue
            best = 0.0
            for _, row, _ in mdp.choices[s]:
                best = max(best, sum(p * x[j] for j, p in row))
            delta = max(delta, abs(best - x[s]))
            x[s] = best
        if delta < tol:
            break
    opt_actions = {}
    for s in range(mdp.n_states):
        if s in target:
            continue
        vals = [sum(p * x[j] for j, p in row) for _, row, _ in mdp.choices[s]]
        opt_actions[s] = [i for i, v in enumerate(vals) if v >= max(vals) - 1e-12]
    dist = {s: 0 for s in target}
    policy = {}
    changed = True
    while changed:
        changed = False
        for s, idxs in opt_actions.items():
            if s in policy:
                continue
            for idx in idxs:
                _, row, _ = mdp.choices[s][idx]
                reachable = [dist[j] for j, p in row if p > 0.0 and j in dist]
                if reachable:
                    policy[s] = idx
                    dist[s] = 1 + min(reachable)
                    changed = True
                    break
    return reach_probability(induced_chain(mdp, policy), label)


def sweep_max_reach_prob(mdp: Mdp, label: str) -> float:
    """The earlier polish: the same value iteration, then a tie-break that
    sweeps the states in order until none changes, each state taking its
    first value-optimal choice that enters a state routed so far (earlier
    in the same sweep included)."""
    cm = mdp.compiled()
    target = pmc._label_mask(mdp, label)
    vals = cm.trans @ pmc._max_reach_values(cm, target)
    optimal = np.flatnonzero(vals >= np.maximum.reduceat(vals, cm.starts)[cm.state] - 1e-12)
    optimal = optimal[~target[cm.state[optimal]]]
    owner = cm.state[optimal]
    opt_actions = {}
    for s, idx in zip(owner.tolist(), (optimal - cm.starts[owner]).tolist()):
        opt_actions.setdefault(s, []).append(idx)
    routed = set(np.flatnonzero(target).tolist())
    choice = np.zeros(mdp.n_states, np.int64)
    changed = True
    while changed:
        changed = False
        for s, idxs in opt_actions.items():
            if s in routed:
                continue
            for idx in idxs:
                _, row, _ = mdp.choices[s][idx]
                if any(p > 0.0 and j in routed for j, p in row):
                    choice[s] = idx
                    routed.add(s)
                    changed = True
                    break
    return pmc._reach(cm.trans[cm.starts + choice], mdp.initial, target)


def loop_min_bounded_reward(mdp: Mdp, bound: int) -> float:
    x = np.zeros(mdp.n_states)
    for _ in range(bound):
        nxt = np.zeros(mdp.n_states)
        for s in range(mdp.n_states):
            nxt[s] = min(sum(p * (r + x[j]) for j, p in row) for _, row, r in mdp.choices[s])
        x = nxt
    return float(x[mdp.initial])


def loop_closure(edges, seeds, blocked=frozenset()) -> set:
    seen = set(seeds)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for q in edges[s]:
            if q not in seen and q not in blocked:
                seen.add(q)
                stack.append(q)
    return seen


def loop_prob01_sets(chain: Mdp, target) -> tuple[set, set]:
    pred = [[] for _ in range(chain.n_states)]
    for i in range(chain.n_states):
        for j, p in chain.choices[i][0][1]:
            if p > 0.0:
                pred[j].append(i)
    prob0 = set(range(chain.n_states)) - loop_closure(pred, target)
    prob1 = set(range(chain.n_states)) - loop_closure(pred, prob0, blocked=target)
    return prob0, prob1


def loop_solve_linear(coeff_rows, rhs) -> np.ndarray:
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.linalg import spsolve

    n = len(coeff_rows)
    rows = np.repeat(np.arange(n), [len(r) for r in coeff_rows])
    cols = np.array([j for r in coeff_rows for j, _ in r], np.int64)
    probs = np.array([p for r in coeff_rows for _, p in r], np.float64)
    if n <= pmc.DENSE_LIMIT:
        a = np.eye(n)
        np.subtract.at(a, (rows, cols), probs)
        return np.linalg.solve(a, rhs)
    return spsolve(identity(n, format="csc") - coo_matrix((probs, (rows, cols)), shape=(n, n)).tocsc(), rhs)


def loop_reach_probability(chain: Mdp, label: str) -> float:
    prob0, prob1 = loop_prob01_sets(chain, chain.labels[label])
    if chain.initial in prob1:
        return 1.0
    if chain.initial in prob0:
        return 0.0
    unknowns = sorted(set(range(chain.n_states)) - prob0 - prob1)
    uindex = {s: i for i, s in enumerate(unknowns)}
    rhs = np.zeros(len(unknowns))
    rows = []
    for i, s in enumerate(unknowns):
        row = []
        for j, p in chain.choices[s][0][1]:
            if j in prob1:
                rhs[i] += p
            elif j in uindex:
                row.append((uindex[j], p))
        rows.append(row)
    return float(loop_solve_linear(rows, rhs)[uindex[chain.initial]])


def loop_expected_reward(chain: Mdp, label: str) -> float:
    target = chain.labels[label]
    if chain.initial in target:
        return 0.0
    _, prob1 = loop_prob01_sets(chain, target)
    succ = [[j for j, p in acts[0][1] if p > 0.0] for acts in chain.choices]
    reachable = loop_closure(succ, [chain.initial], blocked=target)
    if reachable - prob1:
        raise InfiniteRewardError(label)
    unknowns = sorted(reachable)
    uindex = {s: i for i, s in enumerate(unknowns)}
    rhs = np.zeros(len(unknowns))
    rows = []
    for i, s in enumerate(unknowns):
        row = []
        _, moves, r = chain.choices[s][0]
        for j, p in moves:
            rhs[i] += p * r
            if j in uindex:
                row.append((uindex[j], p))
        rows.append(row)
    return float(loop_solve_linear(rows, rhs)[uindex[chain.initial]])


def reference_compile(mdp: Mdp) -> pmc.CompiledMdp:
    """The earlier compile: the choice table transposed with zip(*...) into
    names, rows and rewards, then the rows' entries into targets and
    probabilities, each entry paired with its choice's reward.  It checks no
    target."""
    from scipy.sparse import csr_matrix

    if len(mdp.choices) != mdp.n_states:
        raise ModelError("choice table size mismatch")
    counts = np.fromiter(map(len, mdp.choices), np.int64, mdp.n_states)
    acts = list(itertools.chain.from_iterable(mdp.choices))
    names, rows, rews = zip(*acts) if acts else ((), (), ())
    lengths = np.fromiter(map(len, rows), np.int64, len(acts))
    cols, probs = zip(*itertools.chain.from_iterable(rows)) if lengths.any() else ((), ())
    cols, probs = np.array(cols, np.int64), np.array(probs, np.float64)
    owner = np.repeat(np.arange(len(acts)), lengths)
    totals = np.bincount(owner, weights=probs, minlength=len(acts))
    state = np.repeat(np.arange(mdp.n_states), counts)
    empty = np.flatnonzero(counts == 0)
    faults = np.flatnonzero(np.abs(totals - 1.0) > pmc.PROB_SUM_TOL)
    if len(empty) and (not len(faults) or empty[0] < state[faults[0]]):
        raise ModelError(f"state {empty[0]} has no enabled action")
    if len(faults):
        c = faults[0]
        raise ModelError(f"state {state[c]} action '{names[c]}' sums to {float(totals[c])}")
    rewards = np.array([r for r, row in zip(rews, rows) for _ in row], np.float64)
    indptr = np.zeros(len(acts) + 1, np.int64)
    np.cumsum(lengths, out=indptr[1:])
    starts = np.zeros(mdp.n_states, np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return pmc.CompiledMdp(
        trans=csr_matrix((probs, cols, indptr), shape=(len(acts), mdp.n_states)),
        reward=np.bincount(owner, weights=probs * rewards, minlength=len(acts)),
        state=state,
        starts=starts,
    )


def compiled_arrays(compile_, mdp):
    """The compiled arrays, or the ModelError text."""
    try:
        cm = compile_(mdp)
    except ModelError as e:
        return str(e)
    return (cm.trans.indptr, cm.trans.indices, cm.trans.data, cm.reward, cm.state, cm.starts)


def assert_same_compile(mdp):
    ours, ref = compiled_arrays(pmc._compile_mdp, mdp), compiled_arrays(reference_compile, mdp)
    if isinstance(ref, str):
        assert ours == ref
    else:
        assert not isinstance(ours, str), ours
        for a, b in zip(ours, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@st.composite
def choice_tables(draw):
    """Random choice tables with list and tuple rows, zero-probability
    entries, repeated targets and up to three choices per state; then up to
    two faults the compile must name: an empty state, an empty row, a row
    that does not sum to one, or a table of the wrong size."""
    n = draw(st.integers(1, 6))
    choices = []
    for _ in range(n):
        acts = []
        for a in range(draw(st.integers(1, 3))):
            targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
            weights = [draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0])) for _ in targets]
            if not any(weights):
                weights[0] = 1.0
            row = [(j, w / sum(weights)) for j, w in zip(targets, weights)]
            rew = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]))
            seq = draw(st.sampled_from([list, tuple]))
            acts.append((f"a{a}", seq(row), rew))
        choices.append(acts)
    size = n
    for fault in draw(st.lists(st.sampled_from(["empty", "row", "sum", "size"]), max_size=2)):
        s = draw(st.integers(0, n - 1))
        if fault == "size":
            size = n + 1
        elif fault == "empty":
            choices[s] = []
        elif choices[s]:
            c = draw(st.integers(0, len(choices[s]) - 1))
            label, row, rew = choices[s][c]
            row = [] if fault == "row" else [(j, 0.9 * p) for j, p in row]
            choices[s][c] = (label, row, rew)
    return Mdp(size, 0, choices, {"success": frozenset({0})})


class TestCompileMatchesReference:
    @settings(PROPERTY, max_examples=150)
    @given(choice_tables())
    def test_random_choice_tables(self, mdp):
        assert_same_compile(mdp)

    @pytest.mark.parametrize("case_id, make", golden_mdp_cases(), ids=[c for c, _ in golden_mdp_cases()])
    def test_golden_mdps(self, case_id, make):
        assert_same_compile(build_full_mdp(make()))


def outcome(query, *args):
    """The query's answer, or the string "infinite" if it diverges."""
    try:
        return query(*args)
    except InfiniteRewardError:
        return "infinite"


@st.composite
def small_dtmcs(draw):
    """Random chains (one choice per state) with zero-probability entries,
    self-loops and repeated targets in a row.  Transient states 0..k-1 move
    among themselves and into a failure sink k and a success sink k+1; up to
    two more states lead into them but nothing leads to those, and labels
    may name them."""
    k = draw(st.integers(1, 7))
    extra = draw(st.integers(0, 2))
    n = k + 2 + extra
    choices = []
    for s in range(n):
        targets = draw(st.lists(st.integers(0, k + 1), min_size=1, max_size=4))
        if draw(st.booleans()):
            targets.append(s)
        weights = [draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0])) for _ in targets]
        if s in (k, k + 1):   # the sinks absorb
            targets, weights = [s] + targets, [1.0] + [0.0] * len(targets)
        if not any(weights):
            weights[0] = 1.0
        row = [(j, w / sum(weights)) for j, w in zip(targets, weights)]
        choices.append([("step", row, draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7])))])
    anywhere = st.sets(st.integers(0, n - 1), max_size=1)
    labels = {"success": frozenset({k + 1} | draw(anywhere)), "done": frozenset({k, k + 1} | draw(anywhere))}
    initial = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    return Mdp(n, initial, choices, labels)


class TestDtmcQueriesMatchLoops:
    @settings(PROPERTY, max_examples=100)
    @given(small_dtmcs(), st.booleans())
    def test_random_small_dtmcs_to_the_bit(self, dtmc, sparse):
        limit = pmc.DENSE_LIMIT
        pmc.DENSE_LIMIT = 0 if sparse else limit
        try:
            for label in ("success", "done"):
                assert reach_probability(dtmc, label) == loop_reach_probability(dtmc, label)
                assert outcome(expected_reward, dtmc, label) == outcome(loop_expected_reward, dtmc, label)
        finally:
            pmc.DENSE_LIMIT = limit

    def test_reference_loops_on_a_retry_loop(self):
        # retry with p = 0.5, cost 1 per try: success 1, two tries expected
        d = Mdp(2, 0, [[("step", [(0, 0.5), (1, 0.5)], 1.0)], [("step", [(1, 1.0)], 0.0)]],
                {"done": frozenset({1})})
        assert loop_reach_probability(d, "done") == 1.0
        assert math.isclose(loop_expected_reward(d, "done"), 2.0, abs_tol=1e-12)


GOOD = [[(1, 0.5), (0, 0.5)], [(1, 1.0)]]
GOOD_COST = [1.0, 0.0]


@pytest.mark.parametrize(
    "n, transitions, rewards",
    [
        (3, GOOD, GOOD_COST),                                    # size mismatch
        (2, [[(1, 1.0)], []], GOOD_COST),                        # empty row
        (2, [[(1, 0.5)], [(1, 1.0)]], GOOD_COST),                # row sums to 0.5
        (2, [[(1, 0.5), (1, 0.5 + 1e-9)], [(1, 1.0)]], GOOD_COST),   # just above 1
        (2, GOOD, GOOD_COST + [0.0]),                            # a reward row too many
    ],
)
def test_malformed_chains_raise_model_error(n, transitions, rewards):
    def chain():
        pairs = itertools.zip_longest(transitions, rewards, fillvalue=())
        return Mdp(n, 0, [[("step", row, rew)] for row, rew in pairs], {"done": frozenset({1})})

    for query in (Mdp.check, lambda d: reach_probability(d, "done"), lambda d: expected_reward(d, "done")):
        d = chain()
        for _ in range(2):   # a failed compile leaves nothing behind
            with pytest.raises(ModelError):
                query(d)


@st.composite
def small_mdps(draw):
    n = draw(st.integers(1, 8))
    choices = []
    for s in range(n):
        acts = []
        for a in range(draw(st.integers(1, 3))):
            targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
            weights = [draw(st.floats(0.05, 1.0)) for _ in targets]
            row = [(j, w / sum(weights)) for j, w in zip(targets, weights)]
            acts.append((f"a{a}", row, draw(st.floats(0.0, 10.0))))
        choices.append(acts)
    target = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Mdp(n, draw(st.integers(0, n - 1)), choices, {"success": frozenset(target)})


class TestArrayEnginesMatchLoops:
    @PROPERTY
    @given(small_mdps(), st.integers(0, 25))
    def test_random_small_mdps(self, mdp, bound):
        assert mdp_max_reach_prob(mdp, "success") == pytest.approx(loop_max_reach_prob(mdp, "success"), **CLOSE)
        assert mdp_min_bounded_reward(mdp, bound) == pytest.approx(loop_min_bounded_reward(mdp, bound), **CLOSE)

    @settings(PROPERTY, max_examples=8)
    @given(st.integers(1, 2), st.integers(0, 10_000))
    def test_two_task_missions(self, agents, seed):
        try:
            mdp = build_full_mdp(random_instance(2, agents, seed), state_budget=3_000)
        except StateBudgetExceeded:
            assume(False)
        assume(mdp.labels["success"])   # some task no agent can do
        assert mdp_max_reach_prob(mdp, "success") == pytest.approx(loop_max_reach_prob(mdp, "success"), **CLOSE)
        assert mdp_min_bounded_reward(mdp, 20) == pytest.approx(loop_min_bounded_reward(mdp, 20), **CLOSE)


@pytest.mark.parametrize("case_id, make", golden_mdp_cases(), ids=[c for c, _ in golden_mdp_cases()])
def test_breadth_first_routing_keeps_the_sweeps_bits(case_id, make):
    # the two tie-breaks may pick different optimal choices; p_max must not move.
    # A mission with a task no agent can do has no success state: 0.0 on both sides
    mdp = build_full_mdp(make())
    assert mdp_max_reach_prob(mdp, "success") == sweep_max_reach_prob(mdp, "success")


def test_reference_loops_on_two_choice_toy():
    mdp = Mdp(
        3,
        0,
        [
            [("careful", [(1, 0.99), (2, 0.01)], 5.0), ("cheap", [(1, 0.97), (2, 0.03)], 1.0)],
            [("stay", [(1, 1.0)], 0.0)],
            [("stay", [(2, 1.0)], 0.0)],
        ],
        {"success": frozenset({1})},
    )
    assert math.isclose(loop_max_reach_prob(mdp, "success"), 0.99, abs_tol=1e-12)
    assert math.isclose(loop_min_bounded_reward(mdp, 20), 1.0, abs_tol=1e-12)
