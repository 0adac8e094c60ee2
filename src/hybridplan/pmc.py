"""Explicit-state probabilistic model checking.

Supports the queries the pipeline needs: reachability probability and
expected reachability reward on DTMCs, plus maximum reachability probability
and minimum bounded cumulative reward on MDPs.  There is one model type,
`Mdp`; a DTMC is an `Mdp` with one choice per state, and the DTMC queries
reject any other.  Every model runs on one array form, `CompiledMdp`: a
sparse matrix with one row per choice, built and checked by `_compile_mdp`,
which also rejects any transition target outside the states.
Reachability and expected-reward solves share one path on
that matrix: graph precomputation of the probability-0/1 sets (breadth-first
searches over its positive entries), then an exact direct linear solve
(dense up to 225 unknowns, sparse above).  Value iteration and bounded
backward induction are a sparse product and a per-state max/min reduction
per sweep; the maximum-probability query then routes its greedy policy
breadth-first from the target over the value-optimal rows and solves that
policy's rows of the same matrix.  Each model is compiled once, on its first
query.  Value iteration is the one loop with a tolerance; it raises
ConvergenceError when it hits MAX_SWEEPS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InfiniteRewardError, InputError, ModelError, StateBudgetExceeded

DENSE_LIMIT = 225          # measured dense/sparse-direct crossover (unknowns)
MAX_SWEEPS = 1_000_000     # iteration cap of value iteration
DEFAULT_TOL = 1e-10        # value iteration stops below this residual
PROB_SUM_TOL = 1e-12


def _label_mask(model: Mdp, label: str) -> np.ndarray:
    """Mask of the states of `model` carrying `label`.  A declared label
    may carry no state; a label the model does not declare is an error."""
    if label not in model.labels:
        raise ModelError(f"model declares no label '{label}'")
    mask = np.zeros(model.n_states, bool)
    mask[list(model.labels[label])] = True
    return mask


def _closure(adj, seeds, blocked: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of the seeds and every state reachable from them along the
    positive entries of `adj` without entering a `blocked` state.  `adj`
    lists each state's neighbours: a CSR chain matrix its successors, a CSC
    one its predecessors.  One breadth-first search from a super-source
    joined to every seed."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    n = len(adj.indptr) - 1
    keep = adj.data > 0.0
    if blocked is not None:
        keep &= ~blocked[adj.indices]
    kept = np.concatenate(([0], np.cumsum(keep)))
    indptr = np.append(kept[adj.indptr], kept[-1] + len(seeds))
    indices = np.append(adj.indices[keep], seeds)
    search = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))
    seen = np.zeros(n + 1, bool)
    seen[breadth_first_order(search, n, return_predecessors=False)] = True
    return seen[:n]


def prob01_sets(trans, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the states that reach `target` (a mask) with probability 0
    and with probability 1, in the chain whose row s is trans[s]."""
    pred = trans.tocsc()
    prob0 = ~_closure(pred, np.flatnonzero(target))
    # a path counts once it hits the target, whatever follows
    prob1 = ~_closure(pred, np.flatnonzero(prob0), blocked=target)
    return prob0, prob1


def _solve_linear(unknowns: np.ndarray, coeff, rhs) -> np.ndarray:
    """Solve x = A x + b restricted to `unknowns`.

    coeff is A over the unknowns as (row, column, probability) arrays, in
    row order with repeats kept; rhs is b.  The solve is direct: dense up to
    DENSE_LIMIT unknowns, sparse LU above.
    """
    rows, cols, probs = coeff
    n = len(unknowns)
    if n <= DENSE_LIMIT:
        a = np.eye(n)
        np.subtract.at(a, (rows, cols), probs)
        return np.linalg.solve(a, rhs)
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.linalg import spsolve

    a = identity(n, format="csc") - coo_matrix((probs, (rows, cols)), shape=(n, n)).tocsc()
    return spsolve(a, rhs)


def _solve_at(trans, unknown: np.ndarray, b: np.ndarray, initial: int) -> float:
    """x[initial] of x = A x + b over the `unknown` states (a mask), A being
    the chain `trans` restricted to them.  The unknowns are in ascending
    order and each row's entries in the matrix's order."""
    unknowns = np.flatnonzero(unknown)
    index = np.full(len(unknown), -1)
    index[unknowns] = np.arange(len(unknowns))
    rows = index[np.repeat(np.arange(len(unknown)), np.diff(trans.indptr))]
    cols = index[trans.indices]
    keep = (rows >= 0) & (cols >= 0)
    coeff = (rows[keep], cols[keep], trans.data[keep])
    return float(_solve_linear(unknowns, coeff, b[unknowns])[index[initial]])


def _reach(trans, initial: int, target: np.ndarray) -> float:
    """Probability of reaching `target` from `initial` in the chain whose
    row s is trans[s]."""
    prob0, prob1 = prob01_sets(trans, target)
    if prob1[initial]:
        return 1.0
    if prob0[initial]:
        return 0.0
    # trans @ prob1 adds each row's entries into prob1 in order (the others add 0.0)
    return _solve_at(trans, ~(prob0 | prob1), trans @ prob1.astype(np.float64), initial)


def _chain(model: Mdp) -> CompiledMdp:
    """The compiled form of `model`, which must be a chain: an Mdp with one
    choice per state."""
    cm = model.compiled()
    if cm.trans.shape[0] != model.n_states:
        raise ModelError("chain query on a model with more than one choice in a state")
    return cm


def reach_probability(chain: Mdp, target_label: str) -> float:
    """Probability of eventually reaching a state with the target label."""
    trans = _chain(chain).trans
    return _reach(trans, chain.initial, _label_mask(chain, target_label))


def expected_reward(chain: Mdp, target_label: str) -> float:
    """Expected reward accumulated until first hitting the target label.

    Requires the target to be reached almost surely from every state the
    initial one reaches before first hitting it; otherwise the expectation
    diverges and InfiniteRewardError is raised.
    """
    cm = _chain(chain)
    target = _label_mask(chain, target_label)
    if target[chain.initial]:
        return 0.0
    _, prob1 = prob01_sets(cm.trans, target)
    # the states visited before the target is first hit; what follows it is never paid
    reachable = _closure(cm.trans, [chain.initial], blocked=target)
    bad = np.count_nonzero(reachable & ~prob1)
    if bad:
        raise InfiniteRewardError(
            f"target '{target_label}' not almost surely reached from {bad} reachable state(s)"
        )
    return _solve_at(cm.trans, reachable, cm.reward, chain.initial)


# ---------------------------------------------------------------------------
# factored evaluation and product cross-check


@dataclass(frozen=True)
class MissionMetrics:
    success_prob: float
    expected_cost: float
    per_chain: tuple[tuple[str, float, float], ...] = ()   # (agent, succ, cost)


def factored_mission_metrics(components: Sequence[tuple[str, Mdp]]) -> MissionMetrics:
    """Mission metrics from independent per-agent chains.

    Success probabilities multiply and expected costs add because the chains
    share no state.
    """
    succ = 1.0
    cost = 0.0
    per = []
    for agent, chain in components:
        s = reach_probability(chain, "success")
        c = expected_reward(chain, "done")
        per.append((agent, s, c))
        succ *= s
        cost += c
    return MissionMetrics(succ, cost, tuple(per))


def compose_product(components: Sequence[tuple[str, Mdp]], state_budget: int = 200_000) -> Mdp:
    """Round-robin interleaving product of independent chains, itself a chain.

    Deterministic scheduling preserves both reachability and accumulated
    reward for independent components; the product exists purely as a
    cross-check oracle for the factored metrics.
    """
    if state_budget < 1:
        raise InputError(f"state budget must be at least 1, got {state_budget!r}")
    if not components:
        raise ModelError("cannot compose an empty component list")
    chains = [c for _, c in components]
    for c in chains:
        _chain(c)   # a component with two choices in a state is no chain
    k = len(chains)
    init = (0,) + tuple(c.initial for c in chains)
    index: dict[tuple, int] = {init: 0}
    choices: list = [None]
    frontier = [init]
    while frontier:
        state = frontier.pop()
        turn, locs = state[0], state[1:]
        _, moves, reward = chains[turn].choices[locs[turn]][0]
        row = []
        for j, p in moves:
            nstate = ((turn + 1) % k,) + locs[:turn] + (j,) + locs[turn + 1:]
            if nstate not in index:
                if len(index) >= state_budget:
                    raise StateBudgetExceeded(
                        f"product exceeded {state_budget} states", len(index)
                    )
                index[nstate] = len(index)
                choices.append(None)
                frontier.append(nstate)
            row.append((index[nstate], p))
        choices[index[state]] = [("step", row, reward)]

    def all_labelled(state, label):
        return all(state[1 + i] in chains[i].labels[label] for i in range(k))

    success = frozenset(sid for s, sid in index.items() if all_labelled(s, "success"))
    done = frozenset(sid for s, sid in index.items() if all_labelled(s, "done"))
    return Mdp(len(index), 0, choices, {"success": success, "done": done})


# ---------------------------------------------------------------------------
# MDP analysis


@dataclass(frozen=True)
class CompiledMdp:
    """Array form of an Mdp: one sparse row per choice, in state order.

    trans[c, j] is choice c's probability of moving to j, reward[c] its
    expected one-step reward and state[c] the state it belongs to; starts[s]
    is the index of state s's first choice, so per-state optima are ufunc
    reductions over `starts`.
    """

    trans: object          # scipy.sparse.csr_matrix, (choices, states)
    reward: np.ndarray
    state: np.ndarray
    starts: np.ndarray


@dataclass
class Mdp:
    """Explicit MDP; choices[s] lists (action label, row, reward).

    A row is a sequence of (target, probability) pairs (lists and tuples
    both do; the baseline builder's are tuples) and the reward one number,
    paid whichever entry the choice takes, as a PRISM action reward is.  A
    chain has one choice per state, `("step", row, reward)`.  The queries
    run on `compiled()`, which is built once per instance (a failed compile
    stores nothing), so the choice table must not change after the first
    query.
    """

    n_states: int
    initial: int
    choices: list[Sequence[tuple[str, Sequence[tuple[int, float]], float]]]
    labels: dict[str, frozenset[int]]
    _compiled: Optional[CompiledMdp] = field(default=None, init=False, repr=False, compare=False)

    def check(self):
        self.compiled()

    def compiled(self) -> CompiledMdp:
        if self._compiled is None:
            self._compiled = _compile_mdp(self)
        return self._compiled


def _entry_fault(entry, n_states: int) -> Optional[str]:
    """Why a transition entry is no (target, probability) pair with its
    target among the states, or None when it is one."""
    try:
        target, prob = entry
        target, prob = int(target), float(prob)
    except (TypeError, ValueError, OverflowError):
        return f"entry {entry!r} is not a (target, probability) pair"
    if not 0 <= target < n_states:
        return f"target {target} outside [0, {n_states})"
    return None


def _reward_fault(reward) -> Optional[str]:
    """Why a choice's reward is no number, or None when it is one."""
    try:
        np.fromiter((reward,), np.float64, 1)
    except (TypeError, ValueError, OverflowError):
        return f"reward {reward!r} is not a number"
    return None


def _compile_mdp(mdp: Mdp) -> CompiledMdp:
    """Flatten the choice table into CSR arrays, raising the ModelError of the
    first malformed state or choice in (state, choice) order.  Within a
    choice a malformed entry or a target outside the states comes first,
    then the probability sum, then the reward."""
    from scipy.sparse import csr_matrix

    n = mdp.n_states
    if len(mdp.choices) != n:
        raise ModelError("choice table size mismatch")
    counts = np.fromiter(map(len, mdp.choices), np.int64, n)
    acts = list(itertools.chain.from_iterable(mdp.choices))
    rows = list(map(itemgetter(1), acts))
    lengths = np.fromiter(map(len, rows), np.int64, len(acts))
    entries = list(itertools.chain.from_iterable(rows))
    try:
        ok = np.fromiter(map(len, entries), np.int64, len(entries)) == 2
        cols = np.fromiter(map(itemgetter(0), entries), np.int64, len(entries))
        probs = np.fromiter(map(itemgetter(1), entries), np.float64, len(entries))
        ok &= (cols >= 0) & (cols < n)
    except (TypeError, IndexError, ValueError, OverflowError):
        # some entry is no pair of numbers: find each one, the slow way
        ok = np.fromiter((_entry_fault(e, n) is None for e in entries), bool, len(entries))
        cols = np.fromiter((e[0] if k else 0 for e, k in zip(entries, ok)), np.int64, len(entries))
        probs = np.fromiter((e[1] if k else 0.0 for e, k in zip(entries, ok)), np.float64, len(entries))
    owner = np.repeat(np.arange(len(acts)), lengths)
    # bincount adds each row's weights in order from zero, as sum() does
    totals = np.bincount(owner, weights=probs, minlength=len(acts))
    state = np.repeat(np.arange(n), counts)
    bad_entry = np.zeros(len(acts), bool)
    bad_entry[owner[~ok]] = True
    # a NaN sum is no sum to one either
    unsummed = ~(np.abs(totals - 1.0) <= PROB_SUM_TOL)
    bad = bad_entry | unsummed
    try:
        reward = np.fromiter(map(itemgetter(2), acts), np.float64, len(acts))
    except (TypeError, ValueError, OverflowError):
        # some reward is no number: find each one, the slow way; the fault
        # raised below means ``reward`` is never needed
        bad |= np.fromiter((_reward_fault(a[2]) is not None for a in acts), bool, len(acts))
    faults = np.flatnonzero(bad)
    empty = np.flatnonzero(counts == 0)
    if len(empty) and (not len(faults) or empty[0] < state[faults[0]]):
        raise ModelError(f"state {empty[0]} has no enabled action")
    if len(faults):
        c = faults[0]
        where = f"state {state[c]} action '{acts[c][0]}'"
        if bad_entry[c]:
            raise ModelError(f"{where} {_entry_fault(entries[np.flatnonzero(~ok)[0]], n)}")
        if unsummed[c]:
            raise ModelError(f"{where} sums to {float(totals[c])}")
        raise ModelError(f"{where} {_reward_fault(acts[c][2])}")
    indptr = np.zeros(len(acts) + 1, np.int64)
    np.cumsum(lengths, out=indptr[1:])
    starts = np.zeros(n, np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return CompiledMdp(
        trans=csr_matrix((probs, cols, indptr), shape=(len(acts), n)),
        reward=np.bincount(owner, weights=probs * np.repeat(reward, lengths), minlength=len(acts)),
        state=state,
        starts=starts,
    )


def _max_reach_values(cm: CompiledMdp, target: np.ndarray) -> np.ndarray:
    """Value iteration from below for the maximum probability of reaching
    the `target` mask, every state at once."""
    pinned = np.flatnonzero(target)
    x = np.zeros(len(target))
    x[pinned] = 1.0
    delta = math.inf
    for _ in range(MAX_SWEEPS):
        nxt = np.maximum.reduceat(cm.trans @ x, cm.starts)
        nxt[pinned] = 1.0
        delta = float(np.max(np.abs(nxt - x)))
        x = nxt
        if delta < DEFAULT_TOL:
            return x
    raise ConvergenceError(f"value iteration did not converge in {MAX_SWEEPS} sweeps (residual {delta})")


def mdp_max_reach_prob(mdp: Mdp, label: str) -> float:
    """Maximum probability of reaching the label over all policies.

    Value iteration, then an exact solve on a proper greedy policy's rows of
    the compiled matrix.  A plain argmax may cycle among equal-value states,
    so the policy is routed breadth-first from the target: each round, every
    unrouted state with a value-optimal row entering a routed state takes its
    first such row.  Unrouted states (the targets among them) keep choice 0.
    """
    cm = mdp.compiled()
    target = _label_mask(mdp, label)
    vals = cm.trans @ _max_reach_values(cm, target)
    optimal = np.flatnonzero(vals >= np.maximum.reduceat(vals, cm.starts)[cm.state] - 1e-12)
    owner = cm.state[optimal]
    enters = (cm.trans[optimal] > 0.0).astype(np.float64)   # the optimal rows' positive entries
    routed = target.copy()
    choice = np.zeros(mdp.n_states, np.int64)
    while (hits := np.flatnonzero((enters @ routed.astype(np.float64) > 0.0) & ~routed[owner])).size:
        states, first = np.unique(owner[hits], return_index=True)
        choice[states] = optimal[hits[first]] - cm.starts[states]
        routed[states] = True
    return _reach(cm.trans[cm.starts + choice], mdp.initial, target)


def mdp_min_bounded_reward(mdp: Mdp, bound: int = 20) -> float:
    """Minimum expected reward accumulated within `bound` steps: `bound`
    rounds of backward induction over all states at once."""
    cm = mdp.compiled()
    if bound < 0:
        raise InputError("bound must be >= 0")
    x = np.zeros(mdp.n_states)
    for _ in range(bound):
        x = np.minimum.reduceat(cm.reward + cm.trans @ x, cm.starts)
    return float(x[mdp.initial])


def induced_chain(mdp: Mdp, policy: dict[int, int]) -> Mdp:
    """The chain a memoryless deterministic policy (choice index per state)
    induces: an Mdp with each state's chosen choice as its only one.
    Unspecified states (e.g. targets) keep their first choice."""
    choices = [[mdp.choices[s][policy.get(s, 0)]] for s in range(mdp.n_states)]
    return Mdp(mdp.n_states, mdp.initial, choices, dict(mdp.labels))
