"""Explicit-state probabilistic model checking.

Supports the queries the pipeline needs: reachability probability and
expected reachability reward on DTMCs, plus maximum reachability probability
and minimum bounded cumulative reward on MDPs.  Reachability solves use
graph precomputation of the probability-0/1 sets followed by an exact
direct linear solve (dense up to 225 unknowns, sparse above).  The MDP
queries run on an array form compiled once per MDP: a sparse matrix with
one row per choice, so value iteration and bounded backward induction are a
sparse product and a per-state max/min reduction per sweep.  Value
iteration is the one loop with a tolerance; it raises ConvergenceError
when it hits MAX_SWEEPS.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InfiniteRewardError, ModelError, StateBudgetExceeded

DENSE_LIMIT = 225          # measured dense/sparse-direct crossover (unknowns)
MAX_SWEEPS = 1_000_000     # iteration cap of value iteration
DEFAULT_TOL = 1e-10        # value iteration stops below this residual
PROB_SUM_TOL = 1e-12


@dataclass
class Dtmc:
    """Explicit discrete-time Markov chain with transition rewards.

    transitions[i] lists (target, probability); rewards[name][i] is the
    parallel list of per-transition rewards.
    """

    n_states: int
    initial: int
    transitions: list[list[tuple[int, float]]]
    labels: dict[str, frozenset[int]]
    rewards: dict[str, list[list[float]]] = field(default_factory=dict)

    def check(self):
        if len(self.transitions) != self.n_states:
            raise ModelError("transition table size mismatch")
        for i, row in enumerate(self.transitions):
            if not row:
                raise ModelError(f"state {i} has no outgoing transitions")
            total = sum(p for _, p in row)
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ModelError(f"state {i} outgoing probabilities sum to {total}")
        for name, rows in self.rewards.items():
            for i, row in enumerate(rows):
                if len(row) != len(self.transitions[i]):
                    raise ModelError(f"reward '{name}' misaligned at state {i}")

    def states_with_label(self, label: str) -> frozenset[int]:
        if label not in self.labels or not self.labels[label]:
            raise ModelError(f"no state carries label '{label}'")
        return self.labels[label]

    def predecessors(self) -> list[list[int]]:
        pred: list[list[int]] = [[] for _ in range(self.n_states)]
        for i, row in enumerate(self.transitions):
            for j, p in row:
                if p > 0.0:
                    pred[j].append(i)
        return pred


def _closure(edges: list[list[int]], seeds: Iterable[int], blocked=frozenset()) -> set[int]:
    """The seeds plus every state reachable from them along ``edges``
    without entering a ``blocked`` state."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for q in edges[s]:
            if q not in seen and q not in blocked:
                seen.add(q)
                stack.append(q)
    return seen


def prob01_sets(dtmc: Dtmc, target: frozenset[int]) -> tuple[set[int], set[int]]:
    """(probability-0 set, probability-1 set) for eventually reaching target."""
    pred = dtmc.predecessors()
    can_reach = _closure(pred, target)
    prob0 = set(range(dtmc.n_states)) - can_reach
    # a path counts once it hits the target, whatever follows
    reach_prob0 = _closure(pred, prob0, blocked=target)
    prob1 = set(range(dtmc.n_states)) - reach_prob0
    return prob0, prob1


def _flatten(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row lengths, column indices, probabilities) of [(index, prob)] rows."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    cols, probs = zip(*itertools.chain.from_iterable(rows)) if lengths.any() else ((), ())
    return lengths, np.array(cols, np.int64), np.array(probs, np.float64)


def _solve_linear(unknowns: list[int], coeff_rows, rhs) -> np.ndarray:
    """Solve x = A x + b restricted to `unknowns`.

    coeff_rows[i] lists (unknown-index, probability) for unknowns[i]; rhs is
    the constant vector.  The solve is direct: dense up to DENSE_LIMIT
    unknowns, sparse LU above.
    """
    n = len(unknowns)
    if n == 0:
        return np.zeros(0)
    lengths, cols, probs = _flatten(coeff_rows)
    rows = np.repeat(np.arange(n), lengths)
    if n <= DENSE_LIMIT:
        a = np.eye(n)
        np.subtract.at(a, (rows, cols), probs)
        return np.linalg.solve(a, rhs)
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.linalg import spsolve

    a = identity(n, format="csc") - coo_matrix((probs, (rows, cols)), shape=(n, n)).tocsc()
    return spsolve(a, rhs)


def _solve_reach(dtmc: Dtmc, prob0: set[int], prob1: set[int]) -> dict[int, float]:
    """Reachability probability of every state outside prob0 and prob1."""
    unknowns = sorted(set(range(dtmc.n_states)) - prob0 - prob1)
    uindex = {s: i for i, s in enumerate(unknowns)}
    rhs = np.zeros(len(unknowns))
    rows: list[list[tuple[int, float]]] = []
    for i, s in enumerate(unknowns):
        row = []
        for j, p in dtmc.transitions[s]:
            if j in prob1:
                rhs[i] += p
            elif j in uindex:
                row.append((uindex[j], p))
        rows.append(row)
    x = _solve_linear(unknowns, rows, rhs)
    return {s: float(x[i]) for s, i in uindex.items()}


def reach_probability(dtmc: Dtmc, target_label: str) -> float:
    """Probability of eventually reaching a state with the target label."""
    dtmc.check()
    prob0, prob1 = prob01_sets(dtmc, dtmc.states_with_label(target_label))
    if dtmc.initial in prob1:
        return 1.0
    if dtmc.initial in prob0:
        return 0.0
    return _solve_reach(dtmc, prob0, prob1)[dtmc.initial]


def expected_reward(dtmc: Dtmc, reward_name: str, target_label: str) -> float:
    """Expected reward accumulated until first hitting the target label.

    Requires the target to be reached almost surely from every state the
    initial one reaches before first hitting it; otherwise the expectation
    diverges and InfiniteRewardError is raised.
    """
    dtmc.check()
    if reward_name not in dtmc.rewards:
        raise ModelError(f"unknown reward structure '{reward_name}'")
    target = dtmc.states_with_label(target_label)
    if dtmc.initial in target:
        return 0.0
    _, prob1 = prob01_sets(dtmc, target)
    # the states visited before the target is first hit; what follows it is never paid
    succ = [[j for j, p in row if p > 0.0] for row in dtmc.transitions]
    reachable = _closure(succ, [dtmc.initial], blocked=target)
    bad = reachable - prob1
    if bad:
        raise InfiniteRewardError(
            f"target '{target_label}' not almost surely reached from {len(bad)} reachable state(s)"
        )
    unknowns = sorted(reachable)
    uindex = {s: i for i, s in enumerate(unknowns)}
    rhs = np.zeros(len(unknowns))
    rows: list[list[tuple[int, float]]] = []
    rew = dtmc.rewards[reward_name]
    for i, s in enumerate(unknowns):
        row = []
        for k, (j, p) in enumerate(dtmc.transitions[s]):
            rhs[i] += p * rew[s][k]
            if j in uindex:
                row.append((uindex[j], p))
        rows.append(row)
    x = _solve_linear(unknowns, rows, rhs)
    return float(x[uindex[dtmc.initial]])


# ---------------------------------------------------------------------------
# factored evaluation and product cross-check


@dataclass(frozen=True)
class MissionMetrics:
    success_prob: float
    expected_cost: float
    per_chain: tuple[tuple[str, float, float], ...] = ()   # (agent, succ, cost)


def factored_mission_metrics(components: Sequence[tuple[str, Dtmc]]) -> MissionMetrics:
    """Mission metrics from independent per-agent chains.

    Success probabilities multiply and expected costs add because the chains
    share no state.
    """
    succ = 1.0
    cost = 0.0
    per = []
    for agent, chain in components:
        s = reach_probability(chain, "success")
        c = expected_reward(chain, "cost", "done")
        per.append((agent, s, c))
        succ *= s
        cost += c
    return MissionMetrics(succ, cost, tuple(per))


def compose_product(components: Sequence[tuple[str, Dtmc]], state_budget: int = 200_000) -> Dtmc:
    """Round-robin interleaving product of independent chains.

    Deterministic scheduling preserves both reachability and accumulated
    reward for independent components; the product exists purely as a
    cross-check oracle for the factored metrics.
    """
    if not components:
        raise ModelError("cannot compose an empty component list")
    chains = [c for _, c in components]
    k = len(chains)
    init = (0,) + tuple(c.initial for c in chains)
    index: dict[tuple, int] = {init: 0}
    order = [init]
    trans: list[list[tuple[int, float]]] = []
    rewards: list[list[float]] = []
    frontier = [init]
    while frontier:
        state = frontier.pop()
        sid = index[state]
        while len(trans) <= sid:
            trans.append([])
            rewards.append([])
        turn, locs = state[0], state[1:]
        comp = chains[turn]
        row = []
        rew_row = []
        for kk, (j, p) in enumerate(comp.transitions[locs[turn]]):
            nlocs = list(locs)
            nlocs[turn] = j
            nstate = ((turn + 1) % k,) + tuple(nlocs)
            if nstate not in index:
                if len(index) >= state_budget:
                    raise StateBudgetExceeded(
                        f"product exceeded {state_budget} states", len(index)
                    )
                index[nstate] = len(index)
                order.append(nstate)
                frontier.append(nstate)
            row.append((index[nstate], p))
            rew = comp.rewards.get("cost")
            rew_row.append(rew[locs[turn]][kk] if rew else 0.0)
        trans[sid] = row
        rewards[sid] = rew_row
    n = len(index)
    while len(trans) < n:
        trans.append([])
        rewards.append([])

    def all_labelled(state, label):
        return all(state[1 + i] in chains[i].labels[label] for i in range(k))

    success = frozenset(index[s] for s in order if all_labelled(s, "success"))
    done = frozenset(index[s] for s in order if all_labelled(s, "done"))
    return Dtmc(n, 0, trans, {"success": success, "done": done}, {"cost": rewards})


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
    """Explicit MDP; choices[s] lists (action label, [(target, prob)], [rewards]).

    The queries run on `compiled()`, which is built once per instance, so
    the choice table must not change after the first query.
    """

    n_states: int
    initial: int
    choices: list[list[tuple[str, list[tuple[int, float]], list[float]]]]
    labels: dict[str, frozenset[int]]
    _compiled: Optional[CompiledMdp] = field(default=None, init=False, repr=False, compare=False)

    def check(self):
        self.compiled()

    def compiled(self) -> CompiledMdp:
        if self._compiled is None:
            self._compiled = _compile_mdp(self)
        return self._compiled

    def states_with_label(self, label: str) -> frozenset[int]:
        if label not in self.labels or not self.labels[label]:
            raise ModelError(f"no state carries label '{label}'")
        return self.labels[label]


def _compile_mdp(mdp: Mdp) -> CompiledMdp:
    """Flatten the choice table into CSR arrays, raising the ModelError of the
    first malformed state or choice in (state, choice) order."""
    from scipy.sparse import csr_matrix

    if len(mdp.choices) != mdp.n_states:
        raise ModelError("choice table size mismatch")
    counts = np.fromiter(map(len, mdp.choices), np.int64, mdp.n_states)
    acts = list(itertools.chain.from_iterable(mdp.choices))
    names, rows, rews = zip(*acts) if acts else ((), (), ())
    lengths, cols, probs = _flatten(rows)
    rew_lengths = np.fromiter(map(len, rews), np.int64, len(acts))
    owner = np.repeat(np.arange(len(acts)), lengths)
    # bincount adds each row's weights in order from zero, as sum() does
    totals = np.bincount(owner, weights=probs, minlength=len(acts))
    state = np.repeat(np.arange(mdp.n_states), counts)
    empty = np.flatnonzero(counts == 0)
    faults = np.flatnonzero((np.abs(totals - 1.0) > PROB_SUM_TOL) | (rew_lengths != lengths))
    if len(empty) and (not len(faults) or empty[0] < state[faults[0]]):
        raise ModelError(f"state {empty[0]} has no enabled action")
    if len(faults):
        c = faults[0]
        if abs(totals[c] - 1.0) > PROB_SUM_TOL:
            raise ModelError(f"state {state[c]} action '{names[c]}' sums to {float(totals[c])}")
        raise ModelError(f"state {state[c]} action '{names[c]}' reward misaligned")
    rewards = np.fromiter(itertools.chain.from_iterable(rews), np.float64, len(probs))
    indptr = np.zeros(len(acts) + 1, np.int64)
    np.cumsum(lengths, out=indptr[1:])
    starts = np.zeros(mdp.n_states, np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return CompiledMdp(
        trans=csr_matrix((probs, cols, indptr), shape=(len(acts), mdp.n_states)),
        reward=np.bincount(owner, weights=probs * rewards, minlength=len(acts)),
        state=state,
        starts=starts,
    )


def mdp_max_reach_prob(mdp: Mdp, label: str) -> float:
    """Maximum probability of reaching the label over all policies.

    Value iteration from below, then an exact linear solve of the greedy
    policy's induced chain to polish the fixed point.
    """
    cm = mdp.compiled()
    target = mdp.states_with_label(label)
    pinned = np.fromiter(target, np.int64, len(target))
    x = np.zeros(mdp.n_states)
    x[pinned] = 1.0
    delta = math.inf
    for _ in range(MAX_SWEEPS):
        nxt = np.maximum.reduceat(cm.trans @ x, cm.starts)
        nxt[pinned] = 1.0
        delta = float(np.max(np.abs(nxt - x)))
        x = nxt
        if delta < DEFAULT_TOL:
            break
    else:
        raise ConvergenceError(f"value iteration did not converge in {MAX_SWEEPS} sweeps (residual {delta})")
    # polish: evaluate a proper greedy policy exactly.  Ties between
    # value-optimal actions are broken toward actions whose support moves
    # closer to the target; a plain argmax may cycle among equal-value
    # states and never reach it.
    vals = cm.trans @ x
    optimal = np.flatnonzero(vals >= np.maximum.reduceat(vals, cm.starts)[cm.state] - 1e-12)
    owner = cm.state[optimal]
    opt_actions: dict[int, list[int]] = {}
    for s, idx in zip(owner.tolist(), (optimal - cm.starts[owner]).tolist()):
        if s not in target:
            opt_actions.setdefault(s, []).append(idx)
    dist = {s: 0 for s in target}
    policy: dict[int, int] = {}
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
    chain = induced_chain(mdp, policy)
    return reach_probability(chain, label)


def mdp_min_bounded_reward(mdp: Mdp, bound: int = 20) -> float:
    """Minimum expected reward accumulated within `bound` steps: `bound`
    rounds of backward induction over all states at once."""
    cm = mdp.compiled()
    if bound < 0:
        raise ValueError("bound must be >= 0")
    x = np.zeros(mdp.n_states)
    for _ in range(bound):
        x = np.minimum.reduceat(cm.reward + cm.trans @ x, cm.starts)
    return float(x[mdp.initial])


def induced_chain(mdp: Mdp, policy: dict[int, int]) -> Dtmc:
    """DTMC induced by a memoryless deterministic policy (index per state);
    unspecified states (e.g. targets) keep their first choice."""
    trans = []
    rewards = []
    for s in range(mdp.n_states):
        name, row, rew = mdp.choices[s][policy.get(s, 0)]
        trans.append(list(row))
        rewards.append(list(rew))
    return Dtmc(mdp.n_states, mdp.initial, trans, dict(mdp.labels), {"cost": rewards})
