"""Explicit-state probabilistic model checking.

Supports the queries the pipeline needs: reachability probability and
expected reachability reward on DTMCs, plus maximum reachability probability
and minimum bounded cumulative reward on MDPs.  Reachability solves use
graph precomputation of the probability-0/1 sets followed by a linear solve
(dense below 2k states, sparse direct below 50k, Gauss-Seidel iteration with
an absolute convergence criterion above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InfiniteRewardError, ModelError, StateBudgetExceeded

DENSE_LIMIT = 2_000
DIRECT_LIMIT = 50_000
DEFAULT_TOL = 1e-10
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

    def reachable_from_initial(self) -> set[int]:
        seen = {self.initial}
        stack = [self.initial]
        while stack:
            s = stack.pop()
            for j, p in self.transitions[s]:
                if p > 0.0 and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    def export_transitions(self, reward: Optional[str] = None) -> str:
        """Tab-separated explicit transition list for debugging."""
        lines = []
        for i, row in enumerate(self.transitions):
            for k, (j, p) in enumerate(row):
                r = self.rewards[reward][i][k] if reward else 0.0
                lines.append(f"{i}\t{j}\t{p!r}\t{r!r}")
        return "\n".join(lines) + "\n"


def _backward_closure(pred: list[list[int]], seeds: Iterable[int]) -> set[int]:
    seen = set(seeds)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for q in pred[s]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def prob01_sets(dtmc: Dtmc, target: frozenset[int]) -> tuple[set[int], set[int]]:
    """(probability-0 set, probability-1 set) for eventually reaching target."""
    pred = dtmc.predecessors()
    can_reach = _backward_closure(pred, target)
    prob0 = set(range(dtmc.n_states)) - can_reach
    reach_prob0 = _backward_closure(pred, prob0)
    prob1 = set(range(dtmc.n_states)) - reach_prob0
    return prob0, prob1


def _solve_linear(unknowns: list[int], coeff_rows, rhs, tol: float) -> np.ndarray:
    """Solve x = A x + b restricted to `unknowns`.

    coeff_rows[i] lists (unknown-index, probability) for unknowns[i]; rhs is
    the constant vector.  Picks dense / sparse-direct / Gauss-Seidel by size.
    """
    n = len(unknowns)
    if n == 0:
        return np.zeros(0)
    if n <= DENSE_LIMIT:
        a = np.eye(n)
        for i, row in enumerate(coeff_rows):
            for j, p in row:
                a[i, j] -= p
        return np.linalg.solve(a, rhs)
    if n <= DIRECT_LIMIT:
        from scipy.sparse import lil_matrix
        from scipy.sparse.linalg import spsolve

        a = lil_matrix((n, n))
        a.setdiag(1.0)
        for i, row in enumerate(coeff_rows):
            for j, p in row:
                a[i, j] -= p
        return spsolve(a.tocsr(), rhs)
    return _gauss_seidel(coeff_rows, rhs, tol)


def _gauss_seidel(coeff_rows, rhs, tol: float, on_sweep=None) -> np.ndarray:
    """Gauss-Seidel from zero: iterates are monotonically non-decreasing for
    these non-negative systems, converging from below."""
    x = np.zeros(len(coeff_rows))
    for _ in range(1_000_000):
        delta = 0.0
        for i, row in enumerate(coeff_rows):
            v = rhs[i]
            for j, p in row:
                v += p * x[j]
            delta = max(delta, abs(v - x[i]))
            x[i] = v
        if on_sweep is not None:
            on_sweep(x.copy())
        if delta < tol:
            break
    return x


def _solve_reach(dtmc: Dtmc, prob0: set[int], prob1: set[int], tol: float) -> dict[int, float]:
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
    x = _solve_linear(unknowns, rows, rhs, tol)
    return {s: float(x[i]) for s, i in uindex.items()}


def reach_probability(dtmc: Dtmc, target_label: str, tol: float = DEFAULT_TOL) -> float:
    """Probability of eventually reaching a state with the target label."""
    dtmc.check()
    prob0, prob1 = prob01_sets(dtmc, dtmc.states_with_label(target_label))
    if dtmc.initial in prob1:
        return 1.0
    if dtmc.initial in prob0:
        return 0.0
    return _solve_reach(dtmc, prob0, prob1, tol)[dtmc.initial]


def reach_probability_per_state(dtmc: Dtmc, target_label: str, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vector of reachability probabilities (used by tests and diagnostics)."""
    dtmc.check()
    prob0, prob1 = prob01_sets(dtmc, dtmc.states_with_label(target_label))
    out = np.zeros(dtmc.n_states)
    for s in prob1:
        out[s] = 1.0
    for s, v in _solve_reach(dtmc, prob0, prob1, tol).items():
        out[s] = v
    return out


def expected_reward(dtmc: Dtmc, reward_name: str, target_label: str, tol: float = DEFAULT_TOL) -> float:
    """Expected reward accumulated until first hitting the target label.

    Requires the target to be reached almost surely from every state
    reachable from the initial one; otherwise the expectation diverges and
    InfiniteRewardError is raised.
    """
    dtmc.check()
    if reward_name not in dtmc.rewards:
        raise ModelError(f"unknown reward structure '{reward_name}'")
    target = dtmc.states_with_label(target_label)
    _, prob1 = prob01_sets(dtmc, target)
    reachable = dtmc.reachable_from_initial()
    bad = reachable - prob1
    if bad:
        raise InfiniteRewardError(
            f"target '{target_label}' not almost surely reached from {len(bad)} reachable state(s)"
        )
    unknowns = sorted(reachable - target)
    if dtmc.initial in target:
        return 0.0
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
    x = _solve_linear(unknowns, rows, rhs, tol)
    return float(x[uindex[dtmc.initial]])


# ---------------------------------------------------------------------------
# factored evaluation and product cross-check


@dataclass(frozen=True)
class MissionMetrics:
    success_prob: float
    expected_cost: float
    per_chain: tuple[tuple[str, float, float], ...] = ()   # (agent, succ, cost)


def factored_mission_metrics(components: Sequence[tuple[str, Dtmc]], tol: float = DEFAULT_TOL) -> MissionMetrics:
    """Mission metrics from independent per-agent chains.

    Success probabilities multiply and expected costs add because the chains
    share no state.
    """
    succ = 1.0
    cost = 0.0
    per = []
    for agent, chain in components:
        s = reach_probability(chain, "success", tol)
        c = expected_reward(chain, "cost", "done", tol)
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


@dataclass
class Mdp:
    """Explicit MDP; choices[s] lists (action label, [(target, prob)], [rewards])."""

    n_states: int
    initial: int
    choices: list[list[tuple[str, list[tuple[int, float]], list[float]]]]
    labels: dict[str, frozenset[int]]

    def check(self):
        if len(self.choices) != self.n_states:
            raise ModelError("choice table size mismatch")
        for i, acts in enumerate(self.choices):
            if not acts:
                raise ModelError(f"state {i} has no enabled action")
            for name, row, rew in acts:
                total = sum(p for _, p in row)
                if abs(total - 1.0) > PROB_SUM_TOL:
                    raise ModelError(f"state {i} action '{name}' sums to {total}")
                if len(rew) != len(row):
                    raise ModelError(f"state {i} action '{name}' reward misaligned")

    def states_with_label(self, label: str) -> frozenset[int]:
        if label not in self.labels or not self.labels[label]:
            raise ModelError(f"no state carries label '{label}'")
        return self.labels[label]


def mdp_max_reach_prob(mdp: Mdp, label: str, tol: float = DEFAULT_TOL) -> float:
    """Maximum probability of reaching the label over all policies.

    Value iteration from below, then an exact linear solve of the greedy
    policy's induced chain to polish the fixed point.
    """
    mdp.check()
    target = mdp.states_with_label(label)
    x = np.zeros(mdp.n_states)
    for s in target:
        x[s] = 1.0
    for _ in range(1_000_000):
        delta = 0.0
        for s in range(mdp.n_states):
            if s in target:
                continue
            best = 0.0
            for _, row, _ in mdp.choices[s]:
                v = sum(p * x[j] for j, p in row)
                best = max(best, v)
            delta = max(delta, abs(best - x[s]))
            x[s] = best
        if delta < tol:
            break
    # polish: evaluate a proper greedy policy exactly.  Ties between
    # value-optimal actions are broken toward actions whose support moves
    # closer to the target; a plain argmax may cycle among equal-value
    # states and never reach it.
    opt_actions: dict[int, list[int]] = {}
    for s in range(mdp.n_states):
        if s in target:
            continue
        vals = [sum(p * x[j] for j, p in row) for _, row, _ in mdp.choices[s]]
        best = max(vals)
        opt_actions[s] = [i for i, v in enumerate(vals) if v >= best - 1e-12]
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
    return reach_probability(chain, label, tol)


def mdp_min_bounded_reward(mdp: Mdp, bound: int = 20) -> float:
    """Minimum expected reward accumulated within `bound` steps."""
    mdp.check()
    if bound < 0:
        raise ValueError("bound must be >= 0")
    x = np.zeros(mdp.n_states)
    for _ in range(bound):
        nxt = np.zeros(mdp.n_states)
        for s in range(mdp.n_states):
            best = math.inf
            for _, row, rew in mdp.choices[s]:
                v = sum(p * (r + x[j]) for (j, p), r in zip(row, rew))
                best = min(best, v)
            nxt[s] = best
        x = nxt
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
