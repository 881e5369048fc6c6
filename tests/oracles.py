"""Independent test oracles shared by the unit and acceptance suites."""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from scipy.optimize import linprog

from fleetroll.planner import TwoPhasePolicy
from fleetroll.rollout import RolloutPolicy, _sample_scenario, _trajectory_cost
from fleetroll.sim import run_episode


def lp_transport_value(a, b, cost):
    """LP over the transportation polytope (HiGHS), independent of the
    production flow solver."""
    S, T = len(a), len(b)
    c = [cost[i][j] for i in range(S) for j in range(T)]
    A_eq = []
    for i in range(S):
        row = [0.0] * (S * T)
        for j in range(T):
            row[i * T + j] = 1.0
        A_eq.append(row)
    for j in range(T):
        row = [0.0] * (S * T)
        for i in range(S):
            row[i * T + j] = 1.0
        A_eq.append(row)
    res = linprog(c, A_eq=A_eq, b_eq=list(a) + list(b), bounds=(0, None),
                  method="highs")
    assert res.success
    return res.fun


def vertex_enumeration_value(a, b, cost):
    """Exhaustive optimum over the transportation polytope's vertices.

    Every basic feasible solution is a spanning tree of the bipartite support
    graph; enumerate all edge subsets of size S+T-1, solve the unique tree
    flow by leaf elimination in exact rationals, keep the cheapest feasible
    one. Only for small supports (the subset count explodes quickly).
    """
    S, T = len(a), len(b)
    edges = [(i, j) for i in range(S) for j in range(T)]
    best = None
    for basis in itertools.combinations(edges, S + T - 1):
        adj = {("s", i): [] for i in range(S)}
        adj.update({("t", j): [] for j in range(T)})
        for i, j in basis:
            adj[("s", i)].append(("t", j))
            adj[("t", j)].append(("s", i))
        need = {("s", i): Fraction(a[i]) for i in range(S)}
        need.update({("t", j): -Fraction(b[j]) for j in range(T)})
        if any(len(ns) == 0 for ns in adj.values()):
            continue
        live = {frozenset((("s", i), ("t", j))): (i, j) for i, j in basis}
        flows = {}
        removed = set()
        queue = [v for v, ns in adj.items() if len(ns) == 1]
        ok = True
        while queue:
            v = queue.pop()
            if v in removed:
                continue
            nbrs = [u for u in adj[v] if u not in removed
                    and frozenset((u, v)) in live]
            if not nbrs:
                removed.add(v)
                if need[v] != 0:
                    ok = False
                    break
                continue
            u = nbrs[0]
            i, j = live.pop(frozenset((u, v)))
            flows[(i, j)] = need[v] if v[0] == "s" else -need[v]
            need[u] += need[v]
            need[v] = Fraction(0)
            removed.add(v)
            remaining = [w for w in adj[u] if w not in removed
                         and frozenset((w, u)) in live]
            if len(remaining) <= 1:
                queue.append(u)
        if not ok or live or any(n != 0 for n in need.values()):
            continue
        if any(f < 0 for f in flows.values()):
            continue
        total = sum(float(f) * cost[i][j] for (i, j), f in flows.items())
        if best is None or total < best - 1e-15:
            best = total
    return best


def vertex_enumeration_feasible(S, T, cap=20000):
    """True when the basis-subset count is small enough to enumerate."""
    import math

    return math.comb(S * T, S + T - 1) <= cap


def grid_aligned_pmf(rng, size, nodes):
    """Random pmf whose masses sit on the 1e-6 grid used by the flow scaling."""
    raw = rng.integers(1, 10 ** 6, size=size)
    raw = (raw * (10 ** 6) // raw.sum())
    raw[0] += 10 ** 6 - raw.sum()
    return {n: int(x) / 10 ** 6 for n, x in zip(nodes, raw)}


@dataclass
class LookaheadEstimate:
    mean: float
    scenario_costs: list = field(default_factory=list)


def evaluate_candidate(state, joint_control, graph, model, cfg, rng, inbound=()):
    """Monte-Carlo lookahead estimate of one joint control's cost."""
    costs = [_trajectory_cost(state, joint_control, batches, graph,
                              cfg.base_policy, cfg.t_h, inbound)
             for batches in _sample_scenario(model, cfg.t_h, cfg.num_mc, rng)]
    return LookaheadEstimate(sum(costs) / len(costs), costs)


def rollout_policy_cost(graph, model, m, T, cfg, seeds):
    """Mean and standard error of global-rollout episode cost over the seeds."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed required")
    costs = [run_episode(graph, model, RolloutPolicy(graph, model, cfg), m, T, s).cost
             for s in seeds]
    mean = sum(costs) / len(costs)
    if len(costs) > 1:
        var = sum((c - mean) ** 2 for c in costs) / (len(costs) - 1)
        stderr = math.sqrt(var / len(costs))
    else:
        stderr = 0.0
    return mean, stderr, costs


def run_two_phase(graph, model, m, T, m_lim, cfg, seed):
    """Build the two-phase policy and run one episode."""
    policy = TwoPhasePolicy(graph, model, m, m_lim, cfg)
    return run_episode(policy.graph, model, policy, m, T, seed)
