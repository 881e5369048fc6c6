"""Exact first Wasserstein distance on a graph metric, as an independent
check of `fleetroll.stability.compute_bounds`.

For the shortest-path metric of a graph with unit edge lengths, W1 equals
the uncapacitated min-cost transshipment on the directed edges (Beckmann's
formulation): one flow variable per edge, node balance p - q. HiGHS solves
that LP exactly, so it serves as the oracle the benchmark compares against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix


def edge_flow_wd(graph, p, q):
    """W1(p, q) under `graph`'s shortest-path metric (unit edge lengths)."""
    n = graph.n
    edges = sorted(set(graph.edges))
    tails = np.array([i for i, _ in edges]) - 1
    heads = np.array([j for _, j in edges]) - 1
    cols = np.arange(len(edges))
    incidence = coo_matrix(
        (np.concatenate([np.ones(len(edges)), -np.ones(len(edges))]),
         (np.concatenate([tails, heads]), np.concatenate([cols, cols]))),
        shape=(n, len(edges))).tocsr()
    balance = np.zeros(n)
    for v, mass in p.items():
        balance[v - 1] += mass
    for v, mass in q.items():
        balance[v - 1] -= mass
    res = linprog(np.ones(len(edges)), A_eq=incidence, b_eq=balance,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"edge-flow LP failed: {res.message}")
    return float(res.fun)


def fleet_sizes(terms, wd):
    """(m_sufficient, m_necessary) from the paper's formulas, recomputed here
    so the check does not reuse the code it checks."""
    d_max = max(terms.e_xi_rho, terms.e_lrand_rho) + terms.e_rho_delta
    d_min = wd + terms.e_rho_delta
    return (math.ceil(terms.e_eta * d_max - 1e-9),
            math.ceil(terms.e_eta * d_min - 1e-9))


def diameter(graph):
    return max(graph.distance(i, j)
               for i in range(1, graph.n + 1) for j in range(1, graph.n + 1))
