"""Demand-aware map partitioning.

Phase 1 opens K partition centers by greedy capacitated facility location:
node demand is proportional to the pickup probability, every center gets an
equal share (1/K) of the total demand as capacity, and each new center is the
node minimizing demand-weighted distance to the still-unserved demand.
Phase 2 refines with weighted k-means on graph distance: assign nodes to the
nearest center, recenter each sector at its pickup-weighted 1-medoid, repeat
to a fixed point. High-demand regions end up with geographically smaller
sectors.

Every score is a float sum of weight times distance, accumulated left to right
over nodes in ascending order (`CityGraph.weighted_distance_sums`), and among
equal scores the smallest node index wins; a tied incumbent medoid is kept.
Candidates that tie in exact arithmetic can differ in the last bits of their
sums, so exact symmetry does not make the smaller index win: with uniform
demand on a 20x20 grid the four centre nodes all score 10 exactly, yet node
191 opens first (node 190 sums to 9.999999999999996, the others to
9.999999999999995). The procedure is deterministic either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FleetrollError


class PartitionError(FleetrollError):
    pass


class KExceedsNodes(PartitionError):
    pass


_MAX_ITER = 100  # k-means rounds at most


@dataclass
class PartitionSpec:
    centers: list                 # one node per sector, sector k = centers[k-1]
    assignment: list              # node -> sector id, entry 0 unused

    @property
    def K(self) -> int:
        return len(self.centers)

    def sector_of(self, v: int) -> int:
        return self.assignment[v]

    @cached_property
    def _members(self) -> dict:
        """Sector id -> its nodes as an ascending array."""
        ids = np.asarray(self.assignment)
        return {k: np.flatnonzero(ids == k) for k in range(1, self.K + 1)}

    @cached_property
    def node_sets(self) -> dict:
        """Sector id -> frozenset of its nodes (the planner reads it every step)."""
        return {k: frozenset(vs.tolist()) for k, vs in self._members.items()}

    def entry_point(self, graph, v_start: int, v_end: int) -> int:
        """Boundary entry point: the node of sector(v_end) on a shortest
        v_start -> v_end path of `graph` that is closest to v_start (smallest
        index on ties)."""
        ks, ke = self.assignment[v_start], self.assignment[v_end]
        if ks == ke:
            raise PartitionError(f"{v_start} and {v_end} are both in sector {ks}")
        nodes = self._members[ke]  # ascending; v_end is one
        via = graph.dist_array[v_start, nodes].astype(np.intp)
        on_path = np.flatnonzero(via + graph.dist_array[nodes, v_end]
                                 == graph.dist_array[v_start, v_end])
        return int(nodes[on_path[np.argmin(via[on_path])]])  # first minimum

    def rows(self):
        yield ["node", "sector", "center"]
        for v in range(1, len(self.assignment)):
            k = self.assignment[v]
            yield [v, k, self.centers[k - 1]]


def _greedy_facility_location(graph, demand, K):
    """Open K centers one at a time; each absorbs its capacity (total/K) of the
    nearest unserved demand before the next center is scored."""
    nodes = np.arange(1, graph.n + 1)
    capacity = float(np.cumsum(demand[1:])[-1]) / K
    unserved = demand[1:].tolist()
    centers = []
    for _ in range(K):
        scores = graph.weighted_distance_sums(nodes, nodes, unserved)
        scores[np.array(centers, dtype=np.intp) - 1] = np.inf
        best = int(np.argmin(scores)) + 1
        centers.append(best)
        room = capacity
        # nearest first, smaller node index on equal distance
        for i in np.argsort(graph.dist_array[best, 1:], kind="stable").tolist():
            if room <= 0:
                break
            take = min(unserved[i], room)
            unserved[i] -= take
            room -= take
    return centers


def _assign_to_centers(graph, centers):
    """Nearest center per node (sector ids in an array indexed by node, entry
    0 unused), in two passes.

    Nodes strictly closest to one center go there outright; nodes equidistant
    to several centers are then handed (in ascending node order) to whichever
    tied sector currently holds fewer nodes, smaller center node index on
    equal loads. Equidistant ties never change the distance objective, and
    splitting them evenly keeps symmetric instances balanced.
    """
    dist = graph.dist_array[centers, 1:]
    nearest = dist == dist.min(axis=0)
    assignment = np.zeros(graph.n + 1, dtype=np.intp)
    assignment[1:] = nearest.argmax(axis=0) + 1
    tied = np.flatnonzero(nearest.sum(axis=0) > 1)
    assignment[tied + 1] = 0
    loads = np.bincount(assignment, minlength=len(centers) + 1).tolist()
    for i, row in zip(tied.tolist(), nearest[:, tied].T.tolist()):
        ks = [k for k, hit in enumerate(row, start=1) if hit]
        best_k = min(ks, key=lambda k: (loads[k], centers[k - 1]))
        assignment[i + 1] = best_k
        loads[best_k] += 1
    return assignment


def _weighted_medoid(graph, nodes, weights, incumbent):
    """Pickup-weighted 1-medoid of a sector (`nodes` ascending): smallest node
    index on ties, except that a tied incumbent center is kept (prevents tie
    oscillation)."""
    scores = graph.weighted_distance_sums(nodes, nodes, weights[nodes])
    best = int(np.argmin(scores))
    inc = int(np.searchsorted(nodes, incumbent))  # a center is nearest to itself
    return incumbent if scores[inc] <= scores[best] else int(nodes[best])


def _objective(graph, centers, assignment, weights):
    nodes = np.arange(1, graph.n + 1)
    terms = weights[1:] * graph.dist_array[np.array(centers)[assignment[1:] - 1], nodes]
    return float(np.cumsum(terms)[-1])  # left to right, like the scores


def get_partitions(graph, model, K: int) -> PartitionSpec:
    """Partition the graph into K sectors sized inversely to pickup demand."""
    if K < 1:
        raise PartitionError(f"K must be >= 1, got {K}")
    if K > graph.n:
        raise KExceedsNodes(f"cannot open {K} sectors on {graph.n} nodes")
    weights = np.array([0.0] + [model.pickup_pmf.get(v, 0.0) for v in range(1, graph.n + 1)])

    centers = _greedy_facility_location(graph, weights, K)
    assignment = _assign_to_centers(graph, centers)
    obj = _objective(graph, centers, assignment, weights)
    for _ in range(_MAX_ITER):
        new_centers = [_weighted_medoid(graph, np.flatnonzero(assignment == k), weights,
                                        incumbent=centers[k - 1])
                       for k in range(1, K + 1)]
        new_assignment = _assign_to_centers(graph, new_centers)
        new_obj = _objective(graph, new_centers, new_assignment, weights)
        assert new_obj <= obj + 1e-9, "k-means objective increased"
        if new_centers == centers and np.array_equal(new_assignment, assignment):
            break
        centers, assignment, obj = new_centers, new_assignment, new_obj

    if (empty := np.flatnonzero(np.bincount(assignment, minlength=K + 1)[1:] == 0)).size:
        raise PartitionError(f"sector {empty[0] + 1} ended up empty")  # unreachable: centers self-assign
    return PartitionSpec(centers=centers, assignment=assignment.tolist())
