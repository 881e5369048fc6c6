"""Demand-aware map partitioning.

Phase 1 opens K partition centers by greedy capacitated facility location:
node demand is proportional to the pickup probability, every center gets an
equal share (1/K) of the total demand as capacity, and each new center is the
node minimizing demand-weighted distance to the still-unserved demand.
Phase 2 refines with weighted k-means on graph distance: assign nodes to the
nearest center, recenter each sector at its pickup-weighted 1-medoid, repeat
to a fixed point. High-demand regions end up with geographically smaller
sectors. All ties break on the smallest node index, so the procedure is
deterministic; the seed argument is accepted for interface symmetry only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FleetrollError


class PartitionError(FleetrollError):
    pass


class KExceedsNodes(PartitionError):
    pass


@dataclass
class PartitionSpec:
    K: int
    m_lim: int
    centers: list                 # one node per sector, sector k = centers[k-1]
    assignment: list              # node -> sector id, entry 0 unused

    def sector_of(self, v: int) -> int:
        return self.assignment[v]

    def nodes_of(self, k: int) -> list:
        return [v for v in range(1, len(self.assignment)) if self.assignment[v] == k]

    def rows(self):
        yield ["node", "sector", "center"]
        for v in range(1, len(self.assignment)):
            k = self.assignment[v]
            yield [v, k, self.centers[k - 1]]


def _greedy_facility_location(graph, demand, K):
    """Open K centers one at a time; each absorbs its capacity (total/K) of the
    nearest unserved demand before the next center is scored."""
    dist = graph._dist
    capacity = sum(demand.values()) / K
    unserved = dict(demand)
    centers = []
    for _ in range(K):
        best, best_score = None, None
        for c in range(1, graph.n + 1):
            if c in centers:
                continue
            score = sum(w * dist[c][v] for v, w in unserved.items() if w > 0)
            if best_score is None or score < best_score:
                best, best_score = c, score
        centers.append(best)
        room = capacity
        for v in sorted(unserved, key=lambda v: (dist[best][v], v)):
            if room <= 0:
                break
            take = min(unserved[v], room)
            unserved[v] -= take
            room -= take
    return centers


def _assign_to_centers(graph, centers):
    """Nearest center per node, in two passes.

    Nodes strictly closest to one center go there outright; nodes equidistant
    to several centers are then handed (in ascending node order) to whichever
    tied sector currently holds fewer nodes, smaller center node index on
    equal loads. Equidistant ties never change the distance objective, and
    splitting them evenly keeps symmetric instances balanced.
    """
    dist = graph._dist
    assignment = [0] * (graph.n + 1)
    loads = [0] * len(centers)
    tied = []
    for v in range(1, graph.n + 1):
        best_d = min(dist[c][v] for c in centers)
        ks = [k for k, c in enumerate(centers, start=1) if dist[c][v] == best_d]
        if len(ks) == 1:
            assignment[v] = ks[0]
            loads[ks[0] - 1] += 1
        else:
            tied.append((v, ks))
    for v, ks in tied:
        best_k = min(ks, key=lambda k: (loads[k - 1], centers[k - 1]))
        assignment[v] = best_k
        loads[best_k - 1] += 1
    return assignment


def _weighted_medoid(graph, nodes, weights, incumbent=None):
    """Pickup-weighted 1-medoid of a sector: smallest node index on ties,
    except that a tied incumbent center is kept (prevents tie oscillation)."""
    dist = graph._dist
    best, best_score = None, None
    for c in nodes:
        score = sum(weights.get(v, 0.0) * dist[c][v] for v in nodes)
        if best_score is None or score < best_score or (score == best_score and c < best):
            best, best_score = c, score
    if incumbent is not None and incumbent in nodes:
        inc_score = sum(weights.get(v, 0.0) * dist[incumbent][v] for v in nodes)
        if inc_score <= best_score:
            return incumbent
    return best


def _objective(graph, centers, assignment, weights):
    dist = graph._dist
    return sum(weights.get(v, 0.0) * dist[centers[assignment[v] - 1]][v]
               for v in range(1, graph.n + 1))


def get_partitions(graph, model, m_lim: int, K: int, seed=None,
                   max_iter: int = 100) -> PartitionSpec:
    """Partition the graph into K sectors sized inversely to pickup demand."""
    if K < 1 or m_lim < 1:
        raise PartitionError("K and m_lim must be >= 1")
    if K > graph.n:
        raise KExceedsNodes(f"cannot open {K} sectors on {graph.n} nodes")
    weights = {v: model.pickup_pmf.get(v, 0.0) for v in range(1, graph.n + 1)}

    centers = _greedy_facility_location(graph, weights, K)
    assignment = _assign_to_centers(graph, centers)
    obj = _objective(graph, centers, assignment, weights)
    for _ in range(max_iter):
        new_centers = []
        for k in range(1, K + 1):
            nodes = [v for v in range(1, graph.n + 1) if assignment[v] == k]
            new_centers.append(_weighted_medoid(graph, nodes, weights,
                                                incumbent=centers[k - 1]))
        new_assignment = _assign_to_centers(graph, new_centers)
        new_obj = _objective(graph, new_centers, new_assignment, weights)
        assert new_obj <= obj + 1e-9, "k-means objective increased"
        if new_centers == centers and new_assignment == assignment:
            break
        centers, assignment, obj = new_centers, new_assignment, new_obj

    for k in range(1, K + 1):
        if not any(assignment[v] == k for v in range(1, graph.n + 1)):
            raise PartitionError(f"sector {k} ended up empty")  # unreachable: centers self-assign
    return PartitionSpec(K=K, m_lim=m_lim, centers=centers, assignment=assignment)
