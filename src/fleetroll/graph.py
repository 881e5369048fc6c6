"""Street network as a directed unit-weight graph with exact all-pairs distances.

Nodes are 1-indexed. Distances and next hops are precomputed once per graph
(all-pairs shortest paths by scipy.sparse.csgraph, then one vectorised pass
over the edges for the next-hop table) because the planners query them
millions of times. Distances are kept as nested lists for scalar lookups and
as a numpy array for building cost matrices by indexing; next hops as one
compact `array` row per node. The graph is immutable afterwards and safe to
share across workers.
"""

from __future__ import annotations

from array import array
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import FleetrollError


class GraphError(FleetrollError):
    pass


class InvalidEdge(GraphError):
    pass


class NotStronglyConnected(GraphError):
    pass


class SameNode(GraphError):
    pass


class SameSector(GraphError):
    pass


class SectorsUnassigned(GraphError):
    pass


_UNREACHED = -1


class CityGraph:
    """Directed street network with a shortest-path oracle and optional sectors.

    All tie-breaking (next hops, boundary entry points) is by smallest node
    index so that every downstream computation is reproducible.
    """

    def __init__(self, n, edges, coords=None, sectors=None, _precomputed=None):
        if n < 1:
            raise InvalidEdge(f"node count must be >= 1, got {n}")
        self.n = n
        self.edges = tuple((int(i), int(j)) for i, j in edges)
        self.coords = dict(coords) if coords else None
        self.sectors = list(sectors) if sectors is not None else None
        if self.sectors is not None:
            if len(self.sectors) != n + 1:
                raise GraphError("sector list must have one entry per node (1-indexed)")
            if any(self.sectors[v] < 1 for v in range(1, n + 1)):
                raise GraphError("sector assignment must cover every node")
        if _precomputed is not None:
            self.adj, self.dist_array, self._dist, self._next = _precomputed
        else:
            self.adj = self._build_adjacency()
            # (n+1) x (n+1) tables; row and column 0 are unused padding.
            self.dist_array = _all_pairs_distances(self.adj)
            self._dist = self.dist_array.tolist()
            # Rows of unsigned shorts take a quarter of the memory of list rows.
            code = "H" if n < 2 ** 16 else "I"
            hops = _next_hop_table(self.adj, self.dist_array).astype(code)
            self._next = [array(code, row.tobytes()) for row in hops]

    def _build_adjacency(self):
        adj = [[] for _ in range(self.n + 1)]
        seen = set()
        for i, j in self.edges:
            if not (1 <= i <= self.n) or not (1 <= j <= self.n):
                raise InvalidEdge(f"edge ({i}, {j}) has an endpoint outside 1..{self.n}")
            if (i, j) in seen:
                continue
            seen.add((i, j))
            adj[i].append(j)
        for row in adj:
            row.sort()
        return adj

    def distance(self, i: int, j: int) -> int:
        return self._dist[i][j]

    def neighbors(self, i: int) -> list[int]:
        return self.adj[i]

    def next_hop(self, i: int, j: int) -> int:
        """Neighbor of i on a shortest path to j; smallest index on ties."""
        hop = self._next[i][j]
        if not hop:  # only on the diagonal: the graph is strongly connected
            raise SameNode(f"next_hop({i}, {j}) undefined for identical nodes")
        return hop

    def shortest_path(self, i: int, j: int) -> list[int]:
        """Node sequence from i to j inclusive, following next_hop."""
        path = [i]
        cur = i
        while cur != j:
            cur = self.next_hop(cur, j)
            path.append(cur)
        return path

    def sector_of(self, v: int) -> int:
        if self.sectors is None:
            raise SectorsUnassigned("graph has no sector assignment")
        return self.sectors[v]

    def with_sectors(self, assignment) -> "CityGraph":
        """Copy of this graph carrying a node -> sector mapping.

        assignment may be a dict {node: sector} or a list indexed by node
        (entry 0 ignored). The distance tables are shared, not recomputed.
        """
        if isinstance(assignment, dict):
            sectors = [0] * (self.n + 1)
            for v, k in assignment.items():
                sectors[v] = k
        else:
            sectors = list(assignment)
        g = CityGraph(self.n, self.edges, coords=self.coords, sectors=sectors,
                      _precomputed=(self.adj, self.dist_array, self._dist, self._next))
        return g

    def next_hop_in_partition(self, v_start: int, v_end: int) -> int:
        """Boundary entry point: the node of sector(v_end) on a shortest
        v_start -> v_end path that is closest to v_start (smallest index on ties)."""
        if self.sectors is None:
            raise SectorsUnassigned("graph has no sector assignment")
        ks, ke = self.sectors[v_start], self.sectors[v_end]
        if ks == ke:
            raise SameSector(f"{v_start} and {v_end} are both in sector {ks}")
        total = self._dist[v_start][v_end]
        drow = self._dist[v_start]
        best = None
        best_d = None
        for v in range(1, self.n + 1):
            if self.sectors[v] != ke:
                continue
            dv = drow[v]
            if dv + self._dist[v][v_end] != total:
                continue
            if best_d is None or dv < best_d:
                best, best_d = v, dv
        if best is None:
            raise GraphError(f"no shortest path from {v_start} enters sector {ke}")  # unreachable
        return best


def _all_pairs_distances(adj):
    """Hop distances between all node pairs, -1 in the padding row and column.

    Raises NotStronglyConnected naming the first unreachable (source, target)
    pair in row-major order.
    """
    n = len(adj) - 1
    heads = np.repeat(np.arange(n), [len(adj[i]) for i in range(1, n + 1)])
    tails = np.array([j - 1 for i in range(1, n + 1) for j in adj[i]], dtype=np.intp)
    arcs = csr_matrix((np.ones(len(tails)), (heads, tails)), shape=(n, n))
    hops = shortest_path(arcs, method="D", directed=True, unweighted=True)
    unreached = np.argwhere(np.isinf(hops))
    if len(unreached):
        src, tgt = unreached[0] + 1
        raise NotStronglyConnected(f"node {tgt} is unreachable from node {src}")
    dist = np.full((n + 1, n + 1), _UNREACHED, dtype=np.int32)
    dist[1:, 1:] = hops
    return dist


def _next_hop_table(adj, dist):
    """nxt[i, j]: the smallest-index neighbor k of i with dist[k, j] = dist[i, j] - 1,
    0 on the diagonal and in the padding.

    Neighbor slots are visited from the last to the first, so the smallest
    neighbor on a shortest path is written last. Work is O(|E| n).
    """
    nxt = np.zeros_like(dist)
    want = dist - 1
    degree = np.array([len(nbrs) for nbrs in adj])
    for slot in range(int(degree.max()) - 1, -1, -1):
        rows = np.flatnonzero(degree > slot)
        nbr = np.array([adj[i][slot] for i in rows])
        on_path = dist[nbr] == want[rows]
        nxt[rows] = np.where(on_path, nbr[:, None], nxt[rows])
    return nxt


def build_graph(n: int, edges, coords=None) -> CityGraph:
    """Validate and build a CityGraph; rejects graphs that are not strongly connected."""
    return CityGraph(n, edges, coords=coords)


def grid_graph(k: int) -> CityGraph:
    """k x k grid with bidirectional edges; node (row r, col c) -> (r-1)*k + c.

    Integer coordinates (col, row) are attached so the Euclidean transport
    metric is available on generated grids.
    """
    if k < 1:
        raise InvalidEdge("grid size must be >= 1")
    edges = []
    coords = {}
    for r in range(1, k + 1):
        for c in range(1, k + 1):
            v = (r - 1) * k + c
            coords[v] = (float(c - 1), float(r - 1))
            if c < k:
                edges.append((v, v + 1))
                edges.append((v + 1, v))
            if r < k:
                edges.append((v, v + k))
                edges.append((v + k, v))
    return CityGraph(k * k, edges, coords=coords)


def load_graph(path) -> CityGraph:
    """Read the plain-text edge list: first line "n m", then one "i j" per line."""
    text = Path(path).read_text().split()
    if len(text) < 2:
        raise GraphError(f"{path}: expected a header line 'n m_edges'")
    n, m = int(text[0]), int(text[1])
    vals = text[2:]
    if len(vals) < 2 * m:
        raise GraphError(f"{path}: expected {m} edges, found {len(vals) // 2}")
    edges = [(int(vals[2 * i]), int(vals[2 * i + 1])) for i in range(m)]
    return build_graph(n, edges)


def save_graph(graph: CityGraph, path) -> None:
    lines = [f"{graph.n} {len(graph.edges)}"]
    lines += [f"{i} {j}" for i, j in graph.edges]
    Path(path).write_text("\n".join(lines) + "\n")
