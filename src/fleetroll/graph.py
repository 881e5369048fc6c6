"""Street network as a directed unit-weight graph with exact all-pairs distances.

Nodes are 1-indexed. Distances and next hops are precomputed once per graph
because the planners query them millions of times. Both tables are built in
blocks (hop distances by a bit-parallel BFS from all sources at once, then one
vectorised pass over each block's edges for its next hops), so no build
temporary is n x n. `dist_array` holds the distances as unsigned shorts
(unsigned ints from 65,536 nodes on) for building cost matrices by indexing;
`_dist` gives its rows as lists for scalar lookups, each made the first time
it is read and kept within a byte budget; next hops are one compact `array`
row per node. The graph is immutable afterwards and safe to share across
workers.
"""

from __future__ import annotations

from array import array
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .errors import FleetrollError, read_utf8


class GraphError(FleetrollError):
    pass


class InvalidEdge(GraphError):
    pass


class NotStronglyConnected(GraphError):
    pass


class SameNode(GraphError):
    pass


_BLOCK_CELLS = 1 << 16  # cells per block of a weighted distance sum
_ROW_LOOP_SOURCES = 250  # from this many sources a weighted distance sum goes target by target
_BUILD_BLOCK_CELLS = 1 << 20  # cells per block of source rows in the table build
_LIST_ROW_BYTES = 256 << 20  # list rows of distances kept per graph, 8 bytes a slot


class CityGraph:
    """Directed street network with a shortest-path oracle.

    All tie-breaking (next hops) is by smallest node index so that every
    downstream computation is reproducible.
    """

    def __init__(self, n, edges, coords=None):
        if n < 1:
            raise InvalidEdge(f"node count must be >= 1, got {n}")
        self.n = n
        self.edges = tuple((int(i), int(j)) for i, j in edges)
        self.coords = dict(coords) if coords else None
        self._dist_to = None
        self.adj = self._build_adjacency()
        # (n+1) x (n+1) tables; row and column 0 are unused padding.
        self.dist_array = _all_pairs_distances(self.adj)
        self._dist = _ListRows(self.dist_array)
        self._next = _next_hop_rows(self.adj, self.dist_array)

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

    def next_hop(self, i: int, j: int) -> int:
        """Neighbor of i on a shortest path to j; smallest index on ties."""
        hop = self._next[i][j]
        if not hop:  # only on the diagonal: the graph is strongly connected
            raise SameNode(f"next_hop({i}, {j}) undefined for identical nodes")
        return hop

    def weighted_distance_sums(self, sources, targets, weights) -> np.ndarray:
        """For each source s, the sum over j of weights[j] * distance(s, targets[j]),
        accumulated left to right over the targets: the same float operations
        as a sequential Python `sum()` (3.11), so orderings built on it are
        reproducible.

        Zero-weight targets are skipped (x + 0.0 == x). Few sources are summed
        per source by a cumulative sum along each row; many sources are summed
        target by target for all of them at once (`out += w * d(sources, t)`),
        which runs along rows of the distances-to table. Both take rows in
        blocks of bounded size.
        """
        sources = np.asarray(sources, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        weights = np.asarray(weights, dtype=float)
        keep = np.flatnonzero(weights)
        targets, weights = targets[keep], weights[keep]
        out = np.zeros(len(sources))
        if not len(targets):
            return out
        if len(sources) < _ROW_LOOP_SOURCES:
            rows = max(1, _BLOCK_CELLS // len(targets))
            for at in range(0, len(sources), rows):
                block = self.dist_array[sources[at:at + rows]][:, targets] * weights
                out[at:at + rows] = np.cumsum(block, axis=1, out=block)[:, -1]
            return out
        table = self._distances_to()
        everyone = len(sources) == self.n and np.array_equal(sources, np.arange(1, self.n + 1))
        rows = max(1, _BLOCK_CELLS // len(sources))
        for at in range(0, len(targets), rows):
            block = table[targets[at:at + rows]]
            block = block[:, 1:] if everyone else block[:, sources]
            for row in block * weights[at:at + rows, None]:
                out += row
        return out

    def _distances_to(self):
        """Table whose row t holds distance(s, t) for every s: `dist_array`
        itself when every edge has its reverse (unit-weight distances are then
        symmetric), otherwise a transposed copy made the first time it is needed."""
        if self._dist_to is None:
            edges = {(i, j) for i, row in enumerate(self.adj) for j in row}
            symmetric = all((j, i) in edges for i, j in edges)
            self._dist_to = (self.dist_array if symmetric
                             else np.ascontiguousarray(self.dist_array.T))
        return self._dist_to

    def shortest_path(self, i: int, j: int) -> list[int]:
        """Node sequence from i to j inclusive, following next_hop."""
        path = [i]
        cur = i
        while cur != j:
            cur = self.next_hop(cur, j)
            path.append(cur)
        return path


class _ListRows(dict):
    """Rows of a distance array as lists, indexed like a list of rows, each
    made the first time it is read: list reads are the fastest scalar reads
    the lookahead's inner loop can make.

    The rows' slots (8 bytes each) stay within _LIST_ROW_BYTES: a miss past
    it drops the oldest row. Distances above 256 are int objects of their
    own, which the budget does not count. A hit stays one dict lookup.
    """

    def __init__(self, table):
        super().__init__()
        self.table = table

    def __missing__(self, i):
        if len(self) >= max(1, _LIST_ROW_BYTES // (8 * len(self.table))):
            del self[next(iter(self))]
        row = self[i] = self.table[i].tolist()
        return row


def _all_pairs_distances(adj):
    """Hop distances between all node pairs as unsigned ints, the largest
    value of the dtype in the padding row and column.

    A BFS from all sources at once on bitsets of targets (the bit-parallel BFS
    of Akiba, Iwata & Yoshida, SIGMOD 2013): s first reaches at level L what its
    neighbors first reached at level L - 1 and s had not; those bits go into
    the bit-planes where L has a 1 bit. Targets are taken in blocks of about
    _BUILD_BLOCK_CELLS cells. Raises NotStronglyConnected naming the first
    unreachable (source, target) pair in row-major order.
    """
    n = len(adj) - 1
    # slot x node; padded slots take row 0, which stays empty
    nbr = np.array(list(zip_longest([0], *adj[1:], fillvalue=0)), dtype=np.intp)
    # A distance is at most n - 1, so it always fits below the padding value.
    dist = np.zeros((n + 1, n + 1), dtype=np.uint16 if n < 2 ** 16 else np.uint32)
    step = 64 * max(1, _BUILD_BLOCK_CELLS // (64 * (n + 1)))  # target columns per block
    for c0 in range(0, n + 1, step):
        c1 = min(c0 + step, n + 1)
        own = np.arange(max(c0, 1), c1)
        frontier = np.zeros((n + 1, (c1 - c0 + 63) // 64), dtype="<u8")  # level 0: s itself
        frontier[own, (own - c0) >> 6] = np.left_shift(1, own & 63).astype("<u8")
        unreached = np.bitwise_or.reduce(frontier, axis=0) ^ frontier
        planes = np.zeros(((n - 1).bit_length(), *frontier.shape), dtype="<u8")
        for level in range(1, n + 1):
            new = np.bitwise_or.reduce(np.take(frontier, nbr, axis=0), axis=0) & unreached
            if not new.any():
                break
            unreached ^= new
            for b in range(level.bit_length()):
                if level >> b & 1:
                    planes[b] |= new
            frontier = new
        bits = np.unpackbits(planes[:(level - 1).bit_length()].view(np.uint8), axis=2,
                             count=c1 - c0, bitorder="little")
        for b, plane_bits in enumerate(bits):
            dist[:, c0:c1] |= np.left_shift(plane_bits, b, dtype=dist.dtype)
    dist[0] = dist[:, 0] = np.iinfo(dist.dtype).max
    if np.count_nonzero(dist[1:, 1:]) < n * (n - 1):  # an unreached pair stayed 0
        src, tgt = next((i, j) for i in range(1, n + 1)
                        for j in np.flatnonzero(dist[i] == 0) if j != i)
        raise NotStronglyConnected(f"node {tgt} is unreachable from node {src}")
    return dist


def _next_hop_rows(adj, dist):
    """Next-hop rows, one `array` per node of the dtype of `dist`: entry j of
    row i is the smallest-index neighbor k of i with dist[k, j] = dist[i, j] - 1,
    0 on the diagonal and in the padding.

    Rows are built in blocks. Within a block, neighbor slots are visited from
    the last to the first, so the smallest neighbor on a shortest path is
    written last. Work is O(|E| n). The unsigned dist - 1 wraps on the
    diagonal to the padding value, which no distance takes, and the padding
    column wants one less than it: neither ever matches a neighbor.
    """
    code = "H" if dist.dtype == np.uint16 else "I"
    n = len(adj) - 1
    degree = np.array([len(nbrs) for nbrs in adj])
    rows = max(1, _BUILD_BLOCK_CELLS // (n + 1))
    table = []
    for at in range(0, n + 1, rows):
        stop = min(at + rows, n + 1)
        want = dist[at:stop] - 1
        nxt = np.zeros(want.shape, dtype=dist.dtype)
        for slot in range(int(degree[at:stop].max(initial=0)) - 1, -1, -1):
            local = np.flatnonzero(degree[at:stop] > slot)
            nbr = np.array([adj[at + i][slot] for i in local.tolist()])
            on_path = dist[nbr] == want[local]
            nxt[local] = np.where(on_path, nbr[:, None].astype(dist.dtype), nxt[local])
        table += [array(code, row.tobytes()) for row in nxt]
    return table


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
    vals = []
    for number, line in enumerate(read_utf8(path, GraphError).splitlines(), start=1):
        try:
            vals += map(int, line.split())
        except ValueError:
            raise GraphError(f"{path}: line {number} is not integers: {line.strip()!r}") from None
    if len(vals) < 2:
        raise GraphError(f"{path}: expected a header line 'n m_edges'")
    (n, m), vals = vals[:2], vals[2:]
    if len(vals) < 2 * m:
        raise GraphError(f"{path}: expected {m} edges, found {len(vals) // 2}")
    return CityGraph(n, list(zip(vals[0:2 * m:2], vals[1:2 * m:2])))


def save_graph(graph: CityGraph, path) -> None:
    lines = [f"{graph.n} {len(graph.edges)}"]
    lines += [f"{i} {j}" for i, j in graph.edges]
    Path(path).write_text("\n".join(lines) + "\n")
