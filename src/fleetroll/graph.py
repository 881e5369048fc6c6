"""Street network as a directed unit-weight graph with exact all-pairs distances.

Nodes are 1-indexed. Distances and next hops are precomputed once per graph
because the planners query them millions of times. A grid's tables are
written in closed form; any other graph's are built in blocks (hop distances
by a bit-parallel BFS from all sources at once, then one vectorised pass over
each block's edges for its next hops). No build temporary is n x n.
`dist_array` holds the distances and `next_array` the next hops, both as
unsigned shorts (check_size keeps n below 65,536); cost matrices are built
from `dist_array` by indexing. For scalar lookups, `_dist` and `_next` hold
one `memoryview` per row of each table: a read `_dist[i][j]` is a Python int
and copies nothing. The tables never change after the build, so a graph is
safe to share.
"""

from __future__ import annotations

from itertools import zip_longest
from math import isqrt
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
BYTES_MAX = 2 << 30  # for graph tables or a run's up-front draws; 5x a 100x100 grid's tables


def table_bytes(n):
    """Bytes of an n-node graph's distance and next-hop tables: two
    (n+1) x (n+1) tables of unsigned shorts (unsigned ints from 65,536 nodes)."""
    return 2 * (n + 1) ** 2 * (2 if n < 2 ** 16 else 4)


def check_size(n):
    """Raise GraphError, before anything is built, for a graph whose
    tables would take more than BYTES_MAX."""
    if table_bytes(n) > BYTES_MAX:
        raise GraphError(f"a graph of {n} nodes needs {table_bytes(n) / 2 ** 30:.3g} GiB "
                         f"of distance and next-hop tables, more than the "
                         f"{BYTES_MAX / 2 ** 30:.3g} GiB allowed")


class CityGraph:
    """Directed street network with a shortest-path oracle.

    All tie-breaking (next hops) is by smallest node index so that every
    downstream computation is reproducible. Its row views cannot be pickled,
    so neither can a graph: a worker process builds its own from the
    arguments it is sent.
    """

    def __init__(self, n, edges, coords=None):
        if n < 1:
            raise InvalidEdge(f"node count must be >= 1, got {n}")
        check_size(n)
        self.n = n
        self.coords = dict(coords) if coords else None
        self._dist_to = None
        self.edges, self.adj = self._build_adjacency(edges)
        # (n+1) x (n+1) tables; row and column 0 are unused padding.
        self.dist_array, self.next_array = self._build_tables()
        self.dist_array.flags.writeable = self.next_array.flags.writeable = False
        self._dist = [memoryview(row) for row in self.dist_array]
        self._next = [memoryview(row) for row in self.next_array]

    def _build_tables(self):
        dist = _all_pairs_distances(self.adj)
        return dist, _next_hop_rows(self.adj, dist)

    def _build_adjacency(self, edges):
        """The edges as a tuple of int pairs, and each node's out-neighbors ascending."""
        edges = tuple((int(i), int(j)) for i, j in edges)
        adj = [[] for _ in range(self.n + 1)]
        seen = set()
        for i, j in edges:
            if not (1 <= i <= self.n) or not (1 <= j <= self.n):
                raise InvalidEdge(f"edge ({i}, {j}) has an endpoint outside 1..{self.n}")
            if (i, j) in seen:
                continue
            seen.add((i, j))
            adj[i].append(j)
        for row in adj:
            row.sort()
        return edges, adj

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
        for all of them at once by one reduce per block of targets, down the
        columns of the running total over the rows `w * d(sources, t)`; numpy
        adds them row after row (pairwise only along the fast axis). Both take
        rows in blocks of bounded size.
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
        buf = np.empty((min(rows, len(targets)) + 1, len(sources)))  # row 0: the running total
        for at in range(0, len(targets), rows):
            block = table[targets[at:at + rows]]
            block = block[:, 1:] if everyone else block[:, sources]
            buf[0] = out
            np.multiply(block, weights[at:at + rows, None], out=buf[1:len(block) + 1])
            np.add.reduce(buf[:len(block) + 1], axis=0, out=out)
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


def _all_pairs_distances(adj):
    """Hop distances between all node pairs as unsigned shorts, the largest
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
    # check_size keeps n below 2 ** 16: a distance, at most n - 1, fits below the padding value.
    dist = np.zeros((n + 1, n + 1), dtype=np.uint16)
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
    """Next-hop table of the shape and dtype of `dist`: entry (i, j) is the
    smallest-index neighbor k of i with dist[k, j] = dist[i, j] - 1, 0 on the
    diagonal and in the padding.

    Rows are built in blocks. Within a block, neighbor slots are visited from
    the last to the first, so the smallest neighbor on a shortest path is
    written last. Work is O(|E| n). The unsigned dist - 1 wraps on the
    diagonal to the padding value, which no distance takes, and the padding
    column wants one less than it: neither ever matches a neighbor.
    """
    n = len(adj) - 1
    degree = np.array([len(nbrs) for nbrs in adj])
    rows = max(1, _BUILD_BLOCK_CELLS // (n + 1))
    table = np.zeros_like(dist)
    for at in range(0, n + 1, rows):
        stop = min(at + rows, n + 1)
        want = dist[at:stop] - 1
        nxt = table[at:stop]
        for slot in range(int(degree[at:stop].max(initial=0)) - 1, -1, -1):
            local = np.flatnonzero(degree[at:stop] > slot)
            nbr = np.array([adj[at + i][slot] for i in local.tolist()])
            on_path = dist[nbr] == want[local]
            nxt[local] = np.where(on_path, nbr[:, None].astype(dist.dtype), nxt[local])
    return table


def grid_edges(k: int) -> list:
    """Directed edges of the k x k grid, both ways between neighbors; node
    (row r, col c) is (r-1)*k + c. Rejects a grid whose tables could not be
    built before listing any edge."""
    if k < 1:
        raise InvalidEdge("grid size must be >= 1")
    check_size(k * k)
    edges = []
    for v in range(1, k * k + 1):
        if v % k:
            edges += (v, v + 1), (v + 1, v)
        if v <= k * k - k:
            edges += (v, v + k), (v + k, v)
    return edges


class _Grid(CityGraph):
    """The k x k grid of `grid_edges(k)`, whose tables need no search: node
    v = r*k + c + 1, at 0-based (r, c), is |r - r'| + |c - c'| from (r', c'),
    and its smallest neighbor one hop closer is v - k for a target in a row
    above, else v - 1 or v + 1 for one in a column to the left or right, else
    v + k. The tables and `adj` are those the BFS builds."""

    def _build_adjacency(self, edges):
        n, k = self.n, isqrt(self.n)
        adj = [[]]
        for v in range(1, n + 1):  # neighbors ascending: up, left, right, down
            row = [v - k] if v > k else []
            if (v - 1) % k:
                row.append(v - 1)
            if v % k:
                row.append(v + 1)
            if v <= n - k:
                row.append(v + k)
            adj.append(row)
        return tuple(edges), adj  # grid_edges lists pairs of ints

    def _build_tables(self):
        k = isqrt(self.n)
        dist = np.empty((self.n + 1, self.n + 1), dtype=np.uint16)
        nxt = np.zeros_like(dist)
        dist[0] = dist[:, 0] = np.iinfo(dist.dtype).max
        line = np.arange(k)
        delta = line - line[:, None]  # source column x target column
        side, across = np.sign(delta), np.abs(delta).astype(dist.dtype)
        for r in range(k):  # sources in grid row r, as (source column, target row, target column)
            rows = slice(r * k + 1, r * k + k + 1)
            v = np.arange(rows.start, rows.stop)[:, None]
            dist[rows, 1:] = (np.abs(line - r).astype(dist.dtype)[:, None]
                              + across[:, None]).reshape(k, -1)
            hop = np.empty((k, k, k), dtype=dist.dtype)
            hop[:, :r] = (v - k)[:, None]
            hop[:, r] = np.where(side, v + side, 0)
            hop[:, r + 1:] = (v + np.where(side, side, k))[:, None]
            nxt[rows, 1:] = hop.reshape(k, -1)
        self._dist_to = dist  # distances on a grid are symmetric
        return dist, nxt


def grid_graph(k: int) -> CityGraph:
    """k x k grid graph of `grid_edges(k)`, its tables in closed form.

    Integer coordinates (col, row) are attached so the Euclidean transport
    metric is available on generated grids.
    """
    edges = grid_edges(k)
    axis = [float(i) for i in range(k)]
    coords = dict(enumerate(((col, row) for row in axis for col in axis), start=1))
    return _Grid(k * k, edges, coords=coords)


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
    if m < 0:
        raise GraphError(f"{path}: edge count {m} is negative")
    if len(vals) != 2 * m:
        raise GraphError(f"{path}: expected {m} edges ({2 * m} values after the header), "
                         f"found {len(vals)} values")
    return CityGraph(n, list(zip(vals[0::2], vals[1::2])))


def save_edges(n, edges, path) -> None:
    """Write the plain-text edge list that load_graph reads."""
    lines = [f"{n} {len(edges)}"] + [f"{i} {j}" for i, j in edges]
    Path(path).write_text("\n".join(lines) + "\n")
