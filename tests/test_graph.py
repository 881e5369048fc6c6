import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetroll import graph as graph_module
from fleetroll.graph import (CityGraph, InvalidEdge, NotStronglyConnected, SameNode,
                             grid_edges, grid_graph, load_graph, save_edges)
from conftest import random_strong_digraph, ring_graph
from oracles import csgraph_tables, weighted_distance_sums_reference


def bfs_distance(n, adj, src):
    """Independent oracle: textbook BFS distances from src."""
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def adjacency(graph):
    adj = {v: [] for v in range(1, graph.n + 1)}
    for i, j in graph.edges:
        if j not in adj[i]:
            adj[i].append(j)
    return adj


def test_single_node_graph():
    g = CityGraph(1, [])
    assert g.distance(1, 1) == 0


def test_not_strongly_connected_rejected():
    with pytest.raises(NotStronglyConnected):
        CityGraph(2, [(1, 2)])
    # 1..4 form a two-way path; node 5 can be entered from 4 but never left.
    edges = [(v, v + 1) for v in range(1, 5)] + [(v + 1, v) for v in range(1, 4)]
    with pytest.raises(NotStronglyConnected, match="node 1 is unreachable from node 5"):
        CityGraph(5, edges)


def test_invalid_edge_rejected():
    with pytest.raises(InvalidEdge):
        CityGraph(2, [(1, 3), (3, 1)])


@pytest.mark.parametrize("make", [
    lambda: grid_graph(6),
    lambda: ring_graph(9),
    lambda: random_strong_digraph(random.Random(7), 30),
], ids=["grid6", "ring9", "random30"])
def test_rows_are_views_of_their_tables(make):
    g = make()
    for rows, table in ((g._dist, g.dist_array), (g._next, g.next_array)):
        assert len(rows) == g.n + 1 and not table.flags.writeable
        for i, row in enumerate(rows):
            assert row.readonly and np.shares_memory(np.asarray(row), table[i])
            read = [row[j] for j in range(g.n + 1)]
            assert read == table[i].tolist() and all(type(x) is int for x in read)


def test_reading_every_row_keeps_no_memory():
    g = grid_graph(30)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(g.n + 1):
            g._dist[i][1], g._next[i][g.n]
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 << 10, kept


def test_grid_corner_to_corner(grid3):
    assert grid3.distance(1, 9) == 4
    assert grid3.distance(5, 1) == 2  # center to corner


def test_directed_ring_asymmetry():
    g = ring_graph(4)
    assert g.distance(1, 4) == 3
    assert g.distance(4, 1) == 1


def test_distance_identity(grid5):
    for v in (1, 7, 25):
        assert grid5.distance(v, v) == 0


def test_oracle_matches_independent_bfs(grid5):
    adj = adjacency(grid5)
    for src in range(1, grid5.n + 1):
        oracle = bfs_distance(grid5.n, adj, src)
        for tgt in range(1, grid5.n + 1):
            assert grid5.distance(src, tgt) == oracle[tgt]


def test_next_hop_unique_path():
    g = ring_graph(4)
    assert g.next_hop(1, 3) == 2


def test_next_hop_tie_break_smallest_index(grid3):
    # from node 1 both 2 and 4 start shortest paths to node 5
    assert grid3.next_hop(1, 5) == 2


def test_next_hop_same_node_error(grid3):
    with pytest.raises(SameNode):
        grid3.next_hop(4, 4)


def test_next_hop_walk_terminates_in_distance_steps(grid5):
    for i, j in [(1, 25), (3, 22), (13, 1), (25, 5)]:
        steps = 0
        cur = i
        while cur != j:
            cur = grid5.next_hop(cur, j)
            steps += 1
        assert steps == grid5.distance(i, j)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9), st.data())
def test_random_graph_distance_and_walk(n, data):
    # ring guarantees strong connectivity, extra edges keep it interesting
    edges = [(v, v % n + 1) for v in range(1, n + 1)]
    extra = data.draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12))
    edges += [(a, b) for a, b in extra if a != b]
    g = CityGraph(n, edges)
    adj = adjacency(g)
    for src in range(1, n + 1):
        oracle = bfs_distance(n, adj, src)
        for tgt in range(1, n + 1):
            assert g.distance(src, tgt) == oracle[tgt]
            if src != tgt:
                hop = g.next_hop(src, tgt)
                assert hop in adj[src]
                assert g.distance(hop, tgt) == g.distance(src, tgt) - 1


def smallest_successor(adj, i, dist_to_j):
    """Independent oracle: the smallest neighbor of i one step closer to j."""
    return min(k for k in adj[i] if dist_to_j[k] == dist_to_j[i] - 1)


def assert_next_hop_table(graph):
    adj = adjacency(graph)
    reverse = {v: [] for v in adj}
    for i, nbrs in adj.items():
        for j in nbrs:
            reverse[j].append(i)
    for j in range(1, graph.n + 1):
        dist_to_j = bfs_distance(graph.n, reverse, j)
        for i in range(1, graph.n + 1):
            if i != j:
                assert graph.next_hop(i, j) == smallest_successor(adj, i, dist_to_j)


@pytest.mark.parametrize("k", [2, 3, 6])
def test_next_hop_table_is_smallest_shortest_successor_on_grids(k):
    assert_next_hop_table(grid_graph(k))


def test_next_hop_table_on_random_strong_digraph():
    rnd = random.Random(3)
    for n in (7, 20, 45):
        assert_next_hop_table(random_strong_digraph(rnd, n))


def test_tables_are_unsigned_shorts_with_max_padding(grid3):
    assert grid3.dist_array.dtype == np.uint16
    assert (grid3.dist_array[0] == 65535).all() and (grid3.dist_array[:, 0] == 65535).all()
    assert all(row.format == "H" for row in grid3._next)
    assert list(grid3._next[0]) == [0] * 10 and [row[0] for row in grid3._next] == [0] * 10


def tables(graph):
    return (graph.dist_array.tolist(), [row.tolist() for row in graph._dist],
            [row.tolist() for row in graph._next])


@pytest.mark.parametrize("make", [
    lambda: CityGraph(144, grid_edges(12)),  # the BFS build; grid_graph takes the closed form
    lambda: ring_graph(9),
    lambda: random_strong_digraph(random.Random(11), 40),
], ids=["grid12", "ring9", "random40"])
def test_build_in_small_blocks_equals_one_block(monkeypatch, make):
    monkeypatch.setattr(graph_module, "_BUILD_BLOCK_CELLS", 1 << 30)
    whole = tables(make())
    n = len(whole[0]) - 1
    for rows in (1, 2, 4, 7):  # blocks of that many source rows, the last one shorter
        monkeypatch.setattr(graph_module, "_BUILD_BLOCK_CELLS", rows * n)
        assert tables(make()) == whole


def hub_graph(n, hub):
    """Two-way path 1-2-...-n plus arcs from `hub` to every other node."""
    edges = [(v, v + 1) for v in range(1, n)] + [(v + 1, v) for v in range(1, n)]
    return CityGraph(n, edges + [(hub, v) for v in range(1, n + 1) if v != hub])


@pytest.mark.parametrize("make", [
    *[lambda n=n: random_strong_digraph(random.Random(n), n)
      for n in (63, 64, 65, 127, 128, 129)],
    lambda: ring_graph(300),  # diameter 299: nine bit-planes
    lambda: hub_graph(41, 17),  # out-degree 40
    lambda: CityGraph(400, grid_edges(20)),
    lambda: grid_graph(20),
], ids=["random63", "random64", "random65", "random127", "random128", "random129",
        "ring300", "hub40", "grid20", "grid_graph20"])
def test_tables_equal_per_source_bfs_and_csgraph(make):
    g = make()
    adj = adjacency(g)
    dist = g.dist_array.astype(np.int64)
    for src in range(1, g.n + 1):
        oracle = bfs_distance(g.n, adj, src)
        assert dist[src, 1:].tolist() == [oracle[tgt] for tgt in range(1, g.n + 1)]
    ref_dist, ref_next = csgraph_tables(g)
    assert np.array_equal(dist, ref_dist)
    assert [row.tolist() for row in g._next] == ref_next.tolist()


@pytest.mark.parametrize("k", [*range(1, 13), 20, 33, 64])
def test_grid_tables_in_closed_form_equal_the_bfs_tables(k):
    grid, bfs = grid_graph(k), CityGraph(k * k, grid_edges(k))
    for got, want in ((grid.dist_array, bfs.dist_array), (grid.next_array, bfs.next_array)):
        assert got.dtype == want.dtype == np.uint16 and got.shape == want.shape
        assert np.array_equal(got, want)  # the padding row and column included
        assert not got.flags.writeable and not want.flags.writeable
    for rows, table in ((grid._dist, grid.dist_array), (grid._next, grid.next_array)):
        assert len(rows) == k * k + 1
        assert all(row.readonly and row.format == "H" and np.shares_memory(np.asarray(row), line)
                   for row, line in zip(rows, table))
    assert grid.adj == bfs.adj and grid.edges == bfs.edges and type(grid.edges) is tuple
    assert all(type(e) is tuple and type(e[0]) is type(e[1]) is int for e in grid.edges)
    assert all(type(row) is list and all(type(v) is int for v in row) for row in grid.adj)
    assert grid._distances_to() is grid.dist_array and bfs._distances_to() is bfs.dist_array


@pytest.mark.parametrize("cells", [1, 1 << 30])
def test_unreachable_target_past_the_first_word_is_named(monkeypatch, cells):
    monkeypatch.setattr(graph_module, "_BUILD_BLOCK_CELLS", cells)
    # one-way ring 1..129; node 130 only leaves (to 1), node 131 is only entered
    # (from 50). Columns 1..129 of row 131 come in earlier word blocks than
    # column 130, but (1, 130) is the first unreachable pair in row-major order.
    edges = [(v, v % 129 + 1) for v in range(1, 130)] + [(130, 1), (50, 131)]
    with pytest.raises(NotStronglyConnected, match="^node 130 is unreachable from node 1$"):
        CityGraph(131, edges)
    edges = [(v, v % 129 + 1) for v in range(1, 130)] + [(50, 130)]
    with pytest.raises(NotStronglyConnected, match="^node 1 is unreachable from node 130$"):
        CityGraph(130, edges)


@pytest.mark.parametrize("cells", [1, 2, 5, 1 << 30])
def test_unreachable_pair_in_a_later_block_is_named(monkeypatch, cells):
    monkeypatch.setattr(graph_module, "_BUILD_BLOCK_CELLS", cells)
    # two directed triangles 1-2-3 and 4-5-6 joined by the one-way edge 3 -> 4:
    # the first unreachable pair in row-major order is (4, 1)
    edges = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 4)]
    with pytest.raises(NotStronglyConnected, match="^node 1 is unreachable from node 4$"):
        CityGraph(6, edges)
    edges = [(v, v + 1) for v in range(1, 5)] + [(v + 1, v) for v in range(1, 4)]
    with pytest.raises(NotStronglyConnected, match="^node 1 is unreachable from node 5$"):
        CityGraph(5, edges)


def test_graph_carries_no_sectors(grid3):
    """Sectors belong to the partition (`PartitionSpec`), not to the street graph."""
    for name in ("sectors", "sector_of", "with_sectors", "next_hop_in_partition"):
        assert not hasattr(grid3, name), name


@pytest.mark.parametrize("make, symmetric", [
    (lambda: grid_graph(20), True),
    (lambda: ring_graph(300), False),
    (lambda: random_strong_digraph(random.Random(4), 300), False),
], ids=["grid20", "ring300", "random300"])
def test_weighted_distance_sums_equal_nested_python_sums(monkeypatch, make, symmetric):
    g = make()
    assert (g._distances_to() is g.dist_array) == symmetric  # else the transposed copy
    rng = np.random.default_rng(g.n)
    nodes = np.arange(1, g.n + 1)
    w = rng.random(g.n) / rng.integers(1, 60, g.n)  # mixed magnitudes and mantissas
    weights = {
        "dense": w,
        "leading zeros": np.where(nodes <= g.n // 3, 0.0, w),
        "trailing zeros": np.where(nodes > g.n // 2, 0.0, w),
        "interleaved zeros": np.where(rng.random(g.n) < 0.5, 0.0, w),
        "all zero": np.zeros(g.n),
    }
    sources = {  # all nodes; subsets above and below the row-loop threshold
        "all": nodes,
        "many": np.sort(rng.choice(nodes, graph_module._ROW_LOOP_SOURCES + 10, replace=False)),
        "few": rng.permutation(nodes)[:40],
    }
    shuffled = rng.permutation(nodes)[:3 * g.n // 4]
    for wname, wts in weights.items():
        for targets, tw in ((nodes, wts), (shuffled, wts[shuffled - 1])):
            for sname, src in sources.items():
                want = weighted_distance_sums_reference(g, src.tolist(), targets.tolist(),
                                                        tw.tolist())
                for cells in (300, 1 << 16):  # many blocks of targets or sources, or few
                    monkeypatch.setattr(graph_module, "_BLOCK_CELLS", cells)
                    got = g.weighted_distance_sums(src, targets, tw)
                    assert got.tolist() == want, (wname, sname, len(targets), cells)
    assert g.weighted_distance_sums(nodes, [], []).tolist() == [0.0] * g.n


def test_graph_file_round_trip(tmp_path, grid3):
    path = tmp_path / "g.txt"
    save_edges(grid3.n, grid3.edges, path)
    g2 = load_graph(path)
    assert g2.n == grid3.n
    for i in range(1, 10):
        for j in range(1, 10):
            assert g2.distance(i, j) == grid3.distance(i, j)


def test_grid_has_coordinates(grid5):
    assert grid5.coords[1] == (0.0, 0.0)
    assert grid5.coords[25] == (4.0, 4.0)
