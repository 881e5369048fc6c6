import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetroll import graph as graph_module
from fleetroll.graph import (CityGraph, InvalidEdge, NotStronglyConnected, SameNode,
                             SameSector, SectorsUnassigned, grid_graph, load_graph,
                             save_graph)
from conftest import line_graph, ring_graph
from oracles import (csgraph_tables, next_hop_in_partition_reference,
                     weighted_distance_sums_reference)


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


def test_list_rows_stay_within_their_byte_budget(monkeypatch):
    g = grid_graph(8)
    cap = 3
    monkeypatch.setattr(graph_module, "_LIST_ROW_BYTES", cap * 8 * (g.n + 1))
    rows = g._dist
    for i in (1, 2, 3, 2, 4):  # a hit does not refresh a row; a miss drops the oldest
        assert rows[i] == g.dist_array[i].tolist()
    assert list(rows) == [2, 3, 4]
    rng = random.Random(5)
    for _ in range(400):
        i, j = rng.randint(1, g.n), rng.randint(1, g.n)
        assert rows[i] == g.dist_array[i].tolist()
        assert g.distance(j, i) == g.dist_array[j, i]
        assert len(rows) <= cap


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


def random_strong_digraph(rnd, n):
    order = list(range(1, n + 1))
    rnd.shuffle(order)
    edges = [(order[v], order[(v + 1) % n]) for v in range(n)]  # shuffled ring
    edges += [(rnd.randint(1, n), rnd.randint(1, n)) for _ in range(2 * n)]
    return CityGraph(n, [(a, b) for a, b in edges if a != b])


def test_next_hop_table_on_random_strong_digraph():
    rnd = random.Random(3)
    for n in (7, 20, 45):
        assert_next_hop_table(random_strong_digraph(rnd, n))


def test_tables_are_unsigned_shorts_with_max_padding(grid3):
    assert grid3.dist_array.dtype == np.uint16
    assert (grid3.dist_array[0] == 65535).all() and (grid3.dist_array[:, 0] == 65535).all()
    assert all(row.typecode == "H" for row in grid3._next)
    assert list(grid3._next[0]) == [0] * 10 and [row[0] for row in grid3._next] == [0] * 10


def tables(graph):
    return (graph.dist_array.tolist(), [graph._dist[i] for i in range(graph.n + 1)],
            [row.tolist() for row in graph._next])


@pytest.mark.parametrize("make", [
    lambda: grid_graph(12),
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
    lambda: grid_graph(20),
], ids=["random63", "random64", "random65", "random127", "random128", "random129",
        "ring300", "hub40", "grid20"])
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


def test_list_rows_are_made_when_first_read():
    g = grid_graph(4)
    assert len(g._dist) == 0
    assert g.distance(3, 14) == 4
    assert list(g._dist) == [3]
    row = g._dist[3]
    assert g._dist[3] is row  # kept, not made again
    assert g.with_sectors([0] + [1] * 16)._dist is g._dist  # shared with sectored copies
    for i in range(g.n + 1):
        assert g._dist[i] == g.dist_array[i].tolist()
        assert all(type(d) is int for d in g._dist[i])


def test_next_hop_in_partition_line():
    g = line_graph(4).with_sectors({1: 1, 2: 1, 3: 2, 4: 2})
    assert g.next_hop_in_partition(1, 4) == 3
    with pytest.raises(SameSector):
        g.next_hop_in_partition(1, 2)


def test_next_hop_in_partition_requires_sectors(grid3):
    with pytest.raises(SectorsUnassigned):
        grid3.next_hop_in_partition(1, 9)


def test_next_hop_in_partition_grid_boundary():
    g = grid_graph(3)
    sectors = {v: (1 if (v - 1) % 3 <= 1 else 2) for v in range(1, 10)}  # cols 1-2 | col 3
    g = g.with_sectors(sectors)
    entry = g.next_hop_in_partition(1, 9)
    # boundary entry: on a shortest 1->9 path, inside sector 2, closest to 1
    assert g.sector_of(entry) == 2
    assert g.distance(1, entry) + g.distance(entry, 9) == g.distance(1, 9)
    others = [v for v in range(1, 10)
              if g.sector_of(v) == 2
              and g.distance(1, v) + g.distance(v, 9) == g.distance(1, 9)]
    assert g.distance(1, entry) == min(g.distance(1, v) for v in others)


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


@pytest.mark.parametrize("make", [
    lambda: grid_graph(12),
    lambda: ring_graph(40),
    lambda: random_strong_digraph(random.Random(9), 60),
], ids=["grid12", "ring40", "random60"])
def test_next_hop_in_partition_equals_the_node_scan(make):
    g = make()
    rnd = random.Random(g.n)
    for K in (2, 5):
        labels = [rnd.randint(1, K) for _ in range(g.n)]
        sectored = g.with_sectors([0] + labels)
        pairs = 0
        while pairs < 200:
            a, b = rnd.randint(1, g.n), rnd.randint(1, g.n)
            if labels[a - 1] == labels[b - 1]:
                continue
            got = sectored.next_hop_in_partition(a, b)
            assert type(got) is int
            assert got == next_hop_in_partition_reference(sectored, a, b), (K, a, b)
            pairs += 1


def test_sector_cover_validation():
    with pytest.raises(Exception):
        grid_graph(2).with_sectors([0, 1, 1])  # wrong length


def test_graph_file_round_trip(tmp_path, grid3):
    path = tmp_path / "g.txt"
    save_graph(grid3, path)
    g2 = load_graph(path)
    assert g2.n == grid3.n
    for i in range(1, 10):
        for j in range(1, 10):
            assert g2.distance(i, j) == grid3.distance(i, j)


def test_grid_has_coordinates(grid5):
    assert grid5.coords[1] == (0.0, 0.0)
    assert grid5.coords[25] == (4.0, 4.0)
