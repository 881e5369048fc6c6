from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from fleetroll.graph import (InvalidEdge, NotStronglyConnected, SameNode,
                             SameSector, SectorsUnassigned, build_graph, grid_graph,
                             load_graph, save_graph)
from conftest import line_graph, ring_graph


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
    g = build_graph(1, [])
    assert g.distance(1, 1) == 0


def test_not_strongly_connected_rejected():
    with pytest.raises(NotStronglyConnected):
        build_graph(2, [(1, 2)])
    # 1..4 form a two-way path; node 5 can be entered from 4 but never left.
    edges = [(v, v + 1) for v in range(1, 5)] + [(v + 1, v) for v in range(1, 4)]
    with pytest.raises(NotStronglyConnected, match="node 1 is unreachable from node 5"):
        build_graph(5, edges)


def test_invalid_edge_rejected():
    with pytest.raises(InvalidEdge):
        build_graph(2, [(1, 3), (3, 1)])


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
    g = build_graph(n, edges)
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
    import random

    rnd = random.Random(3)
    for n in (7, 20, 45):
        order = list(range(1, n + 1))
        rnd.shuffle(order)
        edges = [(order[v], order[(v + 1) % n]) for v in range(n)]  # shuffled ring
        edges += [(rnd.randint(1, n), rnd.randint(1, n)) for _ in range(2 * n)]
        g = build_graph(n, [(a, b) for a, b in edges if a != b])
        assert_next_hop_table(g)


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
