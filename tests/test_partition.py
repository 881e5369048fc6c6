import pytest

from fleetroll.demand import DemandModel, estimate_from_trips, generate_trips, synthetic_model
from fleetroll.graph import grid_graph
from fleetroll.partition import KExceedsNodes, get_partitions
from fleetroll.sim import substream
from conftest import ring_graph
from oracles import reference_partition


def uniform_model(g, e_eta=1.0):
    return synthetic_model(g, e_eta)


def weighted_medoid_oracle(graph, weights):
    best, best_score = None, None
    for c in range(1, graph.n + 1):
        score = sum(w * graph.distance(c, v) for v, w in weights.items())
        if best_score is None or score < best_score:
            best, best_score = c, score
    return best


def test_single_sector_is_whole_map(grid5):
    model = uniform_model(grid5)
    spec = get_partitions(grid5, model, m_lim=5, K=1)
    assert spec.K == 1
    assert all(spec.sector_of(v) == 1 for v in range(1, 26))
    assert spec.centers[0] == weighted_medoid_oracle(grid5, model.pickup_pmf)


def test_uniform_4x4_two_balanced_sectors():
    g = grid_graph(4)
    model = uniform_model(g)
    spec = get_partitions(g, model, m_lim=2, K=2)
    sizes = sorted(len(spec.node_sets[k]) for k in (1, 2))
    assert sizes == [8, 8]


def test_partition_is_disjoint_cover(grid5):
    model = synthetic_model(grid5, 1.0, hotspot=7, hotspot_mass=0.45)
    for K in (2, 3, 4):
        spec = get_partitions(grid5, model, m_lim=2, K=K)
        seen = {}
        for v in range(1, 26):
            k = spec.sector_of(v)
            assert 1 <= k <= K
            seen.setdefault(k, []).append(v)
        assert len(seen) == K  # nonempty sectors
        assert sum(len(vs) for vs in seen.values()) == 25


def test_centers_live_in_their_own_sector(grid5):
    model = uniform_model(grid5)
    spec = get_partitions(grid5, model, m_lim=2, K=3)
    for k, c in enumerate(spec.centers, start=1):
        assert spec.sector_of(c) == k


def test_high_demand_corner_gets_smaller_sector():
    g = grid_graph(4)
    # 0.9 of pickup mass on the four corner-adjacent nodes {1, 2, 5, 6}
    hot = {1, 2, 5, 6}
    rest = [v for v in range(1, 17) if v not in hot]
    pickup = {v: 0.9 / 4 for v in hot}
    pickup.update({v: 0.1 / len(rest) for v in rest})
    uniform = {v: 1 / 16 for v in range(1, 17)}
    model = DemandModel({1: 1.0}, pickup, {u: dict(uniform) for u in range(1, 17)})
    spec = get_partitions(g, model, m_lim=2, K=2)
    hot_sector = spec.sector_of(1)
    hot_size = len(spec.node_sets[hot_sector])
    other_size = 16 - hot_size
    assert hot_size < other_size


def test_inverse_size_across_seeded_models(grid5):
    # one 2x2 high-density region per model (0.7 of the pickup mass, with a
    # clear mode node), placed by seed
    wins = 0
    runs = 20
    uniform = {v: 1 / 25 for v in range(1, 26)}
    for i in range(runs):
        rng = substream(400 + i, 0)
        r0 = int(rng.integers(0, 4))
        c0 = int(rng.integers(0, 4))
        block = [r0 * 5 + c0 + 1, r0 * 5 + c0 + 2,
                 (r0 + 1) * 5 + c0 + 1, (r0 + 1) * 5 + c0 + 2]
        mode = block[0]
        pickup = {v: 0.3 / 25 for v in range(1, 26)}
        pickup[mode] += 0.4
        for v in block[1:]:
            pickup[v] += 0.1
        model = DemandModel({1: 1.0}, pickup, {u: dict(uniform) for u in range(1, 26)})
        spec = get_partitions(grid5, model, m_lim=2, K=3)
        hot_size = len(spec.node_sets[spec.sector_of(mode)])
        wins += hot_size <= 25 / 3
    assert wins >= 0.8 * runs


def test_k_exceeds_nodes():
    g = grid_graph(2)
    with pytest.raises(KExceedsNodes):
        get_partitions(g, uniform_model(g), m_lim=1, K=5)


def test_deterministic_given_inputs(grid5):
    model = synthetic_model(grid5, 1.0, hotspot=11, hotspot_mass=0.3)
    a = get_partitions(grid5, model, m_lim=3, K=2)
    b = get_partitions(grid5, model, m_lim=3, K=2)
    assert a.centers == b.centers and a.assignment == b.assignment


def test_partitions_equal_nested_list_reference():
    g12 = grid_graph(12)
    from_log = estimate_from_trips(
        generate_trips(synthetic_model(g12, 2.0, hotspot=30, hotspot_mass=0.3), 200, seed=5), g12)
    ring = ring_graph(30)
    cases = [
        (grid_graph(8), synthetic_model(grid_graph(8), 1.0), 3),
        (grid_graph(10), synthetic_model(grid_graph(10), 1.0, hotspot=45, hotspot_mass=0.4), 4),
        (g12, from_log, 5),
        (ring, synthetic_model(ring, 1.0, hotspot=7, hotspot_mass=0.2), 3),
        (grid_graph(20), synthetic_model(grid_graph(20), 2.0), 6),
    ]
    for g, model, K in cases:
        spec = get_partitions(g, model, m_lim=1, K=K)
        assert (spec.centers, spec.assignment) == reference_partition(g, model, K)
