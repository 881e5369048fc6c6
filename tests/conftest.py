import pytest
from hypothesis import settings

from fleetroll import grid_graph, synthetic_model

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def grid3():
    return grid_graph(3)


@pytest.fixture(scope="session")
def grid5():
    return grid_graph(5)


@pytest.fixture(scope="session")
def model5_light():
    """5x5 grid, uniform demand, mean 0.4 arrivals per step."""
    return synthetic_model(grid_graph(5), 0.4)


@pytest.fixture(scope="session")
def model5_unit():
    """5x5 grid, uniform demand, mean 1.0 arrivals per step."""
    return synthetic_model(grid_graph(5), 1.0)


def line_graph(n):
    """Bidirectional path 1-2-...-n."""
    from fleetroll import CityGraph

    edges = []
    for v in range(1, n):
        edges.append((v, v + 1))
        edges.append((v + 1, v))
    return CityGraph(n, edges)


def ring_graph(n):
    """Directed ring 1 -> 2 -> ... -> n -> 1."""
    from fleetroll import CityGraph

    return CityGraph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def random_strong_digraph(rnd, n):
    """A shuffled directed ring (so strongly connected) plus 2n random edges."""
    from fleetroll import CityGraph

    order = list(range(1, n + 1))
    rnd.shuffle(order)
    edges = [(order[v], order[(v + 1) % n]) for v in range(n)]  # shuffled ring
    edges += [(rnd.randint(1, n), rnd.randint(1, n)) for _ in range(2 * n)]
    return CityGraph(n, [(a, b) for a, b in edges if a != b])


def random_fleet_state(rnd, graph, m, n_requests, busy=0.4, colocated=0.3):
    """A consistent fleet state: each taxi is occupied with probability `busy`
    (on a trip to a dropoff it does not stand on) and free otherwise; about a
    `colocated` share of the requests pick up where a free taxi stands, the
    rest at random nodes, and some trips have zero length."""
    from fleetroll import FleetState

    locs = [rnd.randint(1, graph.n) for _ in range(m)]
    dropoffs = [0] * m
    rid = 100
    for l in range(m):
        dropoff = rnd.randint(1, graph.n)
        if dropoff != locs[l] and rnd.random() < busy:
            dropoffs[l] = dropoff
            rid += 1  # its trip's request took an id
    free_locs = [locs[l] for l in range(m) if dropoffs[l] == 0]
    outstanding = {}
    for _ in range(n_requests):
        rid += rnd.randint(1, 3)
        if free_locs and rnd.random() < colocated:
            pickup = rnd.choice(free_locs)
        else:
            pickup = rnd.randint(1, graph.n)
        dropoff = pickup if rnd.random() < 0.1 else rnd.randint(1, graph.n)
        outstanding[rid] = (rid, pickup, dropoff)
    # dict order is not id order, as after reassignments and arrivals
    items = list(outstanding.items())
    rnd.shuffle(items)
    return FleetState(locs, dropoffs, dict(items), rnd.randint(1, 50))
