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
