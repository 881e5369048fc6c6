"""Golden digests: fixed seeds of every policy must reproduce their controls
and stage costs byte for byte, and fixed demand partitions their centers and
node assignments. Two cases run on a model estimated from a sampled trip log,
which keeps one conditional dropoff pmf per pickup node.

A refactor or a speed-up that is meant to keep behaviour leaves every digest
here unchanged. Changing one is a behaviour change and is recorded with the
old and new value. To print the current digests:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import pytest

from fleetroll import (GreedyPolicy, IACommitPolicy, IARAPolicy, RandomIAPolicy,
                       RolloutConfig, RolloutPolicy, TwoPhasePolicy, get_partitions,
                       grid_graph, run_episode, synthetic_model)
from fleetroll import graph as graph_module
from fleetroll.demand import estimate_from_trips, generate_trips

# name -> (grid k, e_eta, hotspot, hotspot mass, policy, m, T, seed, t_h, num_mc, m_lim)
CASES = {
    "greedy": (5, 0.8, None, 0.0, "greedy", 4, 40, 11, 0, 0, 0),
    "random-ia": (5, 0.8, None, 0.0, "random-ia", 4, 40, 12, 0, 0, 0),
    "ia-commit": (5, 0.8, None, 0.0, "ia-commit", 4, 40, 13, 0, 0, 0),
    "ia-ra": (5, 0.8, None, 0.0, "ia-ra", 4, 40, 14, 0, 0, 0),
    "ia-ra-k10": (8, 3.0, None, 0.0, "ia-ra", 10, 40, 15, 0, 0, 0),
    "rollout": (5, 0.8, None, 0.0, "rollout", 3, 12, 16, 3, 4, 0),
    "two-phase": (6, 1.0, None, 0.0, "two-phase", 5, 12, 17, 3, 3, 2),
    # Fleet scale: most matchings have more than 10 pairs.
    "ia-ra-fleet": (15, 6.0, 113, 0.3, "ia-ra", 90, 30, 18, 0, 0, 0),
    # Six sectors on a 20x20 metro, with transits between them.
    "two-phase-metro": (20, 2.0, None, 0.0, "two-phase", 60, 10, 19, 2, 2, 10),
    # Trip-log models: the synthetic model's parameters give the log's truth.
    "ia-ra-triplog": (6, 1.2, 14, 0.3, "ia-ra", 4, 40, 20, 0, 0, 0),
    "rollout-triplog": (6, 1.2, 14, 0.3, "rollout", 3, 12, 21, 3, 4, 0),
}

# name -> (log horizon, log seed) for the cases run on an estimated model
TRIP_LOGS = {
    "ia-ra-triplog": (200, 5),
    "rollout-triplog": (200, 5),
}

GOLDEN = {
    "greedy": "add7de5eed1ad8517350f0032fc077aa0507bd2eb20998cb73dd73f4f9284dcd",
    "ia-commit": "da1f5f3ade5b2bc19e92e61de73f8b91ed57113805fc95f1d76d4d40f9833910",
    "ia-ra": "6df810618d20acc2e15f14eef77fc7104cd28f81d3fc3213c4bc2611a4eede9a",
    "ia-ra-fleet": "5b12633b9e04793e45ce9c53af2533e6bbce2ff8cb002f11d5f0ea2a07708d77",
    "ia-ra-k10": "87beeaf4ca64db303a8952cdf544e099db36bd2a393745ea3c244f13fae677f2",
    "ia-ra-triplog": "1539b43befbb33e322eac4c4e7ea4767512146fb55906ca1f078b05599c49e27",
    "random-ia": "ae03ba51d8ab215bb5cc1c712bc2710074d80832765aeeb12fa417bedc465b1e",
    "rollout": "7225c7cdb80bfe64d3f7f2fea36fa5ed162fb2190b97977bf51ac0fbcbeeff6c",
    "rollout-triplog": "ba87dc2659df14f8d6a163dac525e646dfdb34e5a4b0bcecca8776377822bf9a",
    "two-phase": "3bb7ec66f0838e3df2ee0713b96bf5dbafcc04fca389b7f1b159d4b97c5a8a8b",
    "two-phase-metro": "3867e629d7ae775e622ffebf49aa554234b7033628a8d21aead8f6033c0d13ea",
}


# name -> (grid k, hotspot, hotspot mass, K)
PARTITION_CASES = {
    "uniform-20-k6": (20, None, 0.0, 6),
    "hotspot-15-k9": (15, 113, 0.3, 9),
    "hotspot-30-k12": (30, 465, 0.3, 12),
}

PARTITION_GOLDEN = {
    "hotspot-15-k9": "f5214a1fe266d213e5f3a1cbffda5efb391a952a7c03bd02de1bb1ac6fad9750",
    "hotspot-30-k12": "3ef49995325971103e6ec3dcf8197178c2250c4a1b3a3de2ec295c05be6671d2",
    "uniform-20-k6": "94ba481b27962e84ab99c1e007dc45fb7d814e5137e27f3fd6c1efdeb840f171",
}


def _policy(kind, graph, model, m, t_h, num_mc, m_lim):
    simple = {"greedy": GreedyPolicy, "random-ia": RandomIAPolicy,
              "ia-commit": IACommitPolicy, "ia-ra": IARAPolicy}
    if kind in simple:
        return simple[kind](graph)
    cfg = RolloutConfig(t_h=t_h, num_mc=num_mc, base_policy="ia-ra")
    if kind == "rollout":
        return RolloutPolicy(graph, model, cfg)
    return TwoPhasePolicy(graph, model, m, m_lim, cfg)


def case_model(name):
    k, e_eta, hotspot, mass = CASES[name][:4]
    graph = grid_graph(k)
    model = synthetic_model(graph, e_eta, hotspot=hotspot, hotspot_mass=mass)
    if name in TRIP_LOGS:
        model = estimate_from_trips(generate_trips(model, *TRIP_LOGS[name]), graph)
    return graph, model


def trace_digest(name):
    kind, m, T, seed, t_h, num_mc, m_lim = CASES[name][4:]
    graph, model = case_model(name)
    policy = _policy(kind, graph, model, m, t_h, num_mc, m_lim)
    trace = run_episode(graph, model, policy, m, T, seed)
    return hashlib.sha256(repr((trace.controls, trace.stage_costs)).encode()).hexdigest()


def partition_digest(name):
    k, hotspot, mass, K = PARTITION_CASES[name]
    graph = grid_graph(k)
    model = synthetic_model(graph, 1.0, hotspot=hotspot, hotspot_mass=mass)
    spec = get_partitions(graph, model, K)
    return hashlib.sha256(repr((spec.centers, spec.assignment)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace_digest(name):
    assert trace_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", ["rollout", "rollout-triplog", "two-phase",
                                  "two-phase-metro"])
def test_golden_trace_digest_with_three_list_rows(name, monkeypatch):
    """The lookahead reads distances through list rows; with room for only
    three of them, rows are dropped and made again all the time."""
    k = CASES[name][0]
    monkeypatch.setattr(graph_module, "_LIST_ROW_BYTES", 3 * 8 * (k * k + 1))
    assert trace_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TRIP_LOGS))
def test_trip_log_cases_have_many_conditionals(name):
    _, model = case_model(name)
    distinct = {id(pmf) for pmf in model.dropoff_given_pickup.values()}
    assert len(distinct) >= 25


@pytest.mark.parametrize("name", sorted(PARTITION_CASES))
def test_golden_partition_digest(name):
    assert partition_digest(name) == PARTITION_GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN")
    for case in sorted(CASES):
        print(f'    "{case}": "{trace_digest(case)}",')
    print("PARTITION_GOLDEN")
    for case in sorted(PARTITION_CASES):
        print(f'    "{case}": "{partition_digest(case)}",')
