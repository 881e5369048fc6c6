"""Golden trace digests: fixed seeds of every policy must reproduce their
controls and stage costs byte for byte.

A refactor or a speed-up that is meant to keep behaviour leaves every digest
here unchanged. Changing one is a behaviour change and is recorded with the
old and new value. To print the current digests:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import pytest

from fleetroll import (GreedyPolicy, IACommitPolicy, IARAPolicy, RandomIAPolicy,
                       RolloutConfig, RolloutPolicy, TwoPhasePolicy, grid_graph,
                       run_episode, synthetic_model)

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
}

GOLDEN = {
    "greedy": "add7de5eed1ad8517350f0032fc077aa0507bd2eb20998cb73dd73f4f9284dcd",
    "ia-commit": "da1f5f3ade5b2bc19e92e61de73f8b91ed57113805fc95f1d76d4d40f9833910",
    "ia-ra": "6df810618d20acc2e15f14eef77fc7104cd28f81d3fc3213c4bc2611a4eede9a",
    "ia-ra-fleet": "5b12633b9e04793e45ce9c53af2533e6bbce2ff8cb002f11d5f0ea2a07708d77",
    "ia-ra-k10": "87beeaf4ca64db303a8952cdf544e099db36bd2a393745ea3c244f13fae677f2",
    "random-ia": "ae03ba51d8ab215bb5cc1c712bc2710074d80832765aeeb12fa417bedc465b1e",
    "rollout": "7225c7cdb80bfe64d3f7f2fea36fa5ed162fb2190b97977bf51ac0fbcbeeff6c",
    "two-phase": "3bb7ec66f0838e3df2ee0713b96bf5dbafcc04fca389b7f1b159d4b97c5a8a8b",
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


def trace_digest(name):
    k, e_eta, hotspot, mass, kind, m, T, seed, t_h, num_mc, m_lim = CASES[name]
    graph = grid_graph(k)
    model = synthetic_model(graph, e_eta, hotspot=hotspot, hotspot_mass=mass)
    policy = _policy(kind, graph, model, m, t_h, num_mc, m_lim)
    trace = run_episode(getattr(policy, "graph", graph), model, policy, m, T, seed)
    return hashlib.sha256(repr((trace.controls, trace.stage_costs)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace_digest(name):
    assert trace_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{trace_digest(case)}",')
