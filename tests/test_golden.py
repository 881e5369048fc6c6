"""Golden digests: fixed seeds of every policy must reproduce their controls
and stage costs byte for byte, and fixed demand partitions their centers and
node assignments. Three cases run on a model estimated from a sampled trip log,
which keeps one conditional dropoff pmf per pickup node.

A refactor or a speed-up that is meant to keep behaviour leaves every digest
here unchanged. Changing one is a behaviour change and is recorded with the
old and new value. The CLI digests cover one run of each subcommand that
leaves most flags at their defaults, plus one run whose values come from a
config file. To print the current digests:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fleetroll import (GreedyPolicy, IACommitPolicy, IARAPolicy, RandomIAPolicy,
                       RolloutConfig, RolloutPolicy, TwoPhasePolicy, get_partitions,
                       grid_graph, run_episode, synthetic_model)
from fleetroll.cli import main as cli_main
from fleetroll.demand import estimate_from_trips, generate_trips
from fleetroll.sim import PICKUP, STAY
from oracles import RecordingPolicy

# name -> (grid k, e_eta, hotspot, hotspot mass, policy, m, T, seed, t_h, num_mc, m_lim)
CASES = {
    "greedy": (5, 0.8, None, 0.0, "greedy", 4, 40, 11, 0, 0, 0),
    "random-ia": (5, 0.8, None, 0.0, "random-ia", 4, 40, 12, 0, 0, 0),
    # Zero-length trips and trips of several steps, each taxi taking a new
    # request in the step after its dropoff: random-ia's release rule.
    "random-ia-release": (5, 0.8, None, 0.0, "random-ia", 4, 40, 4, 0, 0, 0),
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
    # Three sectors: each lookahead looks up its own requests' dropoffs in
    # the padded conditional tables.
    "two-phase-triplog": (6, 1.2, 14, 0.3, "two-phase", 6, 12, 22, 3, 3, 2),
}

# name -> (log horizon, log seed) for the cases run on an estimated model
TRIP_LOGS = {
    "ia-ra-triplog": (200, 5),
    "rollout-triplog": (200, 5),
    "two-phase-triplog": (200, 5),
}

GOLDEN = {
    "greedy": "add7de5eed1ad8517350f0032fc077aa0507bd2eb20998cb73dd73f4f9284dcd",
    "ia-commit": "da1f5f3ade5b2bc19e92e61de73f8b91ed57113805fc95f1d76d4d40f9833910",
    "ia-ra": "6df810618d20acc2e15f14eef77fc7104cd28f81d3fc3213c4bc2611a4eede9a",
    "ia-ra-fleet": "5b12633b9e04793e45ce9c53af2533e6bbce2ff8cb002f11d5f0ea2a07708d77",
    "ia-ra-k10": "87beeaf4ca64db303a8952cdf544e099db36bd2a393745ea3c244f13fae677f2",
    "ia-ra-triplog": "1539b43befbb33e322eac4c4e7ea4767512146fb55906ca1f078b05599c49e27",
    "random-ia": "ae03ba51d8ab215bb5cc1c712bc2710074d80832765aeeb12fa417bedc465b1e",
    "random-ia-release": "cb10b62ac145e01a0c0b504d9b1a159c040047293b71b421e11a952bca4a1eab",
    "rollout": "f40ef1bfa9a92f10e9fccb365eead260b4c67482ef444390f73bae46a9540c09",
    "rollout-triplog": "12ffdd0490005e7ae9c9edcef93b08343e4cd8e325f861d1c18c0436a63facd0",
    "two-phase": "4e577d187e6d4f309fdea101b13646aef0630d684ed7a54cec94f0013c91adf2",
    "two-phase-metro": "043900ef2728759a74a8733f8af73faad34336880ced84a356011fb33945f1a8",
    "two-phase-triplog": "a8acec3a15bdcb8e3ba8f1a32d5f6cad9eee6221dd8452efb53d6c299d55967f",
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


# name -> CLI argv; "{out}" is the run's output path, "{cfg}" a file of CLI_CONFIG
CLI_CASES = {
    "simulate": ["simulate", "--grid", "4", "--e-eta", "0.5", "--m", "3", "--out-dir", "{out}"],
    "compare": ["compare", "--grid", "3", "--e-eta", "0.3", "--policies", "greedy,rollout",
                "--m", "2", "--T", "6", "--seeds", "2", "--out-dir", "{out}"],
    "stability-verify": ["stability", "--grid", "4", "--e-eta", "0.5", "--verify",
                         "--seeds", "5", "--out-dir", "{out}"],
    "gen-trips": ["gen-trips", "--grid", "4", "--e-eta", "1.0", "--out", "{out}"],
    "partition": ["partition", "--grid", "6", "--e-eta", "1.0", "--m", "25", "--out", "{out}"],
    "gen-graph": ["gen-graph", "--k", "4", "--out", "{out}"],
    "config": ["simulate", "--config", "{cfg}", "--seed", "4", "--out-dir", "{out}"],
}

# Keys of other subcommands (metric, verify, out) ride along unused.
CLI_CONFIG = {"grid": 5, "e-eta": 0.8, "hotspot": 7, "hotspot-mass": 0.2,
              "policy": "two-phase", "m-sweep": [4, 6], "m-lim": 2, "t-h": 2, "num-mc": 3,
              "T": 10, "seeds": 2, "jobs": 1, "metric": "graph", "verify": False,
              "out": "unused.csv"}

CLI_GOLDEN = {
    "compare": "0a3aaac241950849791ca2e17fa3bf75c81354d3de4ca5e0b72e3a063ebe3d3e",
    "config": "13d208579e8499e5cf46c4bb16f3dcaa9b4a04cb492eec81583a8d11c466b269",
    "gen-graph": "dff18bdd8853766e80d9bd4457434985f1a0e04f19444f1bf658d212ee4e7d1b",
    "gen-trips": "a5f25763b7e94a945582f280c68d092cbc99cf297d2f45ade6765570b1a1e018",
    "partition": "07c5d6f774252b50adb6af420b213d33be2bf6dadc23ebfe7696f4bd1559d4c2",
    "simulate": "41c326f9dc00c69c9555e9200fc51b816522c9c0cb3af04e85f497020dce4123",
    "stability-verify": "fdb1b5c1c35375f2bb51f9f25eaf6fad4429fbeb9a6c94e2c40ea71e08215a1a",
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


def cli_digest(name, tmp):
    """Digest of a CLI run's stdout (with `tmp` masked) and of its output
    file, or of every non-timing file in its output directory."""
    tmp = Path(tmp)
    out, cfg = tmp / "out", tmp / "cfg.json"
    cfg.write_text(json.dumps(CLI_CONFIG))
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert cli_main([a.format(out=out, cfg=cfg) for a in CLI_CASES[name]]) == 0
    h = hashlib.sha256(stdout.getvalue().replace(str(tmp), "<tmp>").encode())
    for f in sorted(out.iterdir()) if out.is_dir() else [out]:
        if "timing" not in f.name:
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace_digest(name):
    assert trace_digest(name) == GOLDEN[name]


def test_random_ia_release_case_hits_each_release_rule():
    """Each pickup holds its taxi for exactly its trip's length, and the case
    has a zero-length trip and a longer one after which the taxi takes a new
    request in the step after its dropoff."""
    m, T, seed = CASES["random-ia-release"][5:8]
    graph, model = case_model("random-ia-release")
    policy = RecordingPolicy(RandomIAPolicy(graph))
    run_episode(graph, model, policy, m, T, seed)
    log = policy.log
    taken_again = set()  # trip lengths after which the taxi took a request at once
    for t, (state, control) in enumerate(log):
        for l, act in enumerate(control):
            if act[0] != PICKUP:
                continue
            req = state.outstanding[act[1]]
            k = graph.distance(req[1], req[2])
            if t + 1 + k < len(log):
                busy = [log[t + i][0].dropoffs[l] != 0 for i in range(1, k + 2)]
                assert busy == [True] * k + [False]
                if log[t + 1 + k][1][l] != (STAY,):  # free, so bound to a request
                    taken_again.add(k)
    assert 0 in taken_again and max(taken_again) > 1


@pytest.mark.parametrize("name", sorted(TRIP_LOGS))
def test_trip_log_cases_have_many_conditionals(name):
    _, model = case_model(name)
    distinct = {id(pmf) for pmf in model.dropoff_given_pickup.values()}
    assert len(distinct) >= 25


@pytest.mark.parametrize("name", sorted(PARTITION_CASES))
def test_golden_partition_digest(name):
    assert partition_digest(name) == PARTITION_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_golden_cli_digest(name, tmp_path):
    assert cli_digest(name, tmp_path) == CLI_GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN")
    for case in sorted(CASES):
        print(f'    "{case}": "{trace_digest(case)}",')
    print("PARTITION_GOLDEN")
    for case in sorted(PARTITION_CASES):
        print(f'    "{case}": "{partition_digest(case)}",')
    print("CLI_GOLDEN")
    for case in sorted(CLI_CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{case}": "{cli_digest(case, tmp)}",')
