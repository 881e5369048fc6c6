"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.

The heavier experiments (rollout improvement, stability windows) take a few
minutes each; the whole module stays well inside its stated runtime caps,
which are asserted alongside the substantive checks.
"""

import hashlib
import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import fleetroll as fr
from fleetroll.cli import main as cli_main
from fleetroll.planner import TwoPhasePolicy
from fleetroll.policies import (IACommitPolicy, IARAPolicy, RandomIAPolicy,
                                service_distance)
from fleetroll.rollout import RolloutConfig, RolloutPolicy
from fleetroll.sim import run_episode
from fleetroll.stability import (bounds_from_expectations, compute_bounds,
                                 empirical_stability, wasserstein_discrete)
from oracles import (AssignmentProblem, brute_force_assignment, grid_aligned_pmf,
                     lp_transport_value, min_cost_assignment, vertex_enumeration_feasible,
                     vertex_enumeration_value)


def report(name, detail):
    print(f"\nACCEPTANCE PASS [{name}]: {detail}")


def one_sided_paired_p(deltas):
    """P(mean delta < 0) under the paired t distribution."""
    n = len(deltas)
    mean = sum(deltas) / n
    var = sum((d - mean) ** 2 for d in deltas) / (n - 1)
    if var == 0:
        return 0.0 if mean < 0 else 1.0
    t = mean / math.sqrt(var / n)
    return float(stats.t.cdf(t, n - 1))


def test_criterion_1_matching_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for i in range(1000):
        nr = int(rng.integers(1, 9))
        nc = int(rng.integers(1, 9))
        cost = rng.integers(0, 21, size=(nr, nc)).tolist()
        exact = brute_force_assignment(AssignmentProblem(cost))
        got = min_cost_assignment(AssignmentProblem(cost))
        assert got.total_cost == exact.total_cost, (i, cost)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report("1 matching oracle", f"1000 instances exact, {elapsed:.2f}s < 10s")


def test_criterion_2_wasserstein_oracle_equivalence():
    rng = np.random.default_rng(202)
    enumerated = 0
    for i in range(200):
        S = int(rng.integers(1, 7))
        T = int(rng.integers(1, 7))
        nodes_p = sorted(rng.choice(np.arange(1, 40), size=S, replace=False).tolist())
        nodes_q = sorted(rng.choice(np.arange(1, 40), size=T, replace=False).tolist())
        pm = grid_aligned_pmf(rng, S, nodes_p)
        qm = grid_aligned_pmf(rng, T, nodes_q)
        cost = [[abs(u - w) for w in nodes_q] for u in nodes_p]
        v, _ = wasserstein_discrete(pm, qm, lambda a, b: abs(a - b))
        if vertex_enumeration_feasible(S, T):
            oracle = vertex_enumeration_value(
                [Fraction(pm[n]).limit_denominator(10 ** 7) for n in nodes_p],
                [Fraction(qm[n]).limit_denominator(10 ** 7) for n in nodes_q], cost)
            enumerated += 1
        else:
            oracle = lp_transport_value([pm[n] for n in nodes_p],
                                        [qm[n] for n in nodes_q], cost)
        assert v == pytest.approx(oracle, rel=1e-6, abs=1e-6), (i, pm, qm)

    v0, _ = wasserstein_discrete({3: 0.4, 8: 0.6}, {3: 0.4, 8: 0.6}, lambda a, b: abs(a - b))
    assert v0 == 0.0
    v2, _ = wasserstein_discrete({2: 1.0}, {9: 1.0}, lambda a, b: abs(a - b))
    assert v2 == pytest.approx(7.0)
    report("2 wasserstein oracle",
           f"200 pairs within 1e-6 ({enumerated} by vertex enumeration, "
           f"{200 - enumerated} by LP); identity and two-point exact")


def test_criterion_3_bound_formulas():
    # 2-node line: everything equals 1 hop
    g2 = fr.build_graph(2, [(1, 2), (2, 1)])
    m2 = fr.DemandModel({1: 1.0}, {1: 1.0}, {1: {2: 1.0}})
    rep2 = compute_bounds(m2, g2)
    assert (rep2.e_xi_rho, rep2.e_lrand_rho, rep2.e_rho_delta) == (1.0, 1.0, 1.0)
    assert rep2.d_max == 2.0 and rep2.d_min == 2.0
    assert rep2.m_sufficient == 2 and rep2.m_necessary == 2

    # 3x3 grid with dyadic masses: hand-computed exactly
    g3 = fr.grid_graph(3)
    m3 = fr.DemandModel(
        eta_pmf={1: 0.5, 2: 0.5},
        pickup_pmf={1: 0.5, 9: 0.5},
        dropoff_given_pickup={1: {3: 0.5, 7: 0.5}, 9: {1: 1.0}},
    )
    rep3 = compute_bounds(m3, g3)
    # E[d(rho, delta)] = 1/2*(1/2*2 + 1/2*2) + 1/2*4 = 3
    # marginal dropoff = {1: 1/2, 3: 1/4, 7: 1/4}; E[d(xi, rho)] = 2 exactly
    assert rep3.e_rho_delta == 3.0
    assert rep3.e_xi_rho == 2.0 and rep3.e_lrand_rho == 2.0
    assert rep3.d_max == 5.0
    # optimal transport: keep 1/2 at node 1, move 1/4 each from 3 and 7 to 9
    assert rep3.wd == pytest.approx(1.0, abs=1e-9)
    assert rep3.d_min == pytest.approx(4.0, abs=1e-9)
    assert rep3.e_eta == 1.5
    assert rep3.m_sufficient == 8      # ceil(1.5 * 5)
    assert rep3.m_necessary == 6       # ceil(1.5 * 4)

    # published reference expectations reproduce the reported fleet bounds
    rep = bounds_from_expectations(15.0, 13.0, 15.0, wd=1.87, e_eta=1.0)
    assert rep.m_sufficient == 30
    assert rep.m_necessary == 17
    report("3 bound formulas",
           "2-node and 3x3 hand values exact; reference inputs give 30 / 17")


def test_criterion_4_policy_ordering():
    t0 = time.monotonic()
    g = fr.grid_graph(5)
    model = fr.synthetic_model(g, 0.4)
    zs = {"ia-ra": [], "ia-commit": [], "random-ia": []}
    for seed in range(500):
        for name, cls in (("ia-ra", IARAPolicy), ("ia-commit", IACommitPolicy),
                          ("random-ia", RandomIAPolicy)):
            tr = run_episode(g, model, cls(g), m=3, T=50, seed=seed)
            zs[name].append(service_distance(tr, g).total)
    mean = {k: sum(v) / len(v) for k, v in zs.items()}
    assert mean["ia-ra"] <= mean["ia-commit"] <= mean["random-ia"]
    p1 = one_sided_paired_p([a - b for a, b in zip(zs["ia-ra"], zs["ia-commit"])])
    p2 = one_sided_paired_p([a - b for a, b in zip(zs["ia-commit"], zs["random-ia"])])
    assert p1 < 0.05 and p2 < 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    report("4 policy ordering",
           f"Z means {mean['ia-ra']:.1f} <= {mean['ia-commit']:.1f} <= "
           f"{mean['random-ia']:.1f}, p={p1:.1e}/{p2:.1e}, {elapsed:.0f}s < 300s")


def test_criterion_5_rollout_improvement():
    t0 = time.monotonic()
    g = fr.grid_graph(5)
    model = fr.synthetic_model(g, 0.4)
    cfg = RolloutConfig(t_h=10, num_mc=50)
    deltas = []
    r_costs, b_costs = [], []
    for seed in range(50):
        r = run_episode(g, model, RolloutPolicy(g, model, cfg), 3, 50, seed).cost
        b = run_episode(g, model, IARAPolicy(g), 3, 50, seed).cost
        r_costs.append(r)
        b_costs.append(b)
        deltas.append(r - b)
    mean_r = sum(r_costs) / 50
    mean_b = sum(b_costs) / 50
    p = one_sided_paired_p(deltas)
    assert mean_r <= mean_b
    assert p < 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 1800
    report("5 rollout improvement",
           f"rollout {mean_r:.1f} <= ia-ra {mean_b:.1f} over 50 paired seeds, "
           f"p={p:.1e}, {elapsed:.0f}s < 1800s")


def test_criterion_6_two_phase_reduction():
    g = fr.grid_graph(5)
    model = fr.synthetic_model(g, 0.5)
    cfg = RolloutConfig(t_h=5, num_mc=5)
    for seed in range(10):
        pol = TwoPhasePolicy(g, model, m=3, m_lim=10, cfg=cfg)
        assert pol.K == 1
        two = run_episode(pol.graph, model, pol, 3, 50, seed)
        glob = run_episode(g, model, RolloutPolicy(g, model, cfg), 3, 50, seed)
        assert two.controls == glob.controls
        assert two.stage_costs == glob.stage_costs
        assert [r.__dict__ for r in two.steps] == [r.__dict__ for r in glob.steps]
    report("6 two-phase reduction", "K=1 traces bit-identical to global rollout, 10 seeds")


def test_criterion_7_two_phase_quality_and_runtime():
    g = fr.grid_graph(8)
    model = fr.synthetic_model(g, 0.5, hotspot=1, hotspot_mass=0.5)
    cfg = RolloutConfig(t_h=5, num_mc=5)
    costs_r, costs_2, ms_r, ms_2 = [], [], [], []
    for seed in range(20):
        tr = run_episode(g, model, RolloutPolicy(g, model, cfg), 8, 50, seed)
        pol = TwoPhasePolicy(g, model, m=8, m_lim=4, cfg=cfg)
        t2 = run_episode(pol.graph, model, pol, 8, 50, seed)
        costs_r.append(tr.cost)
        costs_2.append(t2.cost)
        ms_r.append(tr.mean_plan_ms())
        ms_2.append(t2.mean_plan_ms())
    mean_r = sum(costs_r) / 20
    mean_2 = sum(costs_2) / 20
    time_r = sum(ms_r) / 20
    time_2 = sum(ms_2) / 20
    # quality parity: no more than 10% worse than global rollout
    assert mean_2 <= 1.10 * mean_r
    assert time_2 < 0.60 * time_r
    report("7 two-phase quality/runtime",
           f"cost {mean_2:.1f} vs {mean_r:.1f} (ratio {mean_2/mean_r:.2f} <= 1.10), "
           f"plan {time_2:.1f}ms vs {time_r:.1f}ms (ratio {time_2/time_r:.2f} < 0.60)")


def test_criterion_8_stability_window():
    t0 = time.monotonic()
    g = fr.grid_graph(5)
    model = fr.synthetic_model(g, 1.0)
    rep = compute_bounds(model, g)
    m_stable = rep.m_sufficient
    m_unstable = max(1, math.floor(0.5 * rep.instability_threshold))
    assert m_stable == 7 and m_unstable == 1
    cfg = RolloutConfig(t_h=5, num_mc=3)
    verdicts = {}
    for m, expected in ((m_stable, "STABLE"), (m_unstable, "UNSTABLE")):
        ia_traces = [run_episode(g, model, IARAPolicy(g), m, 300, s) for s in range(20)]
        tp_traces = []
        for s in range(20):
            pol = TwoPhasePolicy(g, model, m, m_lim=3, cfg=cfg)
            tp_traces.append(run_episode(pol.graph, model, pol, m, 300, s))
        v_ia = empirical_stability(ia_traces, window=75)
        v_tp = empirical_stability(tp_traces, window=75)
        verdicts[("ia-ra", m)] = v_ia.verdict
        verdicts[("two-phase", m)] = v_tp.verdict
        assert v_ia.verdict == expected, (m, v_ia)
        assert v_tp.verdict == expected, (m, v_tp)
    elapsed = time.monotonic() - t0
    assert elapsed < 1200
    report("8 stability window",
           f"m={m_stable}: both STABLE; m={m_unstable}: both UNSTABLE; "
           f"{elapsed:.0f}s < 1200s")


def test_criterion_9_appendix_inequality():
    # Z for one scenario: sum over requests of approach plus trip distance,
    # minimized over injections of requests into the taxi tuple.
    line = [1, 2, 3, 4]

    def z(taxis, injection, scenario):
        return sum(abs(taxis[injection[i]] - pu) + abs(pu - do)
                   for i, (pu, do) in enumerate(scenario))

    def check_family(taxi_sizes, request_universe, n_req):
        checked = 0
        scen_sets = []
        for k in (1, 2, 3, 4):
            scen_sets.extend(itertools.combinations(request_universe, k))
        for size in taxi_sizes:
            for taxis in itertools.product(line, repeat=size):
                if size < n_req:
                    continue
                injections = list(itertools.permutations(range(size), n_req))
                for scenarios in scen_sets:
                    n = len(scenarios)
                    min_of_sum = min(sum(z(taxis, inj, sc) for sc in scenarios)
                                     for inj in injections)
                    sum_of_min = sum(min(z(taxis, inj, sc) for inj in injections)
                                     for sc in scenarios)
                    # equal scenario weights: compare scaled sums exactly
                    assert min_of_sum >= sum_of_min, (taxis, scenarios)
                    checked += 1
        return checked

    # one request: the full 16-scenario universe, exhaustively
    universe1 = [((pu, do),) for pu in line for do in line]
    n1 = check_family([1, 2, 3], universe1, 1)

    # two requests: all pairings of four fixed patterns
    patterns = [(1, 3), (2, 4), (4, 1), (3, 2)]
    universe2 = [(a, b) for a in patterns for b in patterns]
    n2 = check_family([2, 3], universe2, 2)

    report("9 appendix inequality",
           f"min-of-sum >= sum-of-min exact on {n1} one-request and "
           f"{n2} two-request instances")


def _digest_dir(directory):
    h = hashlib.sha256()
    for f in sorted(Path(directory).iterdir()):
        if "timing" in f.name:
            continue
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def test_criterion_10_determinism_across_jobs(tmp_path):
    checks = []

    def run_twice(name, args):
        a = tmp_path / f"{name}_j1"
        b = tmp_path / f"{name}_j2"
        assert cli_main(args + ["--jobs", "1", "--out-dir", str(a)]) == 0
        assert cli_main(args + ["--jobs", "2", "--out-dir", str(b)]) == 0
        assert _digest_dir(a) == _digest_dir(b), name
        checks.append(name)

    run_twice("simulate", ["simulate", "--grid", "5", "--e-eta", "0.5",
                           "--policy", "rollout", "--t-h", "3", "--num-mc", "2",
                           "--m", "2", "--T", "15", "--seeds", "2", "--seed", "3"])
    run_twice("compare", ["compare", "--grid", "5", "--e-eta", "0.4",
                          "--policies", "ia-ra,greedy", "--m", "2", "--T", "20",
                          "--seeds", "3", "--seed", "1"])
    run_twice("stability", ["stability", "--grid", "4", "--e-eta", "1.0",
                            "--policy", "ia-ra", "--verify", "--m-sweep", "5",
                            "--T", "60", "--seeds", "5", "--seed", "2"])

    # file-emitting generators are seed-deterministic as well
    g1 = tmp_path / "g1.txt"
    g2 = tmp_path / "g2.txt"
    assert cli_main(["gen-graph", "--k", "5", "--out", str(g1)]) == 0
    assert cli_main(["gen-graph", "--k", "5", "--out", str(g2)]) == 0
    assert g1.read_bytes() == g2.read_bytes()
    t1 = tmp_path / "t1.csv"
    t2 = tmp_path / "t2.csv"
    for t in (t1, t2):
        assert cli_main(["gen-trips", "--grid", "5", "--e-eta", "1.0", "--T", "60",
                         "--seed", "9", "--out", str(t)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    p1 = tmp_path / "p1.csv"
    p2 = tmp_path / "p2.csv"
    for p in (p1, p2):
        assert cli_main(["partition", "--grid", "5", "--e-eta", "1.0", "--m", "6",
                         "--m-lim", "3", "--seed", "4", "--out", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()

    report("10 determinism", f"non-timing outputs identical across --jobs for "
                             f"{', '.join(checks)}; generators byte-stable")
