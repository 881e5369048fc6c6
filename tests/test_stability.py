import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fleetroll import FleetrollError, grid_graph
from fleetroll.demand import DemandModel, expectation_terms, synthetic_model
from fleetroll.stability import (MarginalMismatch, MissingCoordinates, StabilityError,
                                 TooFewTraces, bounds_from_expectations, compute_bounds,
                                 empirical_stability, wasserstein_discrete)
from conftest import line_graph, ring_graph
from test_graph import random_strong_digraph


class SeriesTrace:
    def __init__(self, series):
        self._series = list(series)

    def outstanding_series(self):
        return self._series


# ---------- transport oracles ----------

from oracles import grid_aligned_pmf, lp_transport_value, vertex_enumeration_value


def test_vertex_oracle_agrees_with_lp():
    rng = np.random.default_rng(5)
    for _ in range(20):
        S, T = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.integers(1, 6, size=S).astype(float)
        b = rng.integers(1, 6, size=T).astype(float)
        b *= a.sum() / b.sum()
        cost = rng.integers(0, 9, size=(S, T)).astype(float).tolist()
        lp = lp_transport_value(a, b, cost)
        ve = vertex_enumeration_value([Fraction(x).limit_denominator(10**9) for x in a],
                                      [Fraction(x).limit_denominator(10**9) for x in b],
                                      cost)
        assert ve == pytest.approx(lp, rel=1e-9, abs=1e-9)


# ---------- wasserstein_discrete ----------

def test_identical_pmfs_zero():
    p = {1: 0.25, 2: 0.75}
    v, plan = wasserstein_discrete(p, dict(p), lambda a, b: abs(a - b))
    assert v == 0.0
    assert plan.coupling == {(1, 1): 0.25, (2, 2): 0.75}


def test_point_masses_forced_coupling():
    v, plan = wasserstein_discrete({3: 1.0}, {7: 1.0}, lambda a, b: abs(a - b))
    assert v == pytest.approx(4.0)
    assert plan.coupling == {(3, 7): 1.0}


def test_three_point_line():
    v, _ = wasserstein_discrete({0: 0.5, 2: 0.5}, {1: 1.0}, lambda a, b: abs(a - b))
    assert v == pytest.approx(1.0)


def test_marginal_mismatch():
    with pytest.raises(MarginalMismatch):
        wasserstein_discrete({1: 0.9}, {1: 1.0}, lambda a, b: 0.0)


def test_plan_marginals_match():
    rng = np.random.default_rng(11)
    for _ in range(30):
        S, T = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        p = rng.random(S) + 0.05
        q = rng.random(T) + 0.05
        p /= p.sum()
        q /= q.sum()
        pm = {i + 1: float(x) for i, x in enumerate(p)}
        qm = {j + 1: float(x) for j, x in enumerate(q)}
        v, plan = wasserstein_discrete(pm, qm, lambda a, b: abs(a - b))
        rows, cols = {}, {}
        for (u, w), m in plan.coupling.items():
            rows[u] = rows.get(u, 0.0) + m
            cols[w] = cols.get(w, 0.0) + m
        for u, mass in pm.items():
            assert rows.get(u, 0.0) == pytest.approx(mass, abs=1e-9)
        for u, mass in qm.items():
            assert cols.get(u, 0.0) == pytest.approx(mass, abs=1e-9)
        assert v == pytest.approx(sum(m * abs(u - w) for (u, w), m in plan.coupling.items()),
                                  abs=1e-9)


def test_flow_value_matches_lp_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        S, T = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        nodes_p = sorted(rng.choice(np.arange(1, 30), size=S, replace=False).tolist())
        nodes_q = sorted(rng.choice(np.arange(1, 30), size=T, replace=False).tolist())
        pm = grid_aligned_pmf(rng, S, nodes_p)
        qm = grid_aligned_pmf(rng, T, nodes_q)
        v, _ = wasserstein_discrete(pm, qm, lambda a, b: abs(a - b))
        lp = lp_transport_value([pm[n] for n in nodes_p], [qm[n] for n in nodes_q],
                                [[abs(u - w) for w in nodes_q] for u in nodes_p])
        assert v == pytest.approx(lp, rel=1e-6, abs=1e-6)


def test_arbitrary_masses_match_lp_oracle():
    # masses off any decimal grid are transported exactly
    rng = np.random.default_rng(29)
    for _ in range(20):
        S, T = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        p = rng.random(S) + 0.05
        q = rng.random(T) + 0.05
        p /= p.sum()
        q /= q.sum()
        nodes_p = sorted(rng.choice(np.arange(1, 30), size=S, replace=False).tolist())
        nodes_q = sorted(rng.choice(np.arange(1, 30), size=T, replace=False).tolist())
        pm = {n: float(x) for n, x in zip(nodes_p, p)}
        qm = {n: float(x) for n, x in zip(nodes_q, q)}
        v, _ = wasserstein_discrete(pm, qm, lambda a, b: abs(a - b))
        lp = lp_transport_value(p.tolist(), q.tolist(),
                                [[abs(u - w) for w in nodes_q] for u in nodes_p])
        assert v == pytest.approx(lp, abs=1e-9)


def test_negative_or_non_finite_mass_rejected():
    for bad in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(StabilityError, match="p has a negative or non-finite mass"):
            wasserstein_discrete({1: 0.5, 2: bad}, {1: 1.0}, lambda a, b: abs(a - b))
        with pytest.raises(FleetrollError, match="q has a negative or non-finite mass"):
            wasserstein_discrete({1: 1.0}, {1: bad}, grid_graph(2))


def dense_graph_value(graph, p, q):
    """W1 under graph distance by the transportation LP over the supports."""
    src, dst = sorted(p), sorted(q)
    cost = graph.dist_array[np.ix_(src, dst)]
    return lp_transport_value([p[u] for u in src], [q[v] for v in dst], cost)


def random_pmf(rng, nodes):
    x = rng.random(len(nodes)) ** 3  # uneven, off any decimal grid
    x /= x.sum()
    return {int(v): float(m) for v, m in zip(nodes, x)}


def test_graph_metric_matches_dense_lp_on_hotspot_grid():
    g = grid_graph(15)
    model = synthetic_model(g, 1.0, hotspot=113, hotspot_mass=0.3)
    p, q = model.marginal_dropoff_pmf, model.pickup_pmf
    v, plan = wasserstein_discrete(p, q, g)
    assert plan is None
    assert v == pytest.approx(2.24, abs=1e-9)  # 0.3 moves to the centre, 1680/225 hops away
    assert v == pytest.approx(dense_graph_value(g, p, q), abs=1e-9)
    rng = np.random.default_rng(31)
    p, q = random_pmf(rng, range(1, 226)), random_pmf(rng, rng.permutation(225)[:90] + 1)
    assert wasserstein_discrete(p, q, g)[0] == pytest.approx(dense_graph_value(g, p, q), abs=1e-9)


def test_graph_metric_matches_dense_lp_on_directed_graphs():
    rng = np.random.default_rng(37)
    ring = ring_graph(240)  # one way: d(u, v) + d(v, u) = 240 for u != v
    strong = random_strong_digraph(random.Random(41), 230)
    for g in (ring, strong):
        for _ in range(2):
            p = random_pmf(rng, rng.permutation(g.n)[:rng.integers(1, g.n)] + 1)
            q = random_pmf(rng, rng.permutation(g.n)[:rng.integers(1, g.n)] + 1)
            v, _ = wasserstein_discrete(p, q, g)
            assert v == pytest.approx(dense_graph_value(g, p, q), abs=1e-9)
            assert v == pytest.approx(wasserstein_discrete(p, q, g.distance)[0], abs=1e-9)
    back = wasserstein_discrete({2: 1.0}, {1: 1.0}, ring)[0]
    assert back == pytest.approx(239.0, abs=1e-9)  # the long way round


def test_m_necessary_exact_at_an_integral_threshold():
    # On a 15x15 hotspot model WD is 2.24 exactly (masses rounded to 1e-6
    # gave 2.24084). E[eta] is chosen so that E[eta] * (WD + E[d(rho, delta)])
    # is the integer 103: the fleet of 103 is not asymptotically unstable.
    g = grid_graph(15)
    base = synthetic_model(g, 1.0, hotspot=113, hotspot_mass=0.3)
    d_min = dense_graph_value(g, base.marginal_dropoff_pmf, base.pickup_pmf) \
        + expectation_terms(base, g).e_rho_delta
    rep = compute_bounds(synthetic_model(g, 103 / d_min, hotspot=113, hotspot_mass=0.3), g)
    assert rep.d_min == pytest.approx(d_min, abs=1e-9)
    assert rep.instability_threshold == pytest.approx(103, abs=1e-9)
    assert rep.m_necessary == 103


def test_metric_sandwich_euclidean_below_graph(grid5):
    model = synthetic_model(grid5, 1.0, hotspot=3, hotspot_mass=0.5)
    rep_g = compute_bounds(model, grid5, metric="graph")
    rep_e = compute_bounds(model, grid5, metric="euclidean")
    assert rep_e.wd <= rep_g.wd + 1e-9


def test_euclidean_needs_coordinates():
    g = line_graph(3)
    model = DemandModel({1: 1.0}, {1: 0.5, 3: 0.5},
                        {1: {3: 1.0}, 3: {1: 1.0}})
    with pytest.raises(MissingCoordinates):
        compute_bounds(model, g, metric="euclidean")


# ---------- bounds ----------

def test_two_node_bounds_exact():
    g = line_graph(2)
    model = DemandModel({1: 1.0}, {1: 1.0}, {1: {2: 1.0}})
    # pickups at 1, dropoffs at 2; initial and previous-dropoff mass at 2
    rep = compute_bounds(model, g)
    assert rep.e_xi_rho == 1.0 and rep.e_lrand_rho == 1.0 and rep.e_rho_delta == 1.0
    assert rep.d_max == 2.0
    assert rep.wd == pytest.approx(1.0)   # move mass at 2 onto pickups at 1
    assert rep.d_min == pytest.approx(2.0)
    assert rep.m_sufficient == 2
    assert rep.m_necessary == 2


def test_single_node_degenerate():
    from fleetroll import CityGraph

    g = CityGraph(1, [])
    model = DemandModel({1: 1.0}, {1: 1.0}, {1: {1: 1.0}})
    rep = compute_bounds(model, g)
    assert rep.d_max == 0.0 and rep.d_min == 0.0
    assert rep.m_sufficient == 0


def test_reference_inputs_reproduce_published_bounds():
    rep = bounds_from_expectations(e_xi_rho=15.0, e_lrand_rho=13.0,
                                   e_rho_delta=15.0, wd=1.87, e_eta=1.0)
    assert rep.d_max == 30.0
    assert rep.m_sufficient == 30
    assert rep.instability_threshold == pytest.approx(16.87)
    assert rep.m_necessary == 17


def test_d_min_never_exceeds_d_max_when_initials_match_dropoffs(grid5):
    for seed in range(5):
        model = synthetic_model(grid5, 1.0, hotspot=(seed * 5 + 1), hotspot_mass=0.4)
        rep = compute_bounds(model, grid5)
        assert rep.d_min <= rep.d_max + 1e-9


# ---------- empirical verdicts ----------

def test_zero_traces_stable():
    traces = [SeriesTrace([0] * 100) for _ in range(6)]
    assert empirical_stability(traces, window=20).verdict == "STABLE"


def test_linear_growth_unstable():
    traces = [SeriesTrace(list(range(100))) for _ in range(6)]
    v = empirical_stability(traces, window=20)
    assert v.verdict == "UNSTABLE"
    assert v.slope > 0 and v.slope_p < 0.05


def test_too_few_traces():
    with pytest.raises(TooFewTraces):
        empirical_stability([SeriesTrace([0] * 10)] * 4, window=2)


def test_window_too_large():
    with pytest.raises(Exception):
        empirical_stability([SeriesTrace([0] * 10)] * 6, window=8)


def test_different_horizons_rejected():
    traces = [SeriesTrace([0] * 10)] * 5 + [SeriesTrace([0] * 11)]
    with pytest.raises(StabilityError, match="different horizons"):
        empirical_stability(traces, window=2)


@pytest.mark.parametrize("window", [0, -3])
def test_window_below_one_rejected(window):
    with pytest.raises(StabilityError, match=f"at least 1 step, got {window}"):
        empirical_stability([SeriesTrace(list(range(10)))] * 6, window=window)


def test_two_step_horizon_is_too_short_for_a_slope():
    with pytest.raises(StabilityError, match="at least 3 steps, got 2"):
        empirical_stability([SeriesTrace([0, 1])] * 6, window=1)


def trend_p_reference(y):
    """The one-sided p-value of a positive least-squares slope by
    scipy.stats.t.sf, with an infinite t statistic for a perfect fit."""
    import math

    from scipy import stats

    T = len(y)
    x = np.arange(1, T + 1, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ yc) / sxx
    resid = yc - slope * xc
    s2 = float(resid @ resid) / (T - 2)
    t_stat = math.copysign(math.inf, slope) if s2 <= 0 else slope / math.sqrt(s2 / sxx)
    return float(stats.t.sf(t_stat, T - 2))


def test_trend_p_value_equals_scipy_stats_t_sf():
    from fleetroll.stability import _trend

    for T in (3, 4, 5, 8, 12, 30, 100, 1000):
        x = np.arange(1, T + 1, dtype=float)
        xc = x - x.mean()
        # residual orthogonal to the fit's intercept and slope, unit norm
        r = np.cos(np.pi * x * 2.0 / 3.0) if T > 3 else np.array([1.0, -2.0, 1.0])
        r = r - r.mean() - (r @ xc) / (xc @ xc) * xc
        r /= np.linalg.norm(r)
        scale = np.sqrt((1.0 / (T - 2)) / (xc @ xc))  # the slope's standard error
        for t in (-40.0, -6.0, -2.5, -1.0, -0.1, 0.0, 0.3, 1.0, 1.7, 2.5, 4.0, 9.0, 40.0):
            y = 5.0 + t * scale * xc + r
            assert _trend(y)[1] == trend_p_reference(y)
        for y in (3.0 * x, -0.5 * x + 7.0):  # perfect fits, rising and falling
            assert _trend(y)[1] == trend_p_reference(y)
        assert _trend(np.full(T, 2.0)) == (0.0, 1.0)  # a flat perfect fit has no trend


def test_import_and_verdict_leave_scipy_stats_unloaded():
    """scipy.stats costs about 20 MB of resident memory; neither importing
    fleetroll nor an empirical verdict loads it. Building a graph does not
    load scipy.sparse.csgraph either."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fleetroll

    code = (
        "import sys\n"
        "import fleetroll\n"
        "from fleetroll.stability import empirical_stability\n"
        "class Trace:\n"
        "    def __init__(self, k):\n"
        "        self.k = k\n"
        "    def outstanding_series(self):\n"
        "        return [t + (t * self.k) % 5 for t in range(40)]\n"
        "v = empirical_stability([Trace(k) for k in range(1, 7)], window=10)\n"
        "print(v.verdict, 0 < v.slope_p < 0.05, 'scipy.stats' in sys.modules)\n"
        "fleetroll.grid_graph(5)\n"
        "print('scipy.sparse.csgraph' in sys.modules)\n"
    )
    src = str(Path(fleetroll.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["UNSTABLE", "True", "False", "False"]
