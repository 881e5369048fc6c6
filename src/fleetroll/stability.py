"""Fleet-size stability analysis.

The sufficient bound adds the worst of the two taxi-to-pickup expectations to
the expected trip length; the asymptotic necessary bound replaces that term
with the first Wasserstein distance between the dropoff and pickup
distributions, solved exactly as a linear program by HiGHS. Under the hop
metric that LP is Beckmann's min-cost flow on the directed edges (Peyre &
Cuturi, Computational Optimal Transport, 2019, ch. 6); any other ground cost
gets the transportation LP over the two supports.

The transport metric defaults to graph distance, which is always available and
upper-bounds the Euclidean value on coordinate-consistent graphs, so a
Euclidean-metric instability verdict stays conservative; pass
metric="euclidean" when node coordinates exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.special import stdtr

from .demand import expectation_terms
from .errors import FleetrollError
from .graph import CityGraph

_SUM_TOL = 1e-9
# HiGHS's tightest feasibility tolerances: at its defaults (1e-7) a plan over
# 225 x 90 uneven masses missed its marginals by 7.6e-8 and W1 by 4.6e-7.
_HIGHS_TOL = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
MIN_TRACES = 5  # fewest episode traces an empirical stability verdict accepts


class StabilityError(FleetrollError):
    pass


class MarginalMismatch(StabilityError):
    pass


class MissingCoordinates(StabilityError):
    pass


class TooFewTraces(StabilityError):
    pass


@dataclass
class TransportPlan:
    coupling: dict          # (source node, target node) -> mass
    total_cost: float


@dataclass
class StabilityReport:
    e_eta: float
    e_xi_rho: float
    e_lrand_rho: float
    e_rho_delta: float
    wd: float
    d_max: float
    d_min: float
    m_sufficient: int        # smallest integer fleet size meeting the sufficient bound
    instability_threshold: float   # fleets strictly below this are asymptotically unstable
    m_necessary: int         # instability threshold rounded up to the next integer
    metric: str = "graph"

    def as_dict(self):
        return asdict(self)

    def table(self) -> str:
        rows = [
            ("E[eta]", f"{self.e_eta:.4f}"),
            ("E[d(initial, pickup)]", f"{self.e_xi_rho:.4f}"),
            ("E[d(prev dropoff, pickup)]", f"{self.e_lrand_rho:.4f}"),
            ("E[d(pickup, dropoff)]", f"{self.e_rho_delta:.4f}"),
            (f"WD(dropoff, pickup) [{self.metric}]", f"{self.wd:.4f}"),
            ("D_max", f"{self.d_max:.4f}"),
            ("D_min", f"{self.d_min:.4f}"),
            ("m sufficient (stable if m >= this)", str(self.m_sufficient)),
            ("instability threshold E[eta]*D_min", f"{self.instability_threshold:.4f}"),
            ("m necessary (unstable if m < this)", str(self.m_necessary)),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _lp(cost, first, second, sign, b):
    """Nonnegative x minimizing cost @ x, where column k of the equality
    matrix holds 1 in row first[k] and `sign` in row second[k], with right-hand
    side b. The last equation is dropped: the others imply it once the masses
    balance, and without it float residue cannot make the LP infeasible."""
    k = len(cost)
    cols = np.arange(k)
    a_eq = csr_matrix((np.r_[np.ones(k), np.full(k, sign)],
                       (np.r_[first, second], np.r_[cols, cols])), shape=(len(b), k))
    res = linprog(cost, A_eq=a_eq[:-1], b_eq=b[:-1], bounds=(0, None), method="highs",
                  options=_HIGHS_TOL)
    if res.status != 0:
        raise StabilityError(f"transport LP failed: {res.message}")
    return res.x


def _edge_flow_value(graph, p, q):
    """W1 under the hop metric: min-cost flow on the directed edges, each of
    unit cost, with node balance p - q (Beckmann's formulation)."""
    if not graph.edges:
        return 0.0  # a single node: the mass is already in place
    balance = np.zeros(graph.n)
    for v, mass in p.items():
        balance[v - 1] += mass
    for v, mass in q.items():
        balance[v - 1] -= mass
    tails, heads = (np.array(graph.edges) - 1).T
    return float(_lp(np.ones(len(tails)), tails, heads, -1.0, balance).sum())


def wasserstein_discrete(p, q, cost):
    """First Wasserstein distance between finite pmfs, with the optimal plan.

    `cost` is a `CityGraph`, for its hop metric, or a callable (u, v) ->
    nonnegative float with cost(v, v) = 0. A graph is solved as min-cost flow
    on its edges, an LP that grows with the edges rather than with the
    product of the supports, and gives no plan (None). A callable gets the
    transportation LP over the two supports. Both are exact up to HiGHS's
    feasibility tolerances, set to 1e-10.
    """
    for pmf, name in ((p, "p"), (q, "q")):
        if not all(0 <= m < math.inf for m in pmf.values()):  # NaN fails both
            raise StabilityError(f"{name} has a negative or non-finite mass")
        total = sum(pmf.values())
        if abs(total - 1.0) > _SUM_TOL:
            raise MarginalMismatch(f"{name} sums to {total}, expected 1")
    if abs(sum(p.values()) - sum(q.values())) > _SUM_TOL:
        raise MarginalMismatch("pmfs carry different total mass")

    if isinstance(cost, CityGraph):
        return _edge_flow_value(cost, p, q), None
    src, dst = sorted(p), sorted(q)
    S, T = len(src), len(dst)
    cmat = np.array([[cost(u, v) for v in dst] for u in src], dtype=float).ravel()
    cells = np.arange(S * T)
    flow = _lp(cmat, cells // T, S + cells % T, 1.0,
               np.array([p[u] for u in src] + [q[v] for v in dst], dtype=float))
    coupling = {(src[k // T], dst[k % T]): float(flow[k]) for k in np.flatnonzero(flow > 0)}
    value = float(cmat @ flow)
    return value, TransportPlan(coupling, value)


def _euclidean_cost(graph):
    if graph.coords is None:
        raise MissingCoordinates("graph carries no node coordinates")
    coords = graph.coords

    def cost(u, v):
        (xu, yu), (xv, yv) = coords[u], coords[v]
        return math.hypot(xu - xv, yu - yv)

    return cost


def bounds_from_expectations(e_xi_rho, e_lrand_rho, e_rho_delta, wd, e_eta,
                             metric: str = "graph") -> StabilityReport:
    """Assemble the report from already-computed expectations.

    The sufficient fleet size is the smallest integer m with
    m >= E[eta] * D_max; fleets strictly below E[eta] * D_min are
    asymptotically unstable. A hair of tolerance absorbs float fuzz so that
    exactly-integral products do not round up.
    """
    d_max = max(e_xi_rho, e_lrand_rho) + e_rho_delta
    d_min = wd + e_rho_delta
    threshold = e_eta * d_min
    return StabilityReport(
        e_eta=e_eta,
        e_xi_rho=e_xi_rho,
        e_lrand_rho=e_lrand_rho,
        e_rho_delta=e_rho_delta,
        wd=wd,
        d_max=d_max,
        d_min=d_min,
        m_sufficient=math.ceil(e_eta * d_max - 1e-9),
        instability_threshold=threshold,
        m_necessary=math.ceil(threshold - 1e-9),
        metric=metric,
    )


def compute_bounds(model, graph, metric: str = "graph") -> StabilityReport:
    """Stability bounds for a demand model on a graph.

    The Wasserstein term couples the marginal dropoff distribution to the
    pickup distribution under the chosen ground metric.
    """
    terms = expectation_terms(model, graph)
    if metric == "graph":
        cost = graph
    elif metric == "euclidean":
        cost = _euclidean_cost(graph)
    else:
        raise StabilityError(f"unknown metric '{metric}'")
    wd, _ = wasserstein_discrete(model.marginal_dropoff_pmf, model.pickup_pmf, cost)
    return bounds_from_expectations(terms.e_xi_rho, terms.e_lrand_rho,
                                    terms.e_rho_delta, wd, terms.e_eta, metric=metric)


@dataclass
class StabilityVerdict:
    verdict: str            # STABLE | UNSTABLE | INCONCLUSIVE
    first_window_mean: float
    last_window_mean: float
    pooled_se: float
    slope: float
    slope_p: float
    traces: int = 0
    window: int = 0


def _trend(y):
    """Least-squares slope of y over 1..T and the one-sided p-value for the
    slope being positive (t-test, T-2 dof). Degenerate fits are handled
    without warnings: a flat perfect fit has no trend, a rising one is sure.

    The p-value is the Student t survival function as scipy.stats computes
    it, stdtr(dof, -t), without loading scipy.stats."""
    T = len(y)
    x = np.arange(1, T + 1, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ yc) / sxx
    resid = yc - slope * xc
    dof = T - 2
    s2 = float(resid @ resid) / dof
    if s2 <= 0:
        return slope, (0.0 if slope > 0 else 1.0)
    t_stat = slope / math.sqrt(s2 / sxx)
    return slope, float(stdtr(dof, -t_stat))


def empirical_stability(traces, window: int) -> StabilityVerdict:
    """Verdict from outstanding-request series of repeated episodes.

    The first and last window of the trailing 2*window steps are compared, so
    the empty-fleet warmup never deflates the baseline (with window = T/2 the
    two windows cover the whole trace). STABLE when the last window's mean
    stays within two pooled standard errors of the first window's; otherwise
    UNSTABLE when the across-trace mean series has a significantly positive
    least-squares slope (one-sided p < 0.05); INCONCLUSIVE otherwise.
    """
    traces = list(traces)
    if len(traces) < MIN_TRACES:
        raise TooFewTraces(f"need at least {MIN_TRACES} traces, got {len(traces)}")
    if window < 1:
        raise StabilityError(f"window must be at least 1 step, got {window}")
    rows = [t.outstanding_series() for t in traces]
    if len({len(r) for r in rows}) > 1:
        raise StabilityError("traces have different horizons")
    series = np.array(rows, dtype=float)
    T = series.shape[1]
    if window > T // 2:
        raise StabilityError(f"window {window} exceeds half the horizon {T}")
    if T < 3:
        raise StabilityError(f"a slope test needs a horizon of at least 3 steps, got {T}")

    firsts = series[:, T - 2 * window:T - window].mean(axis=1)
    lasts = series[:, -window:].mean(axis=1)
    n = len(traces)
    se = math.sqrt(firsts.var(ddof=1) / n + lasts.var(ddof=1) / n) if n > 1 else 0.0
    slope, slope_p = _trend(series.mean(axis=0))

    if lasts.mean() <= firsts.mean() + 2 * se:
        verdict = "STABLE"
    elif slope > 0 and slope_p < 0.05:
        verdict = "UNSTABLE"
    else:
        verdict = "INCONCLUSIVE"
    return StabilityVerdict(verdict, float(firsts.mean()), float(lasts.mean()),
                            float(se), slope, slope_p, traces=n, window=window)
