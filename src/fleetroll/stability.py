"""Fleet-size stability analysis.

The sufficient bound adds the worst of the two taxi-to-pickup expectations to
the expected trip length; the asymptotic necessary bound replaces that term
with the first Wasserstein distance between the dropoff and pickup
distributions. The transport problem is solved exactly by successive shortest
paths on the bipartite support graph after scaling masses to integers.

The transport metric defaults to graph distance, which is always available and
upper-bounds the Euclidean value on coordinate-consistent graphs, so a
Euclidean-metric instability verdict stays conservative; pass
metric="euclidean" when node coordinates exist.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy import stats

from .demand import expectation_terms
from .errors import FleetrollError

_SUM_TOL = 1e-9
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

    def marginals(self):
        row, col = {}, {}
        for (u, v), m in self.coupling.items():
            row[u] = row.get(u, 0.0) + m
            col[v] = col.get(v, 0.0) + m
        return row, col


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


def _integerize(pmf, scale):
    """Masses scaled to integers summing exactly to `scale`; the rounding
    residual lands on the largest-mass node (smallest node on ties)."""
    nodes = sorted(pmf)
    vals = [int(round(pmf[v] * scale)) for v in nodes]
    residual = scale - sum(vals)
    if residual != 0:
        big = max(range(len(nodes)), key=lambda i: (pmf[nodes[i]], -nodes[i]))
        vals[big] += residual
        if vals[big] < 0:
            raise StabilityError("integer scale too coarse for this pmf")
    return nodes, vals


def _ssp_transport(supply, demand, cost):
    """Exact min-cost transportation by successive shortest paths.

    supply/demand are integer vectors with equal sums; cost[i][j] >= 0.
    Returns the flow matrix. Potentials keep reduced costs nonnegative so
    plain Dijkstra finds each augmenting path.
    """
    S, T = len(supply), len(demand)
    rem_a = list(supply)
    rem_b = list(demand)
    flow = [[0] * T for _ in range(S)]
    pot_a = [0.0] * S
    pot_b = [0.0] * T
    inf = math.inf
    remaining = sum(rem_a)
    while remaining > 0:
        dist_a = [inf] * S
        dist_b = [inf] * T
        par_b = [-1] * T   # source feeding each sink on the path
        par_a = [-1] * S   # sink feeding each source via a residual arc
        heap = []
        for i in range(S):
            if rem_a[i] > 0:
                dist_a[i] = 0.0
                heapq.heappush(heap, (0.0, 0, i))
        while heap:
            d, side, u = heapq.heappop(heap)
            if side == 0:
                if d > dist_a[u] + 1e-15:
                    continue
                cu = cost[u]
                base = d + pot_a[u]
                for j in range(T):
                    nd = base + cu[j] - pot_b[j]
                    if nd < dist_b[j] - 1e-15:
                        dist_b[j] = nd
                        par_b[j] = u
                        heapq.heappush(heap, (nd, 1, j))
            else:
                if d > dist_b[u] + 1e-15:
                    continue
                base = d + pot_b[u]
                for i in range(S):
                    if flow[i][u] > 0:
                        nd = base - cost[i][u] - pot_a[i]
                        if nd < dist_a[i] - 1e-15:
                            dist_a[i] = nd
                            par_a[i] = u
                            heapq.heappush(heap, (nd, 0, i))
        best_j, best_d = -1, inf
        for j in range(T):
            if rem_b[j] > 0 and dist_b[j] < best_d:
                best_j, best_d = j, dist_b[j]
        if best_j < 0:
            raise StabilityError("transport problem infeasible")  # unreachable with equal sums
        # trace the path back, find the bottleneck, augment
        path = []  # (i, j) forward arcs in order sink->source trace
        j = best_j
        delta = rem_b[j]
        while True:
            i = par_b[j]
            path.append((i, j))
            if par_a[i] == -1 and rem_a[i] > 0 and dist_a[i] == 0.0:
                delta = min(delta, rem_a[i])
                break
            jj = par_a[i]
            delta = min(delta, flow[i][jj])
            j = jj
        start_i = path[-1][0]
        delta = min(delta, rem_a[start_i])
        for idx, (i, j) in enumerate(path):
            flow[i][j] += delta
            if idx + 1 < len(path):
                flow[i][path[idx + 1][1]] -= delta
        rem_a[start_i] -= delta
        rem_b[best_j] -= delta
        remaining -= delta
        for i in range(S):
            if dist_a[i] < inf:
                pot_a[i] += min(dist_a[i], best_d)
            else:
                pot_a[i] += best_d
        for j in range(T):
            if dist_b[j] < inf:
                pot_b[j] += min(dist_b[j], best_d)
            else:
                pot_b[j] += best_d
    return flow


def wasserstein_discrete(p, q, cost, scale: int = 10 ** 6):
    """First Wasserstein distance between finite pmfs, with the optimal plan.

    `cost` is a callable (u, v) -> nonnegative float with cost(v, v) = 0.
    Masses are scaled to integers over `scale` (relative error <= ~1/scale),
    transported exactly, and rescaled.
    """
    for pmf, name in ((p, "p"), (q, "q")):
        total = sum(pmf.values())
        if any(m < 0 for m in pmf.values()):
            raise StabilityError(f"{name} has negative mass")
        if abs(total - 1.0) > _SUM_TOL:
            raise MarginalMismatch(f"{name} sums to {total}, expected 1")
    if abs(sum(p.values()) - sum(q.values())) > _SUM_TOL:
        raise MarginalMismatch("pmfs carry different total mass")

    src, a = _integerize(p, scale)
    dst, b = _integerize(q, scale)
    cmat = [[float(cost(u, v)) for v in dst] for u in src]
    flow = _ssp_transport(a, b, cmat)
    coupling = {}
    total = 0.0
    for i, u in enumerate(src):
        for j, v in enumerate(dst):
            f = flow[i][j]
            if f > 0:
                coupling[(u, v)] = f / scale
                total += f * cmat[i][j]
    value = total / scale
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
        cost = graph.distance
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
    without warnings: a flat perfect fit has no trend, a rising one is sure."""
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
    return slope, float(stats.t.sf(t_stat, dof))


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
    series = np.array([t.outstanding_series() for t in traces], dtype=float)
    T = series.shape[1]
    if any(s.shape != (T,) for s in series):
        raise StabilityError("traces have different horizons")
    if window > T // 2:
        raise StabilityError(f"window {window} exceeds half the horizon {T}")

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
