"""Empirical demand model: arrival counts, pickup/dropoff distributions,
sampling, expectation queries, and certainty-equivalence request emulation.

All samplers take an explicit numpy Generator so parallel workers can use
independent seed-derived streams; the model itself is immutable after
construction.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import FleetrollError

_SUM_TOL = 1e-9


class DemandError(FleetrollError):
    pass


class EmptyLog(DemandError):
    pass


class InvalidNode(DemandError):
    pass


class DomainMismatch(DemandError):
    pass


@dataclass(frozen=True)
class Request:
    id: int
    pickup: int
    dropoff: int
    arrival_time: int


@dataclass(frozen=True)
class ExpectationTerms:
    e_xi_rho: float      # expected distance initial taxi location -> pickup
    e_lrand_rho: float   # expected distance previous dropoff -> pickup
    e_rho_delta: float   # expected trip length pickup -> dropoff
    e_eta: float         # expected arrivals per step


def _check_pmf(pmf, what):
    total = 0.0
    for k, p in pmf.items():
        if p < 0:
            raise DemandError(f"{what}: negative mass {p} at {k}")
        total += p
    if abs(total - 1.0) > _SUM_TOL:
        raise DemandError(f"{what}: masses sum to {total}, expected 1")


class _Sampler:
    """Inverse-CDF sampler over a finite pmf, support sorted ascending."""

    def __init__(self, pmf):
        items = sorted((k, p) for k, p in pmf.items() if p > 0)
        self.values = [k for k, _ in items]
        self._value_array = np.array(self.values)
        cum = np.cumsum([p for _, p in items])
        cum[-1] = 1.0  # guard float drift at the top
        self.cum = cum
        self.bounds = cum.tolist()  # for bisect; a uniform u < 1 indexes values

    def draw(self, rng) -> int:
        return self.values[bisect_right(self.bounds, rng.random())]

    def values_at(self, us):
        """Support values at an array of uniform draws."""
        return self._value_array[np.searchsorted(self.cum, us, side="right")]


class DemandModel:
    """Arrival-count pmf plus pickup and conditional dropoff pmfs over nodes.

    The marginal dropoff pmf is derived at construction; the previous-dropoff
    location distribution equals it by construction, and the initial taxi
    location distribution defaults to it unless overridden.
    """

    def __init__(self, eta_pmf, pickup_pmf, dropoff_given_pickup, initial_pmf=None):
        _check_pmf(eta_pmf, "eta pmf")
        _check_pmf(pickup_pmf, "pickup pmf")
        for u, cond in dropoff_given_pickup.items():
            _check_pmf(cond, f"dropoff pmf given pickup {u}")
        self.eta_pmf = {int(k): float(p) for k, p in sorted(eta_pmf.items())}
        self.pickup_pmf = {int(v): float(p) for v, p in sorted(pickup_pmf.items()) if p > 0}
        self.dropoff_given_pickup = {
            int(u): {int(v): float(p) for v, p in sorted(cond.items()) if p > 0}
            for u, cond in sorted(dropoff_given_pickup.items())
        }
        marginal: dict[int, float] = {}
        for u, pu in self.pickup_pmf.items():
            cond = self.dropoff_given_pickup.get(u)
            if cond is None:
                raise DemandError(f"pickup node {u} has mass but no dropoff pmf")
            for v, pv in cond.items():
                marginal[v] = marginal.get(v, 0.0) + pu * pv
        self.marginal_dropoff_pmf = dict(sorted(marginal.items()))
        if initial_pmf is not None:
            _check_pmf(initial_pmf, "initial location pmf")
            self.initial_location_pmf = {int(v): float(p) for v, p in sorted(initial_pmf.items()) if p > 0}
        else:
            self.initial_location_pmf = dict(self.marginal_dropoff_pmf)

        self.e_eta = sum(k * p for k, p in self.eta_pmf.items())
        self._eta_sampler = _Sampler(self.eta_pmf)
        self._pickup_sampler = _Sampler(self.pickup_pmf)
        self._initial_sampler = _Sampler(self.initial_location_pmf)
        self._marginal_sampler = _Sampler(self.marginal_dropoff_pmf)
        # One sampler per distinct conditional pmf, so that dropoffs can be
        # drawn for many pickups with one inverse-CDF lookup per sampler.
        group = {}  # conditional pmf as an items tuple -> sampler index
        self._dropoff_group_samplers = []
        self._dropoff_samplers = {}
        self._dropoff_group = np.zeros(max(self.dropoff_given_pickup) + 1, dtype=np.intp)
        for u, cond in self.dropoff_given_pickup.items():
            g = group.setdefault(tuple(cond.items()), len(group))
            if g == len(self._dropoff_group_samplers):
                self._dropoff_group_samplers.append(_Sampler(cond))
            self._dropoff_samplers[u] = self._dropoff_group_samplers[g]
            self._dropoff_group[u] = g

    def dropoff_pmf(self, pickup: int) -> dict:
        """Conditional dropoff pmf; unseen pickups fall back to the marginal."""
        return self.dropoff_given_pickup.get(pickup, self.marginal_dropoff_pmf)

    def sample_initial(self, rng) -> int:
        return self._initial_sampler.draw(rng)

    def _dropoff_sampler(self, pickup):
        return self._dropoff_samplers.get(pickup, self._marginal_sampler)

    def _dropoffs_at(self, pickups, us):
        """Dropoffs for an array of sampled pickups at the uniform draws `us`,
        one inverse-CDF lookup per distinct conditional pmf."""
        samplers = self._dropoff_group_samplers
        if len(samplers) == 1:
            return samplers[0].values_at(us)
        group = self._dropoff_group[pickups]
        out = np.empty_like(pickups)
        for g in np.unique(group):
            mask = group == g
            out[mask] = samplers[g].values_at(us[mask])
        return out


def sample_arrivals(model: DemandModel, rng) -> int:
    """Number of requests entering at one time step, i.i.d. across steps."""
    return model._eta_sampler.draw(rng)


def sample_request(model: DemandModel, t: int, rng, req_id: int = 0) -> Request:
    pickup = model._pickup_sampler.draw(rng)
    dropoff = model._dropoff_sampler(pickup).draw(rng)
    return Request(id=req_id, pickup=pickup, dropoff=dropoff, arrival_time=t)


def certainty_equivalence_requests(model: DemandModel, t: int, t_h: int, rng) -> list[Request]:
    """One nominal future scenario: round(t_h * E[eta]) synthetic requests
    with arrival times spread evenly over (t, t + t_h].

    The requests carry negative ids so they can share matching pools with real
    requests without colliding; they are planning-only and never simulated.
    """
    if t_h < 1:
        raise DemandError(f"planning horizon must be >= 1, got {t_h}")
    count = int(round(t_h * model.e_eta))
    out = []
    for i in range(count):
        arrive_at = t + (i * t_h) // count + 1
        out.append(sample_request(model, arrive_at, rng, req_id=-(i + 1)))
    return out


def estimate_from_trips(trips, graph, horizon: int | None = None) -> DemandModel:
    """Estimate all pmfs from a trip log of (t, pickup, dropoff) rows.

    Relative frequencies only (zero-frequency pairs get zero mass). Steps
    1..horizon with no arrivals contribute zeros to the arrival-count pmf;
    horizon defaults to the largest t in the log.
    """
    trips = list(trips)
    if not trips:
        raise EmptyLog("trip log is empty")
    for t, pu, do in trips:
        if t < 1:
            raise DemandError(f"trip times must be >= 1, got {t}")
        if not (1 <= pu <= graph.n) or not (1 <= do <= graph.n):
            raise InvalidNode(f"trip ({t}, {pu}, {do}) references a node outside 1..{graph.n}")
    if horizon is None:
        horizon = max(t for t, _, _ in trips)
    counts = {}
    for t, _, _ in trips:
        counts[t] = counts.get(t, 0) + 1
    eta_counts = {}
    for t in range(1, horizon + 1):
        c = counts.get(t, 0)
        eta_counts[c] = eta_counts.get(c, 0) + 1
    eta_pmf = {c: k / horizon for c, k in eta_counts.items()}

    pickup_counts = {}
    pair_counts = {}
    for _, pu, do in trips:
        pickup_counts[pu] = pickup_counts.get(pu, 0) + 1
        pair_counts.setdefault(pu, {})
        pair_counts[pu][do] = pair_counts[pu].get(do, 0) + 1
    total = len(trips)
    pickup_pmf = {u: c / total for u, c in pickup_counts.items()}
    dropoff_given_pickup = {
        u: {v: c / pickup_counts[u] for v, c in cond.items()}
        for u, cond in pair_counts.items()
    }
    return DemandModel(eta_pmf, pickup_pmf, dropoff_given_pickup)


def expectation_terms(model: DemandModel, graph) -> ExpectationTerms:
    """Exact expectations by summation over pmf supports.

    The initial-location and previous-dropoff terms treat taxi location and
    pickup as independent; the trip term uses the joint pickup/dropoff law.
    """
    for pmf in (model.pickup_pmf, model.marginal_dropoff_pmf, model.initial_location_pmf):
        for v in pmf:
            if not (1 <= v <= graph.n):
                raise DomainMismatch(f"node {v} is outside the graph's 1..{graph.n}")
    dist = graph._dist

    def cross(pa, pb):
        return sum(
            qa * sum(qb * dist[a][b] for b, qb in pb.items())
            for a, qa in pa.items()
        )

    e_xi_rho = cross(model.initial_location_pmf, model.pickup_pmf)
    e_lrand_rho = cross(model.marginal_dropoff_pmf, model.pickup_pmf)
    e_rho_delta = sum(
        pu * sum(pv * dist[u][v] for v, pv in model.dropoff_pmf(u).items())
        for u, pu in model.pickup_pmf.items()
    )
    return ExpectationTerms(e_xi_rho, e_lrand_rho, e_rho_delta, model.e_eta)


def synthetic_model(graph, e_eta: float, hotspot: int | None = None,
                    hotspot_mass: float = 0.0) -> DemandModel:
    """Deterministic ground-truth model for experiments.

    Arrival counts take values {floor(e_eta), floor(e_eta)+1} with the masses
    needed to hit the requested mean. Pickups are uniform over nodes, except
    that `hotspot_mass` can be concentrated on one node; dropoffs are uniform
    regardless of pickup.
    """
    if e_eta < 0:
        raise DemandError("mean arrivals must be nonnegative")
    lo = math.floor(e_eta)
    frac = e_eta - lo
    if frac < 1e-12:
        eta_pmf = {lo: 1.0}
    else:
        eta_pmf = {lo: 1.0 - frac, lo + 1: frac}
    n = graph.n
    if hotspot is not None and hotspot_mass > 0:
        rest = (1.0 - hotspot_mass) / n
        pickup_pmf = {v: rest for v in range(1, n + 1)}
        pickup_pmf[hotspot] += hotspot_mass
    else:
        pickup_pmf = {v: 1.0 / n for v in range(1, n + 1)}
    uniform = {v: 1.0 / n for v in range(1, n + 1)}
    dropoff_given_pickup = {u: dict(uniform) for u in range(1, n + 1)}
    return DemandModel(eta_pmf, pickup_pmf, dropoff_given_pickup)


def generate_trips(model: DemandModel, horizon: int, seed: int) -> list[tuple[int, int, int]]:
    """Sample a synthetic trip log of (t, pickup, dropoff) rows from a model."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rows = []
    for t in range(1, horizon + 1):
        for _ in range(sample_arrivals(model, rng)):
            r = sample_request(model, t, rng)
            rows.append((t, r.pickup, r.dropoff))
    return rows


def read_trip_log(path) -> list[tuple[int, int, int]]:
    """Trip log CSV with header t,pickup,dropoff; t in minutes, nodes 1-indexed."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["t", "pickup", "dropoff"]:
            raise DemandError(f"{path}: expected header 't,pickup,dropoff'")
        for rec in reader:
            rows.append((int(rec["t"]), int(rec["pickup"]), int(rec["dropoff"])))
    if not rows:
        raise EmptyLog(f"{path}: no trips")
    return rows


def write_trip_log(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "pickup", "dropoff"])
        w.writerows(rows)
