"""Empirical demand model: arrival counts, pickup/dropoff distributions,
sampling, expectation queries, and certainty-equivalence request emulation.

All samplers take an explicit numpy Generator so parallel workers can use
independent seed-derived streams; the model itself is immutable after
construction.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress
from numbers import Integral
from operator import add

import numpy as np

from .errors import FleetrollError, read_utf8

_SUM_TOL = 1e-9
_BLOCK_CELLS = 1 << 16  # terms per block of the marginal's running sums


class DemandError(FleetrollError):
    pass


class EmptyLog(DemandError):
    pass


class InvalidNode(DemandError):
    pass


class DomainMismatch(DemandError):
    pass


@dataclass(frozen=True)
class ExpectationTerms:
    e_xi_rho: float      # expected distance initial taxi location -> pickup
    e_lrand_rho: float   # expected distance previous dropoff -> pickup
    e_rho_delta: float   # expected trip length pickup -> dropoff
    e_eta: float         # expected arrivals per step


def _ascending(keys, what, least):
    """`keys` sorted, or a DemandError naming a key that is no integer if they do not compare."""
    try:
        return sorted(keys)
    except TypeError:
        bad = next(k for k in keys if not isinstance(k, Integral))
        raise DemandError(f"{what}: key {bad!r} is not an integer >= {least}") from None


def _checked(pmf, what, least=1, zeros=False):
    """A pmf's positive masses (all of them with `zeros`) as floats, support
    ascending. Keys must be integers >= `least` (1 for nodes, 0 for counts),
    masses finite and nonnegative with sum 1: C-level passes check them all,
    and only a failed check walks the entries, to name the first bad one."""
    keys = _ascending(pmf, what, least)
    masses = list(map(pmf.__getitem__, keys))
    key_types, mass_types = set(map(type, keys)), set(map(type, masses))
    if not (all(issubclass(t, Integral) for t in key_types) and (not keys or keys[0] >= least)
            and all(map(math.isfinite, masses)) and min(masses, default=0) >= 0):
        for k, p in zip(keys, masses):
            if not isinstance(k, Integral) or k < least:
                raise DemandError(f"{what}: key {k!r} is not an integer >= {least}")
            if not 0 <= p < math.inf:
                raise DemandError(f"{what}: negative or non-finite mass {p} at {k}")
    total = reduce(add, masses, 0.0)  # a running total on every Python: sum() compensates from 3.12
    if abs(total - 1.0) > _SUM_TOL:
        raise DemandError(f"{what}: masses sum to {total}, expected 1")
    pairs = zip(keys if key_types == {int} else map(int, keys),
                masses if mass_types == {float} else map(float, masses))
    return dict(pairs if zeros else compress(pairs, masses))  # masses >= 0: kept if truthy


def _relabel(keys):
    """Ids 0, 1, ... of an array's values: equal exactly for equal values."""
    order = keys.argsort()
    ranked = keys[order]
    ids = np.empty(len(keys), dtype=np.intp)
    ids[order] = np.cumsum(np.concatenate(([0], ranked[1:] != ranked[:-1])))
    return ids


def _signature_classes(nodes, cond, mass):
    """The nodes that have support entries (node, conditional, mass),
    ascending, and a class for each: equal for two nodes exactly when they
    have equal masses (as floats) under the same conditionals.

    A node's entries, conditionals ascending, form a sequence. Each entry
    gets an id for the `span` entries that start at it (fewer at the end of
    its node's sequence); doubling `span` pairs an entry's id with the id of
    the entry `span` further on, until one id covers a whole sequence.
    """
    order = np.argsort(nodes, kind="stable")
    nodes, cond, mass = nodes[order], cond[order], mass[order]
    count = np.bincount(nodes)
    ends = np.cumsum(count)
    stop = ends[nodes]  # one past the last entry of each entry's node
    at = np.arange(len(nodes))
    size = len(nodes) + 1  # ids are below it
    ids = _relabel(cond * size + _relabel(mass))
    span = 1
    while span < count.max():
        ahead = np.where(at + span < stop, ids[np.minimum(at + span, len(nodes) - 1)] + 1, 0)
        ids = _relabel(ids * size + ahead)
        span *= 2
    touched = np.flatnonzero(count)
    return touched, _relabel(ids[ends[touched] - count[touched]])


class _Sampler:
    """Inverse-CDF lookup over the positive masses of a finite pmf whose
    support is listed in ascending order."""

    def __init__(self, pmf):
        values = np.fromiter(pmf, dtype=np.intp, count=len(pmf))
        masses = np.fromiter(pmf.values(), dtype=float, count=len(pmf))
        keep = masses > 0
        self.values = values[keep]
        self.cum = np.cumsum(masses[keep])
        self.cum[-1] = 1.0  # guard float drift at the top

    def at(self, us):
        """Support values at an array of uniform draws in [0, 1): the number
        of running sums <= u indexes the support."""
        return self.values[self.cum.searchsorted(us, "right")]


class DemandModel:
    """Arrival-count pmf plus pickup and conditional dropoff pmfs over nodes.

    The marginal dropoff pmf is derived at construction; the previous-dropoff
    location distribution equals it by construction, and the initial taxi
    location distribution defaults to it unless overridden. Pickups may share
    one conditional pmf object (as `synthetic_model` does): each distinct
    object is validated, normalized and given a sampler once.
    """

    def __init__(self, eta_pmf, pickup_pmf, dropoff_given_pickup, initial_pmf=None):
        self.eta_pmf = _checked(eta_pmf, "eta pmf", least=0, zeros=True)
        self.pickup_pmf = _checked(pickup_pmf, "pickup pmf")
        pickups = _ascending(dropoff_given_pickup, "dropoff pmfs by pickup", 1)
        conds = [dropoff_given_pickup[u] for u in pickups]
        group_of = {}  # id of a conditional pmf object -> its group index
        self._dropoff_pmfs = []  # distinct conditional pmfs, normalized
        for u, cond in zip(pickups, conds):
            if type(u) is not int and not isinstance(u, Integral) or u < 1:
                raise DemandError(f"dropoff pmfs by pickup: key {u!r} is not an integer >= 1")
            if id(cond) not in group_of:
                group_of[id(cond)] = len(self._dropoff_pmfs)
                self._dropoff_pmfs.append(_checked(cond, f"dropoff pmf given pickup {u}"))
        groups = list(map(group_of.__getitem__, map(id, conds)))
        self.dropoff_given_pickup = dict(zip(map(int, pickups),
                                             map(self._dropoff_pmfs.__getitem__, groups)))
        self._dropoff_group = np.zeros(max(self.dropoff_given_pickup) + 1, dtype=np.intp)
        self._dropoff_group[list(self.dropoff_given_pickup)] = groups
        if missing := self.pickup_pmf.keys() - self.dropoff_given_pickup.keys():
            raise DemandError(f"pickup node {min(missing)} has mass but no dropoff pmf")
        samplers = [_Sampler(pmf) for pmf in self._dropoff_pmfs]
        # Every conditional pmf as one row of padded tables (support, masses,
        # CDF), so that one lookup serves many pickups. Past its support a row
        # holds a dummy node `top` with zero mass and a bound of +inf.
        top = 1 + max(int(s.values[-1]) for s in samplers)
        shape = (len(samplers), max(len(s.values) for s in samplers))
        self._dropoff_values = np.full(shape, top)
        self._dropoff_cdf = np.full(shape, np.inf)
        for g, (pmf, s) in enumerate(zip(self._dropoff_pmfs, samplers)):
            self._dropoff_values[g, :len(pmf)] = s.values
            self._dropoff_cdf[g, :len(pmf)] = s.cum
        self.marginal_dropoff_pmf = self._marginal(top)
        if initial_pmf is not None:
            self.initial_location_pmf = _checked(initial_pmf, "initial location pmf")
        else:
            self.initial_location_pmf = dict(self.marginal_dropoff_pmf)

        self.e_eta = sum(k * p for k, p in self.eta_pmf.items())
        self._eta_sampler = _Sampler(self.eta_pmf)
        self._pickup_sampler = _Sampler(self.pickup_pmf)
        self._initial_sampler = _Sampler(self.initial_location_pmf)

    def _marginal(self, top):
        """Sum over pickups u of P(u) * P(v | u) per node v: pickups ascending,
        each node's total a left-to-right running sum of its nonzero terms (a
        zero term changes no sum).

        Nodes with equal signatures (their masses under each conditional a
        pickup uses, as exact floats) add the same terms in the same order, so
        one running sum per signature serves them all: a pickup adds one term
        per signature in its conditional's support, in blocks of _BLOCK_CELLS
        terms. That is O(pickups x signatures), and O(pickups) when the
        pickups share one conditional.
        """
        pu = np.fromiter(self.pickup_pmf.values(), dtype=float, count=len(self.pickup_pmf))
        used, groups = np.unique(self._dropoff_group[list(self.pickup_pmf)],
                                 return_inverse=True)
        values = self._dropoff_values[used]
        real = values < top  # past its support a row holds the dummy node
        cond, nodes = np.nonzero(real)[0], values[real]
        mass = np.fromiter(chain.from_iterable(self._dropoff_pmfs[g].values() for g in used),
                           dtype=float, count=len(nodes))
        touched, classes = _signature_classes(nodes, cond, mass)
        signatures = classes.max() + 1
        rep = np.empty(signatures, dtype=np.intp)
        rep[classes] = touched  # a node of each signature
        column = np.full(top, -1)  # a signature's index at its node in `rep`
        column[rep] = np.arange(signatures)
        # The entries at those nodes, grouped by conditional; a pickup's terms
        # are its conditional's group of entries.
        at_rep = np.flatnonzero(column[nodes] >= 0)
        per_cond = np.bincount(cond[at_rep], minlength=len(used))
        ends = np.cumsum(per_cond[groups])  # one past each pickup's last term
        offset = np.cumsum(per_cond)[groups] - ends  # term t of pickup i: at_rep[offset[i] + t]
        total = np.zeros(signatures)
        for at in range(0, ends[-1], _BLOCK_CELLS):
            t = np.arange(at, min(at + _BLOCK_CELLS, ends[-1]))
            i = ends.searchsorted(t, "right")
            entry = at_rep[offset[i] + t]
            # unbuffered, in index order: each total takes one term at a time
            np.add.at(total, column[nodes[entry]], pu[i] * mass[entry])
        return dict(zip(touched.tolist(), total[classes].tolist()))

    def sample_initial(self, rng, m: int):
        """Initial locations of m taxis, one uniform each."""
        return self._initial_sampler.at(rng.random(m))

    def requests_at(self, pick_us, drop_us):
        """(pickups, dropoffs) at two arrays of uniform draws: pickups first,
        then each dropoff through its pickup's row of the padded CDF tables."""
        pickups = self._pickup_sampler.at(pick_us)
        if len(self._dropoff_pmfs) == 1:  # one shared conditional: one searchsorted
            values, cdf = self._dropoff_values[0], self._dropoff_cdf[0]
            return pickups, values[cdf.searchsorted(drop_us, "right")]
        group = self._dropoff_group[pickups]
        index = (self._dropoff_cdf[group] <= drop_us[:, None]).sum(axis=1)
        return pickups, self._dropoff_values[group, index]


def sample_arrivals(model: DemandModel, rng, steps: int):
    """Arrival counts of `steps` consecutive steps, i.i.d., one uniform each."""
    return model._eta_sampler.at(rng.random(steps))


def sample_request(model: DemandModel, rng, count: int):
    """(pickups, dropoffs) of `count` requests from one rng.random(2 * count):
    each request takes its pickup's uniform, then its dropoff's."""
    us = rng.random(2 * count)
    return model.requests_at(us[0::2], us[1::2])


def certainty_equivalence_requests(model: DemandModel, t_h: int, rng) -> list[tuple]:
    """One nominal future scenario: the round(t_h * E[eta]) synthetic requests
    expected over the next t_h steps, as (id, pickup, dropoff) tuples.

    The requests carry negative ids so they can share matching pools with real
    requests without colliding; they are planning-only and never simulated.
    """
    if t_h < 1:
        raise DemandError(f"planning horizon must be >= 1, got {t_h}")
    count = int(round(t_h * model.e_eta))
    pickups, dropoffs = sample_request(model, rng, count)
    return list(zip(range(-1, -count - 1, -1), pickups.tolist(), dropoffs.tolist()))


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
    busy = Counter(t for t, _, _ in trips if t <= horizon)  # step -> arrivals
    eta_counts = Counter(busy.values())
    if horizon > len(busy):
        eta_counts[0] = horizon - len(busy)
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
    Each is a nested sum, outer and inner supports ascending, accumulated
    left to right.
    """
    for pmf in (model.pickup_pmf, model.marginal_dropoff_pmf, model.initial_location_pmf):
        for v in pmf:
            if not (1 <= v <= graph.n):
                raise DomainMismatch(f"node {v} is outside the graph's 1..{graph.n}")

    def outer(pmf, inner):
        masses = np.fromiter(pmf.values(), dtype=float, count=len(pmf))
        return float(np.cumsum(masses * inner)[-1])

    def cross(pa, pb):
        return outer(pa, graph.weighted_distance_sums(list(pa), list(pb), list(pb.values())))

    pickups = np.array(list(model.pickup_pmf))
    groups = model._dropoff_group[pickups]
    trip = np.empty(len(pickups))
    for g in np.unique(groups):
        at = np.flatnonzero(groups == g)
        cond = model._dropoff_pmfs[g]
        trip[at] = graph.weighted_distance_sums(pickups[at], list(cond), list(cond.values()))
    return ExpectationTerms(cross(model.initial_location_pmf, model.pickup_pmf),
                            cross(model.marginal_dropoff_pmf, model.pickup_pmf),
                            outer(model.pickup_pmf, trip), model.e_eta)


def synthetic_model(graph, e_eta: float, hotspot: int | None = None,
                    hotspot_mass: float = 0.0) -> DemandModel:
    """Deterministic ground-truth model for experiments.

    Arrival counts take values {floor(e_eta), floor(e_eta)+1} with the masses
    needed to hit the requested mean. Pickups are uniform over nodes, except
    that `hotspot_mass` can be concentrated on one node, the `hotspot`, which
    a positive mass needs; dropoffs are uniform regardless of pickup.
    """
    if not 0 <= e_eta < math.inf:
        raise DemandError(f"mean arrivals must be finite and nonnegative, got {e_eta}")
    if hotspot is not None and not 1 <= hotspot <= graph.n:
        raise DemandError(f"hotspot {hotspot} is outside the graph's nodes 1..{graph.n}")
    if not 0.0 <= hotspot_mass <= 1.0:
        raise DemandError(f"hotspot mass must be in [0, 1], got {hotspot_mass}")
    if hotspot is None and hotspot_mass > 0:
        raise DemandError(f"hotspot mass {hotspot_mass} needs a hotspot node")
    lo = math.floor(e_eta)
    frac = e_eta - lo
    if frac < 1e-12:
        eta_pmf = {lo: 1.0}
    else:
        eta_pmf = {lo: 1.0 - frac, lo + 1: frac}
    n = graph.n
    if hotspot_mass > 0:
        rest = (1.0 - hotspot_mass) / n
        pickup_pmf = {v: rest for v in range(1, n + 1)}
        pickup_pmf[hotspot] += hotspot_mass
    else:
        pickup_pmf = {v: 1.0 / n for v in range(1, n + 1)}
    uniform = {v: 1.0 / n for v in range(1, n + 1)}
    dropoff_given_pickup = {u: uniform for u in range(1, n + 1)}  # one shared pmf
    return DemandModel(eta_pmf, pickup_pmf, dropoff_given_pickup)


def generate_trips(model: DemandModel, horizon: int, seed: int) -> Iterator[tuple[int, int, int]]:
    """Sample a synthetic trip log of (t, pickup, dropoff) rows from a model,
    yielding each step's rows as they are drawn."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    for t in range(1, horizon + 1):
        [count] = sample_arrivals(model, rng, 1).tolist()
        pickups, dropoffs = sample_request(model, rng, count)
        for p, d in zip(pickups.tolist(), dropoffs.tolist()):
            yield t, p, d


def read_trip_log(path) -> list[tuple[int, int, int]]:
    """Trip log CSV with header t,pickup,dropoff; t in minutes, nodes 1-indexed."""
    rows = []
    reader = csv.reader(io.StringIO(read_utf8(path, DemandError), newline=""))
    if next(reader, None) != ["t", "pickup", "dropoff"]:
        raise DemandError(f"{path}: expected header 't,pickup,dropoff'")
    for rec in filter(None, reader):  # blank lines are skipped
        try:
            t, pickup, dropoff = map(int, rec)
        except ValueError:  # a token that is not an integer, or not three of them
            raise DemandError(f"{path}: line {reader.line_num} is not three integers: "
                              f"{','.join(rec)!r}") from None
        rows.append((t, pickup, dropoff))
    if not rows:
        raise EmptyLog(f"{path}: no trips")
    return rows


def write_trip_log(rows, path) -> int:
    """Write the rows under the header as they come; returns how many."""
    n = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "pickup", "dropoff"])
        for n, row in enumerate(rows, 1):
            w.writerow(row)
    return n
