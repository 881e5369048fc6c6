"""Independent test oracles shared by the unit and acceptance suites."""

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as csgraph_shortest_path

from fleetroll.demand import certainty_equivalence_requests
from fleetroll.matching import auction_match
from fleetroll.planner import HighLevelPlan, TransitRoute, TwoPhasePolicy
from fleetroll.policies import ia_ra_control
from fleetroll.rollout import RolloutPolicy, _candidate_actions, _sample_scenario
from fleetroll.sim import (HOP, MOVE, NS_ARRIVALS, NS_CE, NS_INIT, NS_LOOKAHEAD, NS_REQUESTS,
                           PICKUP, STAY, FleetState, IllegalControl, SimError, run_episode,
                           substream, transition)


class TooLarge(ValueError):
    pass


@dataclass
class AssignmentProblem:
    cost: np.ndarray  # rows = taxis, columns = requests; nested lists are converted
    row_ids: list = None
    col_ids: list = None

    def __post_init__(self):
        nr = len(self.cost)
        self.cost = np.array(self.cost, dtype=float).reshape(nr, -1 if nr else 0)
        if self.row_ids is None:
            self.row_ids = list(range(nr))
        if self.col_ids is None:
            self.col_ids = list(range(self.cost.shape[1]))

    @property
    def shape(self):
        return self.cost.shape


@dataclass
class Assignment:
    pairs: list = field(default_factory=list)  # (row id, col id)
    total_cost: float = 0.0


def min_cost_assignment(problem: AssignmentProblem) -> Assignment:
    """The production solver, auction_match, on an id-labelled problem.

    Empty problems return an empty assignment. The smaller side is matched
    fully, as the rows of the matrix auction_match sees; pairs come back
    sorted by row id.
    """
    nr, nc = problem.shape
    if nr == 0 or nc == 0:
        return Assignment()
    transposed = nr > nc
    cost = problem.cost.T if transposed else problem.cost
    assigned = auction_match(cost)
    total = float(cost[np.arange(len(assigned)), assigned].sum())
    if transposed:
        pairs = [(problem.row_ids[j], problem.col_ids[i]) for i, j in enumerate(assigned)]
    else:
        pairs = [(problem.row_ids[i], problem.col_ids[j]) for i, j in enumerate(assigned)]
    pairs.sort()
    return Assignment(pairs, total)


_PERM_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _permutations_array(n: int, k: int) -> np.ndarray:
    key = (n, k)
    arr = _PERM_CACHE.get(key)
    if arr is None:
        arr = np.array(list(itertools.permutations(range(n), k)), dtype=np.intp)
        _PERM_CACHE[key] = arr
    return arr


def brute_force_assignment(problem: AssignmentProblem) -> Assignment:
    """Exact optimum by enumerating all injections of the smaller side.

    Only for min(rows, cols) <= 8. Returns the lexicographically smallest
    optimal injection (enumeration order), so results are deterministic.
    """
    nr, nc = problem.shape
    if nr == 0 or nc == 0:
        return Assignment()
    if min(nr, nc) > 8:
        raise TooLarge(f"brute force limited to 8 matched pairs, got {min(nr, nc)}")
    cost = np.asarray(problem.cost, dtype=float)
    if nr <= nc:
        perms = _permutations_array(nc, nr)  # column choice per row
        totals = cost[np.arange(nr)[None, :], perms].sum(axis=1)
        best = perms[int(np.argmin(totals))]
        pairs = [(problem.row_ids[i], problem.col_ids[int(best[i])]) for i in range(nr)]
    else:
        perms = _permutations_array(nr, nc)  # row choice per column
        totals = cost[perms, np.arange(nc)[None, :]].sum(axis=1)
        best = perms[int(np.argmin(totals))]
        pairs = [(problem.row_ids[int(best[j])], problem.col_ids[j]) for j in range(nc)]
    pairs.sort()
    total = float(totals.min())
    return Assignment(pairs, total)


def lp_transport_value(a, b, cost):
    """LP over the transportation polytope (HiGHS) with every marginal
    equation kept: the reference for the graph metric's edge-flow LP."""
    S, T = len(a), len(b)
    cells = np.arange(S * T)
    A_eq = csr_matrix((np.ones(2 * S * T), (np.r_[cells // T, S + cells % T],
                                            np.r_[cells, cells])), shape=(S + T, S * T))
    res = linprog(np.asarray(cost, dtype=float).ravel(), A_eq=A_eq,
                  b_eq=list(a) + list(b), bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return res.fun


def vertex_enumeration_value(a, b, cost):
    """Exhaustive optimum over the transportation polytope's vertices.

    Every basic feasible solution is a spanning tree of the bipartite support
    graph; enumerate all edge subsets of size S+T-1, solve the unique tree
    flow by leaf elimination in exact rationals, keep the cheapest feasible
    one. Only for small supports (the subset count explodes quickly).
    """
    S, T = len(a), len(b)
    edges = [(i, j) for i in range(S) for j in range(T)]
    best = None
    for basis in itertools.combinations(edges, S + T - 1):
        adj = {("s", i): [] for i in range(S)}
        adj.update({("t", j): [] for j in range(T)})
        for i, j in basis:
            adj[("s", i)].append(("t", j))
            adj[("t", j)].append(("s", i))
        need = {("s", i): Fraction(a[i]) for i in range(S)}
        need.update({("t", j): -Fraction(b[j]) for j in range(T)})
        if any(len(ns) == 0 for ns in adj.values()):
            continue
        live = {frozenset((("s", i), ("t", j))): (i, j) for i, j in basis}
        flows = {}
        removed = set()
        queue = [v for v, ns in adj.items() if len(ns) == 1]
        ok = True
        while queue:
            v = queue.pop()
            if v in removed:
                continue
            nbrs = [u for u in adj[v] if u not in removed
                    and frozenset((u, v)) in live]
            if not nbrs:
                removed.add(v)
                if need[v] != 0:
                    ok = False
                    break
                continue
            u = nbrs[0]
            i, j = live.pop(frozenset((u, v)))
            flows[(i, j)] = need[v] if v[0] == "s" else -need[v]
            need[u] += need[v]
            need[v] = Fraction(0)
            removed.add(v)
            remaining = [w for w in adj[u] if w not in removed
                         and frozenset((w, u)) in live]
            if len(remaining) <= 1:
                queue.append(u)
        if not ok or live or any(n != 0 for n in need.values()):
            continue
        if any(f < 0 for f in flows.values()):
            continue
        total = sum(float(f) * cost[i][j] for (i, j), f in flows.items())
        if best is None or total < best - 1e-15:
            best = total
    return best


def vertex_enumeration_feasible(S, T, cap=20000):
    """True when the basis-subset count is small enough to enumerate."""
    import math

    return math.comb(S * T, S + T - 1) <= cap


def grid_aligned_pmf(rng, size, nodes):
    """Random pmf whose masses sit on the 1e-6 grid, so that each is an exact
    rational of denominator 10**6 for the vertex-enumeration oracle."""
    raw = rng.integers(1, 10 ** 6, size=size)
    raw = (raw * (10 ** 6) // raw.sum())
    raw[0] += 10 ** 6 - raw.sum()
    return {n: int(x) / 10 ** 6 for n, x in zip(nodes, raw)}


@dataclass
class LookaheadEstimate:
    mean: float
    scenario_costs: list = field(default_factory=list)


def lookahead_cost(state, joint, batches, graph, t_h, inbound=()):
    """Stage-cost sum of one scenario trajectory, simulated step by step by
    the validated sim.transition path with the IA-RA base policy: the
    reference for rollout's fast path.

    Immediate cost, then t_h base-policy stage costs, then the terminal
    outstanding count. `inbound` lists (arrival clock, node) pairs of taxis
    scheduled to enter this state's region; each becomes a free taxi in the
    simulated trajectory when its clock comes up.
    """
    cost = len(state.outstanding)
    cur = transition(state, joint, batches[0], graph)
    cost += len(cur.outstanding)
    for i in range(1, t_h + 1):
        for when, node in inbound:
            if when == cur.clock:
                cur = FleetState(cur.locations + [node], cur.dropoffs + [0],
                                 cur.outstanding, cur.clock)
        ctrl = ia_ra_control(cur, graph)
        cur = transition(cur, ctrl, batches[i], graph)
        cost += len(cur.outstanding)
    return cost


def compose_joint(chosen, candidate, taxi, base_joint, claimed):
    """Joint control: frozen rollout choices, the candidate, base controls
    after, with later duplicate pickups demoted to stay; sim.transition
    accepts it where rollout's plain joint would repeat a pickup."""
    joint = list(base_joint)
    for i in range(taxi):
        joint[i] = chosen[i]
    joint[taxi] = candidate
    claims = set(claimed)
    if candidate[0] == PICKUP:
        claims.add(candidate[1])
    for i in range(taxi + 1, len(joint)):
        act = joint[i]
        if act[0] == PICKUP:
            if act[1] in claims:
                joint[i] = (STAY,)
            else:
                claims.add(act[1])
    return joint


def taxi_scenarios(state, taxi, model, cfg, seed, region=None, taxi_keys=None):
    """Free `taxi`'s lookahead scenarios: with F free taxis in the state, the
    planning call draws F * num_mc scenarios in one _sample_scenario call on
    the stream of the clock and the lowest taxi key, and the j-th free taxi in
    index order reads block j, scenarios j * num_mc to (j + 1) * num_mc - 1."""
    free = [l for l in range(state.m) if state.dropoffs[l] == 0]
    key = min(taxi_keys) if taxi_keys is not None else 0
    rng = substream(seed, NS_LOOKAHEAD, state.clock, key)
    draw = _sample_scenario(model, cfg.t_h, len(free) * cfg.num_mc, rng, region)
    j = free.index(taxi)
    return draw[j * cfg.num_mc:(j + 1) * cfg.num_mc]


def evaluate_candidate(state, joint_control, graph, scenarios, t_h, inbound=()):
    """Monte-Carlo lookahead estimate of one joint control's cost, each
    scenario simulated by the validated sim.transition path."""
    costs = [lookahead_cost(state, joint_control, batches, graph, t_h, inbound)
             for batches in scenarios]
    return LookaheadEstimate(sum(costs) / len(costs), costs)


def rollout_control_reference(state, graph, model, cfg, seed, region=None, inbound=(),
                              taxi_keys=None):
    """One-at-a-time rollout on the sim.transition path: each free taxi scores
    each composed candidate joint on its own block of the call's scenarios and
    takes its base control when that is among the least scores, else the first
    least."""
    base_joint = ia_ra_control(state, graph)
    chosen, claimed = list(base_joint), set()
    for l in range(state.m):
        if state.dropoffs[l] != 0:
            continue
        cands = _candidate_actions(state, graph, l, claimed, region)
        scenarios = taxi_scenarios(state, l, model, cfg, seed, region, taxi_keys)
        scores = [sum(evaluate_candidate(
            state, compose_joint(chosen, cand, l, base_joint, claimed), graph, scenarios,
            cfg.t_h, inbound).scenario_costs) for cand in cands]
        least = [cand for cand, score in zip(cands, scores) if score == min(scores)]
        chosen[l] = base_joint[l] if base_joint[l] in least else least[0]
        if chosen[l][0] == PICKUP:
            claimed.add(chosen[l][1])
    return chosen


def shortest_path(graph, i, j):
    """Node sequence from i to j inclusive, following graph.next_hop."""
    path = [i]
    while path[-1] != j:
        path.append(graph.next_hop(path[-1], j))
    return path


def high_level_plan_reference(state, graph, pspec, model, t_h, prev, seed):
    """The two-phase high-level plan as built on an id-labelled
    AssignmentProblem: free taxis as rows, the pooled real and
    certainty-equivalence requests as columns, pairs taken in taxi order."""
    transit = {taxi: route for taxi, route in prev.transit.items()
               if state.locations[taxi] != route.dest}
    free = [l for l in range(state.m) if state.dropoffs[l] == 0 and l not in transit]
    pool = [state.outstanding[rid] for rid in sorted(state.outstanding)]
    pool += certainty_equivalence_requests(model, t_h, substream(seed, NS_CE, state.clock))
    if not free or not pool:
        return HighLevelPlan(transit)
    cost = [[graph.distance(state.locations[l], r[1]) for r in pool] for l in free]
    matched = min_cost_assignment(AssignmentProblem(cost, row_ids=free))
    for taxi, col in matched.pairs:
        pickup = pool[col][1]
        loc = state.locations[taxi]
        if pspec.sector_of(loc) != pspec.sector_of(pickup):
            dest = pspec.entry_point(graph, loc, pickup)
            path = shortest_path(graph, loc, dest)
            transit[taxi] = TransitRoute(dest, state.clock, state.clock + len(path) - 1)
    return HighLevelPlan(transit)


def rollout_policy_cost(graph, model, m, T, cfg, seeds):
    """Mean and standard error of global-rollout episode cost over the seeds."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed required")
    costs = [run_episode(graph, model, RolloutPolicy(graph, model, cfg), m, T, s).cost
             for s in seeds]
    mean = sum(costs) / len(costs)
    if len(costs) > 1:
        var = sum((c - mean) ** 2 for c in costs) / (len(costs) - 1)
        stderr = math.sqrt(var / len(costs))
    else:
        stderr = 0.0
    return mean, stderr, costs


def run_two_phase(graph, model, m, T, m_lim, cfg, seed):
    """Build the two-phase policy and run one episode."""
    return run_episode(graph, model, TwoPhasePolicy(graph, model, m, m_lim, cfg), m, T, seed)


def _reference_bounds(pmf):
    """Inverse-CDF bounds of a pmf as the samplers keep them: running sums over
    the positive masses in ascending support order, the last one set to 1."""
    bounds, total = [], 0.0
    for _, p in sorted((k, p) for k, p in pmf.items() if p > 0):
        total += p
        bounds.append(total)
    bounds[-1] = 1.0
    return bounds


def reference_model_tables(eta_pmf, pickup_pmf, dropoff_given_pickup, initial_pmf=None):
    """A demand model's pmfs and sampler bounds, built entry by entry.

    The marginal dropoff pmf adds pickup mass times conditional mass into one
    running total per dropoff node, pickups ascending and each conditional
    left to right. Returns a dict of the four pmfs, the sampler bounds of
    all but the marginal, and the (support, bounds) of the conditional dropoff
    pmf of every pickup.
    """
    def clean(pmf):
        return {int(k): float(p) for k, p in sorted(pmf.items()) if p > 0}

    pickup = clean(pickup_pmf)
    conds = {int(u): clean(c) for u, c in dropoff_given_pickup.items()}
    marginal = {}
    for u, pu in pickup.items():
        for v, pv in conds[u].items():
            marginal[v] = marginal.get(v, 0.0) + pu * pv
    marginal = dict(sorted(marginal.items()))
    initial = clean(initial_pmf) if initial_pmf is not None else dict(marginal)
    eta = {int(k): float(p) for k, p in sorted(eta_pmf.items())}
    return {
        "eta": eta, "pickup": pickup, "marginal": marginal, "initial": initial,
        "eta_bounds": _reference_bounds(eta),
        "pickup_bounds": _reference_bounds(pickup),
        "initial_bounds": _reference_bounds(initial),
        "dropoff": {u: (list(c), _reference_bounds(c)) for u, c in sorted(conds.items())},
    }


def running_sum(xs):
    """Floats added left to right from 0.0, as the code under test adds them.
    The built-in `sum()` is no reference for that: from Python 3.12 on it
    compensates float sums (tests/py312_sum.py)."""
    return reduce(add, xs, 0.0)


def expectation_terms_reference(model, graph):
    """The three distance expectations of `expectation_terms` as nested
    running totals: pmf supports ascending, every sum left to right."""
    dist = graph._dist

    def cross(pa, pb):
        return running_sum(qa * running_sum(qb * dist[a][b] for b, qb in pb.items())
                           for a, qa in pa.items())

    return (cross(model.initial_location_pmf, model.pickup_pmf),
            cross(model.marginal_dropoff_pmf, model.pickup_pmf),
            running_sum(pu * running_sum(pv * dist[u][v]
                                         for v, pv in model.dropoff_given_pickup[u].items())
                        for u, pu in model.pickup_pmf.items()))


class ScalarSampler:
    """The scalar inverse-CDF sampler the batched draws are checked against:
    one uniform per draw, bisected into the pmf's running sums."""

    def __init__(self, pmf):
        self.values = [k for k, p in sorted(pmf.items()) if p > 0]
        self.bounds = _reference_bounds(pmf)

    def value(self, u):
        return self.values[bisect_right(self.bounds, u)]

    def starts(self):
        """The uniform at which each support value's interval starts: 0, then
        every running sum but the last, each exactly on a CDF bound."""
        return [0.0] + self.bounds[:-1]

    def draw(self, rng):
        return self.value(rng.random())


class ScalarDemand:
    """A demand model's draws one value at a time: arrival counts, initial
    locations, and requests as a pickup draw followed by a draw from that
    pickup's own conditional dropoff pmf."""

    def __init__(self, model):
        self.eta = ScalarSampler(model.eta_pmf)
        self.pickup = ScalarSampler(model.pickup_pmf)
        self.initial = ScalarSampler(model.initial_location_pmf)
        self._conds = model.dropoff_given_pickup
        self._dropoff = {}

    def dropoff(self, pickup):
        if pickup not in self._dropoff:
            self._dropoff[pickup] = ScalarSampler(self._conds[pickup])
        return self._dropoff[pickup]

    def request(self, rng):
        pickup = self.pickup.draw(rng)
        return pickup, self.dropoff(pickup).draw(rng)


def scalar_arrivals(model, rng, steps):
    eta = ScalarDemand(model).eta
    return [eta.draw(rng) for _ in range(steps)]


def scalar_requests(model, rng, count):
    """(pickups, dropoffs) of `count` requests drawn one after another."""
    demand = ScalarDemand(model)
    pairs = [demand.request(rng) for _ in range(count)]
    return [p for p, _ in pairs], [d for _, d in pairs]


def scalar_initial(model, rng, m):
    initial = ScalarDemand(model).initial
    return [initial.draw(rng) for _ in range(m)]


def scalar_ce_requests(model, t_h, rng):
    """`certainty_equivalence_requests` one request at a time."""
    count = int(round(t_h * model.e_eta))
    demand = ScalarDemand(model)
    return [(-(i + 1), *demand.request(rng)) for i in range(count)]


def scalar_generate_trips(model, horizon, seed):
    """`generate_trips` one draw at a time: per step its count, then its
    requests, all from one stream."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    demand = ScalarDemand(model)
    rows = []
    for t in range(1, horizon + 1):
        rows += [(t, *demand.request(rng)) for _ in range(demand.eta.draw(rng))]
    return rows


def scalar_episode_draws(model, m, T, seed):
    """The initial locations, the requests (id -> (id, pickup, dropoff)) and
    the arrival counts of steps 1..T-1 that a seeded `run_episode` of horizon
    T draws, one value at a time: counts on the arrivals stream, requests on
    the requests stream."""
    demand = ScalarDemand(model)
    init_rng = substream(seed, NS_INIT)
    arr_rng, req_rng = substream(seed, NS_ARRIVALS), substream(seed, NS_REQUESTS)
    locations = [demand.initial.draw(init_rng) for _ in range(m)]
    requests = {}
    counts = []
    for t in range(1, T):
        counts.append(demand.eta.draw(arr_rng))
        for _ in range(counts[-1]):
            rid = len(requests) + 1
            requests[rid] = (rid, *demand.request(req_rng))
    return locations, requests, counts


def per_pickup_dropoffs(model, pickups, us):
    """Dropoffs at uniform draws `us`, one bisection per pickup into its own
    conditional pmf's running sums."""
    demand = ScalarDemand(model)
    return np.array([demand.dropoff(p).value(u) for p, u in zip(pickups.tolist(), us)],
                    dtype=pickups.dtype)


def reference_partition(graph, model, K, max_iter=100):
    """(centers, assignment) of `get_partitions` computed with nested lists
    and running totals, one candidate at a time: greedy capacitated facility
    location, then weighted k-medoid to a fixed point."""
    dist = graph._dist
    nodes = range(1, graph.n + 1)
    weights = {v: model.pickup_pmf.get(v, 0.0) for v in nodes}

    def score(c, vs):
        return running_sum(weights[v] * dist[c][v] for v in vs)

    capacity = running_sum(weights.values()) / K
    unserved = dict(weights)
    centers = []
    for _ in range(K):
        best = min((c for c in nodes if c not in centers), key=lambda c: (
            running_sum(w * dist[c][v] for v, w in unserved.items() if w > 0), c))
        centers.append(best)
        room = capacity
        for v in sorted(unserved, key=lambda v: (dist[best][v], v)):
            if room <= 0:
                break
            take = min(unserved[v], room)
            unserved[v] -= take
            room -= take

    def assign(centers):
        assignment, loads, tied = [0] * (graph.n + 1), [0] * len(centers), []
        for v in nodes:
            best_d = min(dist[c][v] for c in centers)
            ks = [k for k, c in enumerate(centers, start=1) if dist[c][v] == best_d]
            if len(ks) == 1:
                assignment[v] = ks[0]
                loads[ks[0] - 1] += 1
            else:
                tied.append((v, ks))
        for v, ks in tied:
            k = min(ks, key=lambda k: (loads[k - 1], centers[k - 1]))
            assignment[v] = k
            loads[k - 1] += 1
        return assignment

    assignment = assign(centers)
    for _ in range(max_iter):
        new_centers = []
        for k, incumbent in enumerate(centers, start=1):
            sector = [v for v in nodes if assignment[v] == k]
            best = min(sector, key=lambda c: (score(c, sector), c))
            keep = incumbent in sector and score(incumbent, sector) <= score(best, sector)
            new_centers.append(incumbent if keep else best)
        new_assignment = assign(new_centers)
        if (new_centers, new_assignment) == (centers, assignment):
            break
        centers, assignment = new_centers, new_assignment
    return centers, assignment


def csgraph_tables(graph):
    """Reference distance and next-hop tables of a strongly connected graph,
    laid out like `CityGraph.dist_array` and `CityGraph._next` ((n+1) x (n+1),
    padding in row and column 0): hop distances by scipy's csgraph Dijkstra
    with unit weights, next hops as the smallest neighbor one hop closer."""
    n = graph.n
    heads, tails = np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T - 1
    arcs = csr_matrix((np.ones(len(heads)), (heads, tails)), shape=(n, n))
    hops = csgraph_shortest_path(arcs, method="D", directed=True, unweighted=True)
    assert np.isfinite(hops).all(), "graph is not strongly connected"
    dist = np.full((n + 1, n + 1), np.iinfo(graph.dist_array.dtype).max, dtype=np.int64)
    dist[1:, 1:] = hops
    nxt = np.zeros((n + 1, n + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for k in sorted({j for a, j in graph.edges if a == i}, reverse=True):
            nxt[i] = np.where(dist[k] == dist[i] - 1, k, nxt[i])
    return dist, nxt


def next_hop_in_partition_reference(graph, pspec, v_start, v_end):
    """The boundary entry point by a scan of all nodes in ascending order: the
    node of sector(v_end) on a shortest v_start -> v_end path closest to
    v_start, the first one found on ties."""
    ke = pspec.sector_of(v_end)
    total = graph.distance(v_start, v_end)
    best, best_d = None, None
    for v in range(1, graph.n + 1):
        if pspec.sector_of(v) != ke:
            continue
        dv = graph.distance(v_start, v)
        if dv + graph.distance(v, v_end) == total and (best_d is None or dv < best_d):
            best, best_d = v, dv
    return best


def weighted_distance_sums_reference(graph, sources, targets, weights):
    """For each source, the running total of weight times distance over the
    targets in the given order."""
    return [running_sum(w * graph.distance(s, t) for t, w in zip(targets, weights))
            for s in sources]


def transition_reference(state, control, arrivals, graph):
    """sim.transition as it was before its rows were read through locals:
    every hop from graph.next_hop, every trip length from graph.distance.
    The reference for the production step's states, IllegalControl (taxi,
    reason) pairs and SimError messages. An occupied taxi's action is checked
    first, then its node and dropoff (node 0 included), then, by
    graph.next_hop, that it does not stand on its dropoff (SameNode), then
    its hop. A free taxi's node is checked before its action. A pickup whose
    outstanding key is not its request's id, or whose request's dropoff is
    outside 1..n, is a SimError naming the request. Arrivals are checked
    last."""
    m = len(state.locations)
    if len(control) != m:
        raise SimError(f"control has {len(control)} actions for {m} taxis")
    n = graph.n
    locs = list(state.locations)
    dropoffs = list(state.dropoffs)
    outstanding = dict(state.outstanding)
    for l in range(m):
        act = control[l]
        kind = act[0]
        loc, dropoff = locs[l], dropoffs[l]
        if dropoff != 0:
            if kind != HOP:
                raise IllegalControl(l, f"occupied taxi got '{kind}'")
            if not (1 <= loc <= n and 1 <= dropoff <= n):
                raise IllegalControl(l, f"node {loc} or dropoff {dropoff} is outside 1..{n}")
            hop = graph.next_hop(loc, dropoff)
            if act[1] != hop:
                raise IllegalControl(l, f"hop to {act[1]} but shortest path continues at {hop}")
            locs[l] = hop
            if hop == dropoff:
                dropoffs[l] = 0
        elif not 1 <= loc <= n:
            raise IllegalControl(l, f"node {loc} is outside 1..{n}")
        elif kind == STAY:
            pass
        elif kind == MOVE:
            if act[1] not in graph.adj[loc]:
                raise IllegalControl(l, f"{act[1]} is not a neighbor of {loc}")
            locs[l] = act[1]
        elif kind == PICKUP:
            req = outstanding.get(act[1])
            if req is None:
                raise IllegalControl(l, f"request {act[1]} is not outstanding")
            if req[0] != act[1]:
                raise SimError(f"outstanding key {act[1]} holds request {req[0]}")
            if req[1] != loc:
                raise IllegalControl(l, f"request {act[1]} picks up at {req[1]}, taxi at {loc}")
            if not 1 <= req[2] <= n:
                raise SimError(f"request {req[0]}: dropoff {req[2]} is outside 1..{n}")
            del outstanding[act[1]]
            if graph.distance(req[1], req[2]) > 0:
                dropoffs[l] = req[2]
        elif kind == HOP:
            raise IllegalControl(l, "free taxi got a forced hop")
        else:
            raise IllegalControl(l, f"unknown action '{kind}'")
    for req in arrivals:
        if req[0] in outstanding:
            raise SimError(f"request {req[0]}: id is already outstanding")
        if not (1 <= req[1] <= n and 1 <= req[2] <= n):
            raise SimError(f"request {req[0]}: pickup {req[1]} or dropoff {req[2]} "
                           f"is outside 1..{n}")
        outstanding[req[0]] = req
    return FleetState(locs, dropoffs, outstanding, state.clock + 1)


def forced_hop_action(state, graph, taxi):
    """The single legal control of an occupied taxi."""
    return (HOP, graph.next_hop(state.locations[taxi], state.dropoffs[taxi]))


def _toward_reference(graph, loc, req):
    if loc == req[1]:
        return (PICKUP, req[0])
    return (MOVE, graph.next_hop(loc, req[1]))


def controls_reference(state, graph, targets):
    """policies._controls taxi by taxi through forced_hop_action and
    graph.next_hop."""
    control = []
    for l in range(state.m):
        if state.dropoffs[l] != 0:
            control.append(forced_hop_action(state, graph, l))
        elif l in targets:
            control.append(_toward_reference(graph, state.locations[l], targets[l]))
        else:
            control.append((STAY,))
    return control


def match_free_to_requests_reference(graph, free, requests):
    """The dispatch matching on the taxi-by-request approach matrix, passed
    transposed to the solver when the requests are the rows."""
    if not free or not requests:
        return {}
    locs = np.array([loc for _, loc in free])
    approach = graph.dist_array[locs[:, None], np.array([r[1] for r in requests])]
    if len(free) <= len(requests):
        cols = auction_match(approach)
        return {free[i][0]: requests[j] for i, j in enumerate(cols)}
    cols = auction_match(approach.T)
    return {free[j][0]: requests[i] for i, j in enumerate(cols)}


def grouped_match_step_reference(free, reqs, locs, graph, group):
    """A grouped lookahead step's matching from whole-map rows: group taxi l
    stands on node 0, whose distance row is its least over the members'
    nodes xs at every node, and the requests-by-taxis block is solved as
    nested lists. None where l is a row or is assigned; a single request
    goes to its nearest taxi, the lowest index on ties."""
    shared, xs = group
    if len(free) <= len(reqs):
        return None
    least = graph.dist_array[xs].min(axis=0).tolist()
    rows = {l: least if l == shared else graph._dist[locs[l]] for l in free}
    if len(reqs) == 1:
        nearest = min(free, key=lambda l: rows[l][reqs[0][1]])
        return None if nearest == shared else [(nearest, reqs[0])]
    cols = auction_match([[rows[l][r[1]] for l in free] for r in reqs])
    if free.index(shared) in cols:
        return None
    return [(free[b], reqs[a]) for a, b in enumerate(cols)]


def ia_ra_control_reference(state, graph):
    """IA-RA built from the reference matching and controls."""
    requests = [state.outstanding[rid] for rid in sorted(state.outstanding)]
    free = [(l, state.locations[l]) for l in range(state.m) if state.dropoffs[l] == 0]
    matched = match_free_to_requests_reference(graph, free, requests)
    return controls_reference(state, graph, matched)


def greedy_control_reference(state, graph):
    """Greedy built taxi by taxi through forced_hop_action and
    graph.next_hop: nearest request, smallest id on ties, a co-located
    request a lower-indexed taxi claimed leaves the later taxi in place."""
    requests = [state.outstanding[rid] for rid in sorted(state.outstanding)]
    dist = graph._dist
    control = []
    claimed = set()
    for l in range(state.m):
        if state.dropoffs[l] != 0:
            control.append(forced_hop_action(state, graph, l))
            continue
        if not requests:
            control.append((STAY,))
            continue
        loc = state.locations[l]
        drow = dist[loc]
        best = min(requests, key=lambda r: (drow[r[1]], r[0]))
        if drow[best[1]] == 0:
            if best[0] in claimed:
                control.append((STAY,))
            else:
                claimed.add(best[0])
                control.append((PICKUP, best[0]))
        else:
            control.append((MOVE, graph.next_hop(loc, best[1])))
    return control


class RecordingPolicy:
    """Wraps a policy and logs, per step, the state it saw and its joint
    control; `memories` keeps, per step, a copy of the inner policy's
    `memory` (taxi -> request id) as the call left it, {} for a policy
    without one."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.log = []
        self.memories = []

    def reset(self, seed):
        self.log = []
        self.memories = []
        self.inner.reset(seed)

    def control(self, state):
        control = self.inner.control(state)
        self.log.append((state, list(control)))
        self.memories.append(dict(getattr(self.inner, "memory", {})))
        return control


def service_distance_reference(graph, requests, policy):
    """(total, assignment events) of the service distance by the
    event-history rule, the travel measure of an assignment record,
    replayed from a RecordingPolicy over `requests` (id -> (id, pickup,
    dropoff)). A request's assignee at a step is the taxi whose memory names
    it after that step's call, while the request is outstanding. A request
    gets an event (step, taxi, the taxi's node) whenever its assignee differs
    from the last one; a request picked up without any event gets one at its
    pickup. Each assigned request counts the distance from its last event's
    node to its pickup, plus its trip."""
    events, assignee = {}, {}
    for t, ((state, control), memory) in enumerate(zip(policy.log, policy.memories), start=1):
        for taxi, rid in memory.items():
            if rid in state.outstanding and assignee.get(rid) != taxi:
                assignee[rid] = taxi
                events.setdefault(rid, []).append((t, taxi, state.locations[taxi]))
        for l, act in enumerate(control):
            if act[0] == PICKUP and act[1] not in events:
                events[act[1]] = [(t, l, state.locations[l])]
    total = 0
    for rid, evs in events.items():
        _, pickup, dropoff = requests[rid]
        total += graph.distance(evs[-1][2], pickup) + graph.distance(pickup, dropoff)
    return total, events


def travel_left(graph, state, events):
    """The travel the event-history rule counts that the fleet has not made
    by `state`: each occupied taxi's distance to its dropoff, and for each
    outstanding request with an event, its last assignee's distance to the
    pickup plus the trip."""
    left = sum(graph.distance(loc, dropoff)
               for loc, dropoff in zip(state.locations, state.dropoffs) if dropoff)
    for rid, pickup, dropoff in state.outstanding.values():
        if rid in events:
            taxi = events[rid][-1][1]
            left += graph.distance(state.locations[taxi], pickup) + graph.distance(pickup,
                                                                                   dropoff)
    return left
