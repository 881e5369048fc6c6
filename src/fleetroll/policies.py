"""Dispatch base policies: greedy, random instantaneous assignment,
instantaneous assignment with commitment, and instantaneous assignment with
reassignment (IA-RA), plus the per-request service-distance metric.

Each policy maps a fleet state to one joint control. The matching-based
policies report their request->taxi pairing alongside the control so the
episode runner can record (re)assignment events for service distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .matching import auction_match
from .sim import HOP, MOVE, PICKUP, STAY, substream, NS_POLICY


@lru_cache(maxsize=8)
def _node_actions(n):
    """(HOP, v) and (MOVE, v) for every node v of an n-node graph, indexed by
    v: made once and shared by every joint control, so a step allocates no
    hop or move actions."""
    return tuple((HOP, v) for v in range(n + 1)), tuple((MOVE, v) for v in range(n + 1))


def _controls(state, graph, targets):
    """Joint control: an occupied taxi takes its forced hop, a free taxi with
    a target request (targets: {taxi index: Request}) picks it up when
    co-located and otherwise moves one hop toward it, and every other free
    taxi stays. One pass over the taxis, hops read from the next-hop rows."""
    nxt = graph._next
    hops, moves = _node_actions(graph.n)
    locs = state.locations
    in_service = state.in_service
    stay = (STAY,)
    control = []
    for l, tau in enumerate(state.timers):
        if tau > 0:
            _, dropoff = in_service[l]
            loc = locs[l]
            # A 0 entry (a taxi already on its dropoff) lets next_hop raise SameNode.
            control.append(hops[nxt[loc][dropoff] or graph.next_hop(loc, dropoff)])
        elif l not in targets:
            control.append(stay)
        else:
            req = targets[l]
            loc = locs[l]
            control.append((PICKUP, req.id) if loc == req.pickup else moves[nxt[loc][req.pickup]])
    return control


def match_free_to_requests(graph, free, requests):
    """Min-cost matching of free taxis to requests on approach distance: the
    one dispatch matcher, used by IA-RA, IA-commit and the two-phase
    planner's high-level plan.

    free: list of (taxi index, node); requests: list of Request. Returns
    {taxi index: Request}. Costs are taxi-to-pickup distances gathered from
    the graph's distance array, taxis by pickups; the smaller side forms the
    rows, so the solver gets the block's transpose when requests are fewer.
    """
    if not free or not requests:
        return {}
    cost = graph.dist_array.take([loc for _, loc in free], 0).take(
        [r.pickup for r in requests], 1)
    if len(free) <= len(requests):
        return {free[i][0]: requests[j] for i, j in enumerate(auction_match(cost))}
    return {free[j][0]: requests[i] for i, j in enumerate(auction_match(cost.T))}


def greedy_control(state, graph):
    """Every free taxi independently chases its nearest outstanding request.

    No coordination: several taxis may converge on one request. Ties go to the
    smallest request id; a co-located request already claimed by a
    lower-indexed taxi this step leaves the later taxi in place.
    """
    requests = [state.outstanding[rid] for rid in sorted(state.outstanding)]
    dist = graph._dist
    targets = {}
    claimed = set()
    for l, tau in enumerate(state.timers):
        if tau > 0 or not requests:
            continue
        drow = dist[state.locations[l]]
        best = min(requests, key=lambda r: drow[r.pickup])  # first minimum: smallest id
        if drow[best.pickup] == 0:
            if best.id in claimed:
                continue
            claimed.add(best.id)
        targets[l] = best
    return _controls(state, graph, targets), {}


def ia_ra_control(state, graph):
    """Instantaneous assignment with reassignment: re-match from scratch.

    All free taxis vs all outstanding requests each step; matched taxis move
    one hop toward (or pick up) their request, unmatched free taxis stay.
    """
    outstanding = state.outstanding
    requests = [outstanding[rid] for rid in sorted(outstanding)]
    locs = state.locations
    free = [(l, locs[l]) for l, tau in enumerate(state.timers) if tau == 0]
    matched = match_free_to_requests(graph, free, requests)
    assignments = {req.id: taxi for taxi, req in matched.items()}
    return _controls(state, graph, matched), assignments


def ia_commit_control(state, graph, memory):
    """Instantaneous assignment with commitment to the initial pairing.

    memory maps taxi -> request id and persists across steps; a pair survives
    until pickup, at which point the taxi is occupied and the slot frees up.
    Only uncommitted free taxis and unassigned requests enter each step's
    fresh matching.
    """
    for l in [l for l, rid in memory.items() if rid not in state.outstanding]:
        del memory[l]  # picked up: released
    taken = set(memory.values())
    requests = [state.outstanding[rid] for rid in sorted(state.outstanding)
                if rid not in taken]
    free = [(l, state.locations[l]) for l in range(state.m)
            if state.timers[l] == 0 and l not in memory]
    for taxi, req in match_free_to_requests(graph, free, requests).items():
        memory[taxi] = req.id
    targets = {l: state.outstanding[rid] for l, rid in memory.items()}
    assignments = {rid: taxi for taxi, rid in memory.items()}
    return _controls(state, graph, targets), assignments


def random_ia_control(state, graph, rng, memory):
    """Random instantaneous assignment: requests go to uniformly random free
    taxis, and a taxi stays bound to its request until the dropoff completes.

    Unassigned taxis do not move. memory maps taxi -> request id and holds
    through the whole service (approach and trip).
    """
    for l in list(memory):
        rid = memory[l]
        if rid in state.outstanding:
            continue
        serving = state.in_service.get(l)
        if serving is None or serving[0] != rid:
            del memory[l]  # dropoff complete (or zero-length trip): released
    taken = set(memory.values())
    pool = sorted(l for l in range(state.m)
                  if state.timers[l] == 0 and l not in memory)
    for rid in sorted(state.outstanding):
        if rid in taken:
            continue
        if not pool:
            break
        pick = int(rng.integers(len(pool)))
        memory[pool.pop(pick)] = rid
    targets = {l: state.outstanding[rid] for l, rid in memory.items()
               if rid in state.outstanding}
    assignments = {req.id: taxi for taxi, req in targets.items()}
    return _controls(state, graph, targets), assignments


class GreedyPolicy:
    name = "greedy"

    def __init__(self, graph):
        self.graph = graph

    def reset(self, seed):
        pass

    def control(self, state):
        return greedy_control(state, self.graph)


class IARAPolicy:
    name = "ia-ra"

    def __init__(self, graph):
        self.graph = graph

    def reset(self, seed):
        pass

    def control(self, state):
        return ia_ra_control(state, self.graph)


class IACommitPolicy:
    name = "ia-commit"

    def __init__(self, graph):
        self.graph = graph
        self.memory = {}

    def reset(self, seed):
        self.memory = {}

    def control(self, state):
        return ia_commit_control(state, self.graph, self.memory)


class RandomIAPolicy:
    name = "random-ia"

    def __init__(self, graph):
        self.graph = graph
        self.memory = {}
        self.rng = None

    def reset(self, seed):
        self.memory = {}
        self.rng = substream(seed, NS_POLICY)

    def control(self, state):
        return random_ia_control(state, self.graph, self.rng, self.memory)


@dataclass
class ServiceDistanceReport:
    total: int
    per_request: dict = field(default_factory=dict)
    unassigned: list = field(default_factory=list)


def service_distance(trace, graph) -> ServiceDistanceReport:
    """Total service distance: for each request that was ever assigned, the
    distance from the finally-assigned taxi's location (at the moment that
    assignment was made) to the pickup, plus the trip length.

    Requests that never received an assignment are excluded from the total and
    listed separately.
    """
    total = 0
    per_request = {}
    unassigned = []
    for rid in sorted(trace.request_info):
        req = trace.request_info[rid]
        events = trace.assignment_events.get(rid)
        if not events:
            unassigned.append(rid)
            continue
        _, _, loc = events[-1]
        w = graph.distance(loc, req.pickup) + graph.distance(req.pickup, req.dropoff)
        per_request[rid] = w
        total += w
    return ServiceDistanceReport(total, per_request, unassigned)
