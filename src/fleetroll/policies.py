"""Dispatch base policies: greedy, random instantaneous assignment,
instantaneous assignment with commitment, and instantaneous assignment with
reassignment (IA-RA).

Each policy maps a fleet state to one joint control.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import SameNode
from .matching import auction_match
from .sim import HOP, MOVE, PICKUP, STAY, IllegalControl, SimError, substream, NS_POLICY


@lru_cache(maxsize=8)
def _node_actions(n):
    """(HOP, v) and (MOVE, v) for every node v of an n-node graph, indexed by
    v: made once and shared by every joint control, so a step allocates no
    hop or move actions."""
    return tuple((HOP, v) for v in range(n + 1)), tuple((MOVE, v) for v in range(n + 1))


def _controls(state, graph, choose):
    """Joint control from one pass over the fleet: each occupied taxi takes
    its forced hop toward its dropoff (an IllegalControl names one on a node
    or toward a dropoff outside 1..n), each free taxi stays. While requests
    are outstanding, choose(free) gets the free taxis as ascending (taxi
    index, node) pairs and returns targets ({taxi index: request}): a free
    taxi picks its target up when co-located, else moves one hop toward it.
    Hops override targets of occupied taxis; both read the next-hop rows. A
    free taxi or an outstanding pickup above n, which the policies' reads
    meet as an IndexError, is an IllegalControl naming the taxi or a
    SimError naming the request; so is a targeted pickup below 1, which the
    reads would take."""
    nxt, n = graph._next, graph.n
    hops, moves = _node_actions(n)
    locs, dropoffs = state.locations, state.dropoffs
    control = [(STAY,)] * len(locs)
    free = []
    try:
        for l, dropoff in enumerate(dropoffs):
            loc = locs[l]
            if dropoff:
                control[l] = hops[nxt[loc][dropoff] or graph.next_hop(loc, dropoff)]
            else:
                free.append((l, loc))
    except (IndexError, SameNode):  # a node above n, or a 0 entry: node 0 or on its dropoff
        if 0 < loc == dropoff <= n:
            raise
        raise IllegalControl(l, f"node {loc} or dropoff {dropoff} is outside 1..{n}") from None
    try:
        if state.outstanding:
            for l, (rid, pickup, _) in choose(free).items():
                if not dropoffs[l]:
                    if pickup < 1:  # a row read takes 0 or a negative index: fail as above n
                        raise IndexError(pickup)
                    loc = locs[l]
                    control[l] = (PICKUP, rid) if loc == pickup else moves[nxt[loc][pickup]]
    except IndexError:
        for l, loc in free:
            if not 0 < loc <= n:
                raise IllegalControl(l, f"node {loc} is outside 1..{n}") from None
        for rid, pickup, _ in state.outstanding.values():
            if not 0 < pickup <= n:
                raise SimError(f"request {rid}: pickup {pickup} is outside 1..{n}") from None
        raise
    return control


def match_free_to_requests(graph, free, requests):
    """Min-cost matching of free taxis to requests on approach distance: the
    one dispatch matcher, used by IA-RA, IA-commit and the two-phase
    planner's high-level plan.

    free: list of (taxi index, node); requests: list of (id, pickup, dropoff).
    Returns {taxi index: request}. Costs are taxi-to-pickup distances gathered
    from the graph's distance array, taxis by pickups; the smaller side forms
    the rows, so the solver gets the block's transpose when requests are fewer.
    """
    if not free or not requests:
        return {}
    cost = graph.dist_array.take([loc for _, loc in free], 0).take(
        [r[1] for r in requests], 1)
    if len(free) <= len(requests):
        return {free[i][0]: requests[j] for i, j in enumerate(auction_match(cost))}
    return {free[j][0]: requests[i] for i, j in enumerate(auction_match(cost.T))}


def greedy_control(state, graph):
    """Every free taxi independently chases its nearest outstanding request.

    No coordination: several taxis may converge on one request. Ties go to the
    smallest request id; a co-located request already claimed by a
    lower-indexed taxi this step leaves the later taxi in place.
    """
    requests = sorted(state.outstanding.values())
    dist = graph._dist

    def nearest(free):
        targets, claimed = {}, set()
        for l, loc in free:
            drow = dist[loc]
            best = min(requests, key=lambda r: drow[r[1]])  # first minimum: smallest id
            if drow[best[1]] == 0:
                if best[0] in claimed:
                    continue
                claimed.add(best[0])
            targets[l] = best
        return targets

    return _controls(state, graph, nearest)


def ia_ra_control(state, graph):
    """Instantaneous assignment with reassignment: re-match from scratch.

    All free taxis vs all outstanding requests each step; matched taxis move
    one hop toward (or pick up) their request, unmatched free taxis stay.
    """
    requests = sorted(state.outstanding.values())
    return _controls(state, graph, lambda free: match_free_to_requests(graph, free, requests))


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
    requests = [r for r in sorted(state.outstanding.values()) if r[0] not in taken]

    def commit(free):
        uncommitted = [(l, loc) for l, loc in free if l not in memory]
        for taxi, req in match_free_to_requests(graph, uncommitted, requests).items():
            memory[taxi] = req[0]
        return {l: state.outstanding[rid] for l, rid in memory.items()}

    return _controls(state, graph, commit)


def random_ia_control(state, graph, rng, memory):
    """Random instantaneous assignment: requests go to uniformly random free
    taxis, and a taxi stays bound to its request until the dropoff completes.

    Unassigned taxis do not move. memory maps taxi -> request id and holds
    through the whole service (approach and trip): a taxi is released once
    its request is no longer outstanding and it is free.
    """
    for l in [l for l, rid in memory.items()
              if rid not in state.outstanding and not state.dropoffs[l]]:
        del memory[l]  # dropoff complete (or zero-length trip): released
    taken = set(memory.values())

    def bind(free):
        pool = [l for l, _ in free if l not in memory]
        for rid in sorted(state.outstanding.keys() - taken):
            if not pool:
                break
            memory[pool.pop(int(rng.integers(len(pool))))] = rid
        return {l: state.outstanding[rid] for l, rid in memory.items()
                if rid in state.outstanding}

    return _controls(state, graph, bind)


class _BasePolicy:
    """A base policy over its class's control function. `memory` and `rng`
    are the state that ia-commit and random-ia keep across an episode's
    steps; reset(seed) starts them afresh."""

    def __init__(self, graph):
        self.graph = graph
        self.memory = {}
        self.rng = None

    def reset(self, seed):
        self.memory = {}
        self.rng = substream(seed, NS_POLICY)


class GreedyPolicy(_BasePolicy):
    name = "greedy"

    def control(self, state):
        return greedy_control(state, self.graph)


class IARAPolicy(_BasePolicy):
    name = "ia-ra"

    def control(self, state):
        return ia_ra_control(state, self.graph)


class IACommitPolicy(_BasePolicy):
    name = "ia-commit"

    def control(self, state):
        return ia_commit_control(state, self.graph, self.memory)


class RandomIAPolicy(_BasePolicy):
    name = "random-ia"

    def control(self, state):
        return random_ia_control(state, self.graph, self.rng, self.memory)
