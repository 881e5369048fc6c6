"""Discrete-time episode engine: fleet state, transition, stage cost, runner,
and the episode's service work (its moving taxi-steps).

Timeline convention: the state at clock t is observed, the policy acts, the
arrival batch for t+1 is sampled, and the transition advances the clock. A
request arriving "during" step t therefore first appears (and is actionable)
at clock t+1. Stage cost is the outstanding-request count at each clock, and
an episode's cost is the sum of stage costs for t = 1..T-1 plus the terminal
count at T.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .demand import sample_arrivals, sample_request
from .errors import FleetrollError

# Per-taxi actions. Free taxis may move to a neighbor, stay, or pick up a
# co-located outstanding request; occupied taxis have exactly one control,
# the next hop toward their dropoff.
MOVE = "move"
STAY = "stay"
PICKUP = "pickup"
HOP = "hop"

# Sub-stream labels hung off the master seed; toggling one consumer (e.g. the
# Monte-Carlo lookahead) never perturbs the others.
NS_INIT = 0
NS_ARRIVALS = 1
NS_REQUESTS = 2
NS_POLICY = 3
NS_LOOKAHEAD = 4
NS_CE = 5

# Bytes an episode can hold per request, every request outstanding at once:
# its drawn nodes and its (id, pickup, dropoff) tuple in the state and in the
# transition's copy; per taxi-step, a pointer in the control the trace keeps;
# and per taxi, its entries in the state, in the transition's copy and in a
# step's working lists. tests/test_sim.py measures all three (at most 250, 13
# and 131).
REQUEST_BYTES, TAXI_STEP_BYTES, TAXI_BYTES = 300, 16, 160


class SimError(FleetrollError):
    pass


class IllegalControl(SimError):
    def __init__(self, taxi, reason):
        super().__init__(f"taxi {taxi}: {reason}")
        self.taxi = taxi
        self.reason = reason


def substream(seed: int, *key) -> np.random.Generator:
    """Generator derived from the master seed and a logical key.

    Keys are logical indices (stream id, step, taxi, scenario, ...), never
    worker identities, so results are independent of execution order.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass
class FleetState:
    """A fleet at one clock. Each taxi is free (dropoff 0) or on a trip to its
    dropoff, a node it does not stand on; outstanding keys are their requests'
    ids; every node is in 1..n. `transition` names the taxi of a state that
    breaks this."""

    locations: list      # node per taxi
    dropoffs: list       # dropoff node of each taxi's trip (0 = free)
    outstanding: dict    # request id -> its (id, pickup, dropoff) tuple, not picked up
    clock: int

    @property
    def m(self) -> int:
        return len(self.locations)


def transition(state: FleetState, control, arrivals, graph) -> FleetState:
    """Apply a joint control, then inject the arrival batch, then advance time.

    An occupied taxi takes its forced hop, the next-hop entry toward its
    dropoff, and is free once the hop lands there. A pickup gives the taxi its
    request's dropoff; a zero-length trip completes in the same step. An
    illegal action raises IllegalControl naming its taxi, as does a taxi on a
    node outside 1..n or occupied toward one; an occupied taxi already on its
    dropoff has no hop, and SameNode is raised. A pickup whose outstanding key
    is not its request's id or whose request's dropoff is outside 1..n, and
    an arrival whose id is outstanding or whose nodes are outside 1..n, raise
    SimError. A taxi's node checks are two comparisons on the branch it
    takes. Hops are read from the next-hop rows directly.
    """
    m = len(state.locations)
    if len(control) != m:
        raise SimError(f"control has {len(control)} actions for {m} taxis")
    locs = list(state.locations)
    dropoffs = list(state.dropoffs)
    outstanding = dict(state.outstanding)
    nxt, adj, n = graph._next, graph.adj, graph.n
    for l, act in enumerate(control):
        kind = act[0]
        loc, dropoff = locs[l], dropoffs[l]
        if dropoff:
            if kind != HOP:
                raise IllegalControl(l, f"occupied taxi got '{kind}'")
            if loc < 1 or dropoff < 0:
                raise IllegalControl(l, f"node {loc} or dropoff {dropoff} is outside 1..{n}")
            try:  # a 0 entry (a taxi already on its dropoff) lets next_hop raise SameNode
                hop = nxt[loc][dropoff] or graph.next_hop(loc, dropoff)
            except IndexError:  # one of them is above n
                raise IllegalControl(
                    l, f"node {loc} or dropoff {dropoff} is outside 1..{n}") from None
            if act[1] != hop:
                raise IllegalControl(l, f"hop to {act[1]} but shortest path continues at {hop}")
            locs[l] = hop
            if hop == dropoff:
                dropoffs[l] = 0
        elif not 0 < loc <= n:
            raise IllegalControl(l, f"node {loc} is outside 1..{n}")
        elif kind == STAY:
            pass
        elif kind == MOVE:
            if act[1] not in adj[loc]:
                raise IllegalControl(l, f"{act[1]} is not a neighbor of {loc}")
            locs[l] = act[1]
        elif kind == PICKUP:
            req = outstanding.pop(act[1], None)
            if req is None:
                raise IllegalControl(l, f"request {act[1]} is not outstanding")
            rid, pickup, dropoff = req
            if rid != act[1]:
                raise SimError(f"outstanding key {act[1]} holds request {rid}")
            if pickup != loc:
                raise IllegalControl(l, f"request {rid} picks up at {pickup}, taxi at {loc}")
            if not 0 < dropoff <= n:
                raise SimError(f"request {rid}: dropoff {dropoff} is outside 1..{n}")
            if dropoff != loc:
                dropoffs[l] = dropoff
        elif kind == HOP:
            raise IllegalControl(l, "free taxi got a forced hop")
        else:
            raise IllegalControl(l, f"unknown action '{kind}'")
    for req in arrivals:
        rid, pickup, dropoff = req
        if rid in outstanding:
            raise SimError(f"request {rid}: id is already outstanding")
        if not (0 < pickup <= n and 0 < dropoff <= n):
            raise SimError(f"request {rid}: pickup {pickup} or dropoff {dropoff} is outside 1..{n}")
        outstanding[rid] = req
    return FleetState(locs, dropoffs, outstanding, state.clock + 1)


@dataclass
class EpisodeTrace:
    """One episode's record, each fact kept once: the outstanding count at
    each clock 1..T (`cost` is their sum), each step's joint control, the
    free taxis at T, the drawn requests' nodes (request id r at index r-1)
    and each step's planning time. `trace_rows()` derives the rest: step t's
    pickups are its control's PICKUP actions (0 at T), its free taxis m less
    its HOP actions (an occupied taxi gets a hop and only a hop), and the
    arrivals at clock t >= 2 the outstanding count at t less that at t-1
    plus the pickups at t-1 (0 at t = 1)."""

    policy: str
    m: int
    T: int
    seed: int
    stage_costs: list = field(default_factory=list)
    controls: list = field(default_factory=list)
    free_at_T: int = 0
    request_pickups: list = field(default_factory=list)
    request_dropoffs: list = field(default_factory=list)
    plan_ms: list = field(default_factory=list)

    @property
    def cost(self) -> int:
        return sum(self.stage_costs)

    def outstanding_series(self):
        return list(self.stage_costs)

    def _counts(self, kinds):  # each step's count of actions of these kinds
        return [sum(act[0] in kinds for act in ctrl) for ctrl in self.controls]

    def trace_rows(self):
        yield ["t", "outstanding", "arrivals", "pickups", "free_taxis"]
        pickups = self._counts((PICKUP,)) + [0]
        free = [self.m - hops for hops in self._counts((HOP,))] + [self.free_at_T]
        for t, n_out in enumerate(self.stage_costs, start=1):
            arrivals = n_out - self.stage_costs[t - 2] + pickups[t - 2] if t > 1 else 0
            yield [t, n_out, arrivals, pickups[t - 1], free[t - 1]]

    def timing_rows(self):
        yield ["t", "plan_ms"]
        for t, ms in enumerate(self.plan_ms, start=1):
            yield [t, f"{ms:.3f}"]

    def mean_plan_ms(self) -> float:
        return sum(self.plan_ms) / len(self.plan_ms) if self.plan_ms else 0.0

    def summary(self) -> dict:
        return {
            "policy": self.policy,
            "m": self.m,
            "T": self.T,
            "seed": self.seed,
            "cost": self.cost,
            "requests": len(self.request_pickups),
            "pickups": sum(self._counts((PICKUP,))),
            # service work: the taxi-steps in which a taxi moved, empty or loaded
            "z_total": sum(self._counts((MOVE, HOP))),
        }


def run_episode(graph, model, policy, m: int, T: int, seed: int) -> EpisodeTrace:
    """Run one seeded episode and capture the full trace.

    `policy` implements reset(seed) and control(state) -> joint control.
    Identical seeds give bit-identical traces apart from wall-clock timings.
    """
    if m < 1 or T < 1:
        raise SimError("fleet size and horizon must be >= 1")
    init_rng = substream(seed, NS_INIT)
    arr_rng = substream(seed, NS_ARRIVALS)
    req_rng = substream(seed, NS_REQUESTS)
    policy.reset(seed)

    locations = model.sample_initial(init_rng, m).tolist()
    # The episode's counts and requests, drawn up front on their own streams.
    counts = sample_arrivals(model, arr_rng, T - 1).tolist()
    origins, dests = (a.tolist() for a in sample_request(model, req_rng, sum(counts)))
    state = FleetState(locations, [0] * m, {}, 1)
    trace = EpisodeTrace(policy=getattr(policy, "name", "policy"), m=m, T=T, seed=seed,
                         request_pickups=origins, request_dropoffs=dests)
    stage_costs, controls, plan_ms = trace.stage_costs, trace.controls, trace.plan_ms
    arrived = 0  # requests that have arrived; request id r is at index r-1

    for t in range(1, T):
        stage_costs.append(len(state.outstanding))
        t0 = time.perf_counter()
        control = policy.control(state)
        plan_ms.append((time.perf_counter() - t0) * 1000.0)

        eta = counts[t - 1]
        batch = list(zip(range(arrived + 1, arrived + eta + 1),
                         origins[arrived:arrived + eta], dests[arrived:arrived + eta]))
        arrived += eta

        controls.append(list(control))
        state = transition(state, control, batch, graph)

    stage_costs.append(len(state.outstanding))
    trace.free_at_T = state.dropoffs.count(0)
    return trace
