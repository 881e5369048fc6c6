"""Discrete-time episode engine: fleet state, transition, stage cost, runner.

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
    locations: list      # node per taxi
    timers: list         # remaining trip steps per taxi (0 = free)
    outstanding: dict    # request id -> Request, not yet picked up
    in_service: dict     # taxi -> (request id, dropoff node)
    clock: int

    @property
    def m(self) -> int:
        return len(self.locations)

    def copy(self) -> "FleetState":
        return FleetState(list(self.locations), list(self.timers),
                          dict(self.outstanding), dict(self.in_service), self.clock)


def stage_cost(state: FleetState) -> int:
    return len(state.outstanding)


def forced_hop_action(state: FleetState, graph, taxi: int):
    """The single legal control of an occupied taxi."""
    _, dropoff = state.in_service[taxi]
    return (HOP, graph.next_hop(state.locations[taxi], dropoff))


def transition(state: FleetState, control, arrivals, graph) -> FleetState:
    """Apply a joint control, then inject the arrival batch, then advance time.

    Pickups set the trip timer to the pickup->dropoff distance; a zero-length
    trip completes in the same step. Every per-taxi action is validated
    against the control-set rules and raises IllegalControl on violation.
    """
    m = len(state.locations)
    if len(control) != m:
        raise SimError(f"control has {len(control)} actions for {m} taxis")
    locs = list(state.locations)
    timers = list(state.timers)
    outstanding = dict(state.outstanding)
    in_service = dict(state.in_service)
    for l in range(m):
        act = control[l]
        kind = act[0]
        if timers[l] > 0:
            if kind != HOP:
                raise IllegalControl(l, f"occupied taxi got '{kind}'")
            _, dropoff = in_service[l]
            hop = graph.next_hop(locs[l], dropoff)
            if act[1] != hop:
                raise IllegalControl(l, f"hop to {act[1]} but shortest path continues at {hop}")
            locs[l] = hop
            timers[l] -= 1
            if timers[l] == 0:
                del in_service[l]
        elif kind == STAY:
            pass
        elif kind == MOVE:
            target = act[1]
            if target not in graph.adj[locs[l]]:
                raise IllegalControl(l, f"{target} is not a neighbor of {locs[l]}")
            locs[l] = target
        elif kind == PICKUP:
            req = outstanding.get(act[1])
            if req is None:
                raise IllegalControl(l, f"request {act[1]} is not outstanding")
            if req.pickup != locs[l]:
                raise IllegalControl(l, f"request {act[1]} picks up at {req.pickup}, taxi at {locs[l]}")
            del outstanding[req.id]
            trip = graph.distance(req.pickup, req.dropoff)
            if trip > 0:
                timers[l] = trip
                in_service[l] = (req.id, req.dropoff)
        elif kind == HOP:
            raise IllegalControl(l, "free taxi got a forced hop")
        else:
            raise IllegalControl(l, f"unknown action '{kind}'")
    for req in arrivals:
        outstanding[req.id] = req
    return FleetState(locs, timers, outstanding, in_service, state.clock + 1)


@dataclass
class StepRecord:
    t: int
    outstanding: int
    arrivals: int
    pickups: int
    free_taxis: int


@dataclass
class EpisodeTrace:
    policy: str
    m: int
    T: int
    seed: int
    steps: list = field(default_factory=list)
    stage_costs: list = field(default_factory=list)
    cost: int = 0
    controls: list = field(default_factory=list)
    request_info: dict = field(default_factory=dict)       # id -> Request
    assignment_events: dict = field(default_factory=dict)  # id -> [(t, taxi, taxi location)]
    pickup_events: list = field(default_factory=list)      # (t, taxi, request id)
    plan_ms: list = field(default_factory=list)

    def outstanding_series(self):
        return [rec.outstanding for rec in self.steps]

    def trace_rows(self):
        yield ["t", "outstanding", "arrivals", "pickups", "free_taxis"]
        for rec in self.steps:
            yield [rec.t, rec.outstanding, rec.arrivals, rec.pickups, rec.free_taxis]

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
            "requests": len(self.request_info),
            "pickups": len(self.pickup_events),
        }


def run_episode(graph, model, policy, m: int, T: int, seed: int) -> EpisodeTrace:
    """Run one seeded episode and capture the full trace.

    `policy` implements reset(seed) and control(state) -> (joint control,
    assignment map or None); the assignment map (request id -> taxi) feeds the
    per-request service-distance records. Identical seeds give bit-identical
    traces apart from wall-clock timings.
    """
    if m < 1 or T < 1:
        raise SimError("fleet size and horizon must be >= 1")
    init_rng = substream(seed, NS_INIT)
    arr_rng = substream(seed, NS_ARRIVALS)
    req_rng = substream(seed, NS_REQUESTS)
    policy.reset(seed)

    locations = [model.sample_initial(init_rng) for _ in range(m)]
    state = FleetState(locations, [0] * m, {}, {}, 1)
    trace = EpisodeTrace(policy=getattr(policy, "name", "policy"), m=m, T=T, seed=seed)
    current_assignee: dict[int, int] = {}
    next_id = 1
    arrived_now = 0

    for t in range(1, T + 1):
        n_out = len(state.outstanding)
        free = sum(1 for tau in state.timers if tau == 0)
        trace.stage_costs.append(n_out)
        if t == T:
            trace.steps.append(StepRecord(t, n_out, arrived_now, 0, free))
            break

        t0 = time.perf_counter()
        control, assignments = policy.control(state)
        trace.plan_ms.append((time.perf_counter() - t0) * 1000.0)

        if assignments:
            for rid, taxi in assignments.items():
                if rid < 0:
                    continue  # planning phantoms never enter the records
                if current_assignee.get(rid) != taxi:
                    current_assignee[rid] = taxi
                    trace.assignment_events.setdefault(rid, []).append(
                        (t, taxi, state.locations[taxi]))

        pickups = 0
        for l, act in enumerate(control):
            if act[0] == PICKUP:
                rid = act[1]
                pickups += 1
                trace.pickup_events.append((t, l, rid))
                if rid not in trace.assignment_events:
                    # policies without explicit matchings (greedy, rollout)
                    # attribute the assignment at pickup time
                    trace.assignment_events[rid] = [(t, l, state.locations[l])]

        eta = sample_arrivals(model, arr_rng)
        batch = []
        for _ in range(eta):
            batch.append(sample_request(model, t + 1, req_rng, req_id=next_id))
            trace.request_info[next_id] = batch[-1]
            next_id += 1

        trace.steps.append(StepRecord(t, n_out, arrived_now, pickups, free))
        trace.controls.append(list(control))
        state = transition(state, control, batch, graph)
        arrived_now = eta

    trace.cost = sum(trace.stage_costs)
    return trace
