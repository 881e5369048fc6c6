"""One-at-a-time multiagent rollout: per-taxi one-step lookahead minimization
with a Monte-Carlo, base-policy cost-to-go approximation truncated after t_h
steps plus a terminal outstanding-count cost.

Taxis are processed in ascending id order. While taxi l is minimized, taxis
before l are frozen at their already-chosen rollout controls and taxis after l
follow the base policy's joint control for the current state. Each (step,
taxi) pair gets its own seed-derived stream from which all of its scenarios
are drawn up front in one vectorized call, so candidates of one taxi share
common random numbers and results never depend on evaluation order or
parallelism.

The IA-RA lookahead simulates each scenario on flat lists, holding scenario
requests as (id, pickup, dropoff) tuples. Its matchings are those of
linear_sum_assignment (`auction_match`), which it skips only where the answer
is certain without a solve: a matching with a single row, and that matching
again while its taxi just moves one hop closer.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .demand import Request
from .matching import auction_match
from .policies import greedy_control, ia_ra_control
from .sim import (FleetState, MOVE, PICKUP, STAY, NS_LOOKAHEAD,
                  forced_hop_action, substream, transition)

BASE_CONTROLS = {
    "ia-ra": ia_ra_control,
    "greedy": greedy_control,
}


@dataclass
class RolloutConfig:
    t_h: int = 10
    num_mc: int = 50
    base_policy: str = "ia-ra"

    def __post_init__(self):
        if self.t_h < 1 or self.num_mc < 1:
            raise ValueError("t_h and num_mc must be >= 1")
        if self.base_policy not in BASE_CONTROLS:
            raise ValueError(f"unknown base policy '{self.base_policy}'")


def _sample_scenario(model, t_h, num_mc, rng):
    """Arrival batches of num_mc scenarios, each for the candidate step plus
    t_h base-policy steps.

    Batch i of a scenario holds (id, pickup, dropoff) tuples that appear i+1
    steps after the planning step; ids are negative and scenario-local, so
    they never collide with real request ids. The uniforms are read as num_mc
    sequential draws would consume them: per scenario t_h+1 arrival counts,
    then one uniform per request for its pickup, then one per request for its
    dropoff. They come in blocks sized from the mean arrival count, and a
    scenario that runs past the end extends the block; PCG64 spends one output
    per double, so the blocks hold exactly the draws of one longer call.
    """
    steps = t_h + 1
    eta = model._eta_sampler
    chunk = num_mc * steps * (1 + 2 * math.ceil(model.e_eta))
    us = rng.random(chunk).tolist()
    layout, pick_us, drop_us = [], [], []
    at = 0
    for _ in range(num_mc):
        per_step = [eta.values[bisect_right(eta.bounds, u)] for u in us[at:at + steps]]
        total = sum(per_step)
        at += steps
        while len(us) < at + 2 * total + steps:  # these requests, the next counts
            us += rng.random(chunk).tolist()
        pick_us += us[at:at + total]
        drop_us += us[at + total:at + 2 * total]
        at += 2 * total
        layout.append(per_step)
    pickups = model._pickup_sampler.values_at(np.array(pick_us))
    dropoffs = model._dropoffs_at(pickups, np.array(drop_us)).tolist()
    pickups = pickups.tolist()
    scenarios = []
    first = 0
    for per_step in layout:
        total = sum(per_step)
        reqs = list(zip(range(-1, -total - 1, -1), pickups[first:first + total],
                        dropoffs[first:first + total]))
        first += total
        batches = []
        at = 0
        for c in per_step:
            batches.append(reqs[at:at + c])
            at += c
        scenarios.append(batches)
    return scenarios


def _lookahead_cost(state, joint, batches, graph, base_fn, t_h, inbound=()):
    """Stage-cost sum of one scenario trajectory (generic base policy).

    Immediate cost, then t_h base-policy stage costs, then the terminal
    outstanding count. `inbound` lists (arrival clock, node) pairs of taxis
    scheduled to enter this state's region; each becomes a free taxi in the
    simulated trajectory when its clock comes up.
    """
    def arrivals(i, clock):
        return [Request(rid, pu, do, clock + 1) for rid, pu, do in batches[i]]

    cost = len(state.outstanding)
    cur = transition(state, joint, arrivals(0, state.clock), graph)
    cost += len(cur.outstanding)
    for i in range(1, t_h + 1):
        for when, node in inbound:
            if when == cur.clock:
                cur = FleetState(cur.locations + [node], cur.timers + [0],
                                 cur.outstanding, cur.in_service, cur.clock)
        ctrl, _ = base_fn(cur, graph)
        cur = transition(cur, ctrl, arrivals(i, cur.clock), graph)
        cost += len(cur.outstanding)
    return cost


def _ia_ra_lookahead_cost(state, joint, batches, graph, t_h, inbound=()):
    """Same trajectory cost as _lookahead_cost with the IA-RA base policy,
    simulated in place on flat lists. This is the planner's hot loop: no state
    copies, no per-step control objects. Requests are (id, pickup, dropoff)
    tuples, each step's matching comes from _match_step, and a taxi is
    occupied exactly while it has an entry in `drops`."""
    dist = graph._dist
    dist_array = graph.dist_array
    nxt = graph._next
    locs = list(state.locations)
    timers = list(state.timers)
    drops = {l: dropoff for l, (_, dropoff) in state.in_service.items()}
    outstanding = {rid: (rid, r.pickup, r.dropoff) for rid, r in state.outstanding.items()}
    cost = len(outstanding)

    for l, act in enumerate(joint):
        if timers[l] > 0:
            locs[l] = nxt[locs[l]][drops[l]]
            timers[l] -= 1
            if timers[l] == 0:
                del drops[l]
        elif act[0] == MOVE:
            locs[l] = act[1]
        elif act[0] == PICKUP:
            _, pickup, dropoff = outstanding.pop(act[1])
            trip = dist[pickup][dropoff]
            if trip > 0:
                timers[l] = trip
                drops[l] = dropoff
    for req in batches[0]:
        outstanding[req[0]] = req
    clock = state.clock + 1
    cost += len(outstanding)

    # A single pair stays the matching while its taxi only moves one hop
    # toward the pickup: its distance falls by one, any other pair's by at
    # most one, so it stays the nearest and still wins its ties.
    keep = False
    for i in range(1, t_h + 1):
        for when, node in inbound:
            if when == clock:
                locs.append(node)
                timers.append(0)
                keep = False
        if not keep:
            pairs = ()
            if outstanding:
                free = [l for l in range(len(locs)) if timers[l] == 0]
                if free:
                    pairs = _match_step(free, sorted(outstanding.values()),
                                        locs, dist, dist_array)
                    keep = len(pairs) == 1
        for l in list(drops):  # taxis occupied at the start of the step
            locs[l] = nxt[locs[l]][drops[l]]
            timers[l] -= 1
            if timers[l] == 0:
                del drops[l]
                keep = False
        for l, (rid, pickup, dropoff) in pairs:
            if locs[l] == pickup:
                del outstanding[rid]
                keep = False
                trip = dist[pickup][dropoff]
                if trip > 0:
                    timers[l] = trip
                    drops[l] = dropoff
            else:
                locs[l] = nxt[locs[l]][pickup]
        if batches[i]:
            keep = False
            for req in batches[i]:
                outstanding[req[0]] = req
        clock += 1
        cost += len(outstanding)
    return cost


# Lookahead matchings with at most this many cost cells are built as nested
# lists from the distance rows, larger ones by indexing the distance array:
# below it the list build is the cheaper, above it the array build.
_LIST_BUILD_MAX_CELLS = 16


def _match_step(free, reqs, locs, dist, dist_array):
    """IA-RA (taxi, request) pairs of one lookahead step, matched as the IA-RA
    policy matches them: requests by id, the smaller side as rows, solved by
    auction_match. One taxi or one request is paired without a solve with
    its nearest counterpart, the lowest index on ties, as
    linear_sum_assignment pairs a single row."""
    if len(free) == 1:
        drow = dist[locs[free[0]]]
        return [(free[0], min(reqs, key=lambda r: drow[r[1]]))]
    if len(reqs) == 1:
        pickup = reqs[0][1]
        return [(min(free, key=lambda l: dist[locs[l]][pickup]), reqs[0])]
    taxis_are_rows = len(free) <= len(reqs)
    if len(free) * len(reqs) <= _LIST_BUILD_MAX_CELLS:
        taxi_rows = [dist[locs[l]] for l in free]
        if taxis_are_rows:
            cost = [[drow[r[1]] for r in reqs] for drow in taxi_rows]
        else:
            cost = [[drow[r[1]] for drow in taxi_rows] for r in reqs]
    else:
        at = np.array([locs[l] for l in free])
        cost = dist_array[at[:, None], np.array([r[1] for r in reqs])]
        if not taxis_are_rows:
            cost = cost.T
    cols = auction_match(cost)
    if taxis_are_rows:
        return [(free[a], reqs[b]) for a, b in enumerate(cols)]
    return [(free[b], reqs[a]) for a, b in enumerate(cols)]


def _trajectory_cost(state, joint, batches, graph, base_policy, t_h, inbound=()):
    if base_policy == "ia-ra":
        return _ia_ra_lookahead_cost(state, joint, batches, graph, t_h, inbound)
    return _lookahead_cost(state, joint, batches, graph,
                           BASE_CONTROLS[base_policy], t_h, inbound)


def _candidate_actions(state, graph, taxi, claimed, allowed_nodes=None):
    """Candidate control set for a free taxi, in tie-break order: pickups of
    co-located requests (ascending id), stay, then neighbors ascending.

    Requests already claimed by earlier taxis are not offered; moves leaving
    `allowed_nodes` (when given) are excluded."""
    loc = state.locations[taxi]
    cands = []
    for rid in sorted(state.outstanding):
        req = state.outstanding[rid]
        if req.pickup == loc and rid not in claimed:
            cands.append((PICKUP, rid))
    cands.append((STAY,))
    for nb in graph.adj[loc]:
        if allowed_nodes is None or nb in allowed_nodes:
            cands.append((MOVE, nb))
    return cands


def _compose_joint(chosen, candidate, taxi, base_joint, claimed):
    """Joint control: frozen rollout choices, the candidate, base controls
    after, with later duplicate pickups demoted to stay."""
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


def one_at_a_time_control(state, graph, model, cfg: RolloutConfig, seed: int,
                          allowed_nodes=None, inbound=(), taxi_keys=None):
    """Joint control from m sequential per-taxi lookahead minimizations.

    Occupied taxis contribute their single forced control without simulation.
    `taxi_keys` supplies the seed-keying identity of each taxi (global ids when
    planning a sector sub-state) and `allowed_nodes`/`inbound` restrict moves
    and announce scheduled future taxi arrivals for sector-local planning.
    """
    m = state.m
    if taxi_keys is None:
        taxi_keys = list(range(m))
    base_fn = BASE_CONTROLS[cfg.base_policy]
    base_joint, _ = base_fn(state, graph)
    chosen = [None] * m
    claimed = set()
    for l in range(m):
        if state.timers[l] > 0:
            chosen[l] = forced_hop_action(state, graph, l)
            continue
        cands = _candidate_actions(state, graph, l, claimed, allowed_nodes)
        if len(cands) == 1:
            chosen[l] = cands[0]
        else:
            rng = substream(seed, NS_LOOKAHEAD, state.clock, taxi_keys[l])
            scenarios = _sample_scenario(model, cfg.t_h, cfg.num_mc, rng)
            best_act, best_cost = None, math.inf
            for cand in cands:
                joint = _compose_joint(chosen, cand, l, base_joint, claimed)
                total = 0
                for batches in scenarios:
                    total += _trajectory_cost(state, joint, batches, graph,
                                              cfg.base_policy, cfg.t_h, inbound)
                avg = total / cfg.num_mc
                if avg < best_cost:
                    best_act, best_cost = cand, avg
            chosen[l] = best_act
        if chosen[l][0] == PICKUP:
            claimed.add(chosen[l][1])
    return chosen


class RolloutPolicy:
    """Global one-at-a-time rollout over the whole map."""

    name = "rollout"

    def __init__(self, graph, model, cfg: RolloutConfig):
        self.graph = graph
        self.model = model
        self.cfg = cfg
        self._seed = None

    def reset(self, seed):
        self._seed = seed

    def control(self, state):
        ctrl = one_at_a_time_control(state, self.graph, self.model, self.cfg, self._seed)
        return ctrl, None
