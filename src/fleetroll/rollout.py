"""One-at-a-time multiagent rollout: per-taxi one-step lookahead minimization
with a Monte-Carlo base policy cost-to-go approximation truncated after t_h
steps plus a terminal outstanding-count cost.

Taxis are processed in ascending id order. While taxi l is minimized, taxis
before l are frozen at their already-chosen rollout controls and taxis after l
follow the base policy's joint control for the current state. Each (step,
taxi) pair gets its own seed-derived stream from which all of its scenarios
are drawn up front in one vectorized call, so candidates of one taxi share
common random numbers and results never depend on evaluation order or
parallelism.

The base policy is IA-RA (`policies.ia_ra_control`). A taxi's candidates are
scored in one call, `_candidate_costs`, which simulates each candidate step
once and continues it per scenario on flat lists (`_trajectory_cost`): free
taxis and outstanding (id, pickup, dropoff) requests are kept sorted as
events change them, and an occupied taxi is only looked at again when its
trip ends. Matchings are IA-RA's, solved by linear_sum_assignment
(`auction_match`) and skipped only where the answer is certain without a
solve: a matching with a single row, that matching again while its taxi just
moves one hop closer, and a last step in which no free taxi stands on an
outstanding pickup. The tests check this path against `sim.transition`.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from . import policies
from .errors import FleetrollError
from .matching import auction_match
from .sim import MOVE, PICKUP, STAY, NS_LOOKAHEAD, forced_hop_action, substream


class RolloutError(FleetrollError):
    pass


@dataclass
class RolloutConfig:
    t_h: int = 10
    num_mc: int = 50
    base_policy: str = "ia-ra"  # the only base policy; kept for callers that name it

    def __post_init__(self):
        if self.t_h < 1 or self.num_mc < 1:
            raise RolloutError("t_h and num_mc must be >= 1")
        if self.base_policy != "ia-ra":
            raise RolloutError(f"unknown base policy '{self.base_policy}' (only 'ia-ra')")


def _sample_scenario(model, t_h, num_mc, rng):
    """Arrival batches of num_mc scenarios, each for the candidate step plus
    t_h base policy steps.

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


def _candidate_costs(state, joints, scenarios, graph, t_h, inbound=()):
    """Trajectory cost of each candidate joint, summed over the scenarios.

    Immediate cost, then t_h IA-RA stage costs, then the terminal
    outstanding count, per scenario. `inbound` lists (arrival clock, node)
    pairs of taxis scheduled to enter this state's region; each becomes a
    free taxi when its clock comes up. The candidate step, which no scenario
    changes, is simulated once per candidate and _trajectory_cost continues
    it per scenario. Occupied taxis need no per-step work there: each is put
    where its trip ends (for a taxi in service in `state`, where its
    remaining hops lead) and rejoins the free taxis in the step its timer
    runs out; one that is not free before the last matching is never looked
    at again.
    """
    dist = graph._dist
    nxt = graph._next
    arriving = {}
    for when, node in inbound:
        if 0 < when - state.clock <= t_h:
            arriving.setdefault(when - state.clock, []).append(node)
    locs = list(state.locations)
    released = {}  # step -> taxis whose trip ends in that step
    for l, (_, dropoff) in state.in_service.items():
        timer = state.timers[l]
        if timer <= t_h:
            for _ in range(timer):
                locs[l] = nxt[locs[l]][dropoff]
            if timer > 1:
                released[timer - 1] = released.get(timer - 1, ()) + (l,)
    outstanding = [(rid, r.pickup, r.dropoff) for rid, r in sorted(state.outstanding.items())]

    totals = []
    for joint in joints:
        after_locs = list(locs)
        free = []
        reqs = list(outstanding)
        after_released = dict(released)
        for l, act in enumerate(joint):
            if state.timers[l] > 0:
                if state.timers[l] == 1:
                    free.append(l)
            elif act[0] == PICKUP:
                req = next(r for r in reqs if r[0] == act[1])
                reqs.remove(req)
                trip = dist[req[1]][req[2]]
                if trip == 0:
                    free.append(l)
                else:
                    after_locs[l] = req[2]
                    if trip < t_h:
                        after_released[trip] = after_released.get(trip, ()) + (l,)
            else:
                if act[0] == MOVE:
                    after_locs[l] = act[1]
                free.append(l)
        start = (after_locs, free, reqs, after_released, len(state.outstanding))
        totals.append(sum(_trajectory_cost(start, batches, graph, t_h, arriving)
                          for batches in scenarios))
    return totals


def _trajectory_cost(start, batches, graph, t_h, arriving):
    """Stage-cost sum of one IA-RA scenario trajectory after a candidate step.

    `start` is the state after the candidate step: taxi locations, free taxis
    (ascending), outstanding (id, pickup, dropoff) requests (ascending id),
    the taxis released per later step and the cost before the candidate step.
    `arriving` maps a step to the inbound taxis that join as free ones then.
    Scenario ids are negative and fall from batch to batch, below every real
    id, so each new batch goes in front, reversed. Each step matches as IA-RA
    does, by _match_step; the last step only counts its pickups.
    """
    dist = graph._dist
    dist_array = graph.dist_array
    nxt = graph._next
    locs, free, reqs, released, cost = start
    locs = list(locs)
    free = list(free)
    reqs = batches[0][::-1] + reqs
    released = dict(released)
    cost += len(reqs)

    # A single pair stays the matching while its taxi only moves one hop
    # toward the pickup: its distance falls by one, any other pair's by at
    # most one, so it stays the nearest and still wins its ties.
    keep = False
    pairs = ()
    for i in range(1, t_h):
        if i in arriving:
            for node in arriving[i]:
                free.append(len(locs))
                locs.append(node)
            keep = False
        if not keep:
            pairs = ()
            if reqs and free:
                pairs = _match_step(free, reqs, locs, dist, dist_array)
                keep = len(pairs) == 1
        if i in released:
            for l in released[i]:
                insort(free, l)
            keep = False
        for l, req in pairs:
            pickup = req[1]
            if locs[l] == pickup:
                reqs.remove(req)
                keep = False
                trip = dist[pickup][req[2]]
                if trip > 0:
                    free.remove(l)
                    locs[l] = req[2]
                    if i + trip < t_h:
                        released[i + trip] = released.get(i + trip, ()) + (l,)
            else:
                locs[l] = nxt[locs[l]][pickup]
        if batches[i]:
            keep = False
            reqs[:0] = batches[i][::-1]
        cost += len(reqs)

    # Last step: only pickups change the count, and only a free taxi on an
    # outstanding pickup can make one. Ties can still decide whether it does,
    # so the matching is solved (or kept) as in any other step.
    for node in arriving.get(t_h, ()):
        free.append(len(locs))
        locs.append(node)
        keep = False
    if not keep:
        pairs = ()
        if reqs and free:
            pickups = {r[1] for r in reqs}
            if any(locs[l] in pickups for l in free):
                pairs = _match_step(free, reqs, locs, dist, dist_array)
    picked = sum(1 for l, req in pairs if locs[l] == req[1])
    return cost + len(reqs) - picked + len(batches[t_h])


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
        pickups = np.array([r[1] for r in reqs])
        if taxis_are_rows:
            cost = dist_array[at[:, None], pickups]
        else:
            cost = dist_array[at, pickups[:, None]]
    cols = auction_match(cost)
    if taxis_are_rows:
        return [(free[a], reqs[b]) for a, b in enumerate(cols)]
    return [(free[b], reqs[a]) for a, b in enumerate(cols)]


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
    base_joint, _ = policies.ia_ra_control(state, graph)
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
            joints = [_compose_joint(chosen, cand, l, base_joint, claimed)
                      for cand in cands]
            totals = _candidate_costs(state, joints, scenarios, graph, cfg.t_h, inbound)
            best_act, best_cost = None, math.inf
            for cand, total in zip(cands, totals):
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
