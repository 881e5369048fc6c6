"""One-at-a-time multiagent rollout: per-taxi one-step lookahead minimization
with a Monte-Carlo, base-policy cost-to-go approximation truncated after t_h
steps plus a terminal outstanding-count cost.

Taxis are processed in ascending id order. While taxi l is minimized, taxis
before l are frozen at their already-chosen rollout controls and taxis after l
follow the base policy's joint control for the current state. Each (step,
taxi) pair gets its own seed-derived stream from which all of its scenarios
are drawn up front, so candidates of one taxi share common random numbers and
results never depend on evaluation order or parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass
class LookaheadEstimate:
    mean: float
    scenario_costs: list = field(default_factory=list)


def _sample_scenario(model, clock, t_h, rng):
    """Arrival batches for the candidate step plus t_h base-policy steps.

    Batch i carries requests stamped to appear at clock+1+i; ids are negative
    and scenario-local, so they never collide with real request ids. Draws are
    batched per scenario to keep the planning loop lean.
    """
    counts = model._eta_sampler.draw_many(rng, t_h + 1)
    total = sum(counts)
    if total == 0:
        return [[] for _ in range(t_h + 1)]
    pickups = model._pickup_sampler.draw_many(rng, total)
    us = rng.random(total)
    batches = []
    idx = 0
    for i, c in enumerate(counts):
        batch = []
        for _ in range(c):
            pu = pickups[idx]
            do = model._dropoff_sampler(pu).value_at(us[idx])
            batch.append(Request(id=-(idx + 1), pickup=pu, dropoff=do,
                                 arrival_time=clock + 1 + i))
            idx += 1
        batches.append(batch)
    return batches


def _lookahead_cost(state, joint, batches, graph, base_fn, t_h, inbound=()):
    """Stage-cost sum of one scenario trajectory (generic base policy).

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
                cur = FleetState(cur.locations + [node], cur.timers + [0],
                                 cur.outstanding, cur.in_service, cur.clock)
        ctrl, _ = base_fn(cur, graph)
        cur = transition(cur, ctrl, batches[i], graph)
        cost += len(cur.outstanding)
    return cost


def _ia_ra_lookahead_cost(state, joint, batches, graph, t_h, inbound=()):
    """Same trajectory cost as _lookahead_cost with the IA-RA base policy,
    simulated in place on flat lists. This is the planner's hot loop: no state
    copies, no per-step control objects."""
    dist = graph._dist
    nxt = graph._next
    locs = list(state.locations)
    timers = list(state.timers)
    drops = {l: dropoff for l, (_, dropoff) in state.in_service.items()}
    outstanding = dict(state.outstanding)
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
            req = outstanding.pop(act[1])
            trip = dist[req.pickup][req.dropoff]
            if trip > 0:
                timers[l] = trip
                drops[l] = req.dropoff
    for req in batches[0]:
        outstanding[req.id] = req
    clock = state.clock + 1
    cost += len(outstanding)

    for i in range(1, t_h + 1):
        if inbound:
            for when, node in inbound:
                if when == clock:
                    locs.append(node)
                    timers.append(0)
        matched = {}
        if outstanding:
            free = [l for l in range(len(locs)) if timers[l] == 0]
            if free:
                reqs = [outstanding[rid] for rid in sorted(outstanding)]
                eps = 1.0 / (min(len(free), len(reqs)) + 1)
                if len(free) <= len(reqs):
                    rows = [[dist[locs[l]][r.pickup] for r in reqs] for l in free]
                    for a, b in enumerate(auction_match(rows, eps)):
                        matched[free[a]] = reqs[b]
                else:
                    rows = [[dist[locs[l]][r.pickup] for l in free] for r in reqs]
                    for a, b in enumerate(auction_match(rows, eps)):
                        matched[free[b]] = reqs[a]
        for l in range(len(locs)):
            if timers[l] > 0:
                locs[l] = nxt[locs[l]][drops[l]]
                timers[l] -= 1
                if timers[l] == 0:
                    del drops[l]
            elif l in matched:
                req = matched[l]
                if locs[l] == req.pickup:
                    del outstanding[req.id]
                    trip = dist[req.pickup][req.dropoff]
                    if trip > 0:
                        timers[l] = trip
                        drops[l] = req.dropoff
                else:
                    locs[l] = nxt[locs[l]][req.pickup]
        for req in batches[i]:
            outstanding[req.id] = req
        clock += 1
        cost += len(outstanding)
    return cost


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
            scenarios = [_sample_scenario(model, state.clock, cfg.t_h, rng)
                         for _ in range(cfg.num_mc)]
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


def evaluate_candidate(state, joint_control, graph, model, cfg: RolloutConfig,
                       rng, inbound=()) -> LookaheadEstimate:
    """Monte-Carlo lookahead estimate of one joint control's cost."""
    costs = []
    for _ in range(cfg.num_mc):
        batches = _sample_scenario(model, state.clock, cfg.t_h, rng)
        costs.append(_trajectory_cost(state, joint_control, batches, graph,
                                      cfg.base_policy, cfg.t_h, inbound))
    return LookaheadEstimate(sum(costs) / len(costs), costs)


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


def rollout_policy_cost(graph, model, m, T, cfg: RolloutConfig, seeds):
    """Mean and standard error of episode cost over the given seeds."""
    from .sim import run_episode

    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed required")
    costs = []
    for s in seeds:
        policy = RolloutPolicy(graph, model, cfg)
        costs.append(run_episode(graph, model, policy, m, T, s).cost)
    mean = sum(costs) / len(costs)
    if len(costs) > 1:
        var = sum((c - mean) ** 2 for c in costs) / (len(costs) - 1)
        stderr = math.sqrt(var / len(costs))
    else:
        stderr = 0.0
    return mean, stderr, costs
