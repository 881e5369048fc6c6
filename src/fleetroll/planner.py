"""Two-phase planning policy: a high-level cross-sector rebalancer feeding
per-sector one-at-a-time rollout planners.

Each step the high level matches every free, non-transiting taxi against the
outstanding requests plus a certainty-equivalence batch of expected future
requests. Cross-sector matches put the taxi "in transit": it walks the
shortest path to the boundary entry point of the destination sector and is
invisible to the sector planners until it arrives, when it rejoins as an
ordinary local taxi. Sector planners run the rollout on their sub-state only,
with moves confined to the sector and scheduled inbound taxis announced as
deterministic future arrivals. With a single sector the whole construction
reduces exactly to global rollout.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .demand import certainty_equivalence_requests
from .partition import get_partitions
from .policies import match_free_to_requests
from .rollout import RolloutConfig, one_at_a_time_control
from .sim import MOVE, NS_CE, FleetState, substream


@dataclass(frozen=True)
class TransitRoute:
    dest: int            # boundary entry node in the destination sector
    path: tuple          # node sequence from the assignment location to dest
    start_clock: int

    @property
    def arrive_clock(self) -> int:
        return self.start_clock + len(self.path) - 1


@dataclass
class HighLevelPlan:
    transit: dict = field(default_factory=dict)  # taxi id -> TransitRoute


def high_level_plan(state, graph, pspec, model, t_h, prev: HighLevelPlan, seed) -> HighLevelPlan:
    """Re-balance taxis across sectors against current plus expected demand.

    Previously scheduled transits persist until arrival. Free taxis are
    min-cost matched to the pooled real and certainty-equivalence requests by
    the dispatch matcher, as IA-RA matches them; only cross-sector matches
    generate transit routes (same-sector matches are left to the sector
    planner), and the route targets the boundary entry point, not the
    matched request, which may be a phantom.
    """
    transit = {}
    for taxi, route in prev.transit.items():
        if state.locations[taxi] != route.dest:
            transit[taxi] = route

    free = [(l, state.locations[l]) for l in range(state.m)
            if state.timers[l] == 0 and l not in transit]
    ce_rng = substream(seed, NS_CE, state.clock)
    pool = [state.outstanding[rid] for rid in sorted(state.outstanding)]
    pool += certainty_equivalence_requests(model, state.clock, t_h, ce_rng)
    matched = match_free_to_requests(graph, free, pool)
    for taxi in sorted(matched):
        pickup = matched[taxi].pickup
        loc = state.locations[taxi]
        if pspec.sector_of(loc) == pspec.sector_of(pickup):
            continue
        dest = pspec.entry_point(graph, loc, pickup)
        transit[taxi] = TransitRoute(dest=dest, path=tuple(graph.shortest_path(loc, dest)),
                                     start_clock=state.clock)
    return HighLevelPlan(transit)


def split_state(state, pspec, exclude):
    """Sector sub-states: local taxis (ascending global id) and the requests
    whose pickup lies in the sector. Returns {sector: (sub-state, global ids)}."""
    by_sector = {}
    for l in range(state.m):
        if l in exclude:
            continue
        k = pspec.sector_of(state.locations[l])
        by_sector.setdefault(k, []).append(l)
    out = {}
    for k, ids in by_sector.items():
        outstanding = {rid: req for rid, req in state.outstanding.items()
                       if pspec.sector_of(req.pickup) == k}
        sub = FleetState(
            [state.locations[l] for l in ids],
            [state.timers[l] for l in ids],
            outstanding,
            {i: state.in_service[l] for i, l in enumerate(ids) if l in state.in_service},
            state.clock,
        )
        out[k] = (sub, ids)
    return out


def low_level_plan(substate, inbound, graph, model, cfg: RolloutConfig, seed,
                   taxi_keys, sector_nodes):
    """Sector-local one-at-a-time rollout.

    Candidate moves leaving the sector are excluded; `inbound` announces
    scheduled transit arrivals as future free taxis for the lookahead.
    """
    return one_at_a_time_control(substate, graph, model, cfg, seed,
                                 allowed_nodes=sector_nodes, inbound=inbound,
                                 taxi_keys=taxi_keys)


def two_phase_control(state, graph, model, pspec, cfg: RolloutConfig,
                      plan: HighLevelPlan, seed, sector_timing=None):
    """One planning step: high-level rebalance, then all sector planners, then
    merge sector controls with the transit taxis' scheduled hops.

    When `sector_timing` is a list, one (t, sector, plan_ms) row is appended
    per sector planner call.
    """
    plan = high_level_plan(state, graph, pspec, model, cfg.t_h, plan, seed)

    actions = [None] * state.m
    for taxi, route in plan.transit.items():
        idx = state.clock - route.start_clock
        actions[taxi] = (MOVE, route.path[idx + 1])

    subs = split_state(state, pspec, exclude=plan.transit)
    inbound_of = {
        k: tuple(sorted((r.arrive_clock, r.dest) for r in plan.transit.values()
                        if pspec.sector_of(r.dest) == k))
        for k in subs
    }

    for k in sorted(subs):
        sub, ids = subs[k]
        t0 = time.perf_counter()
        ctrl = low_level_plan(sub, inbound_of[k], graph, model, cfg, seed,
                              taxi_keys=ids, sector_nodes=pspec.node_sets[k])
        if sector_timing is not None:
            sector_timing.append((state.clock, k, (time.perf_counter() - t0) * 1000.0))
        for act, gid in zip(ctrl, ids):
            assert actions[gid] is None, f"taxi {gid} received two controls"
            actions[gid] = act
    assert all(a is not None for a in actions)
    return actions, plan


class TwoPhasePolicy:
    """Two-phase planner as an episode policy.

    Partitioning runs once (it is deterministic per graph/model/K) and the
    transit plan is carried across steps within an episode.
    """

    name = "two-phase"

    def __init__(self, graph, model, m: int, m_lim: int, cfg: RolloutConfig):
        self.K = math.ceil(m / m_lim)
        self.pspec = get_partitions(graph, model, self.K)
        self.graph = graph
        self.model = model
        self.cfg = cfg
        self.reset(None)

    def reset(self, seed):
        self._seed = seed
        self.plan = HighLevelPlan()
        self.sector_timing = []

    def control(self, state):
        ctrl, self.plan = two_phase_control(state, self.graph, self.model,
                                            self.pspec, self.cfg, self.plan,
                                            self._seed, sector_timing=self.sector_timing)
        return ctrl, None
