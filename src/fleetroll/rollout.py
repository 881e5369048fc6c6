"""One-at-a-time multiagent rollout: per-taxi one-step lookahead minimization
with a Monte-Carlo base policy cost-to-go approximation truncated after t_h
steps plus a terminal outstanding-count cost.

Taxis are processed in ascending id order. While taxi l is minimized, taxis
before l are frozen at their already-chosen rollout controls and taxis after l
follow the base policy's joint control for the current state. A base pickup
of a request that an earlier taxi has already taken leaves the later taxi
where it stands. Each planning call gets one seed-derived stream, keyed by
the clock and the call's lowest taxi key, from which all of its scenarios
are drawn up front: num_mc for each of its F free taxis. The draw reads the
stream as an episode reads its own, every step's arrival count first, then a
pickup and a dropoff uniform per request. The j-th free taxi scores every
candidate on the j-th block of num_mc, so candidates of one taxi share
common random numbers, no two taxis share a scenario, and results never
depend on evaluation order or parallelism.

A sector planner passes its region. The region confines candidate moves to
its nodes and selects the lookahead's requests: each scenario keeps only the
requests picked up in the region, because the rest of the map's demand is
served by other sectors. The uniforms drawn do not depend on the region.

Among candidates of least total cost, a taxi takes its base control when
that is one of them: with a truncated lookahead, ties are where rollout
would otherwise lose on its base policy.

The base policy is IA-RA (`policies.ia_ra_control`). A taxi's candidates are
scored in one call, `_candidate_costs`: it starts each candidate from its
whole joint, applied in index order (`_candidate_step`), and continues per
scenario on flat lists (`_trajectory_cost`): free taxis and outstanding
requests, the state's own and the scenarios', all (id, pickup, dropoff)
tuples, are kept sorted as events change them, and an occupied taxi is only
looked at again when its trip ends. Matchings are IA-RA's, solved by
linear_sum_assignment (`auction_match`) on a cost block gathered from the
distance table, and skipped only where the answer is certain: a matching
with a single taxi or request, and a last step in which no free taxi stands
on an outstanding pickup. The tests check this path against
`sim.transition`.

A taxi's stay and move candidates start from states that differ only in
where that taxi stands, so they are scored as one trajectory per scenario
until the taxi could be matched. In its column of each matching it gets its
least distance over the candidates' locations to each of the block's
pickups, so each candidate's own block only raises entries of that column.
The rule that makes this exact is one of linear_sum_assignment (Crouse's
shortest augmenting path, IEEE TAES 2016): a column that the solve leaves
unassigned lies on no augmenting path and keeps its dual, so raising any of
its entries changes no row's column. While the shared solve leaves the taxi
unassigned, it is therefore every candidate's matching, and the taxi stays
put. Where the taxi is a row (free taxis <= requests) or the shared solve
assigns it, each candidate continues alone from that step.
tests/test_matching.py checks the rule against the installed scipy.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from . import policies
from .demand import sample_arrivals
from .errors import FleetrollError
from .matching import auction_match
from .sim import MOVE, PICKUP, STAY, NS_LOOKAHEAD, substream


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


def _sample_scenario(model, t_h, num_mc, rng, region=None):
    """Arrival batches of num_mc scenarios, as a list of num_mc lists of t_h+1
    batches: the candidate step, then t_h base policy steps.

    Batch i of a scenario holds (id, pickup, dropoff) tuples that appear i+1
    steps after the planning step; ids are negative and scenario-local, so
    they never collide with real request ids. The stream is read as an
    episode reads its draws: `sample_arrivals` for the t_h+1 steps of every
    scenario, then two uniforms per request, split as `sample_request` splits
    them, one for its pickup, then one for its dropoff.

    `region`, a boolean array indexed by node, keeps only the requests whose
    pickup it marks, in draw order and numbered -1, -2, ... again; the others
    are dropped before their dropoffs are looked up. The uniforms drawn do not
    depend on it.
    """
    counts = sample_arrivals(model, rng, num_mc * (t_h + 1))
    us = rng.random(2 * counts.sum())
    pick_us, drop_us = us[0::2], us[1::2]
    if region is not None:
        keep = region[model._pickup_sampler.at(pick_us)]
        slot = np.repeat(np.arange(len(counts)), counts)  # each request's (scenario, step)
        counts = np.bincount(slot[keep], minlength=len(counts))
        pick_us, drop_us = pick_us[keep], drop_us[keep]
    pickups, dropoffs = (a.tolist() for a in model.requests_at(pick_us, drop_us))
    scenarios = []
    first = 0
    for per_step in counts.reshape(num_mc, t_h + 1).tolist():
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


def _candidate_costs(state, joint, l, cands, scenarios, graph, t_h, inbound=()):
    """Trajectory cost of each of free taxi l's candidates (pickups first,
    as _candidate_actions orders them), summed over the scenarios, while
    every other taxi k takes joint[k].

    Immediate cost, then t_h IA-RA stage costs, then the terminal outstanding
    count, per scenario. `inbound` lists (arrival clock, node) pairs of taxis
    scheduled to enter this state's region; each becomes a free taxi when its
    clock comes up. Each pickup's start is the joint with that pickup as l's
    control, applied by _candidate_step. The stay and move candidates differ
    only in where l stands, so they share the start of the first of them and
    run as one group until l could be matched (see _trajectory_cost).
    """
    arriving = {}
    for when, node in inbound:
        if 0 < when - state.clock <= t_h:
            arriving.setdefault(when - state.clock, []).append(node)
    nodes = [state.locations[l] if act[0] == STAY else act[1] for act in cands if act[0] != PICKUP]
    starts = [(act, None) for act in cands if act[0] == PICKUP]
    if nodes:
        starts.append((cands[len(starts)], (l, nodes) if nodes[1:] else None))
    totals = []
    for act, group in starts:
        locs, free, reqs, released = _candidate_step(
            state, [*joint[:l], act, *joint[l + 1:]], graph, t_h, arriving.get(1, ()))
        costs = [_trajectory_cost((locs, free, batches[0][::-1] + reqs, released,
                                   len(state.outstanding) + len(reqs) + len(batches[0])),
                                  1, batches, graph, t_h, arriving, group)
                 for batches in scenarios]
        totals += map(sum, zip(*costs))  # each member's total over the scenarios
    return totals


def _candidate_step(state, joint, graph, t_h, inbound):
    """The lookahead's start after the candidate step: taxi locations, free
    taxis (ascending, the nodes `inbound` at step 1 among them), outstanding
    requests (ascending id) and the taxis released per later step.

    The joint is applied in index order, so a pickup of a request that an
    earlier taxi took is a stay. A taxi on a trip, riding or picking up now,
    is put on its dropoff with the steps of its trip left after this one: it
    is free at 0, else released in that step if it comes before t_h.
    """
    dist = graph._dist
    locs = [*state.locations, *inbound]
    free = []
    outstanding = dict(state.outstanding)
    released = {}  # step -> taxis whose trip ends in that step
    for k, act in enumerate(joint):
        dropoff = state.dropoffs[k]
        if dropoff:
            left = dist[locs[k]][dropoff] - 1  # after this step's hop
        elif act[0] == PICKUP and (req := outstanding.pop(act[1], None)):
            _, pickup, dropoff = req
            left = dist[pickup][dropoff]
        else:
            if act[0] == MOVE:
                locs[k] = act[1]
            free.append(k)
            continue
        locs[k] = dropoff
        if left == 0:
            free.append(k)
        elif left < t_h:
            released[left] = released.get(left, ()) + (k,)
    free += range(state.m, len(locs))
    return locs, free, sorted(outstanding.values()), released


def _trajectory_cost(start, first, batches, graph, t_h, arriving, group=None):
    """Stage-cost sums of one IA-RA scenario trajectory from step `first` on.

    `start` is the state as step `first` begins, before its matching: taxi
    locations, free taxis (ascending), outstanding (id, pickup, dropoff)
    requests (ascending id), the taxis released per later step and the cost
    of the steps before. `arriving` maps a later step to the inbound taxis
    that join as free ones then. Scenario ids are negative and fall from
    batch to batch, below every real id, so each new batch goes in front,
    reversed. Each step matches as IA-RA does, by _match_step. In the last
    step only pickups change the count, and only a free taxi on an
    outstanding pickup can make one, so it solves only then; ties can still
    decide whether it does.

    `group`, (l, xs), makes this one trajectory for several members that
    differ only in the node xs[g] where free taxi l stands. In each matching
    l's distance to a pickup is its least over xs (see _match_step). While
    the shared matching leaves l unmatched, it is every member's matching,
    so l stays put and the members share events and cost. From a step where
    l could be matched, each member continues alone; the last step solves if
    any member's l stands on a pickup. Returns the members' costs in the
    order of xs, or the one cost of a trajectory without a group, as a list.
    """
    dist = graph._dist
    dist_array = graph.dist_array
    nxt = graph._next
    shared, xs = group or (None, [0])  # a lone trajectory: one member, on no node
    locs, free, reqs, released, cost = start
    locs = list(locs)
    free = list(free)
    reqs = list(reqs)
    released = dict(released)
    for i in range(first, t_h + 1):
        pairs = ()
        if reqs and free and (i < t_h or not {r[1] for r in reqs}.isdisjoint(
                [locs[l] for l in free] + xs)):
            pairs = _match_step(free, reqs, locs, dist, dist_array, group)
            if pairs is None:
                break
        if i in released:
            for l in released[i]:
                insort(free, l)
        for l, req in pairs:
            pickup = req[1]
            if locs[l] == pickup:
                reqs.remove(req)
                trip = dist[pickup][req[2]]
                if trip > 0:
                    free.remove(l)
                    locs[l] = req[2]
                    if i + trip < t_h:
                        released[i + trip] = released.get(i + trip, ()) + (l,)
            else:
                locs[l] = nxt[locs[l]][pickup]
        if batches[i]:
            reqs[:0] = batches[i][::-1]
        cost += len(reqs)
        for node in arriving.get(i + 1, ()):
            free.append(len(locs))
            locs.append(node)
    else:
        return [cost] * len(xs)
    costs = []
    for x in xs:
        locs[shared] = x
        costs += _trajectory_cost((locs, free, reqs, released, cost), i, batches, graph,
                                  t_h, arriving)
    return costs


def _match_step(free, reqs, locs, dist, dist_array, group=None):
    """IA-RA (taxi, request) pairs of one lookahead step, matched as the IA-RA
    policy matches them: requests by id, the smaller side as rows, solved by
    auction_match on the block gathered from `dist_array`. One taxi or one
    request is paired without a solve with its nearest counterpart, the
    first minimum of its distances, as linear_sum_assignment pairs a single
    row.

    `group`, (l, xs), makes free taxi l a group's taxi (see _trajectory_cost):
    its line holds its least distance over the nodes xs at each pickup. While
    l is a column left unassigned, these pairs are every member's (the module
    docstring gives the rule). Where l is a row (free taxis <= requests) or is
    assigned, None is returned instead.
    """
    shared, xs = group or (None, ())
    if shared is not None and len(free) <= len(reqs):
        return None
    if len(free) == 1:
        drow = dist[locs[free[0]]]
        near = [drow[r[1]] for r in reqs]
        return [(free[0], reqs[near.index(min(near))])]
    if len(reqs) == 1:
        pickup = reqs[0][1]
        near = [dist[locs[l]][pickup] for l in free]
        if shared is not None:
            near[free.index(shared)] = min(dist[x][pickup] for x in xs)
        nearest = free[near.index(min(near))]
        return None if nearest == shared else [(nearest, reqs[0])]
    pickups = [r[1] for r in reqs]
    cost = dist_array.take([locs[l] for l in free], 0).take(pickups, 1)
    if shared is not None:
        cost[free.index(shared)] = dist_array.take(xs, 0).take(pickups, 1).min(0)
    if len(free) <= len(reqs):
        return [(free[a], reqs[b]) for a, b in enumerate(auction_match(cost))]
    cols = auction_match(cost.T)
    if shared is not None and free.index(shared) in cols:
        return None
    return [(free[b], reqs[a]) for a, b in enumerate(cols)]


def _candidate_actions(state, graph, taxi, claimed, region=None):
    """Candidate control set for a free taxi, in tie-break order: pickups of
    co-located requests (ascending id), stay, then neighbors ascending.

    Requests already claimed by earlier taxis are not offered; moves to nodes
    that `region` (when given) does not mark are excluded."""
    loc = state.locations[taxi]
    cands = sorted((PICKUP, rid) for rid, pickup, _ in state.outstanding.values()
                   if pickup == loc and rid not in claimed)
    cands.append((STAY,))
    for nb in graph.adj[loc]:
        if region is None or region[nb]:
            cands.append((MOVE, nb))
    return cands


def one_at_a_time_control(state, graph, model, cfg: RolloutConfig, seed: int,
                          region=None, inbound=(), taxi_keys=None):
    """Joint control from m sequential per-taxi lookahead minimizations.

    Occupied taxis contribute their single forced control, the base joint's
    hop, without simulation. Free taxi l scores its candidates in one
    `_candidate_costs` call against the controls chosen before l and the base
    joint's after l, and takes its base control when that is among its
    candidates of least total cost, else the first of them. The call draws its
    scenarios once, on a stream keyed by the clock and its lowest taxi key:
    num_mc for each of its F free taxis, and the j-th free taxi in index order
    scores every candidate on block j. `taxi_keys` supplies the seed-keying
    identity of each taxi (global ids when planning a sector sub-state), so a
    single sector holding every taxi reads global rollout's stream; `inbound`
    announces scheduled future taxi arrivals for sector-local planning.
    `region`, a boolean array indexed by node, confines candidate moves to the
    nodes it marks and selects the lookahead's requests: each scenario keeps
    only the requests picked up in the region.
    """
    key = min(taxi_keys or (0,))  # global rollout keys its taxis 0..m-1
    base_joint = policies.ia_ra_control(state, graph)
    num_mc = cfg.num_mc
    draw = None
    chosen = list(base_joint)  # the choices before l, the base controls from l on
    claimed = set()
    j = 0  # free taxis before l: l scores on block j of the draw
    for l in range(state.m):
        if state.dropoffs[l]:
            continue
        cands = _candidate_actions(state, graph, l, claimed, region)
        if len(cands) == 1:
            chosen[l] = cands[0]
        else:
            if draw is None:
                rng = substream(seed, NS_LOOKAHEAD, state.clock, key)
                draw = _sample_scenario(model, cfg.t_h, state.dropoffs.count(0) * num_mc,
                                        rng, region)
            totals = _candidate_costs(state, chosen, l, cands, draw[j * num_mc:(j + 1) * num_mc],
                                      graph, cfg.t_h, inbound)
            low = min(totals)
            least = [c for c, t in zip(cands, totals) if t == low]
            chosen[l] = base_joint[l] if base_joint[l] in least else least[0]
        j += 1
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
        return one_at_a_time_control(state, self.graph, self.model, self.cfg, self._seed)
