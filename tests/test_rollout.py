import itertools
import random

import numpy as np

from fleetroll.demand import (DemandModel, estimate_from_trips, generate_trips,
                             synthetic_model)
from fleetroll import rollout
from fleetroll.graph import grid_graph
from fleetroll.matching import auction_match
from fleetroll.rollout import (RolloutConfig, RolloutPolicy, _candidate_actions,
                               _candidate_costs, _match_step, _sample_scenario,
                               one_at_a_time_control)
from fleetroll.policies import ia_ra_control, match_free_to_requests
from fleetroll.sim import (MOVE, PICKUP, STAY, FleetState, run_episode, substream)
from conftest import line_graph, random_fleet_state, random_strong_digraph, ring_graph
from oracles import (LookaheadEstimate, ScalarDemand, compose_joint, evaluate_candidate,
                     grouped_match_step_reference, lookahead_cost, per_pickup_dropoffs,
                     rollout_control_reference, rollout_policy_cost, scalar_arrivals,
                     scalar_requests, taxi_scenarios)


def zero_model():
    return DemandModel({0: 1.0}, {1: 1.0}, {1: {1: 1.0}})


def make_state(locs, outstanding=None, dropoffs=None, clock=1):
    return FleetState(list(locs), list(dropoffs or [0] * len(locs)), dict(outstanding or {}),
                      clock)


def test_moves_toward_adjacent_request():
    g = line_graph(3)
    s = make_state([1], outstanding={1: (1, 2, 3)})
    cfg = RolloutConfig(t_h=1, num_mc=1)
    ctrl = one_at_a_time_control(s, g, zero_model(), cfg, seed=0)
    assert ctrl == [(MOVE, 2)]


def test_all_occupied_forced_hops_no_simulation():
    g = line_graph(4)
    s = make_state([1, 4], dropoffs=[3, 3])
    cfg = RolloutConfig(t_h=3, num_mc=2)
    ctrl = one_at_a_time_control(s, g, zero_model(), cfg, seed=0)
    assert ctrl == [("hop", 2), ("hop", 3)]


def test_zero_demand_idle_fleet_stays():
    g = line_graph(4)
    s = make_state([2, 3])
    cfg = RolloutConfig(t_h=4, num_mc=3)
    ctrl = one_at_a_time_control(s, g, zero_model(), cfg, seed=5)
    assert ctrl == [(STAY,), (STAY,)]  # all candidates tie; stay precedes moves


def test_colocated_pickup_chosen():
    g = line_graph(3)
    s = make_state([2], outstanding={1: (1, 2, 3)})
    cfg = RolloutConfig(t_h=2, num_mc=1)
    ctrl = one_at_a_time_control(s, g, zero_model(), cfg, seed=0)
    assert ctrl == [(PICKUP, 1)]


def test_lookahead_hand_rolled_line():
    # 4-node line, taxi at 1, request at 3 (two hops), zero future demand.
    # With t_h = 2, moving toward beats moving away / staying: the trajectory
    # cost is the number of steps the request stays outstanding.
    g = line_graph(4)
    r = (1, 3, 4)
    s = make_state([2], outstanding={1: r})
    cands = [(MOVE, 3), (MOVE, 1), (STAY,)]
    # toward: outstanding counts 1 (now), 1 (at 3), 0 (picked), 0 -> total 2
    # away:   1, 1, 1, 1 -> 4;  stay: 1, 1, 1 (arrives), 0 -> 3
    assert _candidate_costs(s, [(STAY,)], 0, cands, [[[], [], []]], g, 2) == [2, 4, 3]
    # two identical scenarios: each candidate's cost twice
    assert _candidate_costs(s, [(STAY,)], 0, cands, [[[], [], []]] * 2, g, 2) == [4, 8, 6]


def generic_costs(state, joints, scenarios, graph, t_h, inbound):
    """Per (candidate, scenario) cost on the validated sim.transition path."""
    return [[lookahead_cost(state, joint, batches, graph, t_h, inbound)
             for batches in scenarios] for joint in joints]


def per_candidate_costs(state, joint, l, cands, scenarios, graph, t_h, inbound=()):
    """Each candidate scored alone: no group, every trajectory its own."""
    return [_candidate_costs(state, joint, l, [cand], scenarios, graph, t_h, inbound)[0]
            for cand in cands]


def candidate_joints(state, graph, l):
    """The base joint, free taxi l's candidates against it and each
    candidate's composed joint."""
    base_joint = ia_ra_control(state, graph)
    claimed = {a[1] for a in base_joint[:l] if a[0] == PICKUP}
    cands = _candidate_actions(state, graph, l, claimed)
    return base_joint, cands, [compose_joint(base_joint, cand, l, base_joint, claimed)
                               for cand in cands]


def test_fast_path_matches_generic_path(grid5):
    grid8 = grid_graph(8)
    rng = np.random.default_rng(77)
    # Small fleets on 5x5; fleets and request pools above 10 on 8x8, so the
    # fast path also builds its larger matchings by array indexing; then a
    # one-way ring, where taxi-to-pickup and pickup-to-taxi distances differ.
    # Every call scores all candidates of one free taxi over 1-4 scenarios,
    # at t_h 1..6, with inbound taxis due before, within and after the horizon.
    ring = ring_graph(12)
    small = (grid5, synthetic_model(grid5, 0.8), (1, 6), (0, 5), 0.3)
    large = (grid8, synthetic_model(grid8, 6.0), (14, 25), (14, 30), 0.1)
    one_way = (ring, synthetic_model(ring, 1.0), (1, 8), (0, 8), 0.2)
    for trial in range(280):
        g, model, m_range, n_req, p_busy = (small if trial < 200 else
                                            large if trial < 240 else one_way)
        t_h = 1 + trial % 6
        m = int(rng.integers(*m_range))
        locs = [int(rng.integers(1, g.n + 1)) for _ in range(m)]
        outstanding = {}
        for i in range(int(rng.integers(*n_req))):
            outstanding[i + 1] = (i + 1, int(rng.integers(1, g.n + 1)),
                                  int(rng.integers(1, g.n + 1)))
        dropoffs = [1]
        while 0 not in dropoffs:  # a fleet with no free taxi draws its busy flags again
            dropoffs = [0] * m
            for l in range(m):
                if rng.random() < p_busy:
                    drop = int(rng.integers(1, g.n + 1))
                    if drop != locs[l]:
                        dropoffs[l] = drop
        inbound = tuple((int(rng.integers(1, t_h + 3)), int(rng.integers(1, g.n + 1)))
                        for _ in range(int(rng.integers(0, 4))))
        s = FleetState(locs, dropoffs, outstanding, 1)
        free = [l for l in range(m) if dropoffs[l] == 0]
        l = free[int(rng.integers(len(free)))]
        joint, cands, joints = candidate_joints(s, g, l)
        scenarios = _sample_scenario(model, t_h, int(rng.integers(1, 5)), substream(3, trial))
        want = generic_costs(s, joints, scenarios, g, t_h, inbound)
        assert (_candidate_costs(s, joint, l, cands, scenarios, g, t_h, inbound)
                == [sum(costs) for costs in want])
        for k, batches in enumerate(scenarios):
            assert (_candidate_costs(s, joint, l, cands, [batches], g, t_h, inbound)
                    == [costs[k] for costs in want])


def test_plain_joints_score_as_composed_joints(grid3):
    # Rollout scores l's candidates against one plain joint: the controls
    # chosen before taxi l and the base joint after l, which may repeat a
    # pickup that an earlier taxi or l's candidate took. The candidate step
    # makes such a pickup a stay, as composing each candidate's joint does,
    # so the scores equal the composed joints' scores on the sim.transition
    # path. Taxis before l take random legal controls, as earlier rollout
    # choices would.
    rnd = random.Random(20)
    # Small graphs, so that taxis often share a node and repeat pickups.
    graphs = [grid3, ring_graph(5), random_strong_digraph(random.Random(5), 6)]
    repeated = 0
    for trial in range(600):
        g = graphs[trial % 3]
        t_h = 1 + trial % 4
        s = random_fleet_state(rnd, g, rnd.randint(2, 8), rnd.randint(1, 6), colocated=0.6)
        free = [l for l in range(s.m) if s.dropoffs[l] == 0]
        if not free:
            continue
        l = rnd.choice(free)
        base_joint = ia_ra_control(s, g)
        chosen = list(base_joint)
        claimed = set()
        for i in range(l):
            if s.dropoffs[i] == 0:
                chosen[i] = rnd.choice(_candidate_actions(s, g, i, claimed))
            if chosen[i][0] == PICKUP:
                claimed.add(chosen[i][1])
        cands = _candidate_actions(s, g, l, claimed)
        plain = [chosen[:l] + [cand] + base_joint[l + 1:] for cand in cands]
        composed = [compose_joint(chosen, cand, l, base_joint, claimed) for cand in cands]
        repeated += sum(p != c for p, c in zip(plain, composed))
        inbound = tuple((s.clock + rnd.randint(1, t_h + 1), rnd.randint(1, g.n))
                        for _ in range(rnd.randint(0, 2)))
        scenarios = _sample_scenario(synthetic_model(g, 1.0), t_h, rnd.randint(1, 3),
                                     substream(6, trial))
        got = _candidate_costs(s, chosen, l, cands, scenarios, g, t_h, inbound)
        assert got == [sum(costs) for costs in
                       generic_costs(s, composed, scenarios, g, t_h, inbound)]
    assert repeated > 30


def test_a_base_pickup_that_repeats_the_candidate_pickup_is_a_stay():
    # Line 1-2-3-4, both taxis on node 2 with requests 1 and 2 picked up
    # there: IA-RA gives taxi 0 request 1 and taxi 1 request 2. Taxi 0's
    # candidate "pick up 2" is scored against the joint in which taxi 1's
    # base control picks up 2 as well; that taxi stays and takes request 1
    # in the next step. Request 2's trip is shorter than t_h = 2 (its taxi is
    # released within the lookahead), of zero length (both taxis are free at
    # once) or t_h long (never released before the horizon).
    g = line_graph(4)
    quiet = [[[], [], []]]
    # 2 outstanding now, then per step: pickup 1: 0, 0, 0 (both picked up);
    # pickup 2 or stay: 1, 0, 0; either move: 1, 1, 0 while taxi 1 is busy,
    # 1, 0, 0 when it is free on node 2 after a zero-length trip.
    cases = [(4, 3, [2, 3, 3, 4, 4]), (4, 2, [2, 3, 3, 3, 3]), (3, 4, [2, 3, 3, 4, 4])]
    for drop_1, drop_2, want in cases:
        s = make_state([2, 2], outstanding={1: (1, 2, drop_1),
                                            2: (2, 2, drop_2)})
        base_joint = ia_ra_control(s, g)
        assert base_joint == [(PICKUP, 1), (PICKUP, 2)]
        cands = _candidate_actions(s, g, 0, set())
        assert cands == [(PICKUP, 1), (PICKUP, 2), (STAY,), (MOVE, 1), (MOVE, 3)]
        composed = [compose_joint(base_joint, cand, 0, base_joint, set()) for cand in cands]
        assert composed[1] == [(PICKUP, 2), (STAY,)]
        assert _candidate_costs(s, base_joint, 0, cands, quiet, g, 2) == want
        assert [sum(c) for c in generic_costs(s, composed, quiet, g, 2, ())] == want
        cfg = RolloutConfig(t_h=2, num_mc=1)
        assert one_at_a_time_control(s, g, zero_model(), cfg, seed=0) == base_joint


def test_grouped_stay_and_move_scores_equal_per_candidate_and_generic_scores(
        grid3, monkeypatch):
    # A free taxi's stay and move candidates share one trajectory per scenario
    # until that taxi could be matched. Their grouped scores must equal each
    # candidate scored alone and the sim.transition path, on small graphs
    # with many ties, busy and inbound taxis.
    calls = {"shared": 0, "mid": 0, "last": 0}
    trajectory = rollout._trajectory_cost

    def counted(start, first, batches, graph, t_h, arriving, group=None):
        if group is not None:
            calls["shared"] += 1
        elif 1 < first < t_h:
            calls["mid"] += 1
        elif 1 < first == t_h:
            calls["last"] += 1
        return trajectory(start, first, batches, graph, t_h, arriving, group)

    monkeypatch.setattr(rollout, "_trajectory_cost", counted)

    def check(s, g, l, scenarios, t_h, inbound=()):
        joint, cands, joints = candidate_joints(s, g, l)
        want = generic_costs(s, joints, scenarios, g, t_h, inbound)
        got = _candidate_costs(s, joint, l, cands, scenarios, g, t_h, inbound)
        assert got == per_candidate_costs(s, joint, l, cands, scenarios, g, t_h, inbound)
        assert got == [sum(costs) for costs in want]
        return got

    line = line_graph(8)
    quiet = [[[]] * 4]
    # l (taxi 0, at 8) is farther from the only request than taxi 1: it is
    # never matched, so every member shares the whole trajectory.
    s = make_state([8, 2], outstanding={1: (1, 1, 5)})
    before = dict(calls)
    assert check(s, line, 0, quiet, 3) == [2, 2]  # stay, move 7
    assert calls["shared"] == before["shared"] + 1 and calls["mid"] == before["mid"]
    # l is the only free taxi, a row of every matching: the group splits at once.
    s = make_state([4], outstanding={1: (1, 1, 8), 2: (2, 7, 1)})
    check(s, line, 0, quiet, 3)
    # Two free taxis, two requests: l is a row though another taxi is nearer.
    s = make_state([5, 2], outstanding={1: (1, 1, 8), 2: (2, 3, 8)})
    check(s, line, 0, quiet, 3)
    # Last step (t_h = 1): only l, staying, stands on a pickup; taxi 1 stands
    # on none, so only the stay's node makes the shared step solve. l is a row
    # there, so each member continues alone.
    s = make_state([3, 8], outstanding={1: (1, 3, 5), 2: (2, 6, 5)})
    # Pickup, stay, move 2, move 4: the stay's last step picks up, no move's does.
    assert check(s, line, 0, [[[], []]], 1) == [4, 5, 6, 6]
    # Last step of a shared trajectory (t_h = 2): l (taxi 0, at 8) is never the
    # nearest to request 1, which taxi 1 heads for; a request then arrives on
    # node 7, where l's move stands in step 2. Taxi 2 makes l a column there,
    # which the shared solve assigns, so each member continues alone. Taxi 1
    # stands on request 1's pickup in step 2 only when it starts at 2.
    batches = [[], [(-1, 7, 1)], [(-2, 1, 5)]]
    for start_1, want in ((1, [7, 6]), (2, [6, 5])):  # stay, move 7
        s = make_state([8, start_1, 1], outstanding={1: (1, 4, 5)})
        before = dict(calls)
        assert check(s, line, 0, [batches], 2) == want
        assert calls["shared"] == before["shared"] + 1
        assert calls["last"] == before["last"] + 2
    # Inbound taxis join in the first step and during the shared trajectory.
    s = make_state([6, 1], outstanding={1: (1, 2, 8)})
    check(s, line, 0, [[[(-1, 7, 1)], [], [(-2, 4, 2)], []]], 3, inbound=((2, 8), (3, 3)))

    rng = np.random.default_rng(58)
    graphs = [(line, synthetic_model(line, 1.0)), (grid3, synthetic_model(grid3, 1.5)),
              (ring_graph(6), synthetic_model(ring_graph(6), 0.7))]
    for trial in range(900):
        g, model = graphs[trial % 3]
        t_h = 1 + trial % 5
        m = int(rng.integers(1, 6))
        nodes = rng.integers(1, g.n + 1, size=int(rng.integers(1, 4)))  # few nodes: ties
        locs = [int(rng.choice(nodes)) for _ in range(m)]
        dropoffs = [0] * m
        for l in range(1, m):
            if rng.random() < 0.2:
                drop = int(rng.integers(1, g.n + 1))
                if drop != locs[l]:
                    dropoffs[l] = drop
        outstanding = {i: (i, int(rng.choice(nodes)), int(rng.integers(1, g.n + 1)))
                       for i in range(1, int(rng.integers(0, 5)) + 1)}
        inbound = tuple((int(rng.integers(2, t_h + 3)), int(rng.choice(nodes)))
                        for _ in range(int(rng.integers(0, 3))))
        s = FleetState(locs, dropoffs, outstanding, 1)
        scenarios = _sample_scenario(model, t_h, int(rng.integers(1, 4)), substream(4, trial))
        check(s, g, 0, scenarios, t_h, inbound)
    # shared trajectories, and members continuing alone from a middle or the last step
    assert calls["shared"] > 1000 and calls["mid"] > 50 and calls["last"] > 5


def test_last_step_pickups_follow_the_tied_matching():
    # Line 1-2-3-4: taxi 1 sits on request 1's pickup (node 2), taxi 0 one hop
    # away at node 1, request 2 at node 3. Pairing taxi 1 with request 1 and
    # the crossed pairing both cost 2; linear_sum_assignment takes the crossed
    # one, so the last step of this t_h = 1 lookahead makes no pickup although
    # a free taxi stands on an outstanding pickup.
    g = line_graph(4)
    s = make_state([1, 2], outstanding={1: (1, 2, 4), 2: (2, 3, 4)})
    assert auction_match([[1, 2], [0, 1]]) == [0, 1]
    joints = [[(STAY,), (STAY,)], [(MOVE, 2), (STAY,)], [(STAY,), (PICKUP, 1)],
              [(STAY,), (MOVE, 3)]]
    scenarios = [[[], []], [[(-1, 2, 1)], [(-2, 3, 1)]]]
    # taxi 0's candidates while taxi 1 stays, then taxi 1's while taxi 0 stays
    got = (_candidate_costs(s, [(STAY,), (STAY,)], 0, [(STAY,), (MOVE, 2)], scenarios, g, 1)
           + _candidate_costs(s, [(STAY,), (STAY,)], 1, [(PICKUP, 1), (MOVE, 3)],
                              scenarios, g, 1))
    assert got == [sum(costs) for costs in generic_costs(s, joints, scenarios, g, 1, ())]
    assert got[0] == 6 + 8  # 2 + 2 + 2 without arrivals; 2 + 3 + 3 with them


def test_single_row_matching_takes_the_lowest_index_minimum():
    # The lookahead answers one-row matchings without a solver, relying on
    # this rule of linear_sum_assignment: every row over {0, 1, 2}, n <= 7.
    for n in range(1, 8):
        for row in itertools.product(range(3), repeat=n):
            assert auction_match([list(row)]) == [row.index(min(row))]


def random_step(rng, g, n_free, n_req, pickup_nodes):
    locs = [int(rng.integers(1, g.n + 1)) for _ in range(n_free + 2)]
    free = sorted(rng.choice(len(locs), size=n_free, replace=False).tolist())
    reqs = [(-i, int(rng.choice(pickup_nodes)), 1) for i in range(n_req, 0, -1)]
    return free, reqs, locs


def test_lookahead_matching_equals_the_ia_ra_policy(grid5):
    # Both branches of the lookahead's matcher (one row, gathered block)
    # against the IA-RA policy's matching, with many ties.
    rng = np.random.default_rng(31)
    for g in (grid5, ring_graph(12)):
        for trial in range(600):
            n_free, n_req = (int(x) for x in rng.integers(1, 9, size=2))
            nodes = rng.integers(1, g.n + 1, size=int(rng.integers(1, 4)))
            free, reqs, locs = random_step(rng, g, n_free, n_req, nodes)
            pairs = _match_step(free, reqs, locs, g._dist, g.dist_array)
            want = match_free_to_requests(g, [(l, locs[l]) for l in free], reqs)
            assert dict(pairs) == want


def test_grouped_matching_equals_the_whole_map_row_construction(grid5):
    # A group's shared matching, its taxi's line gathered as the least over
    # the members at the block's pickups, against the group taxi standing on
    # node 0 with a least row over every node and a nested-list solve.
    # Directed distances catch a block gathered in the wrong orientation.
    rng = np.random.default_rng(24)
    outcomes = {"pairs": 0, "row": 0, "assigned": 0}
    for g in (grid5, ring_graph(12), random_strong_digraph(random.Random(24), 20)):
        for trial in range(700):
            n_free = int(rng.integers(2, 10))
            n_req = int(rng.integers(1, n_free + 2))
            nodes = rng.integers(1, g.n + 1, size=int(rng.integers(1, 5)))
            free, reqs, locs = random_step(rng, g, n_free, n_req, nodes)
            shared = free[int(rng.integers(n_free))]
            xs = rng.integers(1, g.n + 1, size=int(rng.integers(2, 6))).tolist()
            locs[shared] = xs[0]
            group = (shared, xs)
            pairs = _match_step(free, reqs, locs, g._dist, g.dist_array, group)
            assert pairs == grouped_match_step_reference(free, reqs, locs, g, group)
            outcomes["pairs" if pairs else "row" if n_free <= n_req else "assigned"] += 1
    assert min(outcomes.values()) > 200, outcomes


def test_batched_scenarios_reproduce_sequential_draws(grid5):
    synthetic = synthetic_model(grid5, 1.7, hotspot=7, hotspot_mass=0.3)
    from_log = estimate_from_trips(generate_trips(synthetic, horizon=300, seed=8), grid5)
    assert len(from_log._dropoff_pmfs) > 1  # distinct conditionals
    # A draw reads its stream as an episode does: the counts of every step
    # of every scenario, then a pickup and a dropoff uniform per request,
    # the requests numbered -1, -2, ... again in each scenario. A burst of
    # 30 trips in one of 5 minutes, and counts of 0 or 2, give scenarios of
    # very unequal request totals.
    bursty = estimate_from_trips([(1, 1 + i % 5, 1 + 3 * i % 25) for i in range(30)],
                                 grid5, horizon=5)
    even = estimate_from_trips([(1, 2, 9), (1, 7, 3)], grid5, horizon=2)
    assert bursty.eta_pmf == {0: 0.8, 30: 0.2} and even.eta_pmf == {0: 0.5, 2: 0.5}
    cases = [(1, 1), (4, 4), (5, 10), (10, 50)]
    for model in (synthetic, from_log, bursty, even, zero_model()):
        more = [(5, 10)] * 60 if model in (bursty, even) else []
        for trial, (t_h, num_mc) in enumerate(cases + more):
            got = _sample_scenario(model, t_h, num_mc, substream(21, trial))
            rng = substream(21, trial)
            counts = scalar_arrivals(model, rng, num_mc * (t_h + 1))
            requests = iter(zip(*scalar_requests(model, rng, sum(counts))))
            want = []
            for s in range(0, len(counts), t_h + 1):
                ids = iter(range(-1, -sum(counts) - 1, -1))
                want.append([[(next(ids), *next(requests)) for _ in range(c)]
                             for c in counts[s:s + t_h + 1]])
            assert got == want


def test_region_keeps_the_unfiltered_draws_in_region_requests(grid5):
    # Per scenario and per batch, a region keeps exactly the unfiltered
    # draw's requests picked up in it, in draw order; all nodes keep all.
    synthetic = synthetic_model(grid5, 1.7, hotspot=7, hotspot_mass=0.3)
    from_log = estimate_from_trips(generate_trips(synthetic, horizon=300, seed=8), grid5)
    bursty = estimate_from_trips([(1, 1 + i % 5, 1 + 3 * i % 25) for i in range(30)],
                                 grid5, horizon=5)
    rng = np.random.default_rng(44)
    every = np.ones(grid5.n + 1, dtype=bool)
    dropped = 0
    for model in (synthetic, from_log, bursty, zero_model()):
        for trial, (t_h, num_mc) in enumerate([(1, 1), (3, 4), (5, 10), (10, 30)]):
            want = _sample_scenario(model, t_h, num_mc, substream(22, trial))
            assert _sample_scenario(model, t_h, num_mc, substream(22, trial), every) == want
            for size in (0, 1, 5, 12, 24):
                nodes = rng.choice(np.arange(1, grid5.n + 1), size=size, replace=False)
                region = np.zeros(grid5.n + 1, dtype=bool)
                region[nodes] = True
                got = _sample_scenario(model, t_h, num_mc, substream(22, trial), region)
                assert len(got) == len(want) == num_mc
                for kept, full in zip(got, want):
                    assert len(kept) == len(full) == t_h + 1
                    assert [[(p, d) for _, p, d in b] for b in kept] == [
                        [(p, d) for _, p, d in b if region[p]] for b in full]
                    ids = [rid for batch in kept for rid, _, _ in batch]
                    assert ids == list(range(-1, -len(ids) - 1, -1))
                    dropped += sum(map(len, full)) - len(ids)
    assert dropped > 1000


def test_batched_dropoffs_equal_per_pickup_sampler_draws(grid5):
    # Trip-log models keep one conditional pmf per pickup node; the batched
    # dropoff lookup must give each pickup its own sampler's draw, also at
    # uniforms that sit exactly on a CDF bound.
    synthetic = synthetic_model(grid5, 1.7, hotspot=7, hotspot_mass=0.3)
    from_log = estimate_from_trips(generate_trips(synthetic, horizon=300, seed=8), grid5)
    bursty = estimate_from_trips([(1, 1 + i % 5, 1 + 3 * i % 25) for i in range(30)],
                                 grid5, horizon=5)
    assert len(from_log._dropoff_pmfs) == 25
    rng = np.random.default_rng(41)
    for model in (from_log, bursty, synthetic):
        demand = ScalarDemand(model)
        support = np.array(demand.pickup.values)
        starts = dict(zip(demand.pickup.values, demand.pickup.starts()))
        pickups = rng.choice(support, size=3000)
        us = rng.random(3000)
        on_bounds = [(u, b) for u in support.tolist() for b in demand.dropoff(u).bounds[:-1]]
        assert 0 < len(on_bounds) < 3000
        pickups[:len(on_bounds)], us[:len(on_bounds)] = zip(*on_bounds)
        # each pickup drawn at the uniform where its CDF interval starts
        got_pickups, dropoffs = model.requests_at(
            np.array([starts[p] for p in pickups.tolist()]), us)
        assert np.array_equal(got_pickups, pickups)
        assert np.array_equal(dropoffs, per_pickup_dropoffs(model, pickups, us))


def test_scenarios_zero_variance_on_deterministic_model():
    g = line_graph(4)
    s = make_state([2], outstanding={1: (1, 4, 1)})
    cfg = RolloutConfig(t_h=3, num_mc=6)
    scenarios = taxi_scenarios(s, 0, zero_model(), cfg, seed=0)
    est = evaluate_candidate(s, [(MOVE, 3)], g, scenarios, cfg.t_h)
    assert isinstance(est, LookaheadEstimate)
    assert len(est.scenario_costs) == 6
    assert len(set(est.scenario_costs)) == 1
    assert est.mean == est.scenario_costs[0]
    assert _candidate_costs(s, [(STAY,)], 0, [(MOVE, 3)], scenarios, g, 3) == [
        sum(est.scenario_costs)]


def random_planning_call(rng, g, sector):
    """A fleet state on g, and the region, taxi keys and inbound taxis of a
    sector planner's call when `sector`, else global rollout's (None, None, ())."""
    m = int(rng.integers(1, 7))
    region = None
    nodes = np.arange(1, g.n + 1)
    if sector:
        region = np.zeros(g.n + 1, dtype=bool)
        region[rng.choice(nodes, size=int(rng.integers(g.n // 3, g.n + 1)), replace=False)] = True
        nodes = np.flatnonzero(region)
    locs = [int(rng.choice(nodes)) for _ in range(m)]
    dropoffs = [0] * m
    for l in range(m):
        drop = int(rng.integers(1, g.n + 1))
        if drop != locs[l] and rng.random() < 0.3:
            dropoffs[l] = drop
    outstanding = {i: (i, int(rng.choice(nodes)), int(rng.integers(1, g.n + 1)))
                   for i in range(1, int(rng.integers(0, 5)) + 1)}
    state = FleetState(locs, dropoffs, outstanding, int(rng.integers(1, 30)))
    if not sector:
        return state, None, None, ()
    keys = sorted(rng.choice(40, size=m, replace=False).tolist())
    inbound = tuple((state.clock + int(rng.integers(1, 5)), int(rng.choice(nodes)))
                    for _ in range(int(rng.integers(0, 3))))
    return state, region, keys, inbound


def test_each_free_taxi_scores_every_candidate_on_its_own_block_of_one_draw(grid5,
                                                                            monkeypatch):
    # One _sample_scenario call per planning call, for F * num_mc scenarios on
    # the stream of the clock and the lowest taxi key; the j-th free taxi's
    # candidates all read block j, and no other block: every candidate scores
    # as the sim.transition path does on that block.
    draws, scored = [], []
    real_sample, real_costs = rollout._sample_scenario, rollout._candidate_costs

    class SliceLog:
        """A draw that logs the scenario slices read from it."""

        def __init__(self, draw):
            self.draw, self.spans = draw, []

        def __getitem__(self, span):
            self.spans.append((span.start, span.stop))
            return self.draw[span]

    def recording_sample(model, t_h, num_mc, rng, region=None):
        draws.append((num_mc, region, SliceLog(real_sample(model, t_h, num_mc, rng, region))))
        return draws[-1][2]

    def recording_costs(state, joint, l, cands, scenarios, graph, t_h, inbound=()):
        totals = real_costs(state, joint, l, cands, scenarios, graph, t_h, inbound)
        scored.append((list(joint), l, cands, scenarios, totals))
        return totals

    monkeypatch.setattr(rollout, "_sample_scenario", recording_sample)
    monkeypatch.setattr(rollout, "_candidate_costs", recording_costs)
    model = synthetic_model(grid5, 1.5, hotspot=13, hotspot_mass=0.2)
    rng = np.random.default_rng(12)
    blocks_read = 0
    for trial in range(120):
        cfg = RolloutConfig(t_h=1 + trial % 3, num_mc=1 + trial % 3)
        n = cfg.num_mc
        s, region, keys, inbound = random_planning_call(rng, grid5, sector=trial % 2)
        draws.clear()
        scored.clear()
        one_at_a_time_control(s, grid5, model, cfg, seed=trial, region=region,
                              inbound=inbound, taxi_keys=keys)
        free = [l for l in range(s.m) if s.dropoffs[l] == 0]
        if not scored:
            assert draws == []
            continue
        [(num_mc, drawn_region, log)] = draws
        assert num_mc == len(free) * n and drawn_region is region
        taxis = []
        for joint, l, cands, scenarios, totals in scored:
            taxis.append(l)
            assert scenarios == taxi_scenarios(s, l, model, cfg, trial, region, keys)
            claimed = {a[1] for a in joint[:l] if a[0] == PICKUP}
            assert totals == [sum(evaluate_candidate(
                s, compose_joint(joint, cand, l, joint, claimed), grid5, scenarios,
                cfg.t_h, inbound).scenario_costs) for cand in cands]
            blocks_read += 1
        assert log.spans == [(free.index(l) * n, (free.index(l) + 1) * n) for l in taxis]
        assert len(set(taxis)) == len(taxis)  # disjoint blocks
    assert blocks_read > 150


def test_rollout_control_equals_the_transition_path_reference(grid3):
    # Global and sector planning calls, with inbound taxis, against the
    # reference that scores each composed joint on the sim.transition path.
    rng = np.random.default_rng(5)
    graphs = [(grid3, synthetic_model(grid3, 1.2)),
              (ring_graph(7), synthetic_model(ring_graph(7), 0.8))]
    for trial in range(80):
        g, model = graphs[trial % 2]
        cfg = RolloutConfig(t_h=1 + trial % 3, num_mc=1 + trial % 2)
        s, region, keys, inbound = random_planning_call(rng, g, sector=trial % 4 > 1)
        got = one_at_a_time_control(s, g, model, cfg, seed=trial, region=region,
                                    inbound=inbound, taxi_keys=keys)
        assert got == rollout_control_reference(s, g, model, cfg, trial, region, inbound,
                                                keys), trial


def test_all_candidates_tie_and_the_base_control_is_a_move():
    # Line 1..8: the only request waits at node 8, beyond what the taxi at 2
    # can reach in t_h = 2 steps, so every candidate scores the same. IA-RA
    # moves the taxi toward the request, and rollout does as its base does.
    g = line_graph(8)
    s = make_state([2], outstanding={1: (1, 8, 1)})
    base_joint = ia_ra_control(s, g)
    assert base_joint == [(MOVE, 3)]
    cands = _candidate_actions(s, g, 0, set())
    assert cands == [(STAY,), (MOVE, 1), (MOVE, 3)]
    quiet = [[[], [], []]]
    assert _candidate_costs(s, base_joint, 0, cands, quiet, g, 2) == [4, 4, 4]
    cfg = RolloutConfig(t_h=2, num_mc=3)
    assert one_at_a_time_control(s, g, zero_model(), cfg, seed=0) == [(MOVE, 3)]


def test_a_base_control_among_the_least_totals_is_chosen(monkeypatch):
    # Property: for every scored taxi, the choice is its base control when
    # that is among its least totals, and else the first least total.
    scored = []
    real_costs = rollout._candidate_costs

    def recording_costs(state, joint, l, cands, scenarios, graph, t_h, inbound=()):
        totals = real_costs(state, joint, l, cands, scenarios, graph, t_h, inbound)
        scored.append((l, cands, totals))
        return totals

    monkeypatch.setattr(rollout, "_candidate_costs", recording_costs)
    rnd = random.Random(8)
    graphs = [grid_graph(4), line_graph(6), ring_graph(6)]
    models = [synthetic_model(g, rate) for g, rate in zip(graphs, (0.6, 0.4, 0.5))]
    base_won = 0
    for trial in range(300):
        g, model = graphs[trial % 3], models[trial % 3]
        s = random_fleet_state(rnd, g, rnd.randint(1, 5), rnd.randint(0, 4), colocated=0.4)
        cfg = RolloutConfig(t_h=rnd.randint(1, 3), num_mc=rnd.randint(1, 3))
        scored.clear()
        chosen = one_at_a_time_control(s, g, model, cfg, seed=trial)
        base_joint = ia_ra_control(s, g)
        for l, cands, totals in scored:
            least = [cand for cand, t in zip(cands, totals) if t == min(totals)]
            if base_joint[l] in least:
                assert chosen[l] == base_joint[l]
                base_won += base_joint[l] != least[0]
            else:
                assert chosen[l] == least[0]
    assert base_won > 20


def test_control_determinism_across_calls(grid5):
    model = synthetic_model(grid5, 0.6)
    cfg = RolloutConfig(t_h=4, num_mc=5)
    s = make_state([1, 13, 25],
                   outstanding={1: (1, 7, 20), 2: (2, 18, 3)})
    a = one_at_a_time_control(s, grid5, model, cfg, seed=123)
    b = one_at_a_time_control(s, grid5, model, cfg, seed=123)
    assert a == b


def test_rollout_episode_determinism(grid5):
    model = synthetic_model(grid5, 0.5)
    cfg = RolloutConfig(t_h=3, num_mc=3)
    a = run_episode(grid5, model, RolloutPolicy(grid5, model, cfg), 2, 30, 9)
    b = run_episode(grid5, model, RolloutPolicy(grid5, model, cfg), 2, 30, 9)
    assert a.controls == b.controls and a.cost == b.cost


def test_rollout_policy_cost_zero_demand(grid5):
    cfg = RolloutConfig(t_h=2, num_mc=1)
    model = synthetic_model(grid5, 0.0)
    mean, stderr, costs = rollout_policy_cost(grid5, model, 2, 20, cfg, seeds=[1, 2, 3])
    assert mean == 0 and stderr == 0 and costs == [0, 0, 0]


def test_rollout_improves_on_base_small(grid5, model5_light):
    # 12-seed paired mini-version of the acceptance run
    from fleetroll.policies import IARAPolicy

    cfg = RolloutConfig(t_h=5, num_mc=10)
    deltas = []
    for seed in range(12):
        r = run_episode(grid5, model5_light, RolloutPolicy(grid5, model5_light, cfg),
                        3, 40, seed).cost
        b = run_episode(grid5, model5_light, IARAPolicy(grid5), 3, 40, seed).cost
        deltas.append(r - b)
    assert sum(deltas) / len(deltas) <= 0


def test_candidate_agreement_rate_rises_with_num_mc(grid5):
    # chosen-control disagreement between independent seed pairs shrinks as
    # the Monte-Carlo count grows
    model = synthetic_model(grid5, 0.8)
    s = make_state([7, 19],
                   outstanding={1: (1, 5, 21), 2: (2, 22, 2)})

    def disagreement(num_mc):
        cfg = RolloutConfig(t_h=4, num_mc=num_mc)
        diffs = 0
        for pair in range(12):
            a = one_at_a_time_control(s, grid5, model, cfg, seed=1000 + pair)
            b = one_at_a_time_control(s, grid5, model, cfg, seed=5000 + pair)
            diffs += a != b
        return diffs

    assert disagreement(60) <= disagreement(1)
