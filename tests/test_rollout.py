import itertools

import numpy as np

from fleetroll.demand import (DemandModel, Request, estimate_from_trips, generate_trips,
                             synthetic_model)
from fleetroll.graph import grid_graph
from fleetroll.matching import auction_match
from fleetroll.rollout import (RolloutConfig, RolloutPolicy, _candidate_actions,
                               _candidate_costs, _compose_joint, _match_step,
                               _sample_scenario, one_at_a_time_control)
from fleetroll.policies import ia_ra_control, match_free_to_requests
from fleetroll.sim import (MOVE, PICKUP, STAY, FleetState, run_episode, substream)
from conftest import line_graph, ring_graph
from oracles import (LookaheadEstimate, evaluate_candidate, lookahead_cost,
                     per_pickup_dropoffs, rollout_policy_cost)


def zero_model():
    return DemandModel({0: 1.0}, {1: 1.0}, {1: {1: 1.0}})


def make_state(locs, outstanding=None, timers=None, in_service=None, clock=1):
    m = len(locs)
    return FleetState(list(locs), list(timers or [0] * m),
                      dict(outstanding or {}), dict(in_service or {}), clock)


def test_moves_toward_adjacent_request():
    g = line_graph(3)
    s = make_state([1], outstanding={1: Request(1, 2, 3, 1)})
    cfg = RolloutConfig(t_h=1, num_mc=1)
    ctrl = one_at_a_time_control(s, g, zero_model(), cfg, seed=0)
    assert ctrl == [(MOVE, 2)]


def test_all_occupied_forced_hops_no_simulation():
    g = line_graph(4)
    s = make_state([1, 4], timers=[2, 1], in_service={0: (1, 3), 1: (2, 3)})
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
    s = make_state([2], outstanding={1: Request(1, 2, 3, 1)})
    cfg = RolloutConfig(t_h=2, num_mc=1)
    ctrl = one_at_a_time_control(s, g, zero_model(), cfg, seed=0)
    assert ctrl == [(PICKUP, 1)]


def test_lookahead_hand_rolled_line():
    # 4-node line, taxi at 1, request at 3 (two hops), zero future demand.
    # With t_h = 2, moving toward beats moving away / staying: the trajectory
    # cost is the number of steps the request stays outstanding.
    g = line_graph(4)
    r = Request(1, 3, 4, 1)
    s = make_state([2], outstanding={1: r})
    joints = [[(MOVE, 3)], [(MOVE, 1)], [(STAY,)]]
    # toward: outstanding counts 1 (now), 1 (at 3), 0 (picked), 0 -> total 2
    # away:   1, 1, 1, 1 -> 4;  stay: 1, 1, 1 (arrives), 0 -> 3
    assert _candidate_costs(s, joints, [[[], [], []]], g, 2) == [2, 4, 3]
    # two identical scenarios: each candidate's cost twice
    assert _candidate_costs(s, joints, [[[], [], []]] * 2, g, 2) == [4, 8, 6]


def generic_costs(state, joints, scenarios, graph, t_h, inbound):
    """Per (candidate, scenario) cost on the validated sim.transition path."""
    return [[lookahead_cost(state, joint, batches, graph, t_h, inbound)
             for batches in scenarios] for joint in joints]


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
        timers = [0] * m
        in_service = {}
        outstanding = {}
        for i in range(int(rng.integers(*n_req))):
            outstanding[i + 1] = Request(i + 1, int(rng.integers(1, g.n + 1)),
                                         int(rng.integers(1, g.n + 1)), 1)
        for l in range(m):
            if rng.random() < p_busy:
                drop = int(rng.integers(1, g.n + 1))
                if drop != locs[l]:
                    timers[l] = g.distance(locs[l], drop)
                    in_service[l] = (100 + l, drop)
        inbound = tuple((int(rng.integers(1, t_h + 3)), int(rng.integers(1, g.n + 1)))
                        for _ in range(int(rng.integers(0, 4))))
        s = FleetState(locs, timers, outstanding, in_service, 1)
        base_joint, _ = ia_ra_control(s, g)
        free = [l for l in range(m) if timers[l] == 0]
        joints = [base_joint]
        if free:
            l = free[int(rng.integers(len(free)))]
            claimed = {a[1] for a in base_joint[:l] if a[0] == PICKUP}
            joints = [_compose_joint(base_joint, cand, l, base_joint, claimed)
                      for cand in _candidate_actions(s, g, l, claimed)]
        scenarios = _sample_scenario(model, t_h, int(rng.integers(1, 5)), substream(3, trial))
        want = generic_costs(s, joints, scenarios, g, t_h, inbound)
        assert (_candidate_costs(s, joints, scenarios, g, t_h, inbound)
                == [sum(costs) for costs in want])
        for k, batches in enumerate(scenarios):
            assert (_candidate_costs(s, joints, [batches], g, t_h, inbound)
                    == [costs[k] for costs in want])


def test_last_step_pickups_follow_the_tied_matching():
    # Line 1-2-3-4: taxi 1 sits on request 1's pickup (node 2), taxi 0 one hop
    # away at node 1, request 2 at node 3. Pairing taxi 1 with request 1 and
    # the crossed pairing both cost 2; linear_sum_assignment takes the crossed
    # one, so the last step of this t_h = 1 lookahead makes no pickup although
    # a free taxi stands on an outstanding pickup.
    g = line_graph(4)
    s = make_state([1, 2], outstanding={1: Request(1, 2, 4, 1), 2: Request(2, 3, 4, 1)})
    assert auction_match([[1, 2], [0, 1]]) == [0, 1]
    joints = [[(STAY,), (STAY,)], [(MOVE, 2), (STAY,)], [(STAY,), (PICKUP, 1)],
              [(STAY,), (MOVE, 3)]]
    scenarios = [[[], []], [[(-1, 2, 1)], [(-2, 3, 1)]]]
    got = _candidate_costs(s, joints, scenarios, g, 1)
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
    # Every branch of the lookahead's matcher (one row, small list-built,
    # array-built) against the IA-RA policy's matching, with many ties.
    rng = np.random.default_rng(31)
    for g in (grid5, ring_graph(12)):
        for trial in range(600):
            n_free, n_req = (int(x) for x in rng.integers(1, 9, size=2))
            nodes = rng.integers(1, g.n + 1, size=int(rng.integers(1, 4)))
            free, reqs, locs = random_step(rng, g, n_free, n_req, nodes)
            pairs = _match_step(free, reqs, locs, g._dist, g.dist_array)
            want = match_free_to_requests(
                g, [(l, locs[l]) for l in free],
                [Request(rid, pu, do, 1) for rid, pu, do in reqs])
            assert {l: r[0] for l, r in pairs} == {l: r.id for l, r in want.items()}


def test_single_pair_survives_one_hop_toward_its_pickup(grid5):
    # The lookahead keeps a one-taxi or one-request matching while its taxi
    # moves one hop toward the pickup and nothing else changes.
    rng = np.random.default_rng(32)
    checked = 0
    for g in (grid5, ring_graph(12)):
        for trial in range(1500):
            n_other = int(rng.integers(1, 6))
            n_free, n_req = (1, n_other) if trial % 2 else (n_other, 1)
            nodes = rng.integers(1, g.n + 1, size=int(rng.integers(2, 6)))
            free, reqs, locs = random_step(rng, g, n_free, n_req, nodes)
            pairs = _match_step(free, reqs, locs, g._dist, g.dist_array)
            [(l, r)] = pairs
            if locs[l] == r[1]:
                continue
            locs[l] = g.next_hop(locs[l], r[1])
            assert _match_step(free, reqs, locs, g._dist, g.dist_array) == pairs
            checked += 1
    assert checked > 2000


def sequential_scenarios(model, t_h, num_mc, rng):
    """Reference: num_mc scenarios drawn one request at a time. Each scenario
    draws t_h+1 arrival counts, then every pickup, then every dropoff."""
    out = []
    for _ in range(num_mc):
        counts = [model._eta_sampler.draw(rng) for _ in range(t_h + 1)]
        pickups = [model._pickup_sampler.draw(rng) for _ in range(sum(counts))]
        dropoffs = [model._dropoff_sampler(p).draw(rng) for p in pickups]
        reqs = [(-(i + 1), p, d) for i, (p, d) in enumerate(zip(pickups, dropoffs))]
        batches = []
        for c in counts:
            batches.append(reqs[:c])
            reqs = reqs[c:]
        out.append(batches)
    return out


def test_batched_scenarios_reproduce_sequential_draws(grid5):
    synthetic = synthetic_model(grid5, 1.7, hotspot=7, hotspot_mass=0.3)
    from_log = estimate_from_trips(generate_trips(synthetic, horizon=300, seed=8), grid5)
    assert len(from_log._dropoff_group_samplers) > 1  # distinct conditionals
    # Uniforms come in blocks sized from the mean count. A burst of 30 trips
    # in one of 5 minutes overruns a block; counts of 0 or 2 (mean 1) often
    # end a scenario right at a block's end, before the next one's counts.
    bursty = estimate_from_trips([(1, 1 + i % 5, 1 + 3 * i % 25) for i in range(30)],
                                 grid5, horizon=5)
    even = estimate_from_trips([(1, 2, 9), (1, 7, 3)], grid5, horizon=2)
    assert bursty.eta_pmf == {0: 0.8, 30: 0.2} and even.eta_pmf == {0: 0.5, 2: 0.5}
    cases = [(1, 1), (4, 4), (5, 10), (10, 50)]
    for model in (synthetic, from_log, bursty, even, zero_model()):
        more = [(5, 10)] * 60 if model in (bursty, even) else []
        for trial, (t_h, num_mc) in enumerate(cases + more):
            got = _sample_scenario(model, t_h, num_mc, substream(21, trial))
            want = sequential_scenarios(model, t_h, num_mc, substream(21, trial))
            assert got == want


def test_batched_dropoffs_equal_per_pickup_sampler_draws(grid5):
    # Trip-log models keep one conditional pmf per pickup node; the batched
    # dropoff lookup must give each pickup its own sampler's draw, also at
    # uniforms that sit exactly on a CDF bound.
    synthetic = synthetic_model(grid5, 1.7, hotspot=7, hotspot_mass=0.3)
    from_log = estimate_from_trips(generate_trips(synthetic, horizon=300, seed=8), grid5)
    bursty = estimate_from_trips([(1, 1 + i % 5, 1 + 3 * i % 25) for i in range(30)],
                                 grid5, horizon=5)
    assert len(from_log._dropoff_group_samplers) == 25
    rng = np.random.default_rng(41)
    for model in (from_log, bursty, synthetic):
        support = np.array(sorted(model.pickup_pmf))
        pickups = rng.choice(support, size=3000)
        us = rng.random(3000)
        on_bounds = [(u, b) for u in support.tolist()
                     for b in model._dropoff_sampler(u).bounds[:-1]]
        assert 0 < len(on_bounds) < 3000
        pickups[:len(on_bounds)], us[:len(on_bounds)] = zip(*on_bounds)
        assert np.array_equal(model._dropoffs_at(pickups, us),
                              per_pickup_dropoffs(model, pickups, us))


def test_scenarios_zero_variance_on_deterministic_model():
    g = line_graph(4)
    s = make_state([2], outstanding={1: Request(1, 4, 1, 1)})
    cfg = RolloutConfig(t_h=3, num_mc=6)
    est = evaluate_candidate(s, [(MOVE, 3)], g, zero_model(), cfg, substream(0, 0))
    assert isinstance(est, LookaheadEstimate)
    assert len(est.scenario_costs) == 6
    assert len(set(est.scenario_costs)) == 1
    assert est.mean == est.scenario_costs[0]
    scenarios = _sample_scenario(zero_model(), 3, 6, substream(0, 0))
    assert _candidate_costs(s, [[(MOVE, 3)]], scenarios, g, 3) == [
        sum(est.scenario_costs)]


def test_control_determinism_across_calls(grid5):
    model = synthetic_model(grid5, 0.6)
    cfg = RolloutConfig(t_h=4, num_mc=5)
    s = make_state([1, 13, 25],
                   outstanding={1: Request(1, 7, 20, 1), 2: Request(2, 18, 3, 1)})
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
                   outstanding={1: Request(1, 5, 21, 1), 2: Request(2, 22, 2, 1)})

    def disagreement(num_mc):
        cfg = RolloutConfig(t_h=4, num_mc=num_mc)
        diffs = 0
        for pair in range(12):
            a = one_at_a_time_control(s, grid5, model, cfg, seed=1000 + pair)
            b = one_at_a_time_control(s, grid5, model, cfg, seed=5000 + pair)
            diffs += a != b
        return diffs

    assert disagreement(60) <= disagreement(1)
