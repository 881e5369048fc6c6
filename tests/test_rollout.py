import numpy as np

from fleetroll.demand import DemandModel, Request, synthetic_model
from fleetroll.graph import grid_graph
from fleetroll.rollout import (LookaheadEstimate, RolloutConfig, RolloutPolicy,
                               _ia_ra_lookahead_cost, _lookahead_cost,
                               _sample_scenario, evaluate_candidate,
                               one_at_a_time_control, rollout_policy_cost)
from fleetroll.policies import ia_ra_control
from fleetroll.sim import (MOVE, PICKUP, STAY, FleetState, run_episode, substream)
from conftest import line_graph


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
    batches = [[], [], []]
    toward = _ia_ra_lookahead_cost(s, [(MOVE, 3)], batches, g, 2)
    away = _ia_ra_lookahead_cost(s, [(MOVE, 1)], batches, g, 2)
    stay = _ia_ra_lookahead_cost(s, [(STAY,)], batches, g, 2)
    # toward: outstanding counts 1 (now), 1 (at 3), 0 (picked), 0 -> total 2
    # stay:   1, 1, 1 (arrives), 0 -> 3;  away: 1, 1, 1, 1 -> 4
    assert toward == 2
    assert stay == 3
    assert away == 4


def test_fast_path_matches_generic_path(grid5):
    grid8 = grid_graph(8)
    rng = np.random.default_rng(77)
    # Small fleets on 5x5, then fleets and request pools above
    # AUCTION_MAX_PAIRS on 8x8, so both paths also solve their matchings by
    # linear_sum_assignment.
    small = (grid5, synthetic_model(grid5, 0.8), (1, 6), (0, 5), 0.3)
    large = (grid8, synthetic_model(grid8, 6.0), (14, 25), (14, 30), 0.1)
    for trial in range(240):
        g, model, m_range, n_req, p_busy = small if trial < 200 else large
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
        s = FleetState(locs, timers, outstanding, in_service, 1)
        joint, _ = ia_ra_control(s, g)
        batches = _sample_scenario(model, 1, 5, substream(3, trial))
        assert (_lookahead_cost(s, joint, batches, g, ia_ra_control, 5)
                == _ia_ra_lookahead_cost(s, joint, batches, g, 5))


def test_scenarios_zero_variance_on_deterministic_model():
    g = line_graph(4)
    s = make_state([2], outstanding={1: Request(1, 4, 1, 1)})
    cfg = RolloutConfig(t_h=3, num_mc=6)
    est = evaluate_candidate(s, [(MOVE, 3)], g, zero_model(), cfg, substream(0, 0))
    assert isinstance(est, LookaheadEstimate)
    assert len(est.scenario_costs) == 6
    assert len(set(est.scenario_costs)) == 1
    assert est.mean == est.scenario_costs[0]


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
