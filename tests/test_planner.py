import numpy as np

from fleetroll.demand import DemandModel, Request, synthetic_model
from fleetroll.graph import grid_graph
from fleetroll.partition import PartitionSpec
from fleetroll.planner import (HighLevelPlan, TwoPhasePolicy, TransitRoute,
                               high_level_plan, split_state, two_phase_control)
from fleetroll.rollout import RolloutConfig, RolloutPolicy
from fleetroll.sim import MOVE, FleetState, run_episode
from conftest import line_graph, ring_graph
from oracles import high_level_plan_reference, run_two_phase


def two_sector_line():
    """1-2-3-4 split into sectors {1,2} and {3,4}."""
    g = line_graph(4)
    spec = PartitionSpec(centers=[1, 4], assignment=[0, 1, 1, 2, 2])
    return g, spec


def zero_model():
    return DemandModel({0: 1.0}, {1: 1.0}, {1: {1: 1.0}})


def make_state(locs, outstanding=None, timers=None, in_service=None, clock=1):
    m = len(locs)
    return FleetState(list(locs), list(timers or [0] * m),
                      dict(outstanding or {}), dict(in_service or {}), clock)


def test_high_level_same_sector_no_action():
    g, spec = two_sector_line()
    s = make_state([1], outstanding={1: Request(1, 2, 3, 1)})
    plan = high_level_plan(s, g, spec, zero_model(), t_h=3, prev=HighLevelPlan(), seed=0)
    assert plan.transit == {}


def test_high_level_cross_sector_schedules_boundary_route():
    g, spec = two_sector_line()
    s = make_state([1], outstanding={1: Request(1, 4, 3, 1)})
    plan = high_level_plan(s, g, spec, zero_model(), t_h=3, prev=HighLevelPlan(), seed=0)
    assert 0 in plan.transit
    route = plan.transit[0]
    assert route.dest == 3                      # boundary entry of sector 2
    assert route.path == (1, 2, 3)              # hop-by-hop shortest path
    assert route.start_clock == 1
    assert route.arrive_clock == 3


def test_high_level_no_free_taxis_keeps_plan():
    g, spec = two_sector_line()
    s = make_state([1], timers=[2], in_service={0: (7, 3)},
                   outstanding={1: Request(1, 4, 3, 1)})
    prev = HighLevelPlan({5: TransitRoute(dest=3, path=(2, 3), start_clock=0)})
    # taxi 5 does not exist in this tiny state; prune keys on locations only
    prev = HighLevelPlan()
    plan = high_level_plan(s, g, spec, zero_model(), 3, prev, seed=0)
    assert plan.transit == {}


def test_high_level_plan_matches_the_assignment_problem_path(grid5):
    # The dispatch matcher against the id-labelled AssignmentProblem path the
    # planner once had: the same transit routes in the same taxi order, with
    # more free taxis than pooled requests and fewer, many distance ties, a
    # one-way ring, and earlier transits that persist or have arrived.
    rng = np.random.default_rng(41)
    cfg = RolloutConfig(t_h=3, num_mc=1)
    cases = []
    for g, e_eta in ((grid5, 0.5), (grid_graph(8), 2.0), (ring_graph(12), 0.7)):
        model = synthetic_model(g, e_eta)
        cases.append((g, TwoPhasePolicy(g, model, m=9, m_lim=3, cfg=cfg).pspec, model))
    shapes = {"more_free": 0, "fewer_free": 0}
    routes = 0
    for trial in range(300):
        g, spec, model = cases[trial % 3]
        t_h = int(rng.integers(1, 5))
        m = int(rng.integers(1, 15))
        locs = [int(rng.integers(1, g.n + 1)) for _ in range(m)]
        timers = [0] * m
        in_service = {}
        for l in range(m):
            if rng.random() < 0.2:
                timers[l] = int(rng.integers(1, 4))
                in_service[l] = (100 + l, int(rng.integers(1, g.n + 1)))
        outstanding = {rid: Request(rid, int(rng.integers(1, g.n + 1)),
                                    int(rng.integers(1, g.n + 1)), 1)
                       for rid in range(1, int(rng.integers(0, 9)) + 1)}
        prev = HighLevelPlan({l: TransitRoute(dest=int(rng.choice([locs[l], 1])),
                                              path=(locs[l],), start_clock=0)
                              for l in range(m) if timers[l] == 0 and rng.random() < 0.2})
        s = FleetState(locs, timers, outstanding, in_service, int(rng.integers(1, 40)))
        got = high_level_plan(s, g, spec, model, t_h, prev, seed=trial)
        want = high_level_plan_reference(s, g, spec, model, t_h, prev, seed=trial)
        assert list(got.transit.items()) == list(want.transit.items()), trial
        n_free = sum(1 for l in range(m) if timers[l] == 0
                     and (l not in prev.transit or prev.transit[l].dest == locs[l]))
        n_pool = len(outstanding) + round(t_h * model.e_eta)
        if n_free and n_pool:
            shapes["more_free" if n_free > n_pool else "fewer_free"] += n_free != n_pool
        routes += sum(1 for r in got.transit.values() if r.start_clock == s.clock)
    assert min(shapes.values()) >= 50 and routes >= 100, (shapes, routes)


def test_transiting_taxi_excluded_until_arrival_then_rejoins():
    g, spec = two_sector_line()
    model = zero_model()
    s = make_state([1], outstanding={1: Request(1, 4, 3, 1)})
    cfg = RolloutConfig(t_h=2, num_mc=1)
    plan = HighLevelPlan()
    ctrl, plan = two_phase_control(s, g, model, spec, cfg, plan, seed=0)
    assert ctrl == [(MOVE, 2)] and 0 in plan.transit
    s2 = make_state([2], outstanding={1: Request(1, 4, 3, 1)}, clock=2)
    ctrl2, plan2 = two_phase_control(s2, g, model, spec, cfg, plan, seed=0)
    assert ctrl2 == [(MOVE, 3)] and 0 in plan2.transit
    s3 = make_state([3], outstanding={1: Request(1, 4, 3, 1)}, clock=3)
    ctrl3, plan3 = two_phase_control(s3, g, model, spec, cfg, plan2, seed=0)
    assert plan3.transit == {}          # arrived: back under local control
    assert ctrl3 == [(MOVE, 4)]         # local rollout moves it to the pickup


def test_split_state_partitions_taxis_and_requests():
    g, spec = two_sector_line()
    reqs = {1: Request(1, 1, 4, 1), 2: Request(2, 4, 1, 1), 3: Request(3, 2, 3, 1)}
    s = make_state([1, 3, 4], outstanding=reqs)
    subs = split_state(s, spec, exclude=set())
    assert set(subs) == {1, 2}
    sub1, ids1 = subs[1]
    sub2, ids2 = subs[2]
    assert ids1 == [0] and ids2 == [1, 2]
    assert set(sub1.outstanding) == {1, 3}
    assert set(sub2.outstanding) == {2}
    # decomposition identity: sub-state outstanding counts sum to the total
    assert len(sub1.outstanding) + len(sub2.outstanding) == len(s.outstanding)


def test_sector_with_no_taxis_plans_nothing():
    g, spec = two_sector_line()
    s = make_state([1], outstanding={2: Request(2, 4, 1, 1)})
    subs = split_state(s, spec, exclude=set())
    assert 2 not in subs  # no taxis located in sector 2


def test_k1_reduces_to_global_rollout(grid5):
    model = synthetic_model(grid5, 0.5)
    cfg = RolloutConfig(t_h=3, num_mc=3)
    for seed in (0, 1):
        pol = TwoPhasePolicy(grid5, model, m=3, m_lim=10, cfg=cfg)
        assert pol.K == 1
        t2 = run_episode(grid5, model, pol, 3, 40, seed)
        tr = run_episode(grid5, model, RolloutPolicy(grid5, model, cfg), 3, 40, seed)
        assert t2.controls == tr.controls
        assert t2.stage_costs == tr.stage_costs
        assert [r.__dict__ for r in t2.steps] == [r.__dict__ for r in tr.steps]


def test_two_phase_merged_control_always_legal(grid5):
    # run_episode validates every action through the transition
    model = synthetic_model(grid5, 0.8)
    cfg = RolloutConfig(t_h=3, num_mc=2)
    tr = run_two_phase(grid5, model, m=4, T=40, m_lim=2, cfg=cfg, seed=5)
    assert len(tr.controls) == 39


def test_two_phase_zero_demand_costs_nothing(grid5):
    model = synthetic_model(grid5, 0.0)
    cfg = RolloutConfig(t_h=3, num_mc=2)
    tr = run_two_phase(grid5, model, m=3, T=30, m_lim=2, cfg=cfg, seed=2)
    assert tr.cost == 0


def test_all_taxis_transiting_control_is_scheduled_hops():
    g, spec = two_sector_line()
    model = zero_model()
    cfg = RolloutConfig(t_h=2, num_mc=1)
    plan = HighLevelPlan({0: TransitRoute(dest=3, path=(1, 2, 3), start_clock=1),
                          1: TransitRoute(dest=4, path=(2, 3, 4), start_clock=1)})
    s = make_state([1, 2])
    ctrl, new_plan = two_phase_control(s, g, model, spec, cfg, plan, seed=0)
    assert ctrl == [(MOVE, 2), (MOVE, 3)]


def test_per_step_outstanding_decomposition(grid5):
    model = synthetic_model(grid5, 1.0)
    cfg = RolloutConfig(t_h=2, num_mc=2)
    pol = TwoPhasePolicy(grid5, model, m=4, m_lim=2, cfg=cfg)

    orig_control = pol.control
    def checking(state):
        subs = split_state(state, pol.pspec, exclude=pol.plan.transit)
        total = sum(len(sub.outstanding) for sub, _ in subs.values())
        missing = len(state.outstanding) - total
        # requests in sectors without local taxis are not in any sub-state
        uncovered = {k for k in range(1, pol.K + 1) if k not in subs}
        for rid, r in state.outstanding.items():
            if pol.pspec.sector_of(r.pickup) in uncovered:
                missing -= 1
        assert missing == 0
        return orig_control(state)
    pol.control = checking
    run_episode(grid5, model, pol, 4, 40, 3)


def test_sector_timing_rows(grid5):
    model = synthetic_model(grid5, 0.6)
    cfg = RolloutConfig(t_h=2, num_mc=2)
    pol = TwoPhasePolicy(grid5, model, m=4, m_lim=2, cfg=cfg)
    run_episode(grid5, model, pol, 4, 20, 1)
    assert pol.sector_timing
    for t, k, ms in pol.sector_timing:
        assert 1 <= t < 20 and 1 <= k <= pol.K and ms >= 0.0


def test_two_phase_plans_on_the_callers_graph(grid5):
    """The policy keeps the caller's graph, not a copy; sectors live in its partition."""
    pol = TwoPhasePolicy(grid5, synthetic_model(grid5, 0.5), m=4, m_lim=2,
                         cfg=RolloutConfig(t_h=2, num_mc=1))
    assert pol.graph is grid5
    assert pol.pspec.K == pol.K == 2
