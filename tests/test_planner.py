import numpy as np
import pytest

from fleetroll.demand import (DemandModel, estimate_from_trips, generate_trips,
                              synthetic_model)
from fleetroll.graph import grid_graph
from fleetroll.partition import PartitionSpec
from fleetroll.planner import (HighLevelPlan, PlannerError, TwoPhasePolicy, TransitRoute,
                               high_level_plan, split_state, two_phase_control)
from fleetroll import planner, rollout
from fleetroll.rollout import RolloutConfig, RolloutPolicy, _sample_scenario
from fleetroll.sim import MOVE, NS_LOOKAHEAD, FleetState, run_episode
from conftest import line_graph, ring_graph
from oracles import high_level_plan_reference, run_two_phase, shortest_path


def two_sector_line():
    """1-2-3-4 split into sectors {1,2} and {3,4}."""
    g = line_graph(4)
    spec = PartitionSpec(centers=[1, 4], assignment=[0, 1, 1, 2, 2])
    return g, spec


def zero_model():
    return DemandModel({0: 1.0}, {1: 1.0}, {1: {1: 1.0}})


def make_state(locs, outstanding=None, dropoffs=None, clock=1):
    return FleetState(list(locs), list(dropoffs or [0] * len(locs)), dict(outstanding or {}),
                      clock)


def test_high_level_same_sector_no_action():
    g, spec = two_sector_line()
    s = make_state([1], outstanding={1: (1, 2, 3)})
    plan = high_level_plan(s, g, spec, zero_model(), t_h=3, prev=HighLevelPlan(), seed=0)
    assert plan.transit == {}


def test_high_level_cross_sector_schedules_boundary_route():
    g, spec = two_sector_line()
    s = make_state([1], outstanding={1: (1, 4, 3)})
    plan = high_level_plan(s, g, spec, zero_model(), t_h=3, prev=HighLevelPlan(), seed=0)
    assert 0 in plan.transit
    route = plan.transit[0]
    assert route == TransitRoute(dest=3, start_clock=1, arrive_clock=3)  # entry of sector 2


def test_high_level_no_free_taxis_keeps_plan():
    g, spec = two_sector_line()
    s = make_state([1], dropoffs=[3], outstanding={1: (1, 4, 3)})
    prev = HighLevelPlan({5: TransitRoute(dest=3, start_clock=0, arrive_clock=1)})
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
        dropoffs = [0] * m
        for l in range(m):
            if rng.random() < 0.2:
                dropoffs[l] = int(rng.integers(1, g.n + 1))
        outstanding = {rid: (rid, int(rng.integers(1, g.n + 1)),
                             int(rng.integers(1, g.n + 1)))
                       for rid in range(1, int(rng.integers(0, 9)) + 1)}
        prev = HighLevelPlan({l: TransitRoute(dest=int(rng.choice([locs[l], 1])),
                                              start_clock=0, arrive_clock=0)
                              for l in range(m) if dropoffs[l] == 0 and rng.random() < 0.2})
        s = FleetState(locs, dropoffs, outstanding, int(rng.integers(1, 40)))
        got = high_level_plan(s, g, spec, model, t_h, prev, seed=trial)
        want = high_level_plan_reference(s, g, spec, model, t_h, prev, seed=trial)
        assert list(got.transit.items()) == list(want.transit.items()), trial
        n_free = sum(1 for l in range(m) if dropoffs[l] == 0
                     and (l not in prev.transit or prev.transit[l].dest == locs[l]))
        n_pool = len(outstanding) + round(t_h * model.e_eta)
        if n_free and n_pool:
            shapes["more_free" if n_free > n_pool else "fewer_free"] += n_free != n_pool
        routes += sum(1 for r in got.transit.values() if r.start_clock == s.clock)
    assert min(shapes.values()) >= 50 and routes >= 100, (shapes, routes)


def test_sector_lookahead_sees_only_requests_picked_up_in_its_sector(monkeypatch):
    # A planning call draws num_mc scenarios for each of its F free taxis on
    # the stream of its clock and lowest global taxi key, and free taxi j
    # scores on block j. A sector's blocks are the unfiltered draw's blocks
    # less the requests picked up elsewhere; global rollout's are unfiltered.
    g = grid_graph(6)
    model = synthetic_model(g, 1.5, hotspot=8, hotspot_mass=0.2)
    cfg = RolloutConfig(t_h=3, num_mc=3)
    keys, ids, seen = [], [], []
    real_substream, real_costs = rollout.substream, rollout._candidate_costs
    real_control = planner.one_at_a_time_control

    def keyed_substream(*key):
        keys.append(key)
        return real_substream(*key)

    def recording_control(*args, taxi_keys=None, **kwargs):
        ids.append(taxi_keys)
        return real_control(*args, taxi_keys=taxi_keys, **kwargs)

    def recording_costs(state, joint, l, cands, scenarios, graph, t_h, inbound=()):
        seen.append((state, l, scenarios, keys[-1], ids[-1] if ids else None))
        return real_costs(state, joint, l, cands, scenarios, graph, t_h, inbound)

    monkeypatch.setattr(rollout, "substream", keyed_substream)
    monkeypatch.setattr(rollout, "_candidate_costs", recording_costs)
    monkeypatch.setattr(planner, "one_at_a_time_control", recording_control)

    def unfiltered(state, l, key):
        free = [i for i in range(state.m) if state.dropoffs[i] == 0]
        j = free.index(l)
        draw = _sample_scenario(model, cfg.t_h, len(free) * cfg.num_mc, real_substream(*key))
        return draw[j * cfg.num_mc:(j + 1) * cfg.num_mc]

    pol = TwoPhasePolicy(g, model, m=9, m_lim=3, cfg=cfg)
    assert pol.pspec.K == 3
    run_episode(g, model, pol, 9, 20, seed=4)
    sector_of = pol.pspec.sector_of
    sectors, kept, dropped = set(), 0, 0
    for state, l, scenarios, key, taxi_keys in seen:
        assert key == (4, NS_LOOKAHEAD, state.clock, min(taxi_keys))
        [k] = {sector_of(v) for v in state.locations}
        sectors.add(k)
        assert all(sector_of(p) == k for sc in scenarios for b in sc for _, p, _ in b)
        full = unfiltered(state, l, key)
        assert [[[(p, d) for _, p, d in b] for b in sc] for sc in scenarios] == [
            [[(p, d) for _, p, d in b if sector_of(p) == k] for b in sc] for sc in full]
        n_kept = sum(len(b) for sc in scenarios for b in sc)
        kept += n_kept
        dropped += sum(len(b) for sc in full for b in sc) - n_kept
    assert sectors == {1, 2, 3} and kept > 100 and dropped > kept

    seen.clear()
    ids.clear()
    run_episode(g, model, RolloutPolicy(g, model, cfg), 9, 8, seed=4)
    assert len(seen) > 20
    for state, l, scenarios, key, _ in seen:
        assert key == (4, NS_LOOKAHEAD, state.clock, 0)
        assert scenarios == unfiltered(state, l, key)


def test_transiting_taxi_excluded_until_arrival_then_rejoins():
    g, spec = two_sector_line()
    model = zero_model()
    s = make_state([1], outstanding={1: (1, 4, 3)})
    cfg = RolloutConfig(t_h=2, num_mc=1)
    plan = HighLevelPlan()
    ctrl, plan = two_phase_control(s, g, model, spec, cfg, plan, seed=0)
    assert ctrl == [(MOVE, 2)] and 0 in plan.transit
    s2 = make_state([2], outstanding={1: (1, 4, 3)}, clock=2)
    ctrl2, plan2 = two_phase_control(s2, g, model, spec, cfg, plan, seed=0)
    assert ctrl2 == [(MOVE, 3)] and 0 in plan2.transit
    s3 = make_state([3], outstanding={1: (1, 4, 3)}, clock=3)
    ctrl3, plan3 = two_phase_control(s3, g, model, spec, cfg, plan2, seed=0)
    assert plan3.transit == {}          # arrived: back under local control
    assert ctrl3 == [(MOVE, 4)]         # local rollout moves it to the pickup


def test_a_taxi_controlled_twice_or_not_at_all_is_an_error(monkeypatch):
    """The merge's checks are errors, not asserts that `python -O` strips.
    A sector plan's controls are zipped with the sector's own taxis, so a
    taxi is controlled twice only when it sits in two sectors' sub-states."""
    g, spec = two_sector_line()
    s = make_state([1, 4])
    args = (s, g, zero_model(), spec, RolloutConfig(t_h=1, num_mc=1), HighLevelPlan())
    monkeypatch.setattr(planner, "low_level_plan", lambda sub, *a, **k: [(MOVE, 2)] * sub.m)
    split = planner.split_state
    monkeypatch.setattr(planner, "split_state", lambda *a, **k: dict.fromkeys(
        (1, 2), split(*a, **k)[1]))
    with pytest.raises(PlannerError, match="^taxi 0 received two controls$"):
        two_phase_control(*args, seed=0)
    monkeypatch.setattr(planner, "split_state", split)
    monkeypatch.setattr(planner, "low_level_plan", lambda *a, **k: [])
    with pytest.raises(PlannerError, match="^taxi 0 received no control$"):
        two_phase_control(*args, seed=0)


def test_split_state_partitions_taxis_and_requests():
    g, spec = two_sector_line()
    reqs = {1: (1, 1, 4), 2: (2, 4, 1), 3: (3, 2, 3)}
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
    s = make_state([1], outstanding={2: (2, 4, 1)})
    subs = split_state(s, spec, exclude=set())
    assert 2 not in subs  # no taxis located in sector 2


def test_k1_reduces_to_global_rollout(grid5):
    # A trip-log model keeps one conditional dropoff pmf per pickup, so the
    # one sector's lookahead looks its dropoffs up in the padded tables.
    synthetic = synthetic_model(grid5, 0.5)
    hotspot = synthetic_model(grid5, 0.5, hotspot=7, hotspot_mass=0.3)
    from_log = estimate_from_trips(generate_trips(hotspot, horizon=200, seed=3), grid5)
    assert len(from_log._dropoff_pmfs) > 1
    cfg = RolloutConfig(t_h=3, num_mc=3)
    for model in (synthetic, from_log):
        for seed in (0, 1):
            pol = TwoPhasePolicy(grid5, model, m=3, m_lim=10, cfg=cfg)
            assert pol.pspec.K == 1
            t2 = run_episode(grid5, model, pol, 3, 40, seed)
            tr = run_episode(grid5, model, RolloutPolicy(grid5, model, cfg), 3, 40, seed)
            assert t2.controls == tr.controls
            assert t2.stage_costs == tr.stage_costs
            assert list(t2.trace_rows()) == list(tr.trace_rows())


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
    plan = HighLevelPlan({0: TransitRoute(dest=3, start_clock=1, arrive_clock=3),
                          1: TransitRoute(dest=4, start_clock=1, arrive_clock=3)})
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
        uncovered = {k for k in range(1, pol.pspec.K + 1) if k not in subs}
        for rid, r in state.outstanding.items():
            if pol.pspec.sector_of(r[1]) in uncovered:
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
        assert 1 <= t < 20 and 1 <= k <= pol.pspec.K and ms >= 0.0


def test_two_phase_plans_on_the_callers_graph(grid5):
    """The policy keeps the caller's graph, not a copy; sectors live in its partition."""
    pol = TwoPhasePolicy(grid5, synthetic_model(grid5, 0.5), m=4, m_lim=2,
                         cfg=RolloutConfig(t_h=2, num_mc=1))
    assert pol.graph is grid5
    assert pol.pspec.K == 2


def test_transits_follow_the_oracle_path_and_arrive_on_their_clock():
    # A 20x20 metro in six sectors: every transit moves hop by hop along the
    # shortest path to its entry point, reaches it exactly at arrive_clock and
    # then leaves the plan.
    g = grid_graph(20)
    model = synthetic_model(g, 2.0)
    pol = TwoPhasePolicy(g, model, m=60, m_lim=10, cfg=RolloutConfig(t_h=2, num_mc=2))
    assert pol.pspec.K == 6
    seen = []  # (clock, locations, control, transit) per step
    control = pol.control

    def recording(state):
        ctrl = control(state)
        seen.append((state.clock, list(state.locations), ctrl, dict(pol.plan.transit)))
        return ctrl

    pol.control = recording
    run_episode(g, model, pol, 60, 25, seed=19)
    checked = 0
    for clock, locations, _, transit in seen:
        for taxi, route in transit.items():
            if route.start_clock != clock:
                continue
            path = shortest_path(g, locations[taxi], route.dest)
            assert route.arrive_clock == clock + len(path) - 1
            if route.arrive_clock > seen[-1][0]:
                continue  # still on its way when the episode ends
            for i, hop in enumerate(path[1:]):
                _, locs, ctrl, plan = seen[clock - 1 + i]
                assert plan[taxi] == route and locs[taxi] == path[i]
                assert ctrl[taxi] == (MOVE, hop)
            _, locs, _, plan = seen[route.arrive_clock - 1]
            assert locs[taxi] == route.dest and plan.get(taxi) != route
            checked += 1
    assert checked >= 10, checked
