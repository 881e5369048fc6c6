import gc
import random
import tracemalloc

import pytest

from fleetroll import grid_graph
from fleetroll.demand import synthetic_model
from fleetroll.errors import FleetrollError
from fleetroll.graph import SameNode
from fleetroll.planner import TwoPhasePolicy
from fleetroll.policies import (GreedyPolicy, IACommitPolicy, IARAPolicy, RandomIAPolicy,
                                ia_ra_control)
from fleetroll.rollout import RolloutConfig, RolloutPolicy
from fleetroll.sim import (HOP, MOVE, PICKUP, REQUEST_BYTES, STAY, TAXI_BYTES, TAXI_STEP_BYTES,
                           FleetState, IllegalControl, SimError, run_episode, substream, transition)
from conftest import random_fleet_state, random_strong_digraph, ring_graph
from oracles import (RecordingPolicy, ScalarDemand, scalar_episode_draws,
                     service_distance_reference, transition_reference, travel_left)


def make_state(locs, dropoffs=None, outstanding=None, clock=1):
    return FleetState(list(locs), list(dropoffs or [0] * len(locs)), dict(outstanding or {}),
                      clock)


def test_stay_no_arrivals_is_identity_plus_clock(grid3):
    s = make_state([5])
    s2 = transition(s, [(STAY,)], [], grid3)
    assert s2.locations == [5] and s2.dropoffs == [0]
    assert s2.outstanding == {} and s2.clock == 2


def test_pickup_sets_timer_and_busy_until_dropoff(grid3):
    r = (1, 5, 2)  # d(5,2) = 1
    s = make_state([5], outstanding={1: r})
    s2 = transition(s, [(PICKUP, 1)], [], grid3)
    assert s2.dropoffs == [2]
    s3 = transition(s2, [(HOP, 2)], [], grid3)
    assert s3.locations == [2] and s3.dropoffs == [0]


def test_pickup_distance_three_trip(grid3):
    r = (1, 1, 7)  # d(1,7) = 2 on 3x3 grid
    s = make_state([1], outstanding={1: r})
    s2 = transition(s, [(PICKUP, 1)], [], grid3)
    assert s2.dropoffs == [7]
    s3 = transition(s2, [(HOP, grid3.next_hop(1, 7))], [], grid3)
    assert s3.dropoffs == [7]
    s4 = transition(s3, [(HOP, 7)], [], grid3)
    assert s4.locations == [7] and s4.dropoffs == [0]


def test_zero_length_trip_completes_immediately(grid3):
    r = (1, 5, 5)
    s = make_state([5], outstanding={1: r})
    s2 = transition(s, [(PICKUP, 1)], [], grid3)
    assert s2.dropoffs == [0] and s2.outstanding == {}


def test_stage_cost_counts_outstanding(grid3):
    s = make_state([1], outstanding={i: (i, 2, 3) for i in range(1, 5)})
    assert len(s.outstanding) == 4
    s2 = transition(s, [(STAY,)], [], grid3)
    assert len(s2.outstanding) == 4


def assert_illegal(state, control, graph, taxi, reason):
    with pytest.raises(IllegalControl) as info:
        transition(state, control, [], graph)
    assert (info.value.taxi, info.value.reason) == (taxi, reason)


def test_illegal_controls(grid3):
    s = make_state([1])
    assert_illegal(s, [(MOVE, 9)], grid3, 0, "9 is not a neighbor of 1")
    assert_illegal(s, [(PICKUP, 1)], grid3, 0, "request 1 is not outstanding")
    assert_illegal(s, [(HOP, 2)], grid3, 0, "free taxi got a forced hop")
    assert_illegal(s, [("fly", 2)], grid3, 0, "unknown action 'fly'")
    r = (1, 2, 3)
    s2 = make_state([1], outstanding={1: r})
    assert_illegal(s2, [(PICKUP, 1)], grid3, 0, "request 1 picks up at 2, taxi at 1")
    busy = make_state([1], dropoffs=[9])
    assert_illegal(busy, [(STAY,)], grid3, 0, "occupied taxi got 'stay'")
    assert_illegal(busy, [(HOP, 4)], grid3, 0, "hop to 4 but shortest path continues at 2")


def test_arrival_with_an_outstanding_id_is_rejected(grid3):
    s = make_state([1], outstanding={4: (4, 2, 3)})
    with pytest.raises(SimError, match=r"^request 4: id is already outstanding$"):
        transition(s, [(STAY,)], [(4, 5, 6)], grid3)
    with pytest.raises(SimError, match=r"^request 6: id is already outstanding$"):
        transition(s, [(STAY,)], [(6, 5, 6), (6, 7, 8)], grid3)


@pytest.mark.parametrize("pickup, dropoff", [(50, 3), (0, 3), (2, 10), (2, -1)])
def test_arrival_off_the_graph_is_rejected(grid3, pickup, dropoff):
    with pytest.raises(SimError, match=rf"^request 5: pickup {pickup} or dropoff {dropoff} "
                                       r"is outside 1\.\.9$"):
        transition(make_state([1]), [(STAY,)], [(5, pickup, dropoff)], grid3)


@pytest.mark.parametrize("state, control, error, message", [
    (FleetState([1], [0], {5: (6, 1, 3)}, 1), [(PICKUP, 5)], SimError,
     "outstanding key 5 holds request 6"),
    (FleetState([1], [99], {}, 1), [(HOP, 2)], IllegalControl,
     "taxi 0: node 1 or dropoff 99 is outside 1..9"),
    (FleetState([50], [0], {}, 1), [(MOVE, 2)], IllegalControl,
     "taxi 0: node 50 is outside 1..9"),
    (FleetState([50], [0], {}, 1), [(STAY,)], IllegalControl,
     "taxi 0: node 50 is outside 1..9"),
    (FleetState([-1], [0], {}, 1), [(MOVE, 6)], IllegalControl,
     "taxi 0: node -1 is outside 1..9"),
    (FleetState([1], [-1], {}, 1), [(HOP, 2)], IllegalControl,
     "taxi 0: node 1 or dropoff -1 is outside 1..9"),
    (FleetState([-1], [3], {}, 1), [(HOP, 6)], IllegalControl,
     "taxi 0: node -1 or dropoff 3 is outside 1..9"),
    (FleetState([1, 0], [0, 5], {}, 1), [(STAY,), (HOP, 2)], IllegalControl,
     "taxi 1: node 0 or dropoff 5 is outside 1..9"),
    (FleetState([1], [0], {5: (5, 1, 99)}, 1), [(PICKUP, 5)], SimError,
     "request 5: dropoff 99 is outside 1..9"),
], ids=["key-not-its-id", "dropoff-off-the-graph", "taxi-off-the-graph",
        "taxi-off-the-graph-stays", "negative-taxi-moves", "negative-dropoff",
        "negative-occupied-taxi", "occupied-taxi-on-node-0", "picked-up-dropoff-off-the-graph"])
def test_state_with_a_wrong_id_or_an_off_graph_node_is_rejected(grid3, state, control, error,
                                                                 message):
    with pytest.raises(error) as info:
        transition(state, control, [], grid3)
    assert type(info.value) is error and str(info.value) == message
    assert str(compare_with_reference(state, control, [], grid3)) == message


def test_duplicate_pickup_rejected(grid3):
    r = (1, 5, 2)
    s = make_state([5, 5], outstanding={1: r})
    assert_illegal(s, [(PICKUP, 1), (PICKUP, 1)], grid3, 1, "request 1 is not outstanding")


def test_occupied_taxi_on_its_dropoff_raises_same_node(grid3):
    """An inconsistent state: the taxi is occupied but already on its dropoff.
    Its next-hop entry is 0, which must never move it to the padding node."""
    s = make_state([5, 1], dropoffs=[5, 0])
    for hop in (0, 2, 4):
        with pytest.raises(SameNode):
            transition(s, [(HOP, hop), (STAY,)], [], grid3)
    with pytest.raises(SameNode):
        ia_ra_control(s, grid3)


def random_joint_control(rnd, state, graph):
    """Legal actions for most taxis; now and then an illegal one of each kind
    the transition rejects, or a duplicate pickup."""
    control = []
    for l in range(state.m):
        loc = state.locations[l]
        here = [rid for rid, r in state.outstanding.items() if r[1] == loc]
        if state.dropoffs[l]:
            legal = [(HOP, graph.next_hop(loc, state.dropoffs[l]))]
            illegal = [(STAY,), (MOVE, graph.adj[loc][0]), (PICKUP, 1),
                       (HOP, rnd.randint(1, graph.n))]
        else:
            legal = [(STAY,)] + [(MOVE, v) for v in graph.adj[loc]] + [(PICKUP, r) for r in here]
            far = [v for v in range(1, graph.n + 1) if v not in graph.adj[loc]]
            elsewhere = [rid for rid, r in state.outstanding.items() if r[1] != loc]
            illegal = ([(MOVE, rnd.choice(far))] + [(PICKUP, rid) for rid in elsewhere[:1]]
                       + [(PICKUP, 10 ** 6), (HOP, loc), ("fly",)])
        control.append(rnd.choice(illegal if rnd.random() < 0.04 else legal))
    return control


def compare_with_reference(state, control, arrivals, graph):
    """Step `transition` and its reference once; return the reference's error
    after checking that transition raises the same, else None after checking
    that both give the same state."""
    try:
        want = transition_reference(state, control, arrivals, graph)
    except FleetrollError as exc:
        with pytest.raises(type(exc)) as info:
            transition(state, control, arrivals, graph)
        assert str(info.value) == str(exc)
        if isinstance(exc, IllegalControl):
            assert (info.value.taxi, info.value.reason) == (exc.taxi, exc.reason)
        return exc
    got = transition(state, control, arrivals, graph)
    assert got == want
    assert list(got.outstanding.items()) == list(want.outstanding.items())
    return None


def broken_copy(rnd, state, control, arrivals, graph, fault):
    """A copy of a consistent state and its arrival batch with one fault: an
    occupied taxi that stands on its dropoff ("on-its-dropoff"), an occupied
    taxi's dropoff below 1 ("negative-dropoff") or above n
    ("dropoff-above-n"), a taxi on node 0 or below ("taxi-below-1") or above n
    ("taxi-above-n"), an arrival whose id is already outstanding or in the
    batch ("repeat"), one off the graph ("off-graph"), or an outstanding
    request, one the control picks up if it can, kept under another key
    ("key")."""
    state = FleetState(list(state.locations), list(state.dropoffs), dict(state.outstanding),
                       state.clock)
    arrivals = list(arrivals)
    busy = [l for l in range(state.m) if state.dropoffs[l]]
    if fault == "on-its-dropoff" and busy:
        l = rnd.choice(busy)
        state.locations[l] = state.dropoffs[l]
    if fault == "negative-dropoff" and busy:
        state.dropoffs[rnd.choice(busy)] = -rnd.randint(1, 3)
    if fault == "repeat":
        rid = rnd.choice([*state.outstanding, *(r[0] for r in arrivals), 950])
        arrivals += [(rid, 1, 1)] * 2
    if fault == "off-graph":
        arrivals.append((950, rnd.choice([0, graph.n + 1, 1]),
                         rnd.choice([-1, graph.n + 1])))
    if fault == "key" and state.outstanding:
        picked = [act[1] for act in control if act[0] == PICKUP and act[1] in state.outstanding]
        rid = rnd.choice(picked or list(state.outstanding))
        state.outstanding[rid] = (rid + 1000, *state.outstanding[rid][1:])
    if fault == "taxi-above-n":
        state.locations[rnd.randrange(state.m)] = graph.n + rnd.randint(1, 3)
    if fault == "taxi-below-1":
        state.locations[rnd.randrange(state.m)] = -rnd.randint(0, 2)  # node 0 included
    if fault == "dropoff-above-n" and busy:
        state.dropoffs[rnd.choice(busy)] = graph.n + rnd.randint(1, 3)
    return state, arrivals


@pytest.mark.parametrize("make_graph", [
    lambda: grid_graph(4), lambda: ring_graph(6),
    lambda: random_strong_digraph(random.Random(12), 15),
], ids=["grid", "one-way-ring", "random-digraph"])
def test_transition_equals_reference_on_random_controls(make_graph):
    # Random joint controls, some illegal, on consistent states; each case is
    # also stepped on a broken copy of its state or arrival batch, drawn on a
    # stream of its own so that the consistent cases stay as they were, and on
    # a copy with a wrong id or a node above n, drawn on a third stream.
    graph = make_graph()
    rnd = random.Random(graph.n)
    fault_rnd = random.Random(-graph.n)
    probe_rnd = random.Random(1000 + graph.n)
    faults = ["on-its-dropoff", "negative-dropoff", "taxi-below-1", "repeat", "off-graph"]
    probes = ["key", "taxi-above-n", "dropoff-above-n"]
    outcomes = {"state": 0, "illegal": 0}
    broken = {"on-its-dropoff": 0, "negative": 0, "arrival": 0}
    probed = {"key": 0, "node": 0}
    for case in range(300):
        state = random_fleet_state(rnd, graph, rnd.randint(1, 12), rnd.randint(0, 8))
        control = random_joint_control(rnd, state, graph)
        if case % 50 == 0:
            control = control[:-1]  # one action short
        arrivals = [(900 + i, rnd.randint(1, graph.n), rnd.randint(1, graph.n))
                    for i in range(rnd.randint(0, 3))]
        exc = compare_with_reference(state, control, arrivals, graph)
        if exc is None:
            outcomes["state"] += 1
        elif isinstance(exc, IllegalControl):
            outcomes["illegal"] += 1
        bad_state, bad_arrivals = broken_copy(fault_rnd, state, control, arrivals, graph,
                                              faults[case % len(faults)])
        exc = compare_with_reference(bad_state, control, bad_arrivals, graph)
        if isinstance(exc, SameNode):
            broken["on-its-dropoff"] += 1
        elif isinstance(exc, IllegalControl) and "is outside" in exc.reason:
            broken["negative"] += 1
        elif exc is not None and str(exc).startswith("request"):
            broken["arrival"] += 1
        bad_state, bad_arrivals = broken_copy(probe_rnd, state, control, arrivals, graph,
                                              probes[case % len(probes)])
        exc = compare_with_reference(bad_state, control, bad_arrivals, graph)
        if exc is not None and str(exc).startswith("outstanding key"):
            probed["key"] += 1
        elif isinstance(exc, IllegalControl) and "is outside" in exc.reason:
            probed["node"] += 1
    assert outcomes["state"] > 50 and outcomes["illegal"] > 50, outcomes
    assert min(broken.values()) > 20, broken
    # a relabelled request fails only where the control picks it up
    assert probed["key"] > 20 and probed["node"] > 80, probed


def test_arrivals_enter_outstanding(grid3):
    s = make_state([1])
    r = (4, 2, 3)
    s2 = transition(s, [(STAY,)], [r], grid3)
    assert s2.outstanding == {4: r}


def test_zero_demand_episode_is_free(grid5):
    model = synthetic_model(grid5, 0.0)
    tr = run_episode(grid5, model, GreedyPolicy(grid5), m=2, T=30, seed=1)
    assert tr.cost == 0
    assert all(c == (STAY,) for ctrl in tr.controls for c in ctrl)


def test_episode_deterministic(grid5, model5_light):
    a = run_episode(grid5, model5_light, IARAPolicy(grid5), 3, 50, 11)
    b = run_episode(grid5, model5_light, IARAPolicy(grid5), 3, 50, 11)
    assert a.stage_costs == b.stage_costs
    assert a.controls == b.controls
    assert list(a.trace_rows()) == list(b.trace_rows())


def test_episode_cost_identity(grid5, model5_light):
    tr = run_episode(grid5, model5_light, IARAPolicy(grid5), 3, 60, 5)
    assert tr.cost == sum(tr.stage_costs)


def test_request_lifecycle_conservation(grid5, model5_unit):
    tr = run_episode(grid5, model5_unit, IARAPolicy(grid5), 4, 80, 3)
    arrived = 0
    picked = 0
    rows = list(tr.trace_rows())[1:]
    assert len(tr.stage_costs) == len(rows) == 80
    for _, n_out, arrivals, pickups, _ in rows:
        arrived += arrivals
        assert arrived - picked == n_out
        picked += pickups
    assert arrived == len(tr.request_pickups) == len(tr.request_dropoffs)
    assert picked == sum(act[0] == PICKUP for ctrl in tr.controls for act in ctrl)


def test_outstanding_matches_arrival_times(grid5, model5_unit):
    # requests sampled during step t are first visible (and actionable) at t+1
    policy = RecordingPolicy(GreedyPolicy(grid5))
    trace = run_episode(grid5, model5_unit, policy, 2, 40, 9)
    # ids are consecutive, and each clock's row counts the requests that
    # became visible at it
    arrival = [t for t, _, arrivals, _, _ in list(trace.trace_rows())[1:]
               for _ in range(arrivals)]
    seen = [(r, state.clock) for state, _ in policy.log for r in state.outstanding.values()]
    assert seen
    for r, clock in seen:
        assert 2 <= arrival[r[0] - 1] <= clock <= 40
    first = {}
    for r, clock in seen:
        first.setdefault(r[0], clock)
    assert first == {rid: t for rid, t in enumerate(arrival, start=1) if t < 40}


def test_taxi_moves_at_most_one_edge(grid5, model5_unit):
    model = model5_unit
    policy = IARAPolicy(grid5)
    demand = ScalarDemand(model)
    state = FleetState([1, 13, 25], [0, 0, 0], {}, 1)
    rng = substream(4, 1)
    rng_req = substream(4, 2)
    rid = 1
    for t in range(1, 40):
        ctrl = policy.control(state)
        arrivals = []
        for _ in range(demand.eta.draw(rng)):
            arrivals.append((rid, *demand.request(rng_req)))
            rid += 1
        nxt = transition(state, ctrl, arrivals, grid5)
        for a, b in zip(state.locations, nxt.locations):
            assert grid5.distance(a, b) <= 1
        state = nxt


class StayAndRecord:
    """Every taxi stays; the first state's locations are kept."""
    name = "stay"

    def reset(self, seed):
        self.start = None

    def control(self, state):
        if self.start is None:
            self.start = list(state.locations)
        return [(STAY,)] * state.m


def test_episode_draws_equal_scalar_reference(grid5):
    from fleetroll.demand import estimate_from_trips, generate_trips

    synthetic = synthetic_model(grid5, 1.7, hotspot=7, hotspot_mass=0.3)
    from_log = estimate_from_trips(generate_trips(synthetic, horizon=300, seed=8), grid5)
    for model in (synthetic, from_log):
        trace = run_episode(grid5, model, StayAndRecord(), 2, 1, 1)
        assert trace.request_pickups == trace.request_dropoffs == []
        for seed, m, T in [(1, 1, 2), (2, 4, 3), (3, 6, 40)]:
            policy = StayAndRecord()
            trace = run_episode(grid5, model, policy, m, T, seed)
            locations, requests, counts = scalar_episode_draws(model, m, T, seed)
            assert policy.start == locations
            assert list(requests) == list(range(1, len(requests) + 1))
            assert trace.request_pickups == [r[1] for r in requests.values()]
            assert trace.request_dropoffs == [r[2] for r in requests.values()]
            # the count drawn in step t arrives at clock t+1
            assert [row[2] for row in list(trace.trace_rows())[1:]] == [0] + counts


# --- the episode record ---

def test_z_total_agrees_with_the_old_service_distance(grid5):
    """z_total counts the taxi-steps in which a taxi moves. Under random-ia
    and ia-commit a taxi never changes request before its pickup, so z_total
    equals the service distance of the assignment record that their memories
    give (the event-history rule) less the travel that rule counts and the
    fleet has not made by T. For all six policies, z_total counts the taxis
    whose node changed at each step, and a step's pickups are its control's
    PICKUP actions."""
    from fleetroll.demand import estimate_from_trips, generate_trips

    synthetic = synthetic_model(grid5, 2.0, hotspot=7, hotspot_mass=0.3)
    from_log = estimate_from_trips(generate_trips(synthetic, horizon=300, seed=8), grid5)
    digraph = random_strong_digraph(random.Random(5), 12)  # one-way streets
    cases = left_over = 0
    for graph, model in ((grid5, synthetic), (grid5, from_log),
                         (digraph, synthetic_model(digraph, 1.2))):
        for m, T in ((1, 1), (2, 2), (3, 25), (6, 40)):
            for seed in range(30):
                for inner in (RandomIAPolicy(graph), IACommitPolicy(graph)):
                    policy = RecordingPolicy(inner)
                    trace = run_episode(graph, model, policy, m, T, seed)
                    requests = {rid: (rid, p, d) for rid, (p, d) in enumerate(
                        zip(trace.request_pickups, trace.request_dropoffs), start=1)}
                    total, events = service_distance_reference(graph, requests, policy)
                    left = 0
                    if policy.log:
                        state, control = policy.log[-1]
                        left = travel_left(graph, transition(state, control, [], graph),
                                           events)
                    assert trace.summary()["z_total"] == total - left, (inner.name, m, T, seed)
                    cases += 1
                    left_over += left > 0
    assert cases == 720 and left_over > 100

    m, T, cfg = 6, 40, RolloutConfig(t_h=2, num_mc=2)
    picked = 0
    for model in (synthetic, from_log):
        for inner in (GreedyPolicy(grid5), RandomIAPolicy(grid5), IACommitPolicy(grid5),
                      IARAPolicy(grid5), RolloutPolicy(grid5, model, cfg),
                      TwoPhasePolicy(grid5, model, m, 2, cfg)):
            for seed in (1, 2, 3):
                policy = RecordingPolicy(inner)
                trace = run_episode(grid5, model, policy, m, T, seed)
                state, control = policy.log[-1]
                states = [s for s, _ in policy.log] + [transition(state, control, [], grid5)]
                moved = sum(a != b for s0, s1 in zip(states, states[1:])
                            for a, b in zip(s0.locations, s1.locations))
                assert trace.summary()["z_total"] == moved > 0, (inner.name, seed)
                # a step's pickups are its control's PICKUP actions
                assert [row[3] for row in list(trace.trace_rows())[1:]] == [
                    sum(act[0] == PICKUP for act in control) for control in trace.controls] + [0]
                picked += trace.summary()["pickups"]
    assert picked > 1000


def test_trace_rows_derive_each_count_from_the_states(grid5):
    """Each trace row's counts, derived from the controls and stage costs,
    are those of the states the policy saw: the outstanding requests, those
    that became visible at the clock, those picked up by its step and the
    free taxis. The row at T reads the state after the final transition."""
    model = synthetic_model(grid5, 1.5, hotspot=7, hotspot_mass=0.3)
    cfg = RolloutConfig(t_h=2, num_mc=2)
    for m, T in ((1, 1), (3, 2), (6, 30)):
        for inner in (GreedyPolicy(grid5), RandomIAPolicy(grid5), IACommitPolicy(grid5),
                      IARAPolicy(grid5), RolloutPolicy(grid5, model, cfg),
                      TwoPhasePolicy(grid5, model, m, 2, cfg)):
            for seed in (1, 2):
                policy = RecordingPolicy(inner)
                trace = run_episode(grid5, model, policy, m, T, seed)
                states = [s for s, _ in policy.log]
                if states:  # the last batch is every request not yet seen
                    seen = max((rid for s in states for rid in s.outstanding), default=0)
                    batch = [(rid, trace.request_pickups[rid - 1], trace.request_dropoffs[rid - 1])
                             for rid in range(seen + 1, len(trace.request_pickups) + 1)]
                    states.append(transition(states[-1], policy.log[-1][1], batch, grid5))
                else:
                    states = [FleetState([1] * m, [0] * m, {}, 1)]
                rows = list(trace.trace_rows())[1:]
                assert len(rows) == len(states) == T
                before = {}
                for t, (row, s) in enumerate(zip(rows, states), start=1):
                    after = states[t].outstanding if t < T else s.outstanding
                    assert row == [t, len(s.outstanding), len(s.outstanding.keys() - before),
                                   len(s.outstanding.keys() - after), s.dropoffs.count(0)], \
                        (inner.name, m, T, seed, t)
                    before = s.outstanding
                assert trace.summary()["pickups"] == sum(row[3] for row in rows)


def test_trace_keeps_at_most_24_bytes_per_request():
    # Two greedy taxis leave most of 58,000 requests outstanding; once the
    # episode's state is gone the trace keeps their drawn nodes, a pointer
    # each on a 3x3 grid, whose node numbers are cached small ints.
    g = grid_graph(3)
    model = synthetic_model(g, 2000)
    gc.collect()
    tracemalloc.start()
    try:
        trace = run_episode(g, model, GreedyPolicy(g), 2, 30, 1)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.request_pickups) == 58000
    assert kept / 58000 <= 24


@pytest.mark.parametrize("e_eta, T", [(20.0, 600), (200.0, 61), (333.3, 40)])
def test_request_bytes_bound_an_episode_whose_requests_stay_outstanding(e_eta, T):
    # A 20x20 grid: node numbers and request ids above 256 are int objects
    # of their own, the costliest case.
    g = grid_graph(20)
    model = synthetic_model(g, e_eta)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = run_episode(g, model, StayAndRecord(), 2, T, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    requests = len(trace.request_pickups)
    assert requests > 10000
    assert trace.stage_costs[-1] == requests
    assert peak / requests < REQUEST_BYTES


@pytest.mark.parametrize("policy, e_eta", [(GreedyPolicy, 0.0), (IARAPolicy, 2.0)])
def test_taxi_step_bytes_bound_the_controls_an_episode_keeps(policy, e_eta):
    # 2000 taxis for 199 steps on a 20x20 grid: the trace keeps a pointer
    # per taxi-step, and the peak adds one step's working copies.
    g = grid_graph(20)
    model = synthetic_model(g, e_eta)
    pol = policy(g)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = run_episode(g, model, pol, 2000, 200, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    taxi_steps = sum(len(ctrl) for ctrl in trace.controls)
    assert taxi_steps == 2000 * 199
    assert peak / taxi_steps < TAXI_STEP_BYTES


@pytest.mark.parametrize("policy, e_eta", [(GreedyPolicy, 0.0), (IARAPolicy, 2.0)])
@pytest.mark.parametrize("m", [20000, 100000])
def test_taxi_bytes_bound_the_fleet_state_of_a_one_step_episode(policy, e_eta, m):
    # A 20x20 grid: taxi indices and nodes above 256 are int objects of their
    # own. One step holds the state, the transition's copy, the step's working
    # lists and its control, with few requests.
    g = grid_graph(20)
    model = synthetic_model(g, e_eta)
    pol = policy(g)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_episode(g, model, pol, m, 2, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / m < TAXI_BYTES
