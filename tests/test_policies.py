import itertools
import random

import pytest

from fleetroll import grid_graph
from fleetroll.errors import FleetrollError
from fleetroll.graph import SameNode
from fleetroll.policies import (GreedyPolicy, IACommitPolicy, IARAPolicy,
                                RandomIAPolicy, _controls, greedy_control, ia_commit_control,
                                ia_ra_control, match_free_to_requests, random_ia_control)
from fleetroll.sim import (HOP, MOVE, PICKUP, STAY, FleetState, IllegalControl, run_episode,
                           substream, transition)
from conftest import line_graph, random_fleet_state, random_strong_digraph, ring_graph
from oracles import controls_reference, greedy_control_reference, ia_ra_control_reference


def make_state(locs, outstanding=None, dropoffs=None, clock=1):
    return FleetState(list(locs), list(dropoffs or [0] * len(locs)), dict(outstanding or {}),
                      clock)


# --- greedy ---

def test_greedy_pickup_when_colocated(grid3):
    s = make_state([5], outstanding={1: (1, 5, 9)})
    ctrl = greedy_control(s, grid3)
    assert ctrl == [(PICKUP, 1)]


def test_greedy_no_coordination(grid3):
    s = make_state([1, 3], outstanding={1: (1, 5, 9)})
    ctrl = greedy_control(s, grid3)
    assert ctrl[0][0] == MOVE and ctrl[1][0] == MOVE
    assert grid3.distance(ctrl[0][1], 5) == 1
    assert grid3.distance(ctrl[1][1], 5) == 1


def test_greedy_tie_breaks_smallest_request_id(grid5):
    # taxi at 13 (center), requests 3 and 7 both two hops away
    s = make_state([13], outstanding={7: (7, 3, 1), 3: (3, 23, 1)})
    ctrl = greedy_control(s, grid5)
    assert ctrl[0] == (MOVE, grid5.next_hop(13, 23))  # request id 3 wins


def test_greedy_stays_without_requests(grid3):
    ctrl = greedy_control(make_state([4, 8]), grid3)
    assert ctrl == [(STAY,), (STAY,)]


def test_greedy_duplicate_pickup_resolved(grid3):
    s = make_state([5, 5], outstanding={1: (1, 5, 9)})
    ctrl = greedy_control(s, grid3)
    assert ctrl == [(PICKUP, 1), (STAY,)]


@pytest.mark.parametrize("make_graph", [
    lambda: grid_graph(5), lambda: ring_graph(7),
    lambda: random_strong_digraph(random.Random(8), 20),
], ids=["grid", "one-way-ring", "random-digraph"])
def test_greedy_control_equals_reference_on_random_states(make_graph):
    """Greedy's targets dispatched by _controls give the joint control built
    taxi by taxi, on states with co-located taxis, requests on free taxis'
    nodes and zero-length trips."""
    graph = make_graph()
    rnd = random.Random(graph.n + 1)
    left_in_place = 0
    for _ in range(300):
        state = random_fleet_state(rnd, graph, rnd.randint(1, 14), rnd.randint(0, 10),
                                   colocated=0.5)
        got = greedy_control(state, graph)
        assert got == greedy_control_reference(state, graph)
        picked = [a[1] for a in got if a[0] == PICKUP]
        assert len(picked) == len(set(picked))
        left_in_place += sum(
            1 for l, a in enumerate(got) if a == (STAY,) and state.dropoffs[l] == 0
            and any(r[1] == state.locations[l] for r in state.outstanding.values()))
    assert left_in_place > 10


# --- IA-RA ---

def test_ia_ra_straight_matching_on_line():
    g = line_graph(4)
    s = make_state([1, 4], outstanding={1: (1, 2, 2), 2: (2, 3, 3)})
    ctrl = ia_ra_control(s, g)
    # 1->2 and 4->3, total 2, no crossing
    assert match_free_to_requests(g, [(0, 1), (1, 4)], sorted(s.outstanding.values())) == {
        0: (1, 2, 2), 1: (2, 3, 3)}
    assert ctrl == [(MOVE, 2), (MOVE, 3)]


def test_ia_ra_stays_without_requests(grid3):
    ctrl = ia_ra_control(make_state([1, 9]), grid3)
    assert ctrl == [(STAY,), (STAY,)]


def test_ia_ra_reassigns_when_closer_request_appears():
    g = line_graph(6)
    # taxi 0 at node 1 walking toward request 1 at node 5
    s = make_state([1, 6], outstanding={1: (1, 5, 1)}, dropoffs=[0, 3])
    assert ia_ra_control(s, g) == [(MOVE, 2), (HOP, 5)]  # taxi 0 toward request 1
    s2 = make_state([2, 6], outstanding={1: (1, 5, 1), 2: (2, 1, 1)})
    # new request at node 1; fresh matching sends taxi 1 (at 6) to 5 and taxi 0
    # back toward request 2: request 1 was reassigned
    assert ia_ra_control(s2, g) == [(MOVE, 1), (MOVE, 5)]


def test_ia_ra_matches_on_taxi_to_pickup_distance_on_one_way_streets():
    # Ring 1 -> 2 -> ... -> 5 -> 1; request at 3. More free taxis than
    # requests, so the requests are the rows of the matching: the taxi at 2
    # is one hop away, the taxi at 4 four hops (3 is one hop from 4 only
    # against the one-way direction).
    g = ring_graph(5)
    s = make_state([4, 2], outstanding={1: (1, 3, 5)})
    ctrl = ia_ra_control(s, g)
    assert ctrl == [(STAY,), (MOVE, 3)]


def test_ia_commit_keeps_initial_pairing():
    g = line_graph(6)
    memory = {}
    s = make_state([2, 6], outstanding={1: (1, 5, 1)})
    ctrl = ia_commit_control(s, g, memory)
    assert memory == {1: 1} and ctrl == [(STAY,), (MOVE, 5)]  # taxi at 6 is closer to 5
    s2 = make_state([2, 5], outstanding={1: (1, 5, 1), 2: (2, 1, 1)})
    ia_commit_control(s2, g, memory)
    assert memory[1] == 1  # commitment intact under the new request
    assert memory[0] == 2


def test_ia_commit_releases_on_pickup():
    g = line_graph(4)
    memory = {}
    s = make_state([2], outstanding={1: (1, 2, 4)})
    ctrl = ia_commit_control(s, g, memory)
    assert ctrl == [(PICKUP, 1)] and memory == {0: 1}
    s2 = transition(s, ctrl, [], g)
    ia_commit_control(s2, g, memory)
    assert memory == {}  # picked up: released


def test_ia_commit_new_request_waits_when_all_committed():
    g = line_graph(4)
    memory = {0: 1}
    s = make_state([2], outstanding={1: (1, 4, 1), 2: (2, 1, 1)})
    ctrl = ia_commit_control(s, g, memory)
    assert memory == {0: 1} and ctrl == [(MOVE, 3)]
    assert 2 not in memory.values()


# --- random IA ---

def test_random_ia_single_taxi_always_chosen(grid3):
    memory = {}
    s = make_state([1], outstanding={1: (1, 9, 1)})
    random_ia_control(s, grid3, substream(0, 0), memory)
    assert memory == {0: 1}


def test_random_ia_uniform_choice(grid3):
    picks = {0: 0, 1: 0}
    for trial in range(10000):
        memory = {}
        s = make_state([1, 9], outstanding={1: (1, 5, 1)})
        random_ia_control(s, grid3, substream(17, trial), memory)
        [taxi] = [l for l, rid in memory.items() if rid == 1]
        picks[taxi] += 1
    frac = picks[0] / 10000
    assert abs(frac - 0.5) < 0.02


def test_random_ia_no_free_taxis(grid3):
    memory = {}
    s = make_state([1], dropoffs=[9], outstanding={1: (1, 5, 1)})
    ctrl = random_ia_control(s, grid3, substream(0, 0), memory)
    assert memory == {} and ctrl[0][0] == "hop"


def test_random_ia_holds_through_dropoff(grid3):
    memory = {}
    s = make_state([5], outstanding={1: (1, 5, 4)})  # d(5,4)=1
    ctrl = random_ia_control(s, grid3, substream(1, 0), memory)
    assert ctrl == [(PICKUP, 1)]
    s2 = transition(s, ctrl, [(2, 5, 6)], grid3)
    # taxi occupied: still bound, request 2 must wait
    ctrl2 = random_ia_control(s2, grid3, substream(1, 1), memory)
    assert memory == {0: 1}
    assert ctrl2 == [(HOP, 4)]
    s3 = transition(s2, ctrl2, [], grid3)
    # dropoff done: released, taxi now takes request 2
    ctrl3 = random_ia_control(s3, grid3, substream(1, 2), memory)
    assert memory == {0: 2} and ctrl3 == [(MOVE, 5)]


@pytest.mark.parametrize("dropoff, k", [(1, 0), (2, 1), (9, 4)],
                         ids=["zero-length", "one-step", "four-steps"])
def test_random_ia_binds_a_taxi_for_exactly_its_trip(grid3, dropoff, k):
    """A taxi picks up at node 1 a request whose trip takes k steps. It stays
    bound for the k steps after its pickup, so a zero-length trip frees it in
    the step of its pickup, and in the first step after its dropoff it takes
    the request that waited."""
    memory = {}
    s = make_state([1], outstanding={1: (1, 1, dropoff)})
    ctrl = random_ia_control(s, grid3, substream(1, 0), memory)
    assert ctrl == [(PICKUP, 1)]
    s = transition(s, ctrl, [(2, 5, 6)], grid3)
    for step in range(1, k + 1):
        assert s.dropoffs == [dropoff]
        ctrl = random_ia_control(s, grid3, substream(1, step), memory)
        assert ctrl[0][0] == HOP and memory == {0: 1}
        s = transition(s, ctrl, [], grid3)
    assert s.locations == [dropoff] and s.dropoffs == [0]
    ctrl = random_ia_control(s, grid3, substream(1, k + 1), memory)
    assert memory == {0: 2} and ctrl[0] in ((PICKUP, 2), (MOVE, grid3.next_hop(dropoff, 5)))


# --- legality of emitted controls ---

@pytest.mark.parametrize("cls", [GreedyPolicy, IARAPolicy, IACommitPolicy, RandomIAPolicy])
def test_every_emitted_control_is_legal(cls, grid5, model5_unit):
    # run_episode transitions validate every action; surviving = legal
    tr = run_episode(grid5, model5_unit, cls(grid5), m=3, T=60, seed=21)
    assert len(tr.controls) == 59


@pytest.mark.parametrize("locs, dropoffs, error", [
    ([1, 5], [0, 5], SameNode),         # a dropoff it stands on: no hop exists
    ([1, 5], [0, -1], IllegalControl),  # a dropoff below node 1
    ([1, 5], [0, 99], IllegalControl),  # a dropoff above n
    ([1, 0], [0, 5], IllegalControl),   # on node 0, whose next-hop row is all 0s
], ids=["on-its-dropoff", "negative-dropoff", "dropoff-above-n", "on-node-0"])
def test_state_breaking_the_in_service_invariant_is_a_fleetroll_error(grid3, locs, dropoffs,
                                                                      error):
    """A taxi in service stands on a node in 1..n and has a dropoff in 1..n
    other than that node. The joint builder takes its hop toward that
    dropoff, so a hand-built state that breaks this fails in the policy or in
    transition, with a FleetrollError; an IllegalControl names taxi 1."""
    s = make_state(locs, outstanding={3: (3, 2, 9)}, dropoffs=dropoffs)
    with pytest.raises(FleetrollError) as exc:
        transition(s, IARAPolicy(grid3).control(s), [], grid3)
    assert isinstance(exc.value, error)
    if error is IllegalControl:
        assert str(exc.value) == f"taxi 1: node {locs[1]} or dropoff {dropoffs[1]} is outside 1..9"


@pytest.mark.parametrize("cls", [GreedyPolicy, IARAPolicy, IACommitPolicy, RandomIAPolicy])
@pytest.mark.parametrize("loc, pickup, message", [
    (50, 2, "taxi 1: node 50 is outside 1..9"),
    (0, 2, "taxi 1: node 0 is outside 1..9"),
    (-1, 2, "taxi 1: node -1 is outside 1..9"),
    (5, 20, "request 3: pickup 20 is outside 1..9"),
    (5, 0, "request 3: pickup 0 is outside 1..9"),
    (5, -1, "request 3: pickup -1 is outside 1..9"),
], ids=["free-above-n", "free-on-node-0", "free-below-1", "pickup-above-n", "pickup-on-node-0",
        "pickup-below-1"])
def test_free_taxi_or_pickup_off_the_graph_is_a_fleetroll_error(grid3, cls, loc, pickup,
                                                                 message):
    """A free taxi or a pickup above n is an index past the end of the rows
    and blocks that every base policy reads; the joint builder names the
    taxi or the request instead of letting the IndexError through. A pickup
    below 1 reads padding or a row from its end, so the builder checks it
    before it reads. A free taxi below node 1 reads a row that exists, and
    transition names it."""
    policy = cls(grid3)
    policy.reset(0)
    s = make_state([1, loc], outstanding={3: (3, pickup, 9)})
    with pytest.raises(FleetrollError) as exc:
        transition(s, policy.control(s), [], grid3)
    assert str(exc.value) == message


# --- service work ---

def test_z_ordering_on_scripted_seeds(grid5, model5_light):
    # small-scale analogue of the expected ordering; the acceptance suite
    # runs the full 500-seed version
    zs = {"ia-ra": [], "ia-commit": [], "random-ia": []}
    for seed in range(40):
        for name, cls in (("ia-ra", IARAPolicy), ("ia-commit", IACommitPolicy),
                          ("random-ia", RandomIAPolicy)):
            tr = run_episode(grid5, model5_light, cls(grid5), 3, 50, seed)
            zs[name].append(tr.summary()["z_total"])
    mean = {k: sum(v) / len(v) for k, v in zs.items()}
    assert mean["ia-ra"] <= mean["ia-commit"] <= mean["random-ia"]


# --- min-of-expectation >= expectation-of-min (small version) ---

def line4_distance(a, b):
    return abs(a - b)


def min_of_avg_vs_avg_of_min(taxis, scenarios):
    """Exhaustive: scenarios are equally likely lists of (pickup, dropoff)."""
    n_req = len(scenarios[0])
    injections = list(itertools.permutations(range(len(taxis)), n_req))

    def z(injection, scenario):
        return sum(line4_distance(taxis[injection[i]], pu) + line4_distance(pu, do)
                   for i, (pu, do) in enumerate(scenario))

    min_of_avg = min(sum(z(inj, sc) for sc in scenarios) / len(scenarios)
                     for inj in injections)
    avg_of_min = sum(min(z(inj, sc) for inj in injections) for sc in scenarios) / len(scenarios)
    return min_of_avg, avg_of_min


def test_min_expectation_inequality_samples():
    scenarios_pool = [[(1, 3)], [(2, 4)], [(4, 1)], [(3, 2)]]
    for taxis in itertools.product(range(1, 5), repeat=2):
        for k in (2, 3, 4):
            for scenarios in itertools.combinations(scenarios_pool, k):
                lhs, rhs = min_of_avg_vs_avg_of_min(list(taxis), list(scenarios))
                assert lhs >= rhs


@pytest.mark.parametrize("make_graph", [
    lambda: grid_graph(5), lambda: ring_graph(7),
    lambda: random_strong_digraph(random.Random(8), 20),
], ids=["grid", "one-way-ring", "random-digraph"])
def test_ia_ra_control_equals_reference_on_random_states(make_graph):
    """Same joint control as IA-RA built taxi by taxi on the taxi-by-request
    matrix, with more free taxis than requests and with fewer. The joint
    builder alone also matches
    the taxi-by-taxi reference on targets drawn for any taxi (occupied ones
    included), with targets in shuffled dict order, with no targets, and on
    an all-occupied fleet that has taxis one hop from their dropoffs."""
    graph = make_graph()
    rnd = random.Random(graph.n)
    shapes = set()
    last_hops = 0
    for _ in range(200):
        state = random_fleet_state(rnd, graph, rnd.randint(1, 14), rnd.randint(0, 10))
        got = ia_ra_control(state, graph)
        want = ia_ra_control_reference(state, graph)
        assert got == want
        free = state.dropoffs.count(0)
        shapes.add((free > len(state.outstanding), free < len(state.outstanding)))
        targets = {l: rnd.choice(list(state.outstanding.values()))
                   for l in range(state.m) if state.outstanding and rnd.random() < 0.5}
        assert controls(state, graph, targets) == controls_reference(state, graph, targets)
        assert controls(state, graph, {}) == controls_reference(state, graph, {})
        targets = shuffled(rnd, targets)
        assert controls(state, graph, targets) == controls_reference(state, graph, targets)

        busy = all_occupied_state(rnd, graph, rnd.randint(1, 14))
        last_hops += sum(graph.distance(loc, dropoff) == 1
                         for loc, dropoff in zip(busy.locations, busy.dropoffs))
        targets = {l: rnd.choice(list(state.outstanding.values()))
                   for l in range(busy.m) if state.outstanding and rnd.random() < 0.5}
        assert controls(busy, graph, targets) == controls_reference(busy, graph, targets)
    assert {(True, False), (False, True)} <= shapes
    assert last_hops > 100


def controls(state, graph, targets):
    """_controls' joint control for fixed targets, checking that it hands
    the free taxis to its chooser in index order, each with its node."""
    def choose(free):
        assert free == [(l, state.locations[l]) for l in range(state.m)
                        if state.dropoffs[l] == 0]
        return targets

    return _controls(state, graph, choose)


def shuffled(rnd, d):
    items = list(d.items())
    rnd.shuffle(items)
    return dict(items)


def all_occupied_state(rnd, graph, m):
    """Every taxi occupied, about half of them one hop from the dropoff, the
    dropoffs drawn in shuffled taxi order."""
    locs = [rnd.randint(1, graph.n) for _ in range(m)]
    dropoffs = [0] * m
    for l in rnd.sample(range(m), m):
        if rnd.random() < 0.5:
            dropoffs[l] = rnd.choice(graph.adj[locs[l]])
        else:
            dropoffs[l] = rnd.choice([v for v in range(1, graph.n + 1) if v != locs[l]])
    return FleetState(locs, dropoffs, {}, 1)
