import math
import tracemalloc

import numpy as np
import pytest

from fleetroll import demand
from fleetroll.demand import (DemandError, DemandModel, DomainMismatch, EmptyLog, InvalidNode,
                              certainty_equivalence_requests, estimate_from_trips,
                              expectation_terms, generate_trips, read_trip_log,
                              sample_arrivals, sample_request, synthetic_model,
                              write_trip_log)
from fleetroll.graph import grid_graph
from fleetroll.sim import substream
from conftest import line_graph
from oracles import (ScalarDemand, expectation_terms_reference, reference_model_tables,
                     scalar_arrivals, scalar_ce_requests, scalar_generate_trips,
                     scalar_initial, scalar_requests)


def test_degenerate_log_single_pair(grid3):
    trips = [(t, 1, 2) for t in range(1, 11)]
    m = estimate_from_trips(trips, grid3)
    assert m.eta_pmf == {1: 1.0}
    assert m.pickup_pmf == {1: 1.0}
    assert m.dropoff_given_pickup[1] == {2: 1.0}


def test_sixty_trips_over_sixty_steps_unit_rate(grid3):
    trips = [(t, 1 + (t % 9), 1 + ((t * 3) % 9)) for t in range(1, 61)]
    m = estimate_from_trips(trips, grid3)
    assert m.e_eta == pytest.approx(1.0)


def test_hand_counted_frequencies(grid3):
    trips = [(1, 1, 2), (2, 1, 3), (3, 4, 2)]
    m = estimate_from_trips(trips, grid3)
    assert m.pickup_pmf == pytest.approx({1: 2 / 3, 4: 1 / 3})
    assert m.marginal_dropoff_pmf == pytest.approx({2: 2 / 3, 3: 1 / 3})


def test_empty_log_rejected(grid3):
    with pytest.raises(EmptyLog):
        estimate_from_trips([], grid3)


def test_invalid_node_rejected(grid3):
    with pytest.raises(InvalidNode):
        estimate_from_trips([(1, 1, 99)], grid3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("pmf", ["eta", "pickup", "dropoff", "initial"])
def test_non_finite_mass_rejected(pmf, bad):
    # A NaN mass passes both a `p < 0` test and the sum check, since every
    # comparison with NaN is false; each pmf must reject it, and +-inf.
    pmfs = {"eta": {1: 1.0}, "pickup": {1: 1.0}, "dropoff": {1: {1: 1.0}},
            "initial": {1: 1.0}}
    target = pmfs[pmf][1] if pmf == "dropoff" else pmfs[pmf]
    target[2] = bad
    with pytest.raises(DemandError, match="negative or non-finite mass"):
        DemandModel(pmfs["eta"], pmfs["pickup"], pmfs["dropoff"], pmfs["initial"])


@pytest.mark.parametrize("eta, pickup, dropoff, initial, message", [
    ({-1: 1.0}, {1: 1.0}, {1: {1: 1.0}}, None, "eta pmf: key -1 is not an integer >= 0"),
    ({1.5: 1.0}, {1: 1.0}, {1: {1: 1.0}}, None, "eta pmf: key 1.5 is not an integer >= 0"),
    ({1: 1.0}, {1: 1.0}, {1: {-3: 1.0}}, None,
     "dropoff pmf given pickup 1: key -3 is not an integer >= 1"),
    ({1: 1.0}, {0: 0.5, 1: 0.5}, {0: {1: 1.0}, 1: {1: 1.0}}, None,
     "pickup pmf: key 0 is not an integer >= 1"),
    ({1: 1.0}, {1: 1.0}, {1: {1: 1.0}, 0: {1: 1.0}}, None,
     "dropoff pmfs by pickup: key 0 is not an integer >= 1"),
    ({1: 1.0}, {1: 1.0}, {1: {1: 1.0}}, {"2": 1.0},
     "initial location pmf: key '2' is not an integer >= 1"),
], ids=["negative-count", "fractional-count", "negative-dropoff", "padding-pickup",
        "padding-conditional", "string-node"])
def test_support_key_that_is_no_count_or_node_rejected(eta, pickup, dropoff, initial, message):
    # Counts are integers >= 0 and nodes integers >= 1: node 0 is the padding
    # row of the samplers' tables.
    with pytest.raises(DemandError) as err:
        DemandModel(eta, pickup, dropoff, initial)
    assert str(err.value) == message


@pytest.mark.parametrize("pickup, message", [
    ({1: 0.5, 2.5: 0.5}, "pickup pmf: key 2.5 is not an integer >= 1"),
    ({0: 0.5, 1: 0.5}, "pickup pmf: key 0 is not an integer >= 1"),
    ({1: 1.5, 2: -0.5}, "pickup pmf: negative or non-finite mass -0.5 at 2"),
    ({2: 1.0, 1: math.nan}, "pickup pmf: negative or non-finite mass nan at 1"),
    ({1: 1.0, 2: math.inf}, "pickup pmf: negative or non-finite mass inf at 2"),
    ({1: 0.5, 2: 0.25 + 2e-9}, "pickup pmf: masses sum to 0.7500000019999999, expected 1"),
    ({}, "pickup pmf: masses sum to 0.0, expected 1"),
    ({3: 0.5, -1: 0.25, -2: 0.25}, "pickup pmf: key -2 is not an integer >= 1"),
], ids=["non-integer-key", "key-below-least", "negative-mass", "nan-mass", "infinite-mass",
        "sum-off", "empty", "two-bad-keys"])
def test_bad_pmf_message_names_the_first_bad_entry_in_key_order(pickup, message):
    # The messages of an entry-by-entry walk in ascending key order (a key
    # checked before its mass, the sum last), word for word.
    with pytest.raises(DemandError) as err:
        DemandModel({1: 1.0}, pickup, {1: {1: 1.0}})
    assert str(err.value) == message


@pytest.mark.parametrize("pickup, dropoff, message", [
    ({1: 0.5, "a": 0.5}, {1: {1: 1.0}}, "pickup pmf: key 'a' is not an integer >= 1"),
    ({1: 1.0}, {1: {1: 1.0}, "x": {1: 1.0}},
     "dropoff pmfs by pickup: key 'x' is not an integer >= 1"),
], ids=["pickup-pmf", "dropoff-pmfs-by-pickup"])
def test_keys_of_types_that_do_not_compare_rejected(pickup, dropoff, message):
    # Sorting a string key among integers raises TypeError; the model names the key instead.
    with pytest.raises(DemandError) as err:
        DemandModel({1: 1.0}, pickup, dropoff)
    assert str(err.value) == message


def test_integer_keys_of_any_integer_type_keep_the_model():
    # numpy integers are integers; zero eta masses stay in eta_pmf, and only
    # positive masses enter the node pmfs.
    got = DemandModel({np.int64(0): 0.0, 2: 1.0}, {np.int64(3): 0.5, 1: 0.5, 2: 0.0},
                      {1: {2: 1.0}, 3: {1: 0.25, 2: 0.75}})
    want = DemandModel({0: 0.0, 2: 1.0}, {1: 0.5, 3: 0.5}, {1: {2: 1.0}, 3: {1: 0.25, 2: 0.75}})
    assert list(got.eta_pmf.items()) == [(0, 0.0), (2, 1.0)]
    assert all(type(k) is int for k in got.eta_pmf)
    assert list(got.pickup_pmf.items()) == [(1, 0.5), (3, 0.5)] == list(want.pickup_pmf.items())
    assert got.e_eta == 2.0
    assert got.dropoff_given_pickup == want.dropoff_given_pickup
    assert got.marginal_dropoff_pmf == want.marginal_dropoff_pmf


def test_trip_log_far_in_time_costs_its_trips_not_its_horizon(grid3):
    # Zero-arrival steps are counted, not visited: a largest t near 1e9 builds
    # at once and gives the exact relative frequencies.
    last = 999_999_937
    trips = [(1, 1, 2), (1, 2, 3), (5, 4, 1), (last, 3, 1)]
    assert estimate_from_trips(trips, grid3).eta_pmf == {0: (last - 3) / last, 1: 2 / last,
                                                         2: 1 / last}
    assert estimate_from_trips(trips, grid3, horizon=4).eta_pmf == {0: 3 / 4, 2: 1 / 4}


def test_unseen_pickup_has_no_conditional_and_is_never_drawn(grid3):
    m = estimate_from_trips([(1, 1, 2), (2, 1, 3)], grid3)
    assert list(m.dropoff_given_pickup) == [1]
    pickups, dropoffs = sample_request(m, substream(2, 0), 500)
    assert set(pickups.tolist()) == {1} and set(dropoffs.tolist()) == {2, 3}


def test_marginal_consistency(grid5):
    model = synthetic_model(grid5, 0.7, hotspot=3, hotspot_mass=0.4)
    recomputed = {}
    for u, pu in model.pickup_pmf.items():
        for v, pv in model.dropoff_given_pickup[u].items():
            recomputed[v] = recomputed.get(v, 0.0) + pu * pv
    for v in recomputed:
        assert model.marginal_dropoff_pmf[v] == pytest.approx(recomputed[v], abs=1e-9)
    assert sum(model.marginal_dropoff_pmf.values()) == pytest.approx(1.0, abs=1e-9)


def test_hotspot_mass_needs_a_hotspot(grid5):
    # A positive mass with no node to put it on is an error, not a uniform model.
    with pytest.raises(DemandError, match="hotspot mass 0.3 needs a hotspot node"):
        synthetic_model(grid5, 0.7, hotspot_mass=0.3)
    uniform = synthetic_model(grid5, 0.7)
    assert synthetic_model(grid5, 0.7, hotspot_mass=0.0).pickup_pmf == uniform.pickup_pmf
    assert synthetic_model(grid5, 0.7, hotspot=3).pickup_pmf == uniform.pickup_pmf


def test_sample_arrivals_degenerate():
    m = DemandModel({0: 1.0}, {1: 1.0}, {1: {1: 1.0}})
    assert sample_arrivals(m, substream(1, 0), 20).tolist() == [0] * 20
    m2 = DemandModel({2: 1.0}, {1: 1.0}, {1: {1: 1.0}})
    assert sample_arrivals(m2, substream(1, 0), 20).tolist() == [2] * 20
    assert sample_arrivals(m2, substream(1, 0), 0).tolist() == []


def test_sample_arrivals_mean():
    m = DemandModel({0: 0.5, 2: 0.5}, {1: 1.0}, {1: {1: 1.0}})
    rng = substream(7, 0)
    draws = sample_arrivals(m, rng, 10000)
    assert abs(draws.mean() - 1.0) < 0.05


def test_sample_request_degenerate_and_fields():
    m = DemandModel({1: 1.0}, {3: 1.0}, {3: {5: 1.0}})
    pickups, dropoffs = sample_request(m, substream(0, 0), 4)
    assert (pickups.tolist(), dropoffs.tolist()) == ([3] * 4, [5] * 4)
    [r] = certainty_equivalence_requests(m, t_h=1, rng=substream(0, 0))
    assert type(r) is tuple and r == (-1, 3, 5)


def test_sample_request_frequencies():
    m = DemandModel({1: 1.0}, {1: 0.3, 2: 0.7}, {1: {1: 1.0}, 2: {1: 1.0}})
    rng = substream(13, 0)
    pickups, _ = sample_request(m, rng, 10000)
    assert abs((pickups == 1).mean() - 0.3) < 0.02


def test_sampling_determinism(grid5):
    model = synthetic_model(grid5, 0.9)
    a = [sample_request(model, substream(3, 2, t), t) for t in range(1, 50)]
    b = [sample_request(model, substream(3, 2, t), t) for t in range(1, 50)]
    assert all(np.array_equal(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def test_ce_requests_count_and_ids():
    m = DemandModel({1: 1.0}, {1: 1.0}, {1: {1: 1.0}})
    reqs = certainty_equivalence_requests(m, t_h=10, rng=substream(0, 1))
    assert len(reqs) == 10
    assert all(r[0] < 0 for r in reqs)

    m0 = DemandModel({0: 1.0}, {1: 1.0}, {1: {1: 1.0}})
    assert certainty_equivalence_requests(m0, 10, substream(0, 1)) == []

    mhalf = DemandModel({0: 0.5, 1: 0.5}, {1: 1.0}, {1: {1: 1.0}})
    reqs = certainty_equivalence_requests(mhalf, 10, substream(0, 1))
    assert len(reqs) == 5


def test_expectation_terms_single_node():
    from fleetroll import CityGraph

    g = CityGraph(1, [])
    m = DemandModel({1: 1.0}, {1: 1.0}, {1: {1: 1.0}})
    terms = expectation_terms(m, g)
    assert (terms.e_xi_rho, terms.e_lrand_rho, terms.e_rho_delta) == (0.0, 0.0, 0.0)


def test_expectation_terms_two_node_line():
    g = line_graph(2)
    m = DemandModel({1: 1.0}, {2: 1.0}, {2: {1: 1.0}}, initial_pmf={1: 1.0})
    terms = expectation_terms(m, g)
    assert terms.e_xi_rho == 1.0
    assert terms.e_rho_delta == 1.0
    # previous-dropoff term couples the marginal dropoff (node 1) to pickups (node 2)
    assert terms.e_lrand_rho == 1.0


def test_expectation_terms_domain_mismatch(grid3):
    m = DemandModel({1: 1.0}, {99: 1.0}, {99: {1: 1.0}})
    with pytest.raises(DomainMismatch):
        expectation_terms(m, grid3)


def test_expectation_terms_match_monte_carlo(grid5):
    model = synthetic_model(grid5, 1.0)
    terms = expectation_terms(model, grid5)
    rng = substream(5, 9)
    n = 20000
    xi = model.sample_initial(rng, n).tolist()
    rho, _ = sample_request(model, rng, n)
    rho = rho.tolist()
    samples = [grid5.distance(a, b) for a, b in zip(xi, rho)]
    mean = sum(samples) / n
    sd = math.sqrt(sum((s - mean) ** 2 for s in samples) / (n - 1))
    assert abs(mean - terms.e_xi_rho) < 3 * sd / math.sqrt(n)


def test_estimated_model_converges_in_total_variation(grid5):
    truth = synthetic_model(grid5, 1.0, hotspot=7, hotspot_mass=0.3)
    trips = generate_trips(truth, horizon=50000, seed=99)
    est = estimate_from_trips(trips, grid5)
    tv_pickup = 0.5 * sum(abs(est.pickup_pmf.get(v, 0.0) - truth.pickup_pmf.get(v, 0.0))
                          for v in range(1, 26))
    tv_drop = 0.5 * sum(abs(est.marginal_dropoff_pmf.get(v, 0.0)
                            - truth.marginal_dropoff_pmf.get(v, 0.0))
                        for v in range(1, 26))
    assert tv_pickup <= 0.05
    assert tv_drop <= 0.05


def test_trip_log_round_trip(tmp_path, grid5):
    model = synthetic_model(grid5, 0.8)
    rows = list(generate_trips(model, horizon=200, seed=4))
    path = tmp_path / "trips.csv"
    assert write_trip_log(iter(rows), path) == len(rows)
    assert read_trip_log(path) == rows


def test_writing_a_generated_trip_log_keeps_one_step_of_rows(tmp_path, grid5):
    # Rows are drawn a step at a time and written as they come, so the traced
    # peak of drawing and writing a log does not grow with its horizon.
    model = synthetic_model(grid5, 20.0)

    def peak(horizon):
        tracemalloc.start()
        try:
            write_trip_log(generate_trips(model, horizon, seed=1), tmp_path / "t.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # first-call allocations
    small, large = peak(1500), peak(3000)
    assert large <= 1.1 * small, (small, large)


def built_with_reference(monkeypatch, make):
    """The model `make()` builds, and the entry-by-entry reference tables of
    the arguments it passed to DemandModel."""
    seen = []

    class Recording(DemandModel):
        def __init__(self, *args, **kwargs):
            seen.append((args, kwargs))
            super().__init__(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(demand, "DemandModel", Recording)
        model = make()
    [(args, kwargs)] = seen
    return model, reference_model_tables(*args, **kwargs)


def model_tables(model):
    def row(u):
        g, size = model._dropoff_group[u], len(model.dropoff_given_pickup[u])
        return (model._dropoff_values[g, :size].tolist(),
                model._dropoff_cdf[g, :size].tolist())

    return {
        "eta": model.eta_pmf, "pickup": model.pickup_pmf,
        "marginal": model.marginal_dropoff_pmf, "initial": model.initial_location_pmf,
        "eta_bounds": model._eta_sampler.cum.tolist(),
        "pickup_bounds": model._pickup_sampler.cum.tolist(),
        "initial_bounds": model._initial_sampler.cum.tolist(),
        "dropoff": {u: row(u) for u in sorted(model.dropoff_given_pickup)},
    }


def two_conditionals_model():
    # Two distinct conditional objects shared by alternating pickups.
    n = 30
    near = {v: 1 / 7 for v in range(1, 8)}
    far = {v: (v % 5 + 1) / 90 for v in range(10, 25)}
    far[24] += 1 - sum(far.values())
    pickup = {u: (u % 4 + 1) / 75 for u in range(1, n + 1)}
    return demand.DemandModel({0: 0.25, 1: 0.5, 3: 0.25}, pickup,
                       {u: near if u % 2 else far for u in range(1, n + 1)},
                       initial_pmf={v: 1 / n for v in range(1, n + 1)})


def test_model_tables_match_entry_by_entry_reference(monkeypatch):
    g10, g15 = grid_graph(10), grid_graph(15)
    trips = list(generate_trips(synthetic_model(g10, 1.5, hotspot=45, hotspot_mass=0.2),
                                horizon=600, seed=3))
    makers = [
        lambda: synthetic_model(g10, 0.7),
        lambda: synthetic_model(g15, 6.0, hotspot=113, hotspot_mass=0.3),
        lambda: estimate_from_trips(trips, g10),
        two_conditionals_model,
    ]
    for make in makers:
        assert_tables_match_reference(monkeypatch, make)


def assert_tables_match_reference(monkeypatch, make):
    model, want = built_with_reference(monkeypatch, make)
    got = model_tables(model)
    for name in ("eta", "pickup", "marginal", "initial"):
        assert list(got[name].items()) == list(want[name].items()), name
    assert got == want
    return model


def test_marginal_of_conditionals_that_coincide_on_some_nodes(monkeypatch):
    # Nodes 5 and 6 have mass 1/8 under both conditionals, 7 and 8 under one
    # only; 1-4 are in one support, 9-12 in the other.
    a = {v: 1 / 8 for v in range(1, 9)}
    b = {5: 1 / 8, 6: 1 / 8, 7: 1 / 4, 8: 1 / 16, 9: 1 / 16, 10: 1 / 8, 11: 1 / 8, 12: 1 / 8}
    pickup = {u: (u % 3 + 1) / 24 for u in range(1, 13)}
    make = lambda: demand.DemandModel({1: 1.0}, pickup, {u: a if u % 2 else b for u in pickup})
    marginal = assert_tables_match_reference(monkeypatch, make).marginal_dropoff_pmf
    assert marginal[5] == marginal[6] and len(set(marginal.values())) > 3


def test_marginal_of_masses_that_differ_in_the_last_bit(monkeypatch):
    cond = {v: 0.1 for v in range(1, 11)}
    cond[3] = float(np.nextafter(0.1, 1.0))
    cond[7] = float(np.nextafter(0.1, 0.0))
    # Halves add up exactly, so each node's total is its own mass.
    make = lambda: demand.DemandModel({2: 1.0}, {1: 0.5, 2: 0.5}, {1: cond, 2: cond})
    marginal = assert_tables_match_reference(monkeypatch, make).marginal_dropoff_pmf
    assert [marginal[v] for v in (1, 3, 7)] == [cond[1], cond[3], cond[7]]
    assert len({marginal[1], marginal[3], marginal[7]}) == 3
    pickup = {u: 1 / 30 for u in range(1, 31)}
    assert_tables_match_reference(
        monkeypatch, lambda: demand.DemandModel({2: 1.0}, pickup, {u: cond for u in pickup}))


def test_marginal_in_many_blocks(monkeypatch):
    g10 = grid_graph(10)
    trips = list(generate_trips(synthetic_model(g10, 1.5, hotspot=45, hotspot_mass=0.2),
                                horizon=300, seed=4))
    monkeypatch.setattr(demand, "_BLOCK_CELLS", 5)
    for make in (lambda: synthetic_model(g10, 2.0, hotspot=12, hotspot_mass=0.4),
                 lambda: estimate_from_trips(trips, g10), two_conditionals_model):
        assert_tables_match_reference(monkeypatch, make)


def test_marginal_of_a_trip_log_on_a_40x40_grid(monkeypatch):
    g40 = grid_graph(40)
    trips = list(generate_trips(synthetic_model(g40, 3.0, hotspot=820, hotspot_mass=0.2),
                                horizon=1000, seed=2))
    model = assert_tables_match_reference(monkeypatch, lambda: estimate_from_trips(trips, g40))
    assert len(model._dropoff_pmfs) > 1000


def test_expectation_terms_equal_nested_python_sums():
    g10, g15 = grid_graph(10), grid_graph(15)
    hotspot = synthetic_model(g15, 6.0, hotspot=113, hotspot_mass=0.3)
    from_log = estimate_from_trips(generate_trips(hotspot, horizon=150, seed=6), g15)
    for model, g in ((hotspot, g15), (from_log, g15), (two_conditionals_model(), g10)):
        terms = expectation_terms(model, g)
        got = (terms.e_xi_rho, terms.e_lrand_rho, terms.e_rho_delta)
        assert got == expectation_terms_reference(model, g)


def sampler_models():
    """Models whose draws are checked against the scalar reference: one
    shared conditional (synthetic, 10x10 and a 15x15 hotspot), one
    conditional per pickup (a trip log and a bursty log of 30 trips in one
    of 5 minutes) and two conditionals shared by alternating pickups."""
    g5, g10, g15 = grid_graph(5), grid_graph(10), grid_graph(15)
    trips = list(generate_trips(synthetic_model(g10, 1.5, hotspot=45, hotspot_mass=0.2),
                                horizon=600, seed=3))
    return {
        "synthetic": synthetic_model(g10, 0.7),
        "hotspot-15": synthetic_model(g15, 6.0, hotspot=113, hotspot_mass=0.3),
        "trip-log": estimate_from_trips(trips, g10),
        "bursty": estimate_from_trips([(1, 1 + i % 5, 1 + 3 * i % 25) for i in range(30)],
                                      g5, horizon=5),
        "two-conditionals": two_conditionals_model(),
    }


def same_draws(batched, scalar, *args):
    """Both draw functions on equal fresh streams: their values, and the
    state the stream is left in."""
    rng_b, rng_s = substream(*args), substream(*args)
    return batched(rng_b), scalar(rng_s), rng_b.bit_generator.state == rng_s.bit_generator.state


def test_batched_draws_equal_scalar_reference():
    models = sampler_models()
    assert len(models["trip-log"]._dropoff_pmfs) > 25
    for name, model in models.items():
        for trial, n in enumerate([0, 1, 2, 7, 40, 333]):
            got, want, same = same_draws(lambda r: sample_arrivals(model, r, n).tolist(),
                                         lambda r: scalar_arrivals(model, r, n), 1, trial)
            assert got == want and same, (name, n)
            got, want, same = same_draws(
                lambda r: tuple(a.tolist() for a in sample_request(model, r, n)),
                lambda r: tuple(scalar_requests(model, r, n)), 2, trial)
            assert got == want and same, (name, n)
            got, want, same = same_draws(lambda r: model.sample_initial(r, n).tolist(),
                                         lambda r: scalar_initial(model, r, n), 3, trial)
            assert got == want and same, (name, n)
        for t, t_h in [(1, 1), (7, 10), (30, 25)]:
            got, want, same = same_draws(
                lambda r: certainty_equivalence_requests(model, t_h, r),
                lambda r: scalar_ce_requests(model, t_h, r), 4, t)
            assert got == want and same, (name, t_h)
        assert list(generate_trips(model, 150, 8)) == scalar_generate_trips(model, 150, 8), name


class ScriptedUniforms:
    """A stand-in generator that serves a fixed list of uniforms in order,
    one at a time or as arrays, and fails if asked for more."""

    def __init__(self, us):
        self.us, self.at = list(us), 0

    def random(self, size=None):
        take = 1 if size is None else size
        assert self.at + take <= len(self.us)
        out = self.us[self.at:self.at + take]
        self.at += take
        return out[0] if size is None else np.array(out)


def test_batched_draws_on_cdf_bounds_equal_scalar_reference():
    for name, model in sampler_models().items():
        demand = ScalarDemand(model)
        # Each pickup's interval start, paired with each of its dropoffs' starts.
        stream = [u for pu in demand.pickup.starts()
                  for du in demand.dropoff(demand.pickup.value(pu)).starts()
                  for u in (pu, du)]
        count = len(stream) // 2
        got = tuple(a.tolist() for a in sample_request(model, ScriptedUniforms(stream), count))
        want = scalar_requests(model, ScriptedUniforms(stream), count)
        assert got == want, name
        assert sorted(set(zip(*got))) == sorted(
            (u, v) for u in model.pickup_pmf for v in model.dropoff_given_pickup[u])
        ce_count = int(round(3 * model.e_eta))
        ce_stream = (stream * (1 + ce_count))[:2 * ce_count]
        assert (certainty_equivalence_requests(model, 3, ScriptedUniforms(ce_stream))
                == scalar_ce_requests(model, 3, ScriptedUniforms(ce_stream))), name
        for draw, scalar, sampler in (
                (sample_arrivals, scalar_arrivals, demand.eta),
                (lambda m, r, n: m.sample_initial(r, n), scalar_initial, demand.initial)):
            us = sampler.starts()
            got = draw(model, ScriptedUniforms(us), len(us)).tolist()
            assert got == scalar(model, ScriptedUniforms(us), len(us)) == sampler.values
