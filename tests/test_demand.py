import math

import pytest

from fleetroll.demand import (DemandModel, DomainMismatch, EmptyLog, InvalidNode,
                              certainty_equivalence_requests, estimate_from_trips,
                              expectation_terms, generate_trips, read_trip_log,
                              sample_arrivals, sample_request, synthetic_model,
                              write_trip_log)
from fleetroll.sim import substream
from conftest import line_graph


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


def test_unseen_pickup_falls_back_to_marginal(grid3):
    m = estimate_from_trips([(1, 1, 2), (2, 1, 3)], grid3)
    assert m.dropoff_pmf(7) == m.marginal_dropoff_pmf


def test_marginal_consistency(grid5):
    model = synthetic_model(grid5, 0.7, hotspot=3, hotspot_mass=0.4)
    recomputed = {}
    for u, pu in model.pickup_pmf.items():
        for v, pv in model.dropoff_given_pickup[u].items():
            recomputed[v] = recomputed.get(v, 0.0) + pu * pv
    for v in recomputed:
        assert model.marginal_dropoff_pmf[v] == pytest.approx(recomputed[v], abs=1e-9)
    assert sum(model.marginal_dropoff_pmf.values()) == pytest.approx(1.0, abs=1e-9)


def test_sample_arrivals_degenerate():
    m = DemandModel({0: 1.0}, {1: 1.0}, {1: {1: 1.0}})
    rng = substream(1, 0)
    assert all(sample_arrivals(m, rng) == 0 for _ in range(20))
    m2 = DemandModel({2: 1.0}, {1: 1.0}, {1: {1: 1.0}})
    assert all(sample_arrivals(m2, substream(1, 0)) == 2 for _ in range(20))


def test_sample_arrivals_mean():
    m = DemandModel({0: 0.5, 2: 0.5}, {1: 1.0}, {1: {1: 1.0}})
    rng = substream(7, 0)
    draws = [sample_arrivals(m, rng) for _ in range(10000)]
    assert abs(sum(draws) / len(draws) - 1.0) < 0.05


def test_sample_request_degenerate_and_fields():
    m = DemandModel({1: 1.0}, {3: 1.0}, {3: {5: 1.0}})
    r = sample_request(m, t=5, rng=substream(0, 0), req_id=9)
    assert (r.pickup, r.dropoff, r.arrival_time, r.id) == (3, 5, 5, 9)


def test_sample_request_frequencies():
    m = DemandModel({1: 1.0}, {1: 0.3, 2: 0.7}, {1: {1: 1.0}, 2: {1: 1.0}})
    rng = substream(13, 0)
    hits = sum(sample_request(m, 1, rng).pickup == 1 for _ in range(10000))
    assert abs(hits / 10000 - 0.3) < 0.02


def test_sampling_determinism(grid5):
    model = synthetic_model(grid5, 0.9)
    a = [sample_request(model, t, substream(3, 2, t)) for t in range(1, 50)]
    b = [sample_request(model, t, substream(3, 2, t)) for t in range(1, 50)]
    assert a == b


def test_ce_requests_count_and_span():
    m = DemandModel({1: 1.0}, {1: 1.0}, {1: {1: 1.0}})
    reqs = certainty_equivalence_requests(m, t=7, t_h=10, rng=substream(0, 1))
    assert len(reqs) == 10
    assert all(7 < r.arrival_time <= 17 for r in reqs)
    assert all(r.id < 0 for r in reqs)

    m0 = DemandModel({0: 1.0}, {1: 1.0}, {1: {1: 1.0}})
    assert certainty_equivalence_requests(m0, 1, 10, substream(0, 1)) == []

    mhalf = DemandModel({0: 0.5, 1: 0.5}, {1: 1.0}, {1: {1: 1.0}})
    reqs = certainty_equivalence_requests(mhalf, 3, 10, substream(0, 1))
    assert len(reqs) == 5
    assert all(3 < r.arrival_time <= 13 for r in reqs)


def test_expectation_terms_single_node():
    from fleetroll import build_graph

    g = build_graph(1, [])
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
    xi = model._initial_sampler.values_at(rng.random(n)).tolist()
    rho = model._pickup_sampler.values_at(rng.random(n)).tolist()
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
    rows = generate_trips(model, horizon=200, seed=4)
    path = tmp_path / "trips.csv"
    write_trip_log(rows, path)
    assert read_trip_log(path) == rows
