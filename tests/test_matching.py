import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetroll.matching import auction_match
from oracles import (AssignmentProblem, TooLarge, brute_force_assignment,
                     lp_transport_value, min_cost_assignment)


def solve(cost):
    return min_cost_assignment(AssignmentProblem([list(r) for r in cost]))


def test_one_by_one():
    a = solve([[5]])
    assert a.pairs == [(0, 0)] and a.total_cost == 5


def test_two_by_two_diagonal():
    a = solve([[1, 2], [2, 1]])
    assert a.pairs == [(0, 0), (1, 1)]
    assert a.total_cost == 2


def test_rectangular_leaves_column_unmatched():
    a = solve([[1, 9, 9], [9, 1, 9]])
    assert a.total_cost == 2
    assert {c for _, c in a.pairs} == {0, 1}


def test_rectangular_more_rows_than_columns():
    a = solve([[7], [1], [3]])
    assert a.pairs == [(1, 0)]
    assert a.total_cost == 1


def test_empty_problem():
    assert min_cost_assignment(AssignmentProblem([])).pairs == []


def test_brute_force_single_row_argmin():
    a = brute_force_assignment(AssignmentProblem([[4, 2, 7]]))
    assert a.pairs == [(0, 1)] and a.total_cost == 2


def test_brute_force_symmetric_costs_lexicographic():
    a = brute_force_assignment(AssignmentProblem([[3, 3, 3]] * 3))
    assert a.total_cost == 9
    assert a.pairs == [(0, 0), (1, 1), (2, 2)]


def test_brute_force_too_large():
    with pytest.raises(TooLarge):
        brute_force_assignment(AssignmentProblem([[1] * 9 for _ in range(9)]))


def test_auction_matches_brute_force_on_random_integer_costs():
    # Costs 0..2 are almost all ties, 0..20 have few; every shape up to 8
    # matched pairs, so both orientations (rows <= columns and rows > columns).
    rng = np.random.default_rng(2024)
    for top in (2, 20):
        for _ in range(300):
            nr = int(rng.integers(1, 9))
            nc = int(rng.integers(1, 9))
            cost = rng.integers(0, top + 1, size=(nr, nc)).tolist()
            exact = brute_force_assignment(AssignmentProblem(cost))
            got = solve(cost)
            assert got.total_cost == exact.total_cost, (cost, got, exact)
            assert got.total_cost == sum(cost[r][c] for r, c in got.pairs)
            assert len({r for r, _ in got.pairs}) == len({c for _, c in got.pairs}) == min(nr, nc)


def test_identity_mapping_of_ids():
    p = AssignmentProblem([[1, 5], [5, 1]], row_ids=[10, 20], col_ids=[7, 8])
    a = min_cost_assignment(p)
    assert a.pairs == [(10, 7), (20, 8)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_scaling_costs_preserves_pairing(nr, nc, data):
    cost = [[data.draw(st.integers(0, 12)) for _ in range(nc)] for _ in range(nr)]
    scale = data.draw(st.sampled_from([2, 3, 5]))
    base = solve(cost)
    scaled = solve([[scale * c for c in row] for row in cost])
    assert scaled.total_cost == scale * base.total_cost


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.data())
def test_row_constant_shift(n, data):
    cost = [[data.draw(st.integers(0, 10)) for _ in range(n)] for _ in range(n)]
    shift = data.draw(st.integers(1, 7))
    row = data.draw(st.integers(0, n - 1))
    shifted = [list(r) for r in cost]
    shifted[row] = [c + shift for c in shifted[row]]
    assert solve(shifted).total_cost == solve(cost).total_cost + shift


def test_large_matchings_match_lp_optimum():
    # Above the brute-force limit the reference is the transportation LP
    # (integral at integer supplies); a zero-cost dummy source takes the
    # unmatched side's surplus when the problem is not square. Both
    # orientations, heavy ties (costs 0..2) and few (costs 0..40).
    rng = np.random.default_rng(11)
    for k in range(11, 41):
        for top in (2, 40):
            extra = int(rng.integers(0, 8))
            for nr, nc in ((k, k + extra), (k + extra, k)):
                cost = rng.integers(0, top + 1, size=(nr, nc)).tolist()
                got = solve(cost)
                assert len(got.pairs) == k
                assert len({r for r, _ in got.pairs}) == len({c for _, c in got.pairs}) == k
                assert got.total_cost == sum(cost[r][c] for r, c in got.pairs)
                rows = cost if nr < nc else [list(c) for c in zip(*cost)]
                supply = [1] * k
                if extra:
                    supply.append(extra)
                    rows = rows + [[0] * (k + extra)]
                lp = lp_transport_value(supply, [1] * (k + extra), rows)
                assert got.total_cost == pytest.approx(lp, abs=1e-6), (k, nr, nc, top)


def test_auction_match_accepts_lists_and_arrays_alike():
    rng = np.random.default_rng(5)
    for k in (1, 3, 8, 11, 25):
        for top in (2, 20):
            cost = rng.integers(0, top + 1, size=(k, k + int(rng.integers(0, 4))))
            assert auction_match(cost) == auction_match(cost.tolist())
            assert auction_match(cost) == auction_match(cost.astype(float))


def test_gathered_block_gets_the_same_columns_in_every_form():
    # Dispatch and the rollout lookahead solve unsigned-short blocks gathered
    # from the distance table, the transposed (non-contiguous) view of one
    # when requests are the rows. The oracles solve the same values as
    # nested lists and float64 arrays, and the golden digests hold only
    # while every form gets the same columns. Values 0..3 make ties
    # everywhere, up to 8 rows and 20 columns.
    rng = np.random.default_rng(24)
    for trial in range(3000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(rows, 21))
        table = rng.integers(0, 4, size=(30, 30)).astype(np.uint16)
        at = rng.integers(0, 30, size=rows).tolist()
        to = rng.integers(0, 30, size=cols).tolist()
        block = table.take(at, 0).take(to, 1)
        view = table.T.take(to, 0).take(at, 1).T
        assert np.array_equal(view, block) and (rows == 1 or not view.flags.c_contiguous)
        want = auction_match(block.tolist())
        assert auction_match(block) == want
        assert auction_match(view) == want
        assert auction_match(np.ascontiguousarray(block, dtype=np.float64)) == want


def test_raising_an_unassigned_column_keeps_the_assignment():
    # Grouped rollout scoring rests on this rule of linear_sum_assignment
    # (scipy's shortest augmenting path): a column left unassigned is on no
    # augmenting path, so raising any of its entries changes no row's
    # column. Small integer costs make many ties. Checked as arrays and as
    # nested lists, with one and with every unassigned column raised.
    rng = np.random.default_rng(2016)
    for trial in range(20000):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(rows + 1, 8))
        cost = rng.integers(0, 5, size=(rows, cols))
        got = auction_match(cost)
        unassigned = sorted(set(range(cols)) - set(got))
        raised = cost.copy()
        if trial % 2:
            unassigned = [unassigned[int(rng.integers(len(unassigned)))]]
        for j in unassigned:
            raised[:, j] += rng.integers(0, 4, size=rows)
        assert auction_match(raised) == got
        assert auction_match(raised.tolist()) == got


def test_single_request_goes_to_the_nearest_taxi_whatever_the_others_rise_to():
    # One request (one row): the taxi taken is strictly nearer than every
    # other, or as near and of a lower index, and stays taken when any
    # other taxi's cost rises. Every row over {0, 1, 2}, up to 6 taxis.
    for n in range(1, 7):
        for row in itertools.product(range(3), repeat=n):
            winner = row.index(min(row))
            assert auction_match([list(row)]) == [winner]
            for j in range(n):
                if j != winner:
                    for up in range(1, 3):
                        raised = list(row)
                        raised[j] += up
                        assert auction_match([raised]) == [winner]
