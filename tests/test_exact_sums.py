"""The exact-float tests under CPython 3.12's `sum()`.

From Python 3.12 on, the built-in `sum()` compensates float sums, while the
code under test adds left to right. The tests' references add as running
totals, so they hold on every Python. This module pins a Python port of
3.12's `sum()` (tests/py312_sum.py) to results of a real 3.12.1 interpreter,
then re-runs the exact-float tests with `builtins.sum` swapped for it, so a
reference that leans on `sum()` fails here on any Python, numpy or not.
"""

import builtins
from fractions import Fraction

import pytest

import test_demand
import test_graph
import test_partition
from py312_sum import sum312

INF = float("inf")

# (items, start, what CPython 3.12.1's sum(items, start) returns); 3.11 gives
# another float for the first three and the last three.
FIXED = [
    ([0.1] * 10 + [1e16, 1.0, -1e16], 0, 2.0),
    ([0.1] * 10, 0, 1.0),
    ([1e100, 1.0, -1e100, 1e-100], 0, 1.0),
    ([1, 0.1, 2, 0.2, 3, 0.3], 0, 6.6000000000000005),
    ([0.1, 0.7, 2 ** 70, 0.3], 0, 1.1805916207174113e+21),
    ([True, 0.1, False, 0.2], 0, 1.3),
    ([1.0, INF, -1.0], 0, INF),
    ([1e308, 1e308, -1e308], 0, INF),
    ([-0.0], 0, 0.0),
    ([-0.0, -0.0], -0.0, -0.0),
    ([0.1, 0.2, Fraction(1, 3), 0.4], 0, 1.0333333333333332),
    ([2 ** 63 - 1, 1, 0.5], 0, 9.223372036854776e+18),
    ([1, 2, 3], 0, 6),
    ([], 0.5, 0.5),
    ([0.1] * 10 + [2 ** 64, -2 ** 64] + [0.1] * 10, 0, 0.9999999999999999),
    ([1 / k for k in range(1, 40)], 0.0, 4.2535430389363755),
    ([0.1 / k * d for k, d in zip(range(1, 30), range(30, 1, -1))], 0, 9.38112677251988),
    ([0.1] * 10 + [1] + [0.1] * 10, 0, 3.0),
    ([0.1] * 10, -0.0, 1.0),
]


@pytest.mark.parametrize("items, start, want", FIXED)
def test_port_gives_what_python_3_12_gives(items, start, want):
    got = sum312(items, start)
    assert type(got) is type(want) and repr(got) == repr(want)


def test_exact_float_tests_pass_under_the_3_12_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", sum312)
    assert sum([0.1] * 10) == 1.0  # the swap is in force
    test_demand.test_expectation_terms_equal_nested_python_sums()
    test_partition.test_partitions_equal_nested_list_reference()
    for case in test_graph.SUM_GRAPHS:
        test_graph.test_weighted_distance_sums_equal_nested_python_sums(monkeypatch, *case.values)
