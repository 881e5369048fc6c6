"""Minimum-cost bipartite assignment of taxis to requests.

`auction_match` is the one exact solver, picked by size. Up to
AUCTION_MAX_PAIRS matched pairs it runs a pure-Python forward auction on
nested lists; above that it calls scipy's `linear_sum_assignment` (Crouse,
IEEE TAES 2016), which is many times faster at fleet scale but no faster on
small problems once the list-to-array conversion is counted. Small problems
therefore keep the auction's exact pairings.

The auction solves rectangular problems directly by letting the smaller side
bid (zero initial prices), which matches the smaller side fully and keeps the
k*epsilon optimality guarantee, k being the number of matched pairs; square
problems additionally use epsilon-scaling (start at max_cost/2, divide by 4
per phase) with prices warm-started between phases. A brute-force enumerator
is kept alongside as the test oracle.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

# Largest matching (rows of a rows <= columns cost matrix) solved by the
# auction; larger ones go to linear_sum_assignment. Measured crossover.
AUCTION_MAX_PAIRS = 10


class MatchingError(Exception):
    pass


class TooLarge(MatchingError):
    pass


@dataclass
class AssignmentProblem:
    cost: np.ndarray  # rows = taxis, columns = requests; nested lists are converted
    row_ids: list = None
    col_ids: list = None

    def __post_init__(self):
        nr = len(self.cost)
        try:
            cost = np.array(self.cost, dtype=float).reshape(nr, -1 if nr else 0)
        except ValueError:
            raise MatchingError("cost matrix is ragged") from None
        bad = ~np.isfinite(cost) | (cost < 0)
        if bad.any():
            raise MatchingError(f"costs must be finite and nonnegative, got {cost[bad][0]}")
        self.cost = cost
        if self.row_ids is None:
            self.row_ids = list(range(nr))
        if self.col_ids is None:
            self.col_ids = list(range(cost.shape[1]))

    @property
    def shape(self):
        return self.cost.shape


@dataclass
class Assignment:
    pairs: list = field(default_factory=list)  # (row id, col id)
    total_cost: float = 0.0


def _auction_pass(cost, eps, prices):
    """One forward-auction pass to a complete assignment of all bidders.

    Bidders are the rows; each grabs the object minimizing cost + price and
    raises that price to its second-best margin plus eps. Prices persist
    across calls; ties go to the lowest object index.
    """
    n_obj = len(cost[0])
    owner = [-1] * n_obj
    assigned = [-1] * len(cost)
    queue = deque(range(len(cost)))
    while queue:
        i = queue.popleft()
        row = cost[i]
        best_j = 0
        best = row[0] + prices[0]
        second = math.inf
        for j in range(1, n_obj):
            v = row[j] + prices[j]
            if v < best:
                second = best
                best = v
                best_j = j
            elif v < second:
                second = v
        if second == math.inf:
            second = best  # single object: bid the minimum increment
        prices[best_j] += second - best + eps
        prev = owner[best_j]
        if prev >= 0:
            assigned[prev] = -1
            queue.append(prev)
        owner[best_j] = i
        assigned[i] = best_j
    return assigned


def _auction(cost, epsilon):
    """Auction on raw cost rows (rows <= columns); column index per row.

    Square problems run the scaling schedule (max cost / 2, divided by 4 per
    phase, prices carried over); rectangular ones run a single phase from zero
    prices, which is what keeps the k*epsilon bound valid when objects can end
    up unassigned.
    """
    k, n_obj = len(cost), len(cost[0])
    prices = [0.0] * n_obj
    if k == n_obj:
        eps = max(max(row) for row in cost) / 2.0
        while eps > epsilon:
            _auction_pass(cost, eps, prices)
            eps /= 4.0
    return _auction_pass(cost, epsilon, prices)


def auction_match(cost, epsilon):
    """Min-cost assignment of every row (rows <= columns); column index per row.

    `cost` is nested lists or a 2-D array. Up to AUCTION_MAX_PAIRS rows it runs
    the auction (`_auction`), within k*epsilon of optimal and so exact for
    integer costs with epsilon < 1/k; larger problems are solved exactly by
    linear_sum_assignment and ignore epsilon. The name is kept from when every
    solve was an auction: the benchmark's traced run (bench/tracing.py) hooks
    `auction_match` by name where rollout and policies import it.
    """
    if len(cost) > AUCTION_MAX_PAIRS:
        return linear_sum_assignment(cost)[1].tolist()
    if isinstance(cost, np.ndarray):
        cost = cost.tolist()
    return _auction(cost, epsilon)


def min_cost_assignment(problem: AssignmentProblem, epsilon: float) -> Assignment:
    """Assignment within k*epsilon of optimal (k = matched pairs), by auction_match.

    With integer costs and epsilon < 1/k the result is exactly optimal. Empty
    problems return an empty assignment. The smaller side is always matched
    fully, as the rows of the matrix auction_match sees; pairs come back
    sorted by row id.
    """
    if epsilon <= 0:
        raise MatchingError(f"epsilon must be positive, got {epsilon}")
    nr, nc = problem.shape
    if nr == 0 or nc == 0:
        return Assignment()
    transposed = nr > nc
    cost = problem.cost.T if transposed else problem.cost
    assigned = auction_match(cost, epsilon)
    total = float(cost[np.arange(len(assigned)), assigned].sum())
    if transposed:
        pairs = [(problem.row_ids[j], problem.col_ids[i]) for i, j in enumerate(assigned)]
    else:
        pairs = [(problem.row_ids[i], problem.col_ids[j]) for i, j in enumerate(assigned)]
    pairs.sort()
    return Assignment(pairs, total)


_PERM_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _permutations_array(n: int, k: int) -> np.ndarray:
    key = (n, k)
    arr = _PERM_CACHE.get(key)
    if arr is None:
        arr = np.array(list(itertools.permutations(range(n), k)), dtype=np.intp)
        _PERM_CACHE[key] = arr
    return arr


def brute_force_assignment(problem: AssignmentProblem) -> Assignment:
    """Exact optimum by enumerating all injections of the smaller side.

    Only for min(rows, cols) <= 8. Returns the lexicographically smallest
    optimal injection (enumeration order), so results are deterministic.
    """
    nr, nc = problem.shape
    if nr == 0 or nc == 0:
        return Assignment()
    if min(nr, nc) > 8:
        raise TooLarge(f"brute force limited to 8 matched pairs, got {min(nr, nc)}")
    cost = np.asarray(problem.cost, dtype=float)
    if nr <= nc:
        perms = _permutations_array(nc, nr)  # column choice per row
        totals = cost[np.arange(nr)[None, :], perms].sum(axis=1)
        best = perms[int(np.argmin(totals))]
        pairs = [(problem.row_ids[i], problem.col_ids[int(best[i])]) for i in range(nr)]
    else:
        perms = _permutations_array(nr, nc)  # row choice per column
        totals = cost[perms, np.arange(nc)[None, :]].sum(axis=1)
        best = perms[int(np.argmin(totals))]
        pairs = [(problem.row_ids[int(best[j])], problem.col_ids[j]) for j in range(nc)]
    pairs.sort()
    total = float(totals.min())
    return Assignment(pairs, total)
