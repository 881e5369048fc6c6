"""Minimum-cost bipartite assignment of taxis to requests.

`auction_match` is the one exact solver: every matching, from the rollout
lookahead's few pairs to fleet-scale dispatch, is scipy's
`linear_sum_assignment` (Crouse, IEEE TAES 2016). One algorithm at every size
means one tie-break rule at every size; the rollout lookahead skips a solve
only where it knows the answer without one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import FleetrollError


class MatchingError(FleetrollError):
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


def auction_match(cost):
    """Min-cost assignment of every row (rows <= columns); column index per row.

    `cost` is a 2-D array or nested lists; linear_sum_assignment solves it
    exactly. The name is kept from when every solve was an auction: the
    benchmark's traced run (bench/tracing.py) hooks `auction_match` by name
    where rollout and policies import it.
    """
    return linear_sum_assignment(cost)[1].tolist()


def min_cost_assignment(problem: AssignmentProblem) -> Assignment:
    """Exact min-cost assignment by auction_match.

    Empty problems return an empty assignment. The smaller side is always
    matched fully, as the rows of the matrix auction_match sees; pairs come
    back sorted by row id.
    """
    nr, nc = problem.shape
    if nr == 0 or nc == 0:
        return Assignment()
    transposed = nr > nc
    cost = problem.cost.T if transposed else problem.cost
    assigned = auction_match(cost)
    total = float(cost[np.arange(len(assigned)), assigned].sum())
    if transposed:
        pairs = [(problem.row_ids[j], problem.col_ids[i]) for i, j in enumerate(assigned)]
    else:
        pairs = [(problem.row_ids[i], problem.col_ids[j]) for i, j in enumerate(assigned)]
    pairs.sort()
    return Assignment(pairs, total)
