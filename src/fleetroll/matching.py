"""Minimum-cost bipartite assignment of taxis to requests.

`auction_match` is the one exact solver: every matching, from the rollout
lookahead's few pairs to fleet-scale dispatch and the two-phase planner's
cross-sector plan, is scipy's `linear_sum_assignment` (Crouse, IEEE TAES
2016). One algorithm at every size means one tie-break rule at every size.
Dispatch and the planner gather their cost blocks in
`policies.match_free_to_requests`; the rollout lookahead gathers its own the
same way and skips a solve only where it knows the answer without one.
"""

from __future__ import annotations

from scipy.optimize import linear_sum_assignment


def auction_match(cost):
    """Min-cost assignment of every row (rows <= columns); column index per row.

    `cost` is a 2-D array or nested lists of finite costs; every caller
    passes a block gathered from the graph's distance table, or its
    transposed view. linear_sum_assignment solves it exactly and, among
    optimal assignments, picks the same one whatever the dtype, the memory
    layout or the form (tests/test_matching.py checks this). The name is kept
    from when every solve was an auction: the benchmark's traced run
    (bench/tracing.py) hooks `auction_match` by name where rollout and policies import it.
    """
    return linear_sum_assignment(cost)[1].tolist()
