"""fleetroll: discrete-time taxi fleet simulation, dispatch policies,
two-phase multiagent rollout planning, and fleet-size stability analysis."""

from .errors import FleetrollError
from .graph import CityGraph, build_graph, grid_graph, load_graph, save_graph
from .demand import (DemandModel, Request, estimate_from_trips, expectation_terms,
                     sample_arrivals, sample_request, certainty_equivalence_requests,
                     synthetic_model)
from .sim import FleetState, EpisodeTrace, transition, stage_cost, run_episode
from .policies import (GreedyPolicy, IARAPolicy, IACommitPolicy, RandomIAPolicy,
                       service_distance)
from .rollout import RolloutConfig, RolloutPolicy, one_at_a_time_control
from .partition import PartitionSpec, get_partitions
from .planner import TwoPhasePolicy, two_phase_control, high_level_plan
from .stability import (StabilityReport, compute_bounds, bounds_from_expectations,
                        wasserstein_discrete, empirical_stability)

__version__ = "0.1.0"
