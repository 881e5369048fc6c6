"""Tracing for the benchmark's traced run: spans, counters and hooks.

Nothing in fleetroll imports this module. The traced run patches module
attributes where their callers look them up (for example
`fleetroll.rollout.auction_match`), records coarse boundaries as spans and
hot leaf calls as aggregated counters, and restores every original on exit.

Timing model: every wrapped call pushes a frame onto one stack. When a call
returns, its duration is charged to the enclosing frame as child time, so a
layer's self time is its own duration minus the durations of the wrapped
calls directly inside it. The wrapper's own cost per call is measured once
and taken back out (`Tracer.calibrate`). Spans never open inside an
aggregated call (the hook table below keeps it that way), so span self times
can be recomputed offline from the span records alone; `self_times` does
that.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from contextlib import contextmanager

_clock = time.perf_counter

# A span record: [name, start, end, parent span index or -1, aggregated
# child seconds]. The last field is the time of aggregated (non-span) calls
# made directly inside the span.
NAME, START, END, PARENT, AGG = range(5)


def self_times(spans):
    """Self time of each span: its duration minus its direct child spans and
    minus the aggregated calls made directly inside it."""
    own = [s[END] - s[START] - s[AGG] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class Tracer:
    """Span recorder plus aggregated counters, kept in memory until dumped."""

    def __init__(self):
        self.spans = []
        self.counters = {}   # name -> [calls, total seconds, self seconds]
        self.values = {}     # name -> number (counts and maxima set by hooks)
        self.missing = []    # hook targets that no longer exist
        self._stack = []     # open frames: [child span s, child agg s, span index]
        self._patched = []   # (container, key, original) to restore
        self.cost_in = 0.0   # wrapper cost per aggregated call inside its timed interval
        self.cost_out = 0.0  # ... and outside it, which the caller would absorb

    def calibrate(self, n=20000, rounds=5):
        """Measure what an aggregated wrapper costs per call, so that it is
        taken out of the callee's and the caller's self times. Hot leaves such
        as next_hop run millions of times, where this cost is not small."""
        def noop():
            return None

        total = inside = float("inf")
        for _ in range(rounds):
            probe = Tracer()
            wrapped = probe.wrap_agg(noop, "probe")
            t0 = _clock()
            for _ in range(n):
                noop()
            t1 = _clock()
            for _ in range(n):
                wrapped()
            t2 = _clock()
            bare = (t1 - t0) / n
            total = min(total, (t2 - t1) / n - bare)
            inside = min(inside, probe.counters["probe"][1] / n - bare)
        self.cost_in = max(inside, 0.0)
        self.cost_out = max(total - self.cost_in, 0.0)

    def _open_span(self):
        for frame in reversed(self._stack):
            if frame[2] >= 0:
                return frame[2]
        return -1

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._open_span(), 0.0]
        self.spans.append(rec)
        frame = [0.0, 0.0, idx]
        self._stack.append(frame)
        rec[START] = _clock()
        try:
            yield
        finally:
            rec[END] = _clock()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += rec[END] - rec[START]
            rec[AGG] = frame[1]

    def bump(self, name, by=1):
        self.values[name] = self.values.get(name, 0) + by

    def at_least(self, name, value):
        self.values[name] = max(self.values.get(name, value), value)

    def tally(self, name, own):
        """Count one call and its self time under `name` (no total time)."""
        c = self.counters.setdefault(name, [0, 0.0, 0.0])
        c[0] += 1
        c[2] += own

    def wrap_span(self, fn, name, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def wrap_agg(self, fn, name, after=None):
        stack = self._stack
        counter = self.counters.setdefault(name, [0, 0.0, 0.0])
        cost_in, cost_out = self.cost_in, self.cost_out

        def traced(*args, **kwargs):
            frame = [0.0, 0.0, -1]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - start - cost_in
                if stack:
                    stack[-1][1] += dur + cost_out
                own = dur - frame[0] - frame[1]
                counter[0] += 1
                counter[1] += dur
                counter[2] += own
            if after is not None:
                after(self, args, own)
            return result
        return traced

    def wrap_count(self, fn, name):
        values = self.values
        values.setdefault(name, 0)

        def counted(*args, **kwargs):
            values[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, hooks):
        """Patch each hook target; a target that is gone is recorded in
        `missing` and skipped."""
        self.calibrate()
        wrappers = {"span": self.wrap_span, "agg": self.wrap_agg}
        for target, kind, name, after in hooks:
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            container, key, original = found
            if kind == "count":
                wrapped = self.wrap_count(original, name)
            else:
                wrapped = wrappers[kind](original, name, after)
            _assign(container, key, wrapped)
            self._patched.append((container, key, original))

    def uninstall(self):
        while self._patched:
            container, key, original = self._patched.pop()
            _assign(container, key, original)

    def dump(self):
        return {
            "spans": [{"name": s[NAME], "start": s[START], "end": s[END],
                       "parent": s[PARENT], "agg_child_s": s[AGG]} for s in self.spans],
            "counters": {k: {"calls": c[0], "total_s": c[1], "self_s": c[2]}
                         for k, c in sorted(self.counters.items())},
            "values": dict(sorted(self.values.items())),
            "missing_hooks": list(self.missing),
        }

    # -- summaries over the recorded spans --------------------------------

    def span_durations(self, name):
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def span_self_total(self, name):
        own = self_times(self.spans)
        return sum((t for s, t in zip(self.spans, own) if s[NAME] == name), 0.0)


def _resolve(target):
    """'pkg.module:Attr.sub' -> (container, key, current value) or None.

    A path step into a dict indexes it, so 'mod:TABLE.key' patches one entry.
    """
    module_name, _, path = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        obj = obj.get(part) if isinstance(obj, dict) else getattr(obj, part, None)
        if obj is None:
            return None
    key = parts[-1]
    if isinstance(obj, dict):
        return (obj, key, obj[key]) if key in obj else None
    if key in getattr(obj, "__dict__", {}):
        return obj, key, obj.__dict__[key]
    return None


def _assign(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


# -- hook table ------------------------------------------------------------

MATCH_BUCKETS = ((3, "k_le3"), (10, "k4_10"), (30, "k11_30"), (math.inf, "k_gt30"))


def match_bucket(k):
    return next(label for top, label in MATCH_BUCKETS if k <= top)


def _after_auction(tracer, args, own):
    cost = args[0]
    rows, cols = len(cost), len(cost[0])
    _after_match(tracer, min(rows, cols), rows * cols, own)


def _after_assignment(tracer, args, own):
    rows, cols = args[0].shape
    _after_match(tracer, min(rows, cols), rows * cols, own)


def _after_match(tracer, k, cells, own):
    bucket = match_bucket(k)
    tracer.bump("matching.cells", cells)
    tracer.tally(f"matching.{bucket}", own)


def _after_high_level(tracer, args, plan):
    clock = args[0].clock
    tracer.bump("planner.transits",
                sum(1 for r in plan.transit.values() if r.start_clock == clock))


def _after_sector(tracer, args, _result):
    tracer.at_least("planner.sector_taxis_max", args[0].m)


# (target, kind, layer name, after-hook). Names follow the layer metrics. A
# span after-hook receives the call's result, an aggregated one its self time.
HOOKS = (
    ("fleetroll.graph:CityGraph.next_hop", "agg", "graph.next_hop", None),
    ("fleetroll.rollout:_sample_scenario", "agg", "demand.sample", None),
    ("fleetroll.sim:sample_arrivals", "agg", "demand.sample", None),
    ("fleetroll.sim:sample_request", "agg", "demand.sample", None),
    ("fleetroll.demand:DemandModel.sample_initial", "agg", "demand.sample", None),
    ("fleetroll.planner:certainty_equivalence_requests", "agg", "demand.sample", None),
    ("fleetroll.rollout:auction_match", "agg", "matching", _after_auction),
    ("fleetroll.policies:auction_match", "agg", "matching", _after_auction),
    ("fleetroll.planner:min_cost_assignment", "agg", "matching", _after_assignment),
    ("fleetroll.policies:ia_ra_control", "agg", "policies.dispatch", None),
    ("fleetroll.rollout:BASE_CONTROLS.ia-ra", "agg", "policies.dispatch", None),
    ("fleetroll.sim:transition", "agg", "sim.transition", None),
    ("fleetroll.rollout:transition", "agg", "sim.transition", None),
    ("fleetroll.rollout:one_at_a_time_control", "agg", "rollout.control", None),
    ("fleetroll.planner:one_at_a_time_control", "agg", "rollout.control", None),
    ("fleetroll.rollout:_trajectory_cost", "count", "rollout.trajectories", None),
    ("fleetroll.rollout:RolloutPolicy.control", "span", "control", None),
    ("fleetroll.planner:TwoPhasePolicy.control", "span", "control", None),
    ("fleetroll.policies:IARAPolicy.control", "span", "control", None),
    ("fleetroll.planner:high_level_plan", "span", "high_level", _after_high_level),
    ("fleetroll.planner:low_level_plan", "span", "sector", _after_sector),
    ("fleetroll.planner:get_partitions", "span", "partition.build", None),
    ("fleetroll.stability:expectation_terms", "span", "expectations", None),
    ("fleetroll.stability:wasserstein_discrete", "span", "wasserstein", None),
)


def layer_metrics(tracer):
    """Per-layer metrics (name -> (value, unit)) from one traced pass.

    Set-up layers report the median per build, like `setup_s`; every other
    time and count is a total over the pass.
    """
    def calls(name):
        return tracer.counters.get(name, [0, 0.0, 0.0])[0]

    def own(name):
        return tracer.counters.get(name, [0, 0.0, 0.0])[2]

    def median_span(name):
        d = tracer.span_durations(name)
        return statistics.median(d) if d else 0.0

    sector_ms = [d * 1000.0 for d in tracer.span_durations("sector")]
    control = tracer.span_durations("control")
    control_total = sum(control)
    out = {
        "graph.build_s": (median_span("graph.build"), "s"),
        "graph.next_hop.calls": (calls("graph.next_hop"), "count"),
        "graph.next_hop.self_s": (own("graph.next_hop"), "s"),
        "demand.build_s": (median_span("demand.build"), "s"),
        "demand.sample.calls": (calls("demand.sample"), "count"),
        "demand.sample.self_s": (own("demand.sample"), "s"),
        "matching.solves": (calls("matching"), "count"),
        "matching.cells": (tracer.values.get("matching.cells", 0), "count"),
        "matching.self_s": (own("matching"), "s"),
    }
    for _, label in MATCH_BUCKETS:
        out[f"matching.solves.{label}"] = (calls(f"matching.{label}"), "count")
    for _, label in MATCH_BUCKETS:
        out[f"matching.self_s.{label}"] = (own(f"matching.{label}"), "s")
    out.update({
        "policies.dispatch.calls": (calls("policies.dispatch"), "count"),
        "policies.dispatch.self_s": (own("policies.dispatch"), "s"),
        "sim.transition.calls": (calls("sim.transition"), "count"),
        "sim.transition.self_s": (own("sim.transition"), "s"),
        "sim.runner.self_s": (tracer.span_self_total("episode"), "s"),
        "rollout.control.calls": (calls("rollout.control"), "count"),
        "rollout.control.self_s": (own("rollout.control"), "s"),
        "rollout.trajectories": (tracer.values.get("rollout.trajectories", 0), "count"),
        "partition.build_s": (median_span("partition.build"), "s"),
        "planner.high_level.self_s": (tracer.span_self_total("high_level"), "s"),
        "planner.sector_ms_p50": (statistics.median(sector_ms) if sector_ms else 0.0, "ms"),
        "planner.sector_ms_max": (max(sector_ms, default=0.0), "ms"),
        "planner.transits": (tracer.values.get("planner.transits", 0), "count"),
        "planner.sector_taxis_max": (tracer.values.get("planner.sector_taxis_max", 0), "count"),
        "stability.bounds_s": (sum(tracer.span_durations("bounds")), "s"),
        "stability.wasserstein_s": (sum(tracer.span_durations("wasserstein")), "s"),
        "stability.expectations_s": (sum(tracer.span_durations("expectations")), "s"),
        "stability.verdict_s": (sum(tracer.span_durations("verdict")), "s"),
        "plan.control_s": (control_total, "s"),
        "plan.control_self_share": (
            tracer.span_self_total("control") / control_total if control_total else 0.0,
            "ratio"),
    })
    return out
