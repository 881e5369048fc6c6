"""The benchmark's workloads and the loop that runs one of them.

A run is a closed loop in one process: each episode builds its graph,
demand model and policy afresh (as `fleetroll simulate` does per run), then
`run_episode` steps it, each step waiting for the policy's control. The
fixed pass of a workload is a deterministic list of episodes made from the
seed, as long as `--seconds` asks. Each timed episode samples the host's
speed between its steps (`speed.Gauge`), and the reported times are scaled
by it. After the pass, its first round runs again and must reproduce its
outputs. A traced run makes the same pass, unscaled.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import statistics
import time
import traceback
from dataclasses import dataclass

from fleetroll import (IARAPolicy, RolloutConfig, RolloutPolicy, TwoPhasePolicy,
                       compute_bounds, empirical_stability, expectation_terms,
                       grid_graph, run_episode, synthetic_model)
from fleetroll import stability

import speed
import tracing
import wd_oracle

_clock = time.perf_counter

SEED_STRIDE = 1000  # episode seeds of run seed s are s*1000 + round
PASS_SECONDS = 40   # --seconds s makes a pass of rounds * s / PASS_SECONDS rounds
OVERRUN = 1.5       # no round starts after OVERRUN * --seconds (past min_rounds)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: int                 # k for a k x k street grid
    e_eta: float              # mean request arrivals per step
    policy: str               # "rollout", "two-phase" or "ia-ra"
    fleet: tuple              # fleet sizes; one episode of each per round
    T: int                    # episode horizon in steps
    rounds: int               # rounds in the pass of a PASS_SECONDS run
    t_h: int = 0
    num_mc: int = 0
    m_lim: int = 0
    hotspot: int | None = None
    hotspot_mass: float = 0.0
    min_rounds: int = 1       # fewest rounds in a pass, whatever --seconds
    stability: bool = False   # bounds solve first, verdicts per fleet size after the pass


WORKLOADS = {w.name: w for w in (
    Workload("rollout-city",
             "global rollout on a 10x10 city: the per-taxi Monte-Carlo lookahead "
             "(many tiny auctions, next_hop and scenario draws) dominates",
             grid=10, e_eta=1.5, policy="rollout", fleet=(20,), T=14, rounds=17,
             t_h=5, num_mc=10),
    Workload("twophase-metro",
             "two-phase planner on a 20x20 metro: partitioning, the high-level "
             "plan and per-sector rollout with inbound transits",
             grid=20, e_eta=2.0, policy="two-phase", fleet=(60,), T=18, rounds=8,
             t_h=4, num_mc=4, m_lim=10),
    Workload("stability-hotspot",
             "fleet sizing on a 15x15 hotspot city: the Wasserstein bound solve, "
             "then large IA-RA auctions at fleets around the bounds; no lookahead",
             grid=15, e_eta=6.0, policy="ia-ra", fleet=(70, 90, 110), T=120,
             rounds=10, hotspot=113, hotspot_mass=0.3, min_rounds=5, stability=True),
)}


@dataclass
class Timing:
    """An episode's times as measured. Gauge sampling is kept out of every
    time."""
    setup_s: float
    plan_ms: tuple      # control time per planned step
    step_ms: tuple      # whole step (control and dynamics) per planned step
    slowdown: float     # host slowdown while it ran; 1.0 when not gauged

    @property
    def wall_s(self):
        return sum(self.step_ms) / 1000.0


@dataclass
class Episode:
    label: str
    m: int
    rnd: int
    seed: int
    timing: Timing | None = None
    cost: int = 0
    T: int = 0
    digest: str = ""
    series: tuple = ()

    def same_outputs(self, other):
        return (other.cost, other.digest) == (self.cost, self.digest)


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _policy(w, graph, model, m):
    if w.policy == "ia-ra":
        return IARAPolicy(graph)
    cfg = RolloutConfig(t_h=w.t_h, num_mc=w.num_mc, base_policy="ia-ra")
    if w.policy == "rollout":
        return RolloutPolicy(graph, model, cfg)
    return TwoPhasePolicy(graph, model, m, w.m_lim, cfg)


class Runner:
    """Runs one workload for one seed and collects results and checks."""

    def __init__(self, workload, seed, seconds, traced):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.rounds = max(workload.min_rounds,
                          round(workload.rounds * seconds / PASS_SECONDS))
        self.rounds_run = 0
        self.tracer = tracing.Tracer() if traced else None
        self.recording = traced  # spans are recorded during the fixed pass only
        self.gauged = not traced  # traced times stay unscaled
        self.attempted = 0
        self.failures = []      # (operation label, message)
        self.pass_eps = []      # episodes of the fixed pass
        self.verdicts = {}
        self.bounds = {}
        self.overhead = None    # (traced wall, untraced wall) of the first round

    def span(self, name):
        return self.tracer.span(name) if self.recording else contextlib.nullcontext()

    def _op(self, label, fn):
        """One counted operation; any exception marks it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every error is a failed operation, reported below
            self.failures.append((label, f"{type(exc).__name__}: {exc}"))
            traceback.print_exc()
            return None

    def _build(self, m):
        w = self.w
        with self.span("graph.build"):
            graph = grid_graph(w.grid)
        with self.span("demand.build"):
            model = synthetic_model(graph, w.e_eta, hotspot=w.hotspot,
                                    hotspot_mass=w.hotspot_mass)
        with self.span("policy.build"):
            policy = _policy(w, graph, model, m)
        return getattr(policy, "graph", graph), model, policy

    def episode(self, m, rnd):
        seed = self.seed * SEED_STRIDE + rnd
        ep = Episode(label=f"episode m={m} seed={seed}", m=m, rnd=rnd, seed=seed)

        def go():
            t0 = _clock()
            with self.span("setup"):
                graph, model, policy = self._build(m)
            t1 = _clock()
            gauge = speed.Gauge() if self.gauged else None
            timed = _StepClock(policy, gauge)
            with self.span("episode"):
                trace = run_episode(graph, model, timed, m, self.w.T, seed)
            t2 = _clock()
            # Step i runs from its control call to the next one (the first
            # from the end of set-up, the last to the end of the episode),
            # less the gauge samples taken in between.
            g = timed.gauge_s + [0.0]
            edges = [t1 + g[0]] + timed.starts[1:] + [t2]
            step_ms = [(b - a - g[i + 1]) * 1000.0
                       for i, (a, b) in enumerate(zip(edges, edges[1:]))]
            plan_ms = [ms - s * 1000.0 for ms, s in zip(trace.plan_ms, g)]
            ep.timing = Timing(t1 - t0, tuple(plan_ms), tuple(step_ms),
                               gauge.slowdown() if gauge else 1.0)
            ep.cost, ep.T = trace.cost, trace.T
            ep.digest = _digest(trace.controls, trace.stage_costs)
            ep.series = tuple(trace.outstanding_series())
            return ep
        return self._op(ep.label, go)

    def bounds_op(self):
        def go():
            graph = grid_graph(self.w.grid)
            model = synthetic_model(graph, self.w.e_eta, hotspot=self.w.hotspot,
                                    hotspot_mass=self.w.hotspot_mass)
            t0 = _clock()
            with self.span("bounds"):
                report = compute_bounds(model, graph)
            self.bounds = {"bounds_s": _clock() - t0, "report": report,
                           "graph": graph, "model": model}
            return report
        return self._op("bounds", go)

    def check_bounds(self):
        """Compare the bounds with an exact edge-flow LP; untimed."""
        if not self.bounds:
            return
        graph, model, report = (self.bounds[k] for k in ("graph", "model", "report"))
        p, q = model.marginal_dropoff_pmf, model.pickup_pmf
        exact = wd_oracle.edge_flow_wd(graph, p, q)
        solver = getattr(stability, "wasserstein_discrete", None)
        scale = inspect.signature(solver).parameters.get("scale") if solver else None
        if scale is not None and isinstance(scale.default, int):
            tol = wd_oracle.diameter(graph) * (len(p) + len(q)) / (2 * scale.default)
            claim = 1.0 / scale.default
        else:
            tol = claim = 1e-7  # no integer scaling: exact up to LP tolerance
        suff, nec = wd_oracle.fleet_sizes(expectation_terms(model, graph), exact)
        self.bounds.update(wd_exact=exact, wd_abs_err=abs(report.wd - exact),
                           wd_tol=tol, wd_claim=claim,
                           m_sufficient_exact=suff, m_necessary_exact=nec)
        problems = []
        if abs(report.wd - exact) > tol:
            problems.append(f"|WD - exact| = {abs(report.wd - exact):.3g} > {tol:.3g}")
        if report.m_sufficient != suff:
            problems.append(f"m_sufficient {report.m_sufficient} != exact {suff}")
        if report.m_necessary != nec:
            problems.append(f"m_necessary {report.m_necessary} != exact {nec}")
        if problems:
            self.failures.append(("bounds", "; ".join(problems)))

    def verdict(self, m):
        def go():
            series = [_Series(ep.series) for ep in self.pass_eps if ep.m == m]
            with self.span("verdict"):
                v = empirical_stability(series, window=self.w.T // 4)
            self.verdicts[m] = v.verdict
            return v
        return self._op(f"verdict m={m}", go)

    def run(self):
        w = self.w
        start = _clock()
        if self.tracer:
            self.tracer.install(tracing.HOOKS)
        try:
            if w.stability:
                self.bounds_op()
            for rnd in range(self.rounds):
                # A host slowed far beyond the usual must not stretch the run
                # much past --seconds: the pass is cut short and says so.
                if rnd >= w.min_rounds and _clock() - start > OVERRUN * self.seconds:
                    break
                self.rounds_run += 1
                for m in w.fleet:
                    ep = self.episode(m, rnd)
                    if ep is not None:
                        self.pass_eps.append(ep)
            if w.stability:
                for m in w.fleet:
                    self.verdict(m)
        finally:
            if self.tracer:
                self.tracer.uninstall()
                self.recording = False

        # The first round once more, untraced and not counted in the
        # metrics: each episode must reproduce its outputs, and in a traced
        # run the wall time the round saves is the tracing overhead.
        traced = plain = 0.0
        for ep in [ep for ep in self.pass_eps if ep.rnd == 0]:
            again = self.episode(ep.m, ep.rnd)
            if again is None:
                continue
            if not ep.same_outputs(again):
                self.failures.append((again.label, "repeat gave a different cost or digest"))
            traced += ep.timing.wall_s
            plain += again.timing.wall_s
        if self.tracer and plain:
            self.overhead = (traced, plain)
        try:
            self.check_bounds()
        except Exception as exc:  # a broken check is a failed bounds operation
            self.failures.append(("bounds check", f"{type(exc).__name__}: {exc}"))
            traceback.print_exc()
        return self

    # -- results ---------------------------------------------------------

    def pass_digest(self):
        return _digest([ep.digest for ep in self.pass_eps], sorted(self.verdicts.items()),
                       getattr(self.bounds.get("report"), "wd", None))

    def timings(self, scaled=True):
        """name -> (value, unit, sample count) over the pass episodes. Scaled
        times are divided by the host slowdown of the episode they come from."""
        ts = [ep.timing for ep in self.pass_eps]
        div = (lambda t: t.slowdown) if scaled else (lambda t: 1.0)
        plan = [ms / div(t) for t in ts for ms in t.plan_ms]
        setups = [t.setup_s / div(t) for t in ts]
        wall = sum(t.wall_s / div(t) for t in ts)
        steps = sum(len(t.step_ms) for t in ts)
        p90 = statistics.quantiles(plan, n=10)[8] if len(plan) >= 2 else 0.0
        return {
            "setup_s": (statistics.median(setups) if setups else 0.0, "s", len(setups)),
            "steps_per_s": (steps / wall if wall else 0.0, "1/s", steps),
            "plan_ms_p50": (statistics.median(plan) if plan else 0.0, "ms", len(plan)),
            "plan_ms_p90": (p90, "ms", len(plan)),
        }

    def slowdowns(self):
        return [ep.timing.slowdown for ep in self.pass_eps]

    def end_to_end(self, peak_rss_mb):
        """name -> (value, unit, sample count); times are scaled."""
        cost = sum(ep.cost for ep in self.pass_eps)
        horizon = sum(ep.T for ep in self.pass_eps)
        out = self.timings()
        out["cost_per_step"] = (cost / horizon if horizon else 0.0, "requests", horizon)
        out["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
        return out

    def per_layer(self):
        out = tracing.layer_metrics(self.tracer)
        out["stability.wd_abs_err"] = (self.bounds.get("wd_abs_err", 0.0), "hops")
        traced, plain = self.overhead or (0.0, 0.0)
        out["trace.overhead_s"] = (traced - plain, "s")
        out["trace.overhead_share"] = ((traced - plain) / plain if plain else 0.0, "ratio")
        return out


class _StepClock:
    """The policy as `run_episode` sees it. Before each control call it lets
    the gauge sample (noting how long that took) and notes when the call
    starts; consecutive starts delimit the whole step."""

    def __init__(self, policy, gauge=None):
        self._policy = policy
        self._gauge = gauge
        self.starts = []
        self.gauge_s = []   # seconds of gauge sampling before each control call

    def __getattr__(self, name):
        return getattr(self._policy, name)

    def control(self, state):
        self.gauge_s.append(self._gauge.maybe_sample() if self._gauge else 0.0)
        self.starts.append(_clock())
        return self._policy.control(state)


class _Series:
    """An outstanding-request series viewed as a trace by empirical_stability."""

    def __init__(self, series):
        self._series = series

    def outstanding_series(self):
        return list(self._series)
