"""Experiment harness.

Subcommands: simulate, compare, stability, gen-graph, gen-trips, partition.
Every flag is one row of FLAGS. A JSON config file can predefine any flag (by
its long name with dashes); explicit flags win. Every run is fully determined
by (config, seed): one master seed expands to per-run seeds by run index, and
wall-clock timings are kept in separate files so all other outputs are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from pathlib import Path

from scipy.special import stdtr

from . import demand, graph as graphmod
from .errors import FleetrollError, read_utf8
from .partition import get_partitions
from .planner import TwoPhasePolicy
from .policies import (GreedyPolicy, IACommitPolicy, IARAPolicy, RandomIAPolicy,
                       service_distance)
from .rollout import RolloutConfig, RolloutPolicy
from .sim import run_episode
from .stability import MIN_HORIZON, MIN_TRACES, compute_bounds, empirical_stability

_BASE_POLICIES = {"greedy": GreedyPolicy, "random-ia": RandomIAPolicy,
                  "ia-commit": IACommitPolicy, "ia-ra": IARAPolicy}
POLICIES = (*_BASE_POLICIES, "rollout", "two-phase")


class CLIError(FleetrollError):
    pass


def make_policy(kind, g, model, m, args):
    if kind in _BASE_POLICIES:
        return _BASE_POLICIES[kind](g)
    cfg = RolloutConfig(t_h=args["t_h"], num_mc=args["num_mc"])
    if kind == "rollout":
        return RolloutPolicy(g, model, cfg)
    if kind == "two-phase":
        return TwoPhasePolicy(g, model, m, args["m_lim"], cfg)
    raise CLIError(f"unknown policy '{kind}' (expected one of {', '.join(POLICIES)})")


def resolve_graph(args):
    if args.get("graph"):
        return graphmod.load_graph(args["graph"])
    if args.get("grid") is not None:
        return graphmod.grid_graph(args["grid"])
    raise CLIError("provide --graph FILE or --grid K")


def resolve_model(g, args):
    if args.get("trips"):
        return demand.estimate_from_trips(demand.read_trip_log(args["trips"]), g)
    if args.get("e_eta") is not None:
        return demand.synthetic_model(g, args["e_eta"], hotspot=args.get("hotspot"),
                                      hotspot_mass=args.get("hotspot_mass") or 0.0)
    raise CLIError("provide --trips FILE or --e-eta RATE for a synthetic model")


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# The flags each build depends on; a model depends on its graph's, a policy
# on its model's.
_BUILD_INPUTS = {"graph": ("graph", "grid")}
_BUILD_INPUTS["model"] = _BUILD_INPUTS["graph"] + ("trips", "e_eta", "hotspot", "hotspot_mass")
_BUILD_INPUTS["policy"] = _BUILD_INPUTS["model"] + ("policy", "m", "m_lim", "t_h", "num_mc")
# build kind -> (its inputs, the latest build of it). Module state, because a
# worker process runs _run_one by name and keeps its builds between tasks.
_built = {}


def _memo(kind, args, build):
    """The latest `kind` built in this process if it had the same inputs,
    else `build()`. The builds are deterministic, so reuse changes no result;
    main() empties the memo, so a file rewritten between calls is read again."""
    inputs = tuple(args.get(k) for k in _BUILD_INPUTS[kind])
    held = _built.get(kind)
    if held is None or held[0] != inputs:
        held = _built[kind] = (inputs, build())
    return held[1]


def _graph_and_model(args):
    g = _memo("graph", args, lambda: resolve_graph(args))
    return g, _memo("model", args, lambda: resolve_model(g, args))


def _run_one(task):
    """One (policy, m, seed) episode; executed possibly in a worker process.
    The graph, model and policy are built once per process for the same
    inputs; run_episode resets the policy with the run's seed."""
    g, model = _graph_and_model(task)
    policy = _memo("policy", task,
                   lambda: make_policy(task["policy"], g, model, task["m"], task))
    trace = run_episode(g, model, policy, task["m"], task["T"], task["run_seed"])
    z = service_distance(trace, g)
    label = f"{task['policy']}_m{task['m']}_seed{task['run_seed']}"
    outdir = Path(task["out_dir"])
    _write_csv(outdir / f"{label}.trace.csv", trace.trace_rows())
    summary = dict(trace.summary(), z_total=z.total, z_unassigned=len(z.unassigned))
    _write_json(outdir / f"{label}.summary.json", summary)
    _write_csv(outdir / f"{label}.timing.csv", trace.timing_rows())
    sector_timing = getattr(policy, "sector_timing", None)
    if sector_timing:
        _write_csv(outdir / f"{label}.sector_timing.csv", [["t", "sector", "plan_ms"]]
                   + [[t, k, f"{ms:.3f}"] for t, k, ms in sector_timing])
    return dict(summary, mean_plan_ms=trace.mean_plan_ms(),
                outstanding_series=trace.outstanding_series())


def _execute(tasks, jobs):
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_one, tasks))
    return [_run_one(t) for t in tasks]


def _tasks_for(args, policies, m_values):
    return [dict(args, policy=policy, m=m, run_seed=args["seed"] + i)
            for policy in policies for m in m_values for i in range(args["seeds"])]


def _check_draws(what, doubles):
    """Reject drawing `doubles` uniforms up front past graph.BYTES_MAX bytes."""
    if 8 * doubles > graphmod.BYTES_MAX:
        raise CLIError(f"{what} draws {8 * doubles / 2 ** 30:.3g} GiB of uniforms up front, "
                       f"more than the {graphmod.BYTES_MAX / 2 ** 30:.3g} GiB allowed")


def _check_run(g, model, args, policies, m_values):
    """Two-phase opens ceil(m / m_lim) sectors, each around a node of its own;
    an episode draws T-1 counts, 2 uniforms per arrival (at most eta_max a
    step) and m locations up front, and a rollout planning call num_mc
    scenarios for each of up to m free taxis."""
    m = max(m_values)
    if "two-phase" in policies and (K := math.ceil(m / args["m_lim"])) > g.n:
        raise CLIError(f"two-phase with --m {m} and --m-lim {args['m_lim']} opens "
                       f"{K} sectors, more than the graph's {g.n} nodes")
    eta_max = max(k for k, p in model.eta_pmf.items() if p > 0)
    _check_draws("an episode", (args["T"] - 1) * (1 + 2 * eta_max) + m)
    if {"rollout", "two-phase"} & set(policies):
        _check_draws("a rollout planning call", m * args["num_mc"] * (args["t_h"] + 1)
                     * (1 + 2 * math.ceil(model.e_eta)))


def _run_all(args, policies, m_values):
    """Check the runs, make --out-dir and run every (policy, m, seed) episode."""
    g, model = _graph_and_model(args)  # bad input fails before any output; the runs reuse both
    _check_run(g, model, args, policies, m_values)
    outdir = Path(args["out_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir, _execute(_tasks_for(args, policies, m_values), args["jobs"])


def cmd_simulate(args):
    outdir, results = _run_all(args, [args["policy"]], args["m_sweep"] or [args["m"]])
    columns = ["policy", "m", "T", "seed", "cost", "z_total", "z_unassigned"]
    _write_csv(outdir / "summary.csv", [columns] + [[r[c] for c in columns] for r in results])
    timing = [["policy", "m", "seed", "mean_plan_ms"]]
    timing += [[r["policy"], r["m"], r["seed"], f"{r['mean_plan_ms']:.3f}"] for r in results]
    _write_csv(outdir / "timing_summary.csv", timing)
    print(f"wrote {len(results)} runs to {outdir}")
    return 0


def _paired_t(deltas):
    """One-sided paired t: mean(delta) < 0. Returns (t, p); p is the Student
    t CDF as scipy.stats computes it, stdtr(n - 1, t). Needs n >= 2."""
    n = len(deltas)
    mean = sum(deltas) / n
    var = sum((d - mean) ** 2 for d in deltas) / (n - 1)
    if var == 0:
        return 0.0, (0.0 if mean < 0 else 1.0)
    t = mean / math.sqrt(var / n)
    return t, float(stdtr(n - 1, t))


def _mean(runs, key):
    return sum(r[key] for r in runs) / len(runs)


def cmd_compare(args):
    policies, m_values = args["policies"], args["m_sweep"] or [args["m"]]
    outdir, results = _run_all(args, policies, m_values)
    runs = {}  # (policy, m) -> its runs, in seed order
    for r in results:
        runs.setdefault((r["policy"], r["m"]), []).append(r)
    rows = [["policy", "m", "mean_cost", "std_cost", "mean_z"]]
    timing_rows = [["policy", "m", "mean_plan_ms"]]
    for m in sorted(m_values):
        for policy in policies:
            rs = runs[(policy, m)]
            mean = _mean(rs, "cost")
            std = math.sqrt(sum((r["cost"] - mean) ** 2 for r in rs) / (len(rs) - 1))
            rows.append([policy, m, f"{mean:.3f}", f"{std:.3f}", f"{_mean(rs, 'z_total'):.3f}"])
            timing_rows.append([policy, m, f"{_mean(rs, 'mean_plan_ms'):.3f}"])
    _write_csv(outdir / "compare.csv", rows)
    _write_csv(outdir / "compare_timing.csv", timing_rows)

    pair_rows = [["m", "policy_a", "policy_b", "mean_cost_a", "mean_cost_b",
                  "mean_delta", "t_stat", "p_a_lt_b"]]
    pair_timing = [["m", "policy_a", "policy_b", "runtime_ratio_a_over_b"]]
    for m in m_values:
        for a, b in combinations(policies, 2):
            ra, rb = runs[(a, m)], runs[(b, m)]
            deltas = [x["cost"] - y["cost"] for x, y in zip(ra, rb)]
            t, p = _paired_t(deltas)
            tb = _mean(rb, "mean_plan_ms")
            ratio = _mean(ra, "mean_plan_ms") / tb if tb > 0 else float("inf")
            pair_rows.append([m, a, b, f"{_mean(ra, 'cost'):.3f}", f"{_mean(rb, 'cost'):.3f}",
                              f"{sum(deltas)/len(deltas):.3f}", f"{t:.3f}", f"{p:.5f}"])
            pair_timing.append([m, a, b, f"{ratio:.3f}"])
    _write_csv(outdir / "pairs.csv", pair_rows)
    _write_csv(outdir / "pairs_timing.csv", pair_timing)
    print(f"wrote compare.csv and pairs.csv to {outdir}")
    return 0


def cmd_stability(args):
    g, model = _graph_and_model(args)
    report = compute_bounds(model, g, metric=args["metric"])
    # with no demand m_sufficient is 0; an episode needs at least one taxi
    m_values = args["m_sweep"] or [args["m"] or max(1, report.m_sufficient)]
    if args["verify"]:
        _check_run(g, model, args, [args["policy"]], m_values)
    outdir = Path(args["out_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "stability_report.json", report.as_dict())
    print(report.table())

    if args["verify"]:
        verdict_rows = [["m", "policy", "verdict", "first_window_mean",
                         "last_window_mean", "slope", "slope_p"]]
        results = _execute(_tasks_for(args, [args["policy"]], m_values), args["jobs"])
        for m in m_values:
            traces = [_SeriesTrace(r["outstanding_series"]) for r in results if r["m"] == m]
            v = empirical_stability(traces, window=max(1, args["T"] // 4))
            verdict_rows.append([m, args["policy"], v.verdict,
                                 f"{v.first_window_mean:.3f}", f"{v.last_window_mean:.3f}",
                                 f"{v.slope:.5f}", f"{v.slope_p:.5f}"])
            print(f"m={m} {args['policy']}: {v.verdict}")
        _write_csv(outdir / "verdicts.csv", verdict_rows)
    return 0


class _SeriesTrace:
    """Adapter: a bare outstanding series viewed as a trace."""

    def __init__(self, series):
        self._series = series

    def outstanding_series(self):
        return self._series


def cmd_gen_graph(args):
    k = args["k"]
    edges = graphmod.grid_edges(k)  # the edge list alone: no distance tables are built
    graphmod.save_edges(k * k, edges, args["out"])
    print(f"wrote {k}x{k} grid ({k * k} nodes, {len(edges)} edges) to {args['out']}")
    return 0


def cmd_gen_trips(args):
    g, model = _graph_and_model(args)
    _check_draws("a trip log step", 1 + 2 * max(k for k, p in model.eta_pmf.items() if p > 0))
    n = demand.write_trip_log(demand.generate_trips(model, args["T"], args["seed"]), args["out"])
    print(f"wrote {n} trips over {args['T']} steps to {args['out']}")
    return 0


def cmd_partition(args):
    g, model = _graph_and_model(args)
    K = math.ceil(args["m"] / args["m_lim"])
    spec = get_partitions(g, model, K)
    _write_csv(args["out"], spec.rows())
    print(f"wrote {K}-sector partition (centers {spec.centers}) to {args['out']}")
    return 0


def _comma_list(item):
    """Argparse type of a comma-separated list of `item` values; blanks are dropped."""
    def parse(text):
        return [item(x.strip()) for x in text.split(",") if x.strip()]
    parse.__name__ = f"comma-separated {item.__name__}"  # argparse names it in errors
    return parse


class Flag(namedtuple("Flag", "name kind default commands help least required excludes",
                      defaults=(None, (), ()))):
    """One CLI flag. `kind` is int, float, str, bool (a switch), a tuple of
    choices or [item type] for a comma-separated list. `least` is the smallest
    value allowed, `required` the subcommands that need the flag, and
    `excludes` the flags that may not be set together with it."""

    @property
    def dest(self):
        return self.name.replace("-", "_")


_MODEL = ("simulate", "compare", "stability", "gen-trips", "partition")  # build a graph and model
_RUNS = ("simulate", "compare", "stability")
_FILES = ("gen-graph", "gen-trips", "partition")

# Every flag of every subcommand, declared once: the parsers, the defaults,
# the config file's type checks and the range checks all read this table.
FLAGS = (
    Flag("config", str, None, _MODEL, "JSON file of defaults for any flag"),
    Flag("graph", str, None, _MODEL, "edge-list graph file"),
    Flag("grid", int, None, _MODEL, "generate a K x K grid graph", least=1),
    Flag("trips", str, None, _MODEL, "trip log CSV to estimate the demand model from",
         excludes=("e-eta", "hotspot", "hotspot-mass")),
    Flag("e-eta", float, None, _MODEL, "synthetic model: mean arrivals per step"),
    Flag("hotspot", int, None, _MODEL, "synthetic model: high-demand pickup node"),
    Flag("hotspot-mass", float, None, _MODEL, "synthetic model: extra pickup mass on the hotspot"),
    Flag("seed", int, 0, _MODEL, "master seed"),
    Flag("jobs", int, None, _RUNS, "parallel runs (default $FLEETROLL_JOBS or 1)", least=1),
    Flag("m", int, None, _RUNS + ("partition",), "fleet size", least=1, required=("partition",)),
    Flag("m-sweep", [int], None, _RUNS, "comma-separated fleet sizes"),
    Flag("T", int, 60, _RUNS + ("gen-trips",), "horizon in steps", least=1),
    Flag("seeds", int, 1, _RUNS, "number of seeded runs", least=1),
    Flag("m-lim", int, 10, _RUNS + ("partition",), "taxis per sector", least=1),
    Flag("t-h", int, 10, _RUNS, "lookahead horizon", least=1),
    Flag("num-mc", int, 50, _RUNS, "Monte-Carlo scenarios", least=1),
    Flag("out-dir", str, "out", _RUNS, "output directory"),
    Flag("policy", POLICIES, "ia-ra", ("simulate", "stability"), "policy to run"),
    Flag("policies", [str], None, ("compare",), "comma-separated policies"),
    Flag("metric", ("graph", "euclidean"), "graph", ("stability",), "metric of the bounds"),
    Flag("verify", bool, False, ("stability",), "also simulate and report STABLE/UNSTABLE per m"),
    Flag("k", int, None, ("gen-graph",), "grid side", required=("gen-graph",)),
    Flag("out", str, None, _FILES, "output file", required=_FILES),
)
_FLAG_OF = {f.dest: f for f in FLAGS}


def _fits(kind, val):
    """Whether a config file value is one a flag of this kind could give."""
    if isinstance(kind, tuple):
        return val in kind
    if isinstance(kind, list):
        return isinstance(val, list) and all(_fits(kind[0], v) for v in val)
    return (isinstance(val, bool) == (kind is bool)
            and isinstance(val, (int, float) if kind is float else kind))


def _load_config(path):
    """Config file values by flag; each must suit its flag's type, and a null
    leaves the flag unset. A key may name a flag of another subcommand, so
    that one config can serve several, but not a flag no subcommand has."""
    try:
        loaded = json.loads(read_utf8(path, CLIError, f"config {path}"))
    except OSError as exc:
        raise CLIError(f"config {path}: {exc.strerror}") from None
    except ValueError as exc:  # includes json.JSONDecodeError
        raise CLIError(f"config {path}: invalid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise CLIError(f"config {path}: expected a JSON object of flag values")
    values = {}
    for key, val in loaded.items():
        flag = _FLAG_OF.get(key.replace("-", "_"))
        if flag is None:
            raise CLIError(f"config {path}: unknown key '{key}' (no subcommand has such a flag)")
        if val is not None and not _fits(flag.kind, val):
            raise CLIError(f"config {path}: invalid value {val!r} for '{key}'")
        values[flag.dest] = val
    return values


def _merge(ns) -> dict:
    """The command's own flags: defaults < config file < explicit flags."""
    given = {key: val for key, val in vars(ns).items() if val is not None}
    args = {f.dest: f.default for f in FLAGS if ns.command in f.commands}
    if "config" in given:
        config = _load_config(given["config"])
        args.update((k, v) for k, v in config.items() if k in args and v is not None)
    args.update((k, v) for k, v in given.items() if k in args)
    return args


def _validate(command, args):
    """Reject settings the command cannot run with, before any work starts:
    first each of its flags by its FLAGS row, then the rules across flags.
    Resolves an unset --jobs from $FLEETROLL_JOBS."""
    for flag in FLAGS:
        val = args.get(flag.dest)
        if val is None:
            continue
        if isinstance(val, float) and not math.isfinite(val):  # e.g. --e-eta nan
            raise CLIError(f"--{flag.name} must be a finite number, got {val}")
        if flag.least is not None and val < flag.least:
            raise CLIError(f"--{flag.name} must be >= {flag.least}, got {val}")
        for other in flag.excludes:
            if args.get(other.replace("-", "_")) is not None:
                raise CLIError(f"--{flag.name} and --{other} cannot be used together")
    if args.get("grid") is not None:
        graphmod.check_size(args["grid"] ** 2)
    for key in ("m_sweep", "policies"):  # a repeated fleet size or policy pairs a run with itself
        values = args.get(key) or []
        for v in values:
            if key == "m_sweep" and v < 1:
                raise CLIError(f"--m-sweep values must be >= 1, got {v}")
            if values.count(v) > 1:
                raise CLIError(f"--{key.replace('_', '-')} names {v!r} more than once")
    if args.get("verify") and args["seeds"] < MIN_TRACES:
        raise CLIError(f"--seeds must be >= {MIN_TRACES} with --verify, got {args['seeds']}")
    if args.get("verify") and args["T"] < MIN_HORIZON:
        raise CLIError(f"--T must be >= {MIN_HORIZON} with --verify, got {args['T']}")
    if command in ("simulate", "compare") and not (args["m_sweep"] or args["m"]):
        raise CLIError("provide --m or --m-sweep")
    if command == "compare":
        policies = args["policies"] or []
        if len(policies) < 2:
            raise CLIError("--policies needs at least two comma-separated names")
        for name in policies:
            if name not in POLICIES:
                raise CLIError(f"unknown policy '{name}' (expected one of {', '.join(POLICIES)})")
        if args["seeds"] < 2:
            raise CLIError(f"--seeds must be >= 2 for compare, got {args['seeds']}")
    if "jobs" in args and args["jobs"] is None:
        jobs = os.environ.get("FLEETROLL_JOBS", "1")
        try:
            args["jobs"] = int(jobs)
        except ValueError:
            raise CLIError(f"FLEETROLL_JOBS must be an integer, got {jobs!r}") from None
        if args["jobs"] < 1:
            raise CLIError(f"FLEETROLL_JOBS must be >= 1, got {jobs!r}")


_COMMANDS = {
    "simulate": (cmd_simulate, "run seeded episodes for one policy"),
    "compare": (cmd_compare, "paired same-seed comparison of policies"),
    "stability": (cmd_stability, "fleet-size bounds and empirical verdicts"),
    "gen-graph": (cmd_gen_graph, "emit a grid graph file"),
    "gen-trips": (cmd_gen_trips, "emit a synthetic trip log"),
    "partition": (cmd_partition, "emit the node,sector,center table"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fleetroll",
                                     description="taxi fleet routing experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(func=func)
        for f in FLAGS:
            if command not in f.commands:
                continue
            shown = "" if f.default is None or f.kind is bool else f" (default {f.default})"
            kind = ({"action": "store_true", "default": None} if f.kind is bool
                    else {"choices": f.kind} if isinstance(f.kind, tuple)
                    else {"type": _comma_list(f.kind[0])} if isinstance(f.kind, list)
                    else {"type": f.kind} if f.kind is not str else {})
            p.add_argument(f"--{f.name}", dest=f.dest, required=command in f.required,
                           help=f.help + shown, **kind)
    ns = parser.parse_args(argv)
    _built.clear()
    try:
        args = _merge(ns)
        _validate(ns.command, args)
        return ns.func(args)
    except (FleetrollError, OSError) as exc:  # OSError: an input that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
