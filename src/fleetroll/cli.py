"""Experiment harness.

Subcommands: simulate, compare, stability, gen-graph, gen-trips, partition.
A JSON config file can predefine any flag (by its long name with dashes);
explicit flags win. Every run is fully determined by (config, seed): one
master seed expands to per-run seeds by run index, and wall-clock timings are
kept in separate files so all other outputs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
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

POLICIES = ("greedy", "random-ia", "ia-commit", "ia-ra", "rollout", "two-phase")


class CLIError(FleetrollError):
    pass


def make_policy(kind, g, model, m, args):
    if kind == "greedy":
        return GreedyPolicy(g)
    if kind == "ia-ra":
        return IARAPolicy(g)
    if kind == "ia-commit":
        return IACommitPolicy(g)
    if kind == "random-ia":
        return RandomIAPolicy(g)
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
        rows = demand.read_trip_log(args["trips"])
        return demand.estimate_from_trips(rows, g)
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
    summary = trace.summary()
    summary["z_total"] = z.total
    summary["z_unassigned"] = len(z.unassigned)
    _write_json(outdir / f"{label}.summary.json", summary)
    _write_csv(outdir / f"{label}.timing.csv", trace.timing_rows())
    sector_timing = getattr(policy, "sector_timing", None)
    if sector_timing:
        rows = [["t", "sector", "plan_ms"]]
        rows += [[t, k, f"{ms:.3f}"] for t, k, ms in sector_timing]
        _write_csv(outdir / f"{label}.sector_timing.csv", rows)
    summary["mean_plan_ms"] = trace.mean_plan_ms()
    summary["outstanding_series"] = trace.outstanding_series()
    return summary


def _execute(tasks, jobs):
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_one, tasks))
    return [_run_one(t) for t in tasks]


def _tasks_for(args, policies, m_values):
    tasks = []
    for policy in policies:
        for m in m_values:
            for i in range(args["seeds"]):
                t = dict(args)
                t["policy"] = policy
                t["m"] = m
                t["run_seed"] = args["seed"] + i
                tasks.append(t)
    return tasks


def _fleet_sizes(args):
    m_values = args["m_sweep"] or [args["m"]]
    if m_values[0] is None:
        raise CLIError("provide --m or --m-sweep")
    return m_values


def _check_sectors(g, args, policies, m_values):
    """Two-phase opens ceil(m / m_lim) sectors, each around a node of its own."""
    m = max(m_values)
    if "two-phase" in policies and (K := math.ceil(m / args["m_lim"])) > g.n:
        raise CLIError(f"two-phase with --m {m} and --m-lim {args['m_lim']} opens "
                       f"{K} sectors, more than the graph's {g.n} nodes")


def cmd_simulate(args):
    m_values = _fleet_sizes(args)
    g, _ = _graph_and_model(args)  # bad input fails before any output; the runs reuse both
    _check_sectors(g, args, [args["policy"]], m_values)
    outdir = Path(args["out_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    tasks = _tasks_for(args, [args["policy"]], m_values)
    results = _execute(tasks, args["jobs"])

    rows = [["policy", "m", "T", "seed", "cost", "z_total", "z_unassigned"]]
    for r in results:
        rows.append([r["policy"], r["m"], r["T"], r["seed"], r["cost"],
                     r["z_total"], r["z_unassigned"]])
    _write_csv(outdir / "summary.csv", rows)
    timing = [["policy", "m", "seed", "mean_plan_ms"]]
    for r in results:
        timing.append([r["policy"], r["m"], r["seed"], f"{r['mean_plan_ms']:.3f}"])
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


def cmd_compare(args):
    policies = args["policies"]
    m_values = _fleet_sizes(args)
    g, _ = _graph_and_model(args)
    _check_sectors(g, args, policies, m_values)
    outdir = Path(args["out_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    tasks = _tasks_for(args, policies, m_values)
    results = _execute(tasks, args["jobs"])

    by_key = {}
    for r in results:
        by_key.setdefault((r["policy"], r["m"]), []).append(r)
    rows = [["policy", "m", "mean_cost", "std_cost", "mean_z"]]
    timing_rows = [["policy", "m", "mean_plan_ms"]]
    for (policy, m), rs in sorted(by_key.items(), key=lambda kv: (kv[0][1], policies.index(kv[0][0]))):
        costs = [r["cost"] for r in rs]
        mean = sum(costs) / len(costs)
        std = math.sqrt(sum((c - mean) ** 2 for c in costs) / (len(costs) - 1)) if len(costs) > 1 else 0.0
        zmean = sum(r["z_total"] for r in rs) / len(rs)
        tmean = sum(r["mean_plan_ms"] for r in rs) / len(rs)
        rows.append([policy, m, f"{mean:.3f}", f"{std:.3f}", f"{zmean:.3f}"])
        timing_rows.append([policy, m, f"{tmean:.3f}"])
    _write_csv(outdir / "compare.csv", rows)
    _write_csv(outdir / "compare_timing.csv", timing_rows)

    pair_rows = [["m", "policy_a", "policy_b", "mean_cost_a", "mean_cost_b",
                  "mean_delta", "t_stat", "p_a_lt_b"]]
    pair_timing = [["m", "policy_a", "policy_b", "runtime_ratio_a_over_b"]]
    for m in m_values:
        for ia in range(len(policies)):
            for ib in range(ia + 1, len(policies)):
                a, b = policies[ia], policies[ib]
                ra = sorted(by_key[(a, m)], key=lambda r: r["seed"])
                rb = sorted(by_key[(b, m)], key=lambda r: r["seed"])
                deltas = [x["cost"] - y["cost"] for x, y in zip(ra, rb)]
                t, p = _paired_t(deltas)
                ca = sum(r["cost"] for r in ra) / len(ra)
                cb = sum(r["cost"] for r in rb) / len(rb)
                ta = sum(r["mean_plan_ms"] for r in ra) / len(ra)
                tb = sum(r["mean_plan_ms"] for r in rb) / len(rb)
                ratio = ta / tb if tb > 0 else float("inf")
                pair_rows.append([m, a, b, f"{ca:.3f}", f"{cb:.3f}",
                                  f"{sum(deltas)/len(deltas):.3f}", f"{t:.3f}",
                                  f"{p:.5f}"])
                pair_timing.append([m, a, b, f"{ratio:.3f}"])
    _write_csv(outdir / "pairs.csv", pair_rows)
    _write_csv(outdir / "pairs_timing.csv", pair_timing)
    print(f"wrote compare.csv and pairs.csv to {outdir}")
    return 0


def cmd_stability(args):
    g, model = _graph_and_model(args)
    report = compute_bounds(model, g, metric=args["metric"])
    m_values = args["m_sweep"] or [report.m_sufficient]
    if args["verify"]:
        _check_sectors(g, args, [args["policy"]], m_values)
    outdir = Path(args["out_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "stability_report.json", report.as_dict())
    print(report.table())

    if args["verify"]:
        verdict_rows = [["m", "policy", "verdict", "first_window_mean",
                         "last_window_mean", "slope", "slope_p"]]
        for m in m_values:
            tasks = _tasks_for(args, [args["policy"]], [m])
            results = _execute(tasks, args["jobs"])
            series = [r["outstanding_series"] for r in results]
            traces = [_SeriesTrace(s) for s in series]
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
    g = graphmod.grid_graph(args["k"])
    graphmod.save_graph(g, args["out"])
    print(f"wrote {args['k']}x{args['k']} grid ({g.n} nodes, {len(g.edges)} edges) to {args['out']}")
    return 0


def cmd_gen_trips(args):
    g, model = _graph_and_model(args)
    rows = demand.generate_trips(model, args["T"], args["seed"])
    demand.write_trip_log(rows, args["out"])
    print(f"wrote {len(rows)} trips over {args['T']} steps to {args['out']}")
    return 0


def cmd_partition(args):
    g, model = _graph_and_model(args)
    K = math.ceil(args["m"] / args["m_lim"])
    spec = get_partitions(g, model, K)
    _write_csv(args["out"], spec.rows())
    print(f"wrote {K}-sector partition (centers {spec.centers}) to {args['out']}")
    return 0


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _name_list(text):
    return [x.strip() for x in text.split(",") if x.strip()]


def _add_common(p):
    p.add_argument("--config", help="JSON file of defaults for any flag")
    p.add_argument("--graph", help="edge-list graph file")
    p.add_argument("--grid", type=int, help="generate a K x K grid graph")
    p.add_argument("--trips", help="trip log CSV to estimate the demand model from")
    p.add_argument("--e-eta", dest="e_eta", type=float, help="synthetic model: mean arrivals per step")
    p.add_argument("--hotspot", type=int, help="synthetic model: high-demand pickup node")
    p.add_argument("--hotspot-mass", dest="hotspot_mass", type=float,
                   help="synthetic model: extra pickup mass on the hotspot")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--jobs", type=int, help="parallel runs (default $FLEETROLL_JOBS or 1)")


def _add_run_opts(p):
    p.add_argument("--m", type=int, help="fleet size")
    p.add_argument("--m-sweep", dest="m_sweep", type=_int_list, help="comma-separated fleet sizes")
    p.add_argument("--T", type=int, help="horizon in steps (default 60)")
    p.add_argument("--seeds", type=int, help="number of seeded runs (default 1)")
    p.add_argument("--m-lim", dest="m_lim", type=int, help="taxis per sector (default 10)")
    p.add_argument("--t-h", dest="t_h", type=int, help="lookahead horizon (default 10)")
    p.add_argument("--num-mc", dest="num_mc", type=int, help="Monte-Carlo scenarios (default 50)")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default out)")


_DEFAULTS = {
    "seed": 0, "jobs": None, "T": 60, "seeds": 1, "m": None, "m_sweep": None,
    "m_lim": 10, "t_h": 10, "num_mc": 50,
    "out_dir": "out", "metric": "graph", "verify": False, "policy": "ia-ra",
    "e_eta": None, "hotspot": None, "hotspot_mass": None, "trips": None,
    "graph": None, "grid": None,
}


def _fits(action, val):
    """Whether a config file value is one the flag of `action` could give."""
    if action.nargs == 0:  # a store_true flag such as --verify
        return isinstance(val, bool)
    if action.choices is not None:
        return val in action.choices
    if action.type in (_int_list, _name_list):
        item = int if action.type is _int_list else str
        return isinstance(val, list) and all(_fits_type(v, item) for v in val)
    return _fits_type(val, action.type or str)


def _fits_type(val, kind):
    if isinstance(val, bool):
        return False
    return isinstance(val, (int, float) if kind is float else kind)


def _load_config(path, actions, known):
    """Config file values by flag name; each must suit its flag's type. A key
    may name a flag of another subcommand, so that one config can serve
    several, but not a flag no subcommand has."""
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
        dest = key.replace("-", "_")
        if dest not in known:
            raise CLIError(f"config {path}: unknown key '{key}' (no subcommand has such a flag)")
        action = actions.get(dest)
        if action is not None and val is not None and not _fits(action, val):
            raise CLIError(f"config {path}: invalid value {val!r} for '{key}'")
        values[dest] = val
    return values


def _merge(ns, actions, known) -> dict:
    """Defaults < config file < explicit flags. `actions` maps each flag's
    destination name to its argparse action; `known` holds the destination
    names of every subcommand's flags."""
    args = dict(_DEFAULTS)
    cfg_path = getattr(ns, "config", None)
    if cfg_path:
        args.update(_load_config(cfg_path, actions, known))
    for key, val in vars(ns).items():
        if key in ("config", "func"):
            continue
        if val is not None:
            args[key] = val
    if args["jobs"] is None:
        jobs = os.environ.get("FLEETROLL_JOBS", "1")
        try:
            args["jobs"] = int(jobs)
        except ValueError:
            raise CLIError(f"FLEETROLL_JOBS must be an integer, got {jobs!r}") from None
        if args["jobs"] < 1:
            raise CLIError(f"FLEETROLL_JOBS must be >= 1, got {jobs!r}")
    return args


def _validate(command, args):
    """Reject settings the command cannot run with, before any work starts."""
    for flag in ("jobs", "m_lim", "seeds", "t_h", "num_mc"):
        if args[flag] < 1:
            raise CLIError(f"--{flag.replace('_', '-')} must be >= 1, got {args[flag]}")
    for flag in ("grid", "m", "T"):
        if args[flag] is not None and args[flag] < 1:
            raise CLIError(f"--{flag} must be >= 1, got {args[flag]}")
    if command in ("simulate", "compare") or (command == "stability" and args["verify"]):
        sweep = args["m_sweep"] or []
        for m in sweep:
            if m < 1:
                raise CLIError(f"--m-sweep values must be >= 1, got {m}")
            if sweep.count(m) > 1:
                raise CLIError(f"--m-sweep names {m} more than once")
    if args["verify"] and args["seeds"] < MIN_TRACES:
        raise CLIError(f"--seeds must be >= {MIN_TRACES} with --verify, got {args['seeds']}")
    if args["verify"] and args["T"] < MIN_HORIZON:
        raise CLIError(f"--T must be >= {MIN_HORIZON} with --verify, got {args['T']}")
    if command == "compare":
        _fleet_sizes(args)
        policies = args.get("policies") or []
        if len(policies) < 2:
            raise CLIError("--policies needs at least two comma-separated names")
        for name in policies:
            if name not in POLICIES:
                raise CLIError(f"unknown policy '{name}' (expected one of {', '.join(POLICIES)})")
            if policies.count(name) > 1:
                raise CLIError(f"--policies names '{name}' more than once")
        if args["seeds"] < 2:
            raise CLIError(f"--seeds must be >= 2 for compare, got {args['seeds']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fleetroll",
                                     description="taxi fleet routing experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run seeded episodes for one policy")
    _add_common(p)
    _add_run_opts(p)
    p.add_argument("--policy", choices=POLICIES)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="paired same-seed comparison of policies")
    _add_common(p)
    _add_run_opts(p)
    p.add_argument("--policies", type=_name_list)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stability", help="fleet-size bounds and empirical verdicts")
    _add_common(p)
    _add_run_opts(p)
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--metric", choices=("graph", "euclidean"))
    p.add_argument("--verify", action="store_true", default=None,
                   help="also simulate and report STABLE/UNSTABLE per m")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("gen-graph", help="emit a grid graph file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("gen-trips", help="emit a synthetic trip log")
    _add_common(p)
    p.add_argument("--T", type=int, help="log horizon in steps (default 60)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_trips)

    p = sub.add_parser("partition", help="emit the node,sector,center table")
    _add_common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--m-lim", dest="m_lim", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition)

    ns = parser.parse_args(argv)
    _built.clear()
    actions = {a.dest: a for a in sub.choices[ns.command]._actions}
    known = {a.dest for p in sub.choices.values() for a in p._actions} - {"help"}
    try:
        if ns.command == "gen-graph":
            return ns.func({"k": ns.k, "out": ns.out})
        args = _merge(ns, actions, known)
        if ns.command in ("gen-trips", "partition"):
            args["out"] = ns.out
        _validate(ns.command, args)
        return ns.func(args)
    except (FleetrollError, OSError) as exc:  # OSError: an input that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
