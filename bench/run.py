"""fleetroll benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload rollout-city --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports fleetroll from that
checkout's `src/` and refuses to run without it. With `--trace 0` it reports
the end-to-end metrics, with `--trace 1` the per-layer breakdown of a traced
pass. A readable report goes to standard output first, the full results (and
the span dump when traced) to `bench_out/`, and the last line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench_out"


def _import_fleetroll():
    package = SRC / "fleetroll"
    if not (package / "__init__.py").is_file():
        sys.exit("bench: fleetroll sources not found in src/fleetroll of this checkout")
    sys.path.insert(0, str(SRC))
    import fleetroll
    if Path(fleetroll.__file__).resolve().parent != package:
        sys.exit("bench: imported a fleetroll that is not this checkout's src/fleetroll")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "fleetroll").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(args, runner, loadavg):
    import numpy
    import scipy
    seeds = sorted({ep.seed for ep in runner.pass_eps})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "loadavg_start": loadavg,
        "workload": args.workload,
        "seed": args.seed,
        "episode_seeds": seeds,
        "pass_rounds": [runner.rounds_run, runner.rounds],
        "reference_loop_ms": speed.REF_MS,
    }


def _parse(argv, workloads):
    p = argparse.ArgumentParser(description="fleetroll benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None):
    loadavg = os.getloadavg()
    _import_fleetroll()
    import workloads

    args = _parse(argv, workloads.WORKLOADS)
    runner = workloads.Runner(workloads.WORKLOADS[args.workload], args.seed,
                              args.seconds, traced=bool(args.trace)).run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = _environment(args, runner, loadavg)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    if args.trace:
        table = runner.per_layer()
        for name, (value, unit) in table.items():
            print(f"  {name:<28} {value:>14.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in table.items()}
        if runner.tracer.missing:
            print("missing hooks: " + ", ".join(runner.tracer.missing))
    else:
        table = runner.end_to_end(peak_rss_mb)
        for name, (value, unit, n) in table.items():
            print(f"  {name:<14} {value:>14.6g} {unit:<9} n={n}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in table.items()}
        slow = runner.slowdowns()
        if slow:
            print(f"times above are scaled to a core where the reference loop takes "
                  f"{speed.REF_MS} ms; host slowdown median {statistics.median(slow):.3f} "
                  f"(min {min(slow):.3f}, max {max(slow):.3f}) over {len(slow)} episodes")
        print("unscaled: " + "  ".join(f"{k} {v:.6g} {u}"
                                       for k, (v, u, _) in runner.timings(scaled=False).items()))
    if runner.bounds:
        b = runner.bounds
        print(f"bounds: bounds_s {b['bounds_s']:.4f} s  WD {b['report'].wd} "
              f"vs exact {b.get('wd_exact')}  abs err {b.get('wd_abs_err')} "
              f"(docstring claims ~1/scale = {b.get('wd_claim')}, scaling guarantees "
              f"<= {b.get('wd_tol')})  m_sufficient {b['report'].m_sufficient} "
              f"(exact {b.get('m_sufficient_exact')})  m_necessary "
              f"{b['report'].m_necessary} (exact {b.get('m_necessary_exact')})")
    if runner.verdicts:
        print("verdicts: " + ", ".join(f"m={m} {v}" for m, v in runner.verdicts.items()))
    print(f"pass: {runner.rounds_run} of {runner.rounds} rounds, {len(runner.pass_eps)} episodes"
          + ("" if runner.rounds_run == runner.rounds else " (cut short: the host was too slow)"))
    print(f"operations: attempted {runner.attempted}  failed {len(runner.failures)}")
    for label, msg in runner.failures:
        print(f"  FAILED {label}: {msg}")
    print(f"pass digest {runner.pass_digest()}")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "env": env,
        "metrics": {k: list(v) for k, v in table.items()},
        "attempted": runner.attempted,
        "failures": runner.failures,
        "pass_digest": runner.pass_digest(),
        "episode_digests": [[ep.seed, ep.m, ep.digest] for ep in runner.pass_eps],
        "verdicts": runner.verdicts,
        "host_slowdowns": runner.slowdowns(),
    }
    if runner.tracer:
        record["trace"] = runner.tracer.dump()
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"results in {out}")

    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
