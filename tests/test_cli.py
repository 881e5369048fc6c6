import csv
import hashlib
import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from fleetroll import cli, demand, graph as graphmod, planner, sim
from fleetroll.cli import main
from fleetroll.graph import load_graph


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def non_timing_digest(directory):
    h = hashlib.sha256()
    for f in sorted(Path(directory).iterdir()):
        if "timing" in f.name:
            continue
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def test_gen_graph_round_trip(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen-graph", "--k", "4", "--out", str(out)]) == 0
    g = load_graph(out)
    assert g.n == 16
    assert g.distance(1, 16) == 6


def test_gen_trips_schema(tmp_path):
    out = tmp_path / "trips.csv"
    assert main(["gen-trips", "--grid", "4", "--e-eta", "1.0", "--T", "50",
                 "--seed", "3", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["t", "pickup", "dropoff"]
    assert all(1 <= int(r[0]) <= 50 for r in rows[1:])


def test_partition_subcommand(tmp_path):
    out = tmp_path / "part.csv"
    assert main(["partition", "--grid", "4", "--e-eta", "1.0", "--m", "4",
                 "--m-lim", "2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["node", "sector", "center"]
    assert len(rows) == 17
    assert {r[1] for r in rows[1:]} == {"1", "2"}


def test_simulate_outputs(tmp_path):
    out = tmp_path / "runs"
    assert main(["simulate", "--grid", "4", "--e-eta", "0.4", "--policy", "greedy",
                 "--m", "2", "--T", "30", "--seeds", "2", "--seed", "7",
                 "--out-dir", str(out)]) == 0
    summary = read_csv(out / "summary.csv")
    assert summary[0] == ["policy", "m", "T", "seed", "cost", "z_total"]
    assert len(summary) == 3
    run = json.loads((out / "greedy_m2_seed7.summary.json").read_text())
    assert run["policy"] == "greedy" and run["m"] == 2
    assert "mean_plan_ms" not in run  # timings live in separate files
    trace = read_csv(out / "greedy_m2_seed7.trace.csv")
    assert trace[0] == ["t", "outstanding", "arrivals", "pickups", "free_taxis"]
    assert len(trace) == 31


def test_simulate_reproducible_across_jobs(tmp_path):
    args = ["simulate", "--grid", "4", "--e-eta", "0.5", "--policy", "ia-ra",
            "--m", "2", "--T", "25", "--seeds", "3", "--seed", "1"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(args + ["--jobs", "1", "--out-dir", str(a)]) == 0
    assert main(args + ["--jobs", "3", "--out-dir", str(b)]) == 0
    assert non_timing_digest(a) == non_timing_digest(b)


def test_compare_requires_two_policies(tmp_path):
    rc = main(["compare", "--grid", "4", "--e-eta", "0.4", "--policies", "ia-ra",
               "--m", "2", "--T", "20", "--seeds", "2", "--out-dir", str(tmp_path / "c")])
    assert rc != 0


def test_compare_paired_output(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--grid", "4", "--e-eta", "0.4",
                 "--policies", "ia-ra,random-ia", "--m", "2", "--T", "30",
                 "--seeds", "4", "--seed", "3", "--out-dir", str(out)]) == 0
    pairs = read_csv(out / "pairs.csv")
    assert pairs[0][:3] == ["m", "policy_a", "policy_b"]
    assert pairs[1][1] == "ia-ra" and pairs[1][2] == "random-ia"


def test_compare_lists_fleet_sizes_ascending_in_every_file(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--grid", "3", "--e-eta", "0.4", "--policies", "greedy,ia-ra",
                 "--m-sweep", "3,2", "--T", "10", "--seeds", "2", "--out-dir", str(out)]) == 0
    # compare files: a row per (m, policy); pairs files: a row per (m, pair)
    for name, column, rows in [("compare.csv", 1, 2), ("compare_timing.csv", 1, 2),
                               ("pairs.csv", 0, 1), ("pairs_timing.csv", 0, 1)]:
        got = [row[column] for row in read_csv(out / name)[1:]]
        assert got == ["2"] * rows + ["3"] * rows, name


def test_stability_report_json(tmp_path, capsys):
    out = tmp_path / "stab"
    assert main(["stability", "--grid", "5", "--e-eta", "1.0",
                 "--out-dir", str(out)]) == 0
    rep = json.loads((out / "stability_report.json").read_text())
    assert rep["m_sufficient"] == 7
    assert rep["d_max"] == pytest.approx(6.4)
    assert "D_max" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [
    ("m", "7"), ("m-sweep", "3,4"), ("seeds", "9"), ("seed", "3"), ("policy", "rollout"),
    ("T", "30"), ("t-h", "3"), ("num-mc", "5"), ("m-lim", "4"), ("jobs", "2"),
])
def test_stability_run_flag_without_verify_is_a_one_line_error(tmp_path, capsys, flag, value):
    """Stability reads the run flags only to verify; given on the command
    line without --verify, each is an error before any output."""
    out = tmp_path / "s"
    rc = main(["stability", "--grid", "4", "--e-eta", "0.5", f"--{flag}", value,
               "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --{flag} is read only with --verify\n"
    assert not out.exists()


def test_stability_verify_verdicts(tmp_path):
    out = tmp_path / "stabv"
    assert main(["stability", "--grid", "4", "--e-eta", "1.0", "--policy", "ia-ra",
                 "--verify", "--m-sweep", "6,1", "--T", "300", "--seeds", "6",
                 "--seed", "2", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "verdicts.csv")
    verdicts = {r[0]: r[2] for r in rows[1:]}
    assert verdicts["6"] == "STABLE"
    assert verdicts["1"] == "UNSTABLE"


def test_stability_verify_without_demand_runs_one_taxi(tmp_path, capsys):
    # With no demand the sufficient fleet size is 0; it is verified at m = 1.
    out = tmp_path / "stab0"
    assert main(["stability", "--grid", "3", "--e-eta", "0", "--verify", "--seeds", "5",
                 "--T", "10", "--out-dir", str(out)]) == 0
    assert json.loads((out / "stability_report.json").read_text())["m_sufficient"] == 0
    rows = read_csv(out / "verdicts.csv")
    assert [r[:3] for r in rows[1:]] == [["1", "ia-ra", "STABLE"]]
    assert "m=1 ia-ra: STABLE" in capsys.readouterr().out


VERIFY_SWEEP = ["stability", "--grid", "4", "--e-eta", "1.0", "--verify", "--m-sweep", "4,2",
                "--T", "20", "--seeds", "5", "--seed", "3"]


def test_stability_verify_runs_every_fleet_size_in_one_call(tmp_path, capsys, monkeypatch):
    """One _execute call, so one process pool, over all fleet sizes: stdout,
    verdicts.csv and the run files are byte-identical at --jobs 1 and 2, and
    equal those of one stability run per fleet size."""
    calls = []
    execute = cli._execute

    def counted(tasks, jobs):
        calls.append(sorted({t["m"] for t in tasks}))
        return execute(tasks, jobs)

    monkeypatch.setattr(cli, "_execute", counted)
    out = {}
    for jobs in ("1", "2"):
        assert main(VERIFY_SWEEP + ["--jobs", jobs, "--out-dir", str(tmp_path / jobs)]) == 0
        out[jobs] = capsys.readouterr().out
    assert calls == [[2, 4], [2, 4]]
    assert out["1"] == out["2"]
    assert non_timing_digest(tmp_path / "1") == non_timing_digest(tmp_path / "2")

    for m in ("4", "2"):
        single = [a if a != "4,2" else m for a in VERIFY_SWEEP]
        assert main(single + ["--out-dir", str(tmp_path / f"m{m}")]) == 0
        out[m] = capsys.readouterr().out
    assert out["1"] == out["4"] + out["2"].splitlines(keepends=True)[-1]
    verdicts = read_csv(tmp_path / "1" / "verdicts.csv")
    assert verdicts == read_csv(tmp_path / "m4" / "verdicts.csv") + read_csv(
        tmp_path / "m2" / "verdicts.csv")[1:]
    files = sorted(f.name for f in (tmp_path / "1").iterdir()
                   if f.name != "verdicts.csv" and "timing" not in f.name)
    for name in files:
        m = "2" if "_m2_" in name else "4"
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / f"m{m}" / name).read_bytes()
    assert len(files) == 1 + 2 * 5 * 2  # the report, then each run's trace and summary


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 4, "e-eta": 0.4, "policy": "greedy",
                               "m": 2, "T": 20, "seeds": 1, "seed": 5}))
    out = tmp_path / "cfgout"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "greedy_m2_seed5.summary.json").exists()
    out2 = tmp_path / "cfgout2"
    assert main(["simulate", "--config", str(cfg), "--policy", "ia-ra",
                 "--out-dir", str(out2)]) == 0
    assert (out2 / "ia-ra_m2_seed5.summary.json").exists()


def test_missing_graph_is_a_usage_error(tmp_path):
    rc = main(["simulate", "--e-eta", "0.4", "--policy", "greedy", "--m", "1",
               "--out-dir", str(tmp_path / "x")])
    assert rc != 0


def test_two_phase_sector_timing_file(tmp_path):
    out = tmp_path / "tp"
    assert main(["simulate", "--grid", "4", "--e-eta", "0.5", "--policy", "two-phase",
                 "--m", "4", "--m-lim", "2", "--t-h", "2", "--num-mc", "2",
                 "--T", "15", "--seeds", "1", "--seed", "4", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "two-phase_m4_seed4.sector_timing.csv")
    assert rows[0] == ["t", "sector", "plan_ms"]
    assert len(rows) > 1


def test_zero_m_lim_is_a_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--grid", "5", "--e-eta", "1", "--policy", "two-phase",
               "--m", "4", "--m-lim", "0", "--out-dir", str(tmp_path / "z")])
    assert rc != 0
    err = capsys.readouterr().err
    assert err == "error: --m-lim must be >= 1, got 0\n"


def test_trip_log_with_unknown_node_is_a_one_line_error(tmp_path, capsys):
    trips = tmp_path / "bad.csv"
    trips.write_text("t,pickup,dropoff\n1,99,3\n")
    rc = main(["stability", "--grid", "4", "--trips", str(trips),
               "--out-dir", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: trip (1, 99, 3) references a node outside 1..16\n"


@pytest.mark.parametrize("row", ["1,2,x", "1,2"], ids=["non-integer", "short-row"])
def test_trip_log_with_a_bad_row_is_a_one_line_error(tmp_path, capsys, row):
    trips = tmp_path / "bad.csv"
    trips.write_text(f"t,pickup,dropoff\n1,2,3\n{row}\n")
    rc = main(["stability", "--grid", "4", "--trips", str(trips),
               "--out-dir", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {trips}: line 3 is not three integers: {row!r}\n"


@pytest.mark.parametrize("flag", ["--graph", "--trips"])
def test_unreadable_input_is_a_one_line_error(tmp_path, capsys, flag):
    inputs = {"--graph": ["--e-eta", "1.0"], "--trips": ["--grid", "4"]}[flag]
    rc = main(["stability", flag, str(tmp_path), *inputs, "--out-dir", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    binary = tmp_path / "input.bin"
    binary.write_bytes(b"t,pickup,dropoff\n\xd0\xff\n")
    rc = main(["stability", flag, str(binary), *inputs, "--out-dir", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {binary}: not UTF-8 text (invalid continuation byte at byte 17)\n")


def test_config_file_that_is_not_utf8_is_a_one_line_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"grid": 4, "e-eta": "\xd0\xff"}')
    rc = main(["stability", "--config", str(cfg), "--out-dir", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: config {cfg}: not UTF-8 text (invalid continuation byte at byte 22)\n")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--policy", "greedy", "--m", "2", "--seeds", "0"],
     "error: --seeds must be >= 1, got 0\n"),
    (["stability", "--policy", "ia-ra", "--verify", "--m-sweep", "3", "--seeds", "2"],
     "error: --seeds must be >= 5 with --verify, got 2\n"),
    (["simulate", "--policy", "rollout", "--m", "2", "--t-h", "0"],
     "error: --t-h must be >= 1, got 0\n"),
    (["simulate", "--policy", "rollout", "--m", "2", "--num-mc", "0"],
     "error: --num-mc must be >= 1, got 0\n"),
    (["simulate", "--policy", "greedy", "--m", "2", "--jobs", "0"],
     "error: --jobs must be >= 1, got 0\n"),
    (["stability", "--policy", "ia-ra", "--verify", "--m-sweep", "3", "--seeds", "5",
      "--jobs", "-3"],
     "error: --jobs must be >= 1, got -3\n"),
])
def test_too_small_count_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    rc = main(argv + ["--grid", "4", "--e-eta", "1.0", "--T", "20", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()  # rejected before any work


def _argv(argv, tmp_path, out):
    """`argv` with "{out}" replaced by `out`, and a dict by a config file that holds it."""
    args = []
    for a in argv:
        if isinstance(a, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(a))
            a = str(cfg)
        args.append(a.replace("{out}", str(out)))
    return args


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--policy", "ia-ra", "--m", "0", "--T", "5", "--out-dir", "{out}"],
     "error: --m must be >= 1, got 0\n"),
    (["simulate", "--policy", "ia-ra", "--m", "2", "--T", "0", "--out-dir", "{out}"],
     "error: --T must be >= 1, got 0\n"),
    (["simulate", "--policy", "ia-ra", "--m-sweep", "2,0", "--T", "5", "--out-dir", "{out}"],
     "error: --m-sweep must be >= 1, got 0\n"),
    (["simulate", "--policy", "ia-ra", "--config", {"m-sweep": [2, 0]}, "--T", "5",
      "--out-dir", "{out}"],
     "error: --m-sweep must be >= 1, got 0\n"),
    (["compare", "--policies", "ia-ra,greedy", "--m", "-1", "--seeds", "2",
      "--out-dir", "{out}"],
     "error: --m must be >= 1, got -1\n"),
    (["gen-trips", "--T", "-1", "--out", "{out}"], "error: --T must be >= 1, got -1\n"),
    (["partition", "--m", "0", "--out", "{out}"], "error: --m must be >= 1, got 0\n"),
], ids=["simulate-m", "simulate-T", "simulate-sweep", "simulate-sweep-config", "compare-m",
        "gen-trips-T", "partition-m"])
def test_fleet_size_or_horizon_below_one_is_rejected_before_any_output(tmp_path, capsys,
                                                                        argv, message):
    out = tmp_path / "o"
    rc = main(_argv(argv, tmp_path, out) + ["--grid", "3", "--e-eta", "0.4"])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("argv, repeated", [
    (["simulate", "--policy", "ia-ra", "--m-sweep", "2,3,2"], 2),
    (["simulate", "--policy", "ia-ra", "--config", {"m-sweep": [3, 3]}], 3),
    (["compare", "--policies", "ia-ra,greedy", "--m-sweep", "2,2", "--seeds", "2"], 2),
    (["stability", "--policy", "ia-ra", "--verify", "--m-sweep", "3,2,3", "--seeds", "5"], 3),
], ids=["simulate", "simulate-config", "compare", "stability"])
def test_repeated_fleet_size_is_rejected_before_any_run(tmp_path, capsys, argv, repeated):
    out = tmp_path / "o"
    rc = main(_argv(argv, tmp_path, out)
              + ["--grid", "3", "--e-eta", "0.4", "--T", "5", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --m-sweep names {repeated} more than once\n"
    assert not out.exists()


def test_verify_with_a_horizon_below_the_slope_test_is_rejected_before_any_output(
        tmp_path, capsys):
    out = tmp_path / "v"
    rc = main(["stability", "--grid", "4", "--e-eta", "0.5", "--verify", "--T", "2",
               "--seeds", "5", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: --T must be >= 3 with --verify, got 2\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--policy", "two-phase", "--m", "20"],
    ["compare", "--policies", "ia-ra,two-phase", "--m", "20", "--seeds", "2"],
    ["stability", "--policy", "two-phase", "--verify", "--m-sweep", "20", "--seeds", "5"],
], ids=["simulate", "compare", "stability"])
def test_more_sectors_than_nodes_is_rejected_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    rc = main(argv + ["--grid", "3", "--e-eta", "0.5", "--m-lim", "1", "--T", "5",
                      "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == ("error: two-phase with --m 20 and --m-lim 1 opens "
                                       "20 sectors, more than the graph's 9 nodes\n")
    assert not out.exists()  # no report, run file or directory


@pytest.mark.parametrize("policies, seeds, message", [
    ("ia-ra,greedy", "1", "error: --seeds must be >= 2 for compare, got 1\n"),
    ("ia-ra,foo", "2", "error: unknown policy 'foo' (expected one of greedy, random-ia, "
                       "ia-commit, ia-ra, rollout, two-phase)\n"),
    ("ia-ra,ia-ra", "2", "error: --policies names 'ia-ra' more than once\n"),
])
def test_compare_bad_input_is_rejected_before_any_run(tmp_path, capsys, policies, seeds,
                                                      message):
    out = tmp_path / "c"
    rc = main(["compare", "--grid", "3", "--e-eta", "0.4", "--policies", policies,
               "--m", "2", "--T", "5", "--seeds", seeds, "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()  # no run file written


def test_paired_t_p_value_is_the_student_t_cdf():
    from scipy import stats

    from fleetroll.cli import _paired_t

    rng = np.random.default_rng(8)
    for n in range(2, 40):
        deltas = rng.integers(-6, 5, size=n).tolist()
        t, p = _paired_t(deltas)
        if t != 0.0:
            assert p == float(stats.t.cdf(t, n - 1))
    assert _paired_t([2, 2]) == (0.0, 1.0) and _paired_t([-1, -1]) == (0.0, 0.0)


def test_compare_without_fleet_size_is_a_usage_error(tmp_path, capsys):
    rc = main(["compare", "--grid", "4", "--e-eta", "0.4", "--policies", "ia-ra,greedy",
               "--T", "20", "--out-dir", str(tmp_path / "c")])
    assert rc == 1
    assert capsys.readouterr().err == "error: provide --m or --m-sweep\n"


@pytest.mark.parametrize("text, message", [
    ("{bad", "invalid JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
    ("[4]", "expected a JSON object of flag values"),
    ('{"t-h": "x"}', "invalid value 'x' for 't-h'"),
    ('{"e-eta": true}', "invalid value True for 'e-eta'"),
    ('{"m-sweep": "3,5"}', "invalid value '3,5' for 'm-sweep'"),
    ('{"verify": "yes"}', "invalid value 'yes' for 'verify'"),
    ('{"metric": "foo"}', "invalid value 'foo' for 'metric'"),
    (None, "Is a directory"),
    ('{"tee-h": 0}', "unknown key 'tee-h' (no subcommand has such a flag)"),
    ('{"base-policy": "ia-ra"}', "unknown key 'base-policy' (no subcommand has such a flag)"),
])
def test_bad_config_file_is_a_one_line_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is None:
        cfg.mkdir()
    else:
        cfg.write_text(text)
    rc = main(["stability", "--config", str(cfg), "--grid", "4", "--e-eta", "1.0",
               "--out-dir", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: config {cfg}: {message}\n"
    assert not (tmp_path / "s").exists()


def test_config_shared_by_subcommands_is_accepted(tmp_path):
    """Keys that name another subcommand's flags (stability's `metric` and
    `verify`, gen-trips' `out`) are kept for that subcommand, not rejected."""
    cfg = tmp_path / "shared.json"
    cfg.write_text(json.dumps({"grid": 3, "e-eta": 1.0, "policy": "greedy", "m": 2,
                               "T": 5, "metric": "graph", "verify": False,
                               "out": str(tmp_path / "trips.csv")}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "summary.csv").exists()
    assert main(["stability", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == 0


def test_shared_config_verify_checks_apply_to_stability_only(tmp_path, capsys):
    """A shared config's `verify` with too few seeds and a short horizon
    leaves simulate alone; stability --verify still rejects them."""
    cfg = tmp_path / "shared.json"
    cfg.write_text(json.dumps({"verify": True, "seeds": 2}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--grid", "3", "--e-eta", "0.4",
                 "--policy", "greedy", "--m", "2", "--T", "2", "--out-dir", str(out)]) == 0
    assert (out / "summary.csv").exists()
    capsys.readouterr()
    rc = main(["stability", "--verify", "--seeds", "2", "--grid", "3", "--e-eta", "0.4",
               "--m-sweep", "2", "--T", "20", "--out-dir", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err == "error: --seeds must be >= 5 with --verify, got 2\n"
    assert not (tmp_path / "s").exists()


def test_zero_grid_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["simulate", "--grid", "0", "--e-eta", "1.0", "--policy", "greedy", "--m", "2",
               "--T", "20", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: --grid must be >= 1, got 0\n"
    assert not out.exists()


def test_gen_graph_with_zero_size_is_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen-graph", "--k", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: grid size must be >= 1\n"
    assert not out.exists()


def test_graph_file_with_a_non_integer_is_a_one_line_error(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("x y\n1 2\n")
    rc = main(["simulate", "--graph", str(graph), "--e-eta", "1.0", "--policy", "greedy",
               "--m", "2", "--T", "20", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {graph}: line 1 is not integers: 'x y'\n"


@pytest.mark.parametrize("text, message", [
    ("3 -1\n1 2\n2 3\n3 1\n2 1\n3 2\n1 3\n", "edge count -1 is negative"),
    ("2 2\n1 2\n2 1\n5 5\n", "expected 2 edges (4 values after the header), found 6 values"),
    ("2 2\n1 2\n2 1 7\n", "expected 2 edges (4 values after the header), found 5 values"),
    ("2 2\n1 2\n", "expected 2 edges (4 values after the header), found 2 values"),
], ids=["negative", "extra-edge", "stray-value", "short"])
def test_graph_file_with_a_wrong_edge_count_is_a_one_line_error(tmp_path, capsys, text,
                                                                 message):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    out = tmp_path / "o"
    rc = main(["simulate", "--graph", str(graph), "--e-eta", "1.0", "--policy", "greedy",
               "--m", "2", "--T", "20", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {graph}: {message}\n"
    assert not out.exists()


def test_unknown_base_policy_is_a_fleetroll_error():
    from fleetroll.errors import FleetrollError
    from fleetroll.rollout import RolloutConfig

    assert RolloutConfig(base_policy="ia-ra").base_policy == "ia-ra"
    for kwargs in ({"base_policy": "foo"}, {"base_policy": "greedy"}, {"t_h": 0},
                   {"num_mc": 0}):
        with pytest.raises(FleetrollError):
            RolloutConfig(**kwargs)


@pytest.mark.parametrize("flags, message", [
    (["--hotspot", "99"], "error: hotspot 99 is outside the graph's nodes 1..9\n"),
    (["--hotspot", "0", "--hotspot-mass", "0.2"],
     "error: hotspot 0 is outside the graph's nodes 1..9\n"),
    (["--hotspot", "5", "--hotspot-mass", "1.5"],
     "error: hotspot mass must be in [0, 1], got 1.5\n"),
    (["--hotspot", "5", "--hotspot-mass", "-0.1"],
     "error: hotspot mass must be in [0, 1], got -0.1\n"),
    (["--hotspot-mass", "0.5"], "error: hotspot mass 0.5 needs a hotspot node\n"),
])
def test_bad_hotspot_is_a_one_line_error(tmp_path, capsys, flags, message):
    rc = main(["stability", "--grid", "3", "--e-eta", "1.0", *flags,
               "--out-dir", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_bad_graph_leaves_no_output_directory(tmp_path, capsys, command):
    graph = tmp_path / "g.txt"
    graph.write_text("3 1\n1 2\n")  # node 3 is unreachable
    out = tmp_path / "o"
    runs = (["--policy", "greedy", "--m", "2"] if command == "simulate"
            else ["--policies", "greedy,ia-ra", "--m", "2", "--seeds", "2"])
    rc = main([command, "--graph", str(graph), "--e-eta", "1.0", *runs, "--T", "5",
               "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: node ")
    assert not out.exists()


TWO_PHASE_SWEEP = ["simulate", "--grid", "5", "--e-eta", "0.8", "--policy", "two-phase",
                   "--m-sweep", "4,6", "--m-lim", "2", "--t-h", "2", "--num-mc", "2",
                   "--T", "12", "--seeds", "3", "--seed", "2"]


def test_builds_are_reused_without_changing_any_output(tmp_path, monkeypatch):
    """A sweep writes the same non-timing files whether each process reuses
    its builds (one process, or two workers) or every run builds afresh."""
    dirs = {name: tmp_path / name for name in ("one", "two", "fresh")}
    assert main(TWO_PHASE_SWEEP + ["--jobs", "1", "--out-dir", str(dirs["one"])]) == 0
    assert main(TWO_PHASE_SWEEP + ["--jobs", "2", "--out-dir", str(dirs["two"])]) == 0
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_memo", lambda key, build: build())
        assert main(TWO_PHASE_SWEEP + ["--jobs", "1", "--out-dir", str(dirs["fresh"])]) == 0
    assert len(list(dirs["one"].glob("*.trace.csv"))) == 6
    digests = {name: non_timing_digest(d) for name, d in dirs.items()}
    assert digests["one"] == digests["two"] == digests["fresh"]


def test_each_build_is_made_once_per_process(tmp_path, monkeypatch):
    calls = {"graph": 0, "model": 0, "partition": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(graphmod, "grid_graph", counting("graph", graphmod.grid_graph))
    monkeypatch.setattr(demand, "synthetic_model", counting("model", demand.synthetic_model))
    monkeypatch.setattr(planner, "get_partitions", counting("partition", planner.get_partitions))
    sweep = [a if a != "4,6" else "4" for a in TWO_PHASE_SWEEP]
    assert main(sweep + ["--jobs", "1", "--out-dir", str(tmp_path / "o")]) == 0
    assert calls == {"graph": 1, "model": 1, "partition": 1}
    assert main(TWO_PHASE_SWEEP + ["--jobs", "1", "--out-dir", str(tmp_path / "p")]) == 0
    assert calls == {"graph": 2, "model": 2, "partition": 3}  # one partition per fleet size


def test_graph_file_rewritten_between_calls_is_read_again(tmp_path):
    graph = tmp_path / "g.txt"
    args = ["simulate", "--graph", str(graph), "--e-eta", "1.0", "--policy", "ia-ra",
            "--m", "2", "--T", "10", "--seed", "3"]
    assert main(["gen-graph", "--k", "3", "--out", str(graph)]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(["gen-graph", "--k", "4", "--out", str(graph)]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    assert main(["gen-graph", "--k", "4", "--out", str(tmp_path / "g4.txt")]) == 0
    assert main([a if a != str(graph) else str(tmp_path / "g4.txt") for a in args]
                + ["--out-dir", str(tmp_path / "c")]) == 0
    assert non_timing_digest(tmp_path / "a") != non_timing_digest(tmp_path / "b")
    assert non_timing_digest(tmp_path / "b") == non_timing_digest(tmp_path / "c")


@pytest.mark.parametrize("command", ["simulate", "stability"])
@pytest.mark.parametrize("flags, message", [
    (["--e-eta", "nan"], "error: --e-eta must be a finite number, got nan\n"),
    (["--e-eta", "inf"], "error: --e-eta must be a finite number, got inf\n"),
    (["--e-eta", "1.0", "--hotspot", "5", "--hotspot-mass", "nan"],
     "error: --hotspot-mass must be a finite number, got nan\n"),
    (["--e-eta", "1.0", "--hotspot", "5", "--hotspot-mass", "inf"],
     "error: --hotspot-mass must be a finite number, got inf\n"),
], ids=["e-eta-nan", "e-eta-inf", "hotspot-mass-nan", "hotspot-mass-inf"])
def test_non_finite_float_flag_is_a_one_line_error(tmp_path, capsys, command, flags, message):
    out = tmp_path / "o"
    rc = main([command, "--grid", "3", *flags, "--policy", "ia-ra", "--m", "2", "--T", "5",
               "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "stability"])
@pytest.mark.parametrize("text, message", [
    ('{"e-eta": NaN}', "error: --e-eta must be a finite number, got nan\n"),
    ('{"e-eta": 1.0, "hotspot": 5, "hotspot-mass": -Infinity}',
     "error: --hotspot-mass must be a finite number, got -inf\n"),
])
def test_non_finite_config_value_is_a_one_line_error(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o"
    rc = main([command, "--config", str(cfg), "--grid", "3", "--policy", "ia-ra", "--m", "2",
               "--T", "5", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def _no_table_build(monkeypatch):
    def fail(*args):
        raise AssertionError("a build started")

    monkeypatch.setattr(graphmod, "grid_graph", fail)
    monkeypatch.setattr(graphmod, "_all_pairs_distances", fail)
    monkeypatch.setattr(graphmod, "_next_hop_rows", fail)
    monkeypatch.setattr(graphmod.CityGraph, "_build_adjacency", fail)


@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_grid_too_large_for_its_tables_exits_before_any_build(tmp_path, capsys, monkeypatch,
                                                              command):
    _no_table_build(monkeypatch)
    out = tmp_path / "o"
    rc = main([command, "--grid", "70000", "--e-eta", "1.0", "--policy", "ia-ra", "--m", "2",
               "--T", "5", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: a graph of 4900000000 nodes needs 1.79e+11 GiB of distance and next-hop "
        "tables, more than the 2 GiB allowed\n")
    assert not out.exists()


def test_graph_file_too_large_for_its_tables_exits_before_any_build(tmp_path, capsys,
                                                                    monkeypatch):
    _no_table_build(monkeypatch)
    graph = tmp_path / "g.txt"
    graph.write_text("30000 1\n1 2\n")
    rc = main(["simulate", "--graph", str(graph), "--e-eta", "1.0", "--policy", "ia-ra",
               "--m", "2", "--T", "5", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: a graph of 30000 nodes needs 3.35 GiB of distance and next-hop tables, "
        "more than the 2 GiB allowed\n")


# Each input asks numpy for far more memory than any machine has, so
# without the guard it fails at allocation, never by filling memory. A huge
# --m would be drawn into memory before failing: never run one here.
@pytest.mark.parametrize("argv, message", [
    (["simulate", "--e-eta", "1e12", "--policy", "greedy", "--m", "2"],
     "an episode draws 5.96e+04 GiB"),
    (["stability", "--e-eta", "1e9", "--verify", "--seeds", "5"],
     "an episode draws 86.1 GiB"),
    (["gen-trips", "--e-eta", "1e12"], "a trip log step draws 1.49e+04 GiB"),
    (["simulate", "--e-eta", "1", "--policy", "rollout", "--m", "2",
      "--num-mc", "1000000000000"], "a rollout planning call draws 4.92e+05 GiB"),
], ids=["episode-requests", "verify-fleet", "trip-log-step", "rollout-scenarios"])
def test_draws_too_large_to_make_are_rejected_before_any_output(tmp_path, capsys, argv,
                                                                message):
    out = tmp_path / "o"
    dest = ["--out", str(out)] if argv[0] == "gen-trips" else ["--out-dir", str(out)]
    rc = main(argv + ["--grid", "3", "--T", "5"] + dest)
    assert rc == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err == f"error: {message} of uniforms up front, more than the 2 GiB allowed\n"
    assert not out.exists()


def test_a_planning_call_draw_too_large_is_rejected_before_any_draw(tmp_path, capsys,
                                                                    monkeypatch):
    # One taxi's block, num_mc (t_h+1)(1+2 ceil(E[eta])) = 1e7 * 6 * 3 uniforms,
    # is 1.34 GiB and fits; a planning call draws one block per free taxi, so
    # two taxis need 2.68 GiB.
    assert 8 * 10 ** 7 * 6 * 3 < graphmod.BYTES_MAX < 2 * 8 * 10 ** 7 * 6 * 3
    runs = []
    monkeypatch.setattr(cli, "_execute", lambda tasks, jobs: runs.append(tasks) or [])
    out = tmp_path / "o"
    rc = main(["simulate", "--grid", "3", "--e-eta", "1", "--policy", "rollout", "--m", "2",
               "--t-h", "5", "--num-mc", "10000000", "--T", "5", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: a rollout planning call draws 2.68 GiB of uniforms up front, "
        "more than the 2 GiB allowed\n")
    assert not out.exists() and runs == []


def test_an_episode_that_could_hold_too_many_requests_is_rejected_before_any_draw(
        tmp_path, capsys, monkeypatch):
    # 59 steps of 10^6 arrivals pass the uniforms check (0.88 GiB), but all
    # 59 million requests may be outstanding at once, REQUEST_BYTES each.
    # Draws and runs are stubbed out, so a missing check allocates nothing.
    def no_draw(*args):
        raise AssertionError("drew before the check")

    runs = []
    monkeypatch.setattr(sim, "sample_arrivals", no_draw)
    monkeypatch.setattr(sim, "sample_request", no_draw)
    monkeypatch.setattr(cli, "_execute", lambda tasks, jobs: runs.append(tasks) or [])
    out = tmp_path / "o"
    rc = main(["simulate", "--grid", "3", "--e-eta", "1e6", "--policy", "greedy", "--m", "2",
               "--T", "60", "--out-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    held = (59 * (10 ** 6 * sim.REQUEST_BYTES + 2 * sim.TAXI_STEP_BYTES)
            + 2 * sim.TAXI_BYTES) / 2 ** 30
    assert captured.out == ""
    assert captured.err == (f"error: an episode can hold {held:.3g} GiB of requests, controls "
                            f"and taxis at once, more than the 2 GiB allowed\n")
    assert not out.exists() and runs == []


def test_an_episode_whose_controls_would_not_fit_is_rejected_before_any_run(
        tmp_path, capsys, monkeypatch):
    # No requests, but the trace keeps a pointer for each of 10^6 taxis over
    # 299 steps: 299 * 10^6 * TAXI_STEP_BYTES bytes, and the state TAXI_BYTES a taxi.
    def no_run(tasks, jobs):
        raise AssertionError("ran before the check")

    monkeypatch.setattr(cli, "_execute", no_run)
    out = tmp_path / "o"
    rc = main(["simulate", "--grid", "3", "--e-eta", "0", "--policy", "greedy",
               "--m", "1000000", "--T", "300", "--out-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    held = 10 ** 6 * (299 * sim.TAXI_STEP_BYTES + sim.TAXI_BYTES) / 2 ** 30
    assert captured.out == ""
    assert captured.err == (f"error: an episode can hold {held:.3g} GiB of requests, controls "
                            f"and taxis at once, more than the 2 GiB allowed\n")
    assert not out.exists()


def test_a_one_step_episode_whose_fleet_would_not_fit_is_rejected_before_any_run(
        tmp_path, capsys, monkeypatch):
    # One step of 3 * 10^7 taxis: the draws (0.22 GiB) and the one step's
    # controls (0.45 GiB) fit, but the fleet state takes TAXI_BYTES a taxi.
    def no_run(tasks, jobs):
        raise AssertionError("ran before the check")

    monkeypatch.setattr(cli, "_execute", no_run)
    out = tmp_path / "o"
    rc = main(["simulate", "--grid", "3", "--e-eta", "0", "--policy", "greedy",
               "--m", "30000000", "--T", "2", "--out-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    held = 3 * 10 ** 7 * (sim.TAXI_STEP_BYTES + sim.TAXI_BYTES) / 2 ** 30
    assert captured.out == ""
    assert captured.err == (f"error: an episode can hold {held:.3g} GiB of requests, controls "
                            f"and taxis at once, more than the 2 GiB allowed\n")
    assert not out.exists()


def test_process_pool_has_no_more_workers_than_runs(tmp_path, monkeypatch):
    # The pool is a stand-in that maps in this process, so no worker starts
    # whatever --jobs asks for.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    argv = ["simulate", "--grid", "3", "--e-eta", "0.5", "--policy", "greedy", "--m", "2",
            "--T", "5", "--seeds", "2"]
    assert main(argv + ["--jobs", "64", "--out-dir", str(tmp_path / "a")]) == 0
    assert sizes == [2]
    assert main(argv + ["--jobs", "1", "--out-dir", str(tmp_path / "b")]) == 0
    assert sizes == [2]  # one job runs in this process, with no pool
    assert multiprocessing.active_children() == []
    assert non_timing_digest(tmp_path / "a") == non_timing_digest(tmp_path / "b")


def test_table_estimate_is_the_built_tables_size():
    g = graphmod.grid_graph(6)
    assert graphmod.table_bytes(g.n) == g.dist_array.nbytes + sum(
        row.itemsize * len(row) for row in g._next)
    assert graphmod.table_bytes(10000) < graphmod.BYTES_MAX // 5  # 100x100 fits
    assert graphmod.table_bytes(2 ** 16) == 2 * (2 ** 16 + 1) ** 2 * 4
    # The largest graph check_size accepts has fewer than 2**16 nodes, so
    # the tables are unsigned shorts at every size that can be built.
    graphmod.check_size(23169)
    with pytest.raises(graphmod.GraphError):
        graphmod.check_size(23170)
    assert 23169 < 2 ** 16


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, value", [("e-eta", 9), ("hotspot", 2), ("hotspot-mass", 0.9)])
def test_trip_log_with_a_synthetic_model_flag_is_rejected_before_any_output(
        tmp_path, capsys, flag, value, source):
    trips = tmp_path / "t.csv"
    trips.write_text("t,pickup,dropoff\n1,2,3\n2,4,1\n")
    out = tmp_path / "o"
    extra = [f"--{flag}", str(value)]
    if source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: value}))
        extra = ["--config", str(cfg)]
    rc = main(["simulate", "--grid", "3", "--trips", str(trips), *extra, "--policy", "greedy",
               "--m", "2", "--T", "5", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --trips and --{flag} cannot be used together\n"
    assert not out.exists()


def test_stability_verify_runs_at_the_given_fleet_size(tmp_path, capsys):
    """--m-sweep, then --m, then the sufficient fleet size (3 here)."""
    base = ["stability", "--grid", "4", "--e-eta", "0.5", "--verify", "--seeds", "5", "--T", "20"]
    for flags, m in ([], 3), (["--m", "7"], 7), (["--m", "7", "--m-sweep", "5"], 5):
        out = tmp_path / f"s{len(flags)}"
        assert main(base + flags + ["--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"m={m} ia-ra: STABLE"
        assert [r[0] for r in read_csv(out / "verdicts.csv")[1:]] == [str(m)]


def test_shared_config_range_checks_apply_to_the_subcommands_with_the_flag(tmp_path, capsys):
    """gen-trips has no --m-lim, so a shared config's m-lim of 0 does not
    concern it; simulate still rejects it."""
    cfg = tmp_path / "shared.json"
    cfg.write_text(json.dumps({"grid": 3, "e-eta": 0.5, "m-lim": 0}))
    assert main(["gen-trips", "--config", str(cfg), "--T", "5",
                 "--out", str(tmp_path / "t.csv")]) == 0
    assert (tmp_path / "t.csv").exists()
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--m", "2", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: --m-lim must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["gen-trips", "--T", "5", "--jobs", "2"],
                                  ["partition", "--m", "4", "--jobs", "3"]],
                         ids=["gen-trips", "partition"])
def test_jobs_is_an_unrecognized_flag_where_nothing_runs_in_parallel(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--grid", "3", "--e-eta", "0.5", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"fleetroll: error: unrecognized arguments: {' '.join(argv[-2:])}"
    assert not out.exists()


def test_shared_config_jobs_is_type_checked_and_dropped_where_nothing_runs_in_parallel(
        tmp_path, capsys):
    cfg = tmp_path / "shared.json"
    cfg.write_text(json.dumps({"grid": 3, "e-eta": 0.5, "jobs": 2}))
    assert main(["gen-trips", "--config", str(cfg), "--T", "5",
                 "--out", str(tmp_path / "t.csv")]) == 0
    assert main(["partition", "--config", str(cfg), "--m", "4",
                 "--out", str(tmp_path / "p.csv")]) == 0
    assert (tmp_path / "t.csv").exists() and (tmp_path / "p.csv").exists()
    capsys.readouterr()
    cfg.write_text(json.dumps({"grid": 3, "e-eta": 0.5, "jobs": "2"}))
    assert main(["gen-trips", "--config", str(cfg), "--T", "5",
                 "--out", str(tmp_path / "u.csv")]) == 1
    assert capsys.readouterr().err == f"error: config {cfg}: invalid value '2' for 'jobs'\n"
    assert not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "gen-trips"])
def test_config_value_of_another_subcommands_flag_must_have_its_type(tmp_path, capsys,
                                                                      command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"metric": 5}')
    out = tmp_path / "o"
    dest = ["--out", str(out)] if command == "gen-trips" else ["--m", "2", "--out-dir", str(out)]
    rc = main([command, "--config", str(cfg), "--grid", "3", "--e-eta", "0.5", *dest])
    assert rc == 1
    assert capsys.readouterr().err == f"error: config {cfg}: invalid value 5 for 'metric'\n"
    assert not out.exists()


def test_null_config_value_leaves_the_flag_at_its_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 3, "e-eta": 0.5, "m": 2, "seeds": None, "T": None}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 2 and rows[1][2] == "60"  # one seed, T = 60


# The least argv that each subcommand runs with; "{out}" is its output path.
RUNNABLE = {
    "simulate": ["--m", "2", "--T", "5", "--out-dir", "{out}"],
    "compare": ["--policies", "ia-ra,greedy", "--m", "2", "--T", "5", "--seeds", "2",
                "--out-dir", "{out}"],
    "stability": ["--out-dir", "{out}"],
    "gen-trips": ["--T", "5", "--out", "{out}"],
    "partition": ["--m", "2", "--out", "{out}"],
}


def _runnable(command, out):
    return [command, "--grid", "3", "--e-eta", "0.4",
            *(a.replace("{out}", str(out)) for a in RUNNABLE[command])]


@pytest.mark.parametrize("command", sorted(RUNNABLE))
def test_runnable_argv_runs(tmp_path, command):
    assert main(_runnable(command, tmp_path / "o")) == 0
    assert (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, command", [(f, c) for f in cli.FLAGS if f.least is not None
                                           for c in f.commands],
                         ids=lambda x: getattr(x, "name", x))
def test_flag_below_its_least_value_is_rejected_before_any_output(tmp_path, capsys, flag,
                                                                   command):
    """Every row of the flag table with a least value, on every subcommand
    that has the flag: the last value given wins, so least - 1 overrides."""
    out = tmp_path / "o"
    value = flag.least - 1
    rc = main(_runnable(command, out) + [f"--{flag.name}", str(value)])
    assert rc == 1
    message = f"error: --{flag.name} must be >= {flag.least}, got {value}\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_gen_graph_writes_the_grid_without_building_its_tables(tmp_path, capsys, monkeypatch):
    want = tmp_path / "want.txt"
    g = graphmod.grid_graph(6)
    graphmod.save_edges(g.n, g.edges, want)
    _no_table_build(monkeypatch)
    out = tmp_path / "g.txt"
    assert main(["gen-graph", "--k", "6", "--out", str(out)]) == 0
    assert out.read_bytes() == want.read_bytes()
    assert capsys.readouterr().out == f"wrote 6x6 grid (36 nodes, 120 edges) to {out}\n"
    assert main(["gen-graph", "--k", "70000", "--out", str(out.with_suffix(".big"))]) == 1
    assert capsys.readouterr().err.startswith("error: a graph of 4900000000 nodes needs ")
    assert not out.with_suffix(".big").exists()
