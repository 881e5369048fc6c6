import csv
import hashlib
import json
from pathlib import Path

import pytest

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
    assert summary[0] == ["policy", "m", "T", "seed", "cost", "z_total", "z_unassigned"]
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


def test_stability_report_json(tmp_path, capsys):
    out = tmp_path / "stab"
    assert main(["stability", "--grid", "5", "--e-eta", "1.0",
                 "--out-dir", str(out)]) == 0
    rep = json.loads((out / "stability_report.json").read_text())
    assert rep["m_sufficient"] == 7
    assert rep["d_max"] == pytest.approx(6.4)
    assert "D_max" in capsys.readouterr().out


def test_stability_verify_verdicts(tmp_path):
    out = tmp_path / "stabv"
    assert main(["stability", "--grid", "4", "--e-eta", "1.0", "--policy", "ia-ra",
                 "--verify", "--m-sweep", "6,1", "--T", "300", "--seeds", "6",
                 "--seed", "2", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "verdicts.csv")
    verdicts = {r[0]: r[2] for r in rows[1:]}
    assert verdicts["6"] == "STABLE"
    assert verdicts["1"] == "UNSTABLE"


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


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--policy", "greedy", "--m", "2", "--seeds", "0"],
     "error: --seeds must be >= 1, got 0\n"),
    (["stability", "--policy", "ia-ra", "--verify", "--m-sweep", "3", "--seeds", "2"],
     "error: --seeds must be >= 5 with --verify, got 2\n"),
    (["simulate", "--policy", "rollout", "--m", "2", "--t-h", "0"],
     "error: --t-h must be >= 1, got 0\n"),
    (["simulate", "--policy", "rollout", "--m", "2", "--num-mc", "0"],
     "error: --num-mc must be >= 1, got 0\n"),
])
def test_too_small_count_flag_is_a_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    rc = main(argv + ["--grid", "4", "--e-eta", "1.0", "--T", "20", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()  # rejected before any work
