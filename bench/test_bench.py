"""Self-tests of the benchmark: tracing leaves outputs unchanged, self time
is computed correctly, times are scaled by the host gauge without its own
time, repeats are checked, and the printed metric names match BENCHMARK.json.

The workloads are shrunk here (fewer rounds, shorter horizons, a smaller
stability city) so the tests run in seconds; the code paths are the
benchmark's own.
"""

import contextlib
import io
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

import fleetroll.matching
import fleetroll.rollout
import run
import speed
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SMALL = {
    "rollout-city": dict(T=4, rounds=1),
    "twophase-metro": dict(T=3, rounds=1),
    "stability-hotspot": dict(grid=7, hotspot=25, fleet=(3, 5, 8), T=8),
}


def small(name):
    return replace(workloads.WORKLOADS[name], **SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_outputs_identical(name):
    plain = workloads.Runner(small(name), seed=3, seconds=0, traced=False).run()
    traced = workloads.Runner(small(name), seed=3, seconds=0, traced=True).run()
    assert plain.failures == [] and traced.failures == []
    assert traced.pass_digest() == plain.pass_digest()
    assert ([ep.digest for ep in traced.pass_eps]
            == [ep.digest for ep in plain.pass_eps])
    assert (traced.end_to_end(1.0)["cost_per_step"][0]
            == plain.end_to_end(1.0)["cost_per_step"][0])
    assert fleetroll.rollout.auction_match is fleetroll.matching.auction_match


def test_self_times_on_hand_built_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0.5],
        ["a", 1.0, 4.0, 0, 0.0],
        ["leaf", 2.0, 3.0, 1, 0.0],
        ["b", 5.0, 9.0, 0, 1.0],
    ]
    assert tracing.self_times(spans) == [2.5, 2.0, 1.0, 3.0]


def test_aggregated_self_time_excludes_children(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracing, "_clock", lambda: now[0])
    t = tracing.Tracer()

    def inner():
        now[0] += 2.0

    wrapped_inner = t.wrap_agg(inner, "inner")

    def outer():
        now[0] += 1.0
        wrapped_inner()
        now[0] += 3.0

    wrapped_outer = t.wrap_agg(outer, "outer")
    with t.span("top"):
        wrapped_outer()
        now[0] += 0.5
    assert t.counters["inner"] == [1, 2.0, 2.0]
    assert t.counters["outer"] == [1, 6.0, 4.0]
    assert tracing.self_times(t.spans) == [0.5]


def test_missing_hook_is_reported_not_raised():
    t = tracing.Tracer()
    t.install([("fleetroll.rollout:no_such_function", "agg", "x", None),
               ("fleetroll.no_such_module:f", "span", "y", None)])
    t.uninstall()
    assert t.missing == ["fleetroll.rollout:no_such_function", "fleetroll.no_such_module:f"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_printed_metrics_match_benchmark_json(name, trace, monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, name, small(name))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", name, "--seed", "2", "--seconds", "0",
                  "--trace", str(trace)])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert ([result["metrics"][m["name"]]["unit"] for m in spec]
            == [m["unit"] for m in spec])


def test_times_are_scaled_by_their_episode_slowdown():
    fast = workloads.Timing(0.2, plan_ms=(5.0, 1.0), step_ms=(900.0, 1100.0), slowdown=1.0)
    slow = workloads.Timing(0.4, plan_ms=(10.0, 2.0), step_ms=(1800.0, 2200.0), slowdown=2.0)
    runner = workloads.Runner(small("rollout-city"), seed=0, seconds=0, traced=False)
    runner.pass_eps = [workloads.Episode("a", m=1, rnd=0, seed=0, timing=fast),
                       workloads.Episode("b", m=1, rnd=1, seed=1, timing=slow)]
    scaled = runner.timings()
    assert scaled["setup_s"] == (0.2, "s", 2)
    assert scaled["steps_per_s"] == (1.0, "1/s", 4)
    assert scaled["plan_ms_p50"] == (3.0, "ms", 4)
    raw = runner.timings(scaled=False)
    assert raw["setup_s"] == (pytest.approx(0.3), "s", 2)
    assert raw["steps_per_s"] == (4 / 6.0, "1/s", 4)


def test_repeat_with_other_outputs_is_a_failed_operation(monkeypatch):
    runner = workloads.Runner(small("rollout-city"), seed=0, seconds=0, traced=False)
    episode = runner.episode
    calls = []

    def flaky(m, rnd):
        ep = episode(m, rnd)
        calls.append(ep.label)
        if len(calls) == 2:
            ep.digest = "other"
        return ep

    monkeypatch.setattr(runner, "episode", flaky)
    runner.run()
    assert calls == [calls[0]] * 2
    assert runner.failures == [(calls[0], "repeat gave a different cost or digest")]
    assert runner.attempted == 2 and len(runner.pass_eps) == 1


def test_seconds_set_the_pass_length():
    w = workloads.WORKLOADS["stability-hotspot"]
    assert workloads.Runner(w, 0, workloads.PASS_SECONDS, traced=False).rounds == w.rounds
    assert workloads.Runner(w, 0, 2 * workloads.PASS_SECONDS, traced=False).rounds == 2 * w.rounds
    assert workloads.Runner(w, 0, 0, traced=False).rounds == w.min_rounds


def test_a_pass_past_its_time_stops_after_min_rounds(monkeypatch):
    monkeypatch.setattr(workloads, "OVERRUN", 0.0)
    runner = workloads.Runner(small("stability-hotspot"), seed=2, seconds=80, traced=False)
    assert runner.rounds == 2 * workloads.WORKLOADS["stability-hotspot"].rounds
    runner.run()
    assert runner.failures == []
    assert runner.rounds_run == runner.w.min_rounds
    assert len(runner.pass_eps) == runner.w.min_rounds * len(runner.w.fleet)


def test_gauge_time_is_kept_out_of_step_times(monkeypatch):
    """A gauge that sleeps 50 ms per sample must not show in any step time
    of an episode whose steps take a few milliseconds."""
    def slow_sample(gauge):
        time.sleep(0.05)
        gauge.samples_ms.append(speed.REF_MS)
        gauge._last = speed._clock()

    monkeypatch.setattr(speed.Gauge, "sample", slow_sample)
    monkeypatch.setattr(speed, "GAP_S", 0.0)
    runner = workloads.Runner(small("stability-hotspot"), seed=1, seconds=0, traced=False)
    rep = runner.episode(8, 0).timing
    assert rep.slowdown == 1.0 and len(rep.step_ms) == len(rep.plan_ms) == 7
    assert sum(rep.step_ms) < 150.0
    assert max(rep.plan_ms) < 40.0


def test_gauge_slowdown_is_median_over_reference():
    g = speed.Gauge()
    g.samples_ms = [speed.REF_MS, 2 * speed.REF_MS, 3 * speed.REF_MS]
    assert g.slowdown() == pytest.approx(2.0)
