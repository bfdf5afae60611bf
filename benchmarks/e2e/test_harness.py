"""Self-tests of the benchmark harness.

    python -m pytest benchmarks/e2e -q

Outside tier-1's ``testpaths``: these test the measuring instrument,
not the program, and the smoke tests spawn real children (about a
minute in all).
"""

from __future__ import annotations

import io
import json
import shutil

import pytest

import run
import stats
import workloads
from spans import Tracer, durations_ns, self_times_ns


# -- arithmetic ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3]
    assert stats.percentile(samples, 0.5) == 3
    assert stats.percentile(samples, 0.9) == 5
    assert stats.percentile(samples, 0.2) == 1
    assert stats.percentile([7], 0.99) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def _window(times, kinds=None, clients=1, rss=50.0):
    return {"ops": len(times), "window_s": sum(times) / 1e3,
            "clients": clients, "latencies_ms": list(times),
            "kinds": kinds or [0] * len(times), "peak_rss_mb": rss}


def test_pool_reads_timings_from_the_quiet_end():
    windows = [
        _window([1.0] * 2 + [3.0] * 18, rss=50.0),
        _window([2.0] * 20, rss=70.0),
        _window([4.0] * 20, rss=60.0),
    ]
    # Set-up-only children add set-up samples and nothing else.
    pooled = stats.pool(windows, [0.5, 0.9, 0.7, 0.6, 0.8, 2.0, 0.75])
    # 60 samples: the fastest tenth is 1, 1, 2, 2, 2, 2 and the 5th
    # percentile the third smallest.
    assert pooled["throughput_quiet_ops_s"] == pytest.approx(600.0)
    assert pooled["latency_ms_p05"] == 2.0
    # Lower quartile of seven: the second smallest.
    assert pooled["setup_s"] == pytest.approx(0.6)
    assert pooled["peak_rss_mb"] == 60.0


def test_unlike_ops_are_ranked_within_their_kind():
    # A cheap and a dear kind, round robin: the quiet end must not be
    # the cheap kind alone.
    mixed = _window([1.0, 10.0] * 20, kinds=[0, 1] * 20)
    pooled = stats.pool([mixed], [1.0, 1.0])
    assert pooled["latency_ms_p05"] == pytest.approx(5.5)
    assert pooled["throughput_quiet_ops_s"] == pytest.approx(1e3 / 5.5)
    two_clients = _window([1.0, 10.0] * 20, kinds=[0, 1] * 20, clients=2)
    assert stats.quiet_throughput([two_clients]) == pytest.approx(
        2e3 / 5.5
    )


def test_spreads_and_worsening():
    assert stats.rep_spread([9.0, 10.0, 12.0]) == pytest.approx(0.2)
    assert stats.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)


def test_close_is_exact_for_ints_and_relative_for_floats():
    assert stats.close(3, 3)
    assert not stats.close(3, 4)
    assert not stats.close(3.0, 3)  # an int answer must come back int
    assert stats.close(1.0 + 1e-12, 1.0)
    assert not stats.close(1.0 + 1e-6, 1.0)
    assert not stats.close(0.0, 1e-300)


def test_span_self_time_is_duration_minus_children():
    tracer = Tracer()
    with tracer.span("op", 7):
        with tracer.span("stage_a", 7):
            with tracer.span("inner", 7):
                pass
        with tracer.span("stage_b", 7):
            pass
    spans = tracer.spans
    assert [s[3] for s in spans] == [-1, 0, 1, 0]
    assert {s[4] for s in spans} == {7}
    own = self_times_ns(spans)
    length = [s[2] - s[1] for s in spans]
    assert own[0] == length[0] - length[1] - length[3]
    assert own[1] == length[1] - length[2]
    assert own[2] == length[2] and own[3] == length[3]
    assert sum(own) == length[0]
    assert set(durations_ns(spans)) == {"op", "stage_a", "inner", "stage_b"}


# -- inputs --------------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    first = workloads.build("cold_compile", 5, 1.0)
    assert first == workloads.build("cold_compile", 5, 1.0)
    assert first != workloads.build("cold_compile", 6, 1.0)
    names = [op["name"] for op in first["ops"]]
    assert len(set(names)) == len(names)


def test_shapes_are_distinct_and_above_the_brute_force_cap():
    spec = workloads.build("sw_pair_shapes", 1, 1.0)
    shapes = [(a, b) for _, a, b in spec["ops"]]
    assert len(set(shapes)) == len(shapes)
    assert min((a + 1) * (b + 1) for a, b in shapes) > 4096


def test_profile_lengths_do_not_depend_on_the_seed():
    first, second = (
        workloads.build("profile_map", seed, 1.0)["database"]
        for seed in (1, 2)
    )
    assert first != second
    assert sorted(map(len, first)) == sorted(map(len, second))
    assert len(set(map(len, first))) == len(first) == 64


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = run.manifest()
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert spec["paths"] == ["benchmarks/e2e"]
    gated = {m["name"] for m in spec["end_to_end"]}
    assert gated == set(stats.pool([_window([1.0])], [1.0, 1.0]))


# -- children ------------------------------------------------------------------


@pytest.fixture
def run_dir():
    run.WORK.mkdir(exist_ok=True)
    path = run.WORK / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _child(run_dir, spec, tag="child", window=1.0, trace=0):
    spec_path = run_dir / f"{tag}.json"
    spec_path.write_text(json.dumps(spec))
    return run.spawn_child(run_dir, tag, spec_path, window, trace=trace)


def test_env_scrubbing_keeps_ambient_knobs_from_children(
    run_dir, monkeypatch
):
    monkeypatch.setenv("REPRO_BACKEND", "scalar")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    env = run.child_env(run_dir / "n", run_dir / "t")
    assert "REPRO_BACKEND" not in env and "OMP_NUM_THREADS" not in env
    assert env["REPRO_NATIVE_CACHE_DIR"] == str(run_dir / "n")
    assert env["PYTHONPATH"].split(":")[0] == str(run.SRC)
    # And for real: the child's engine resolves native, not scalar.
    result = _child(run_dir, workloads.build("sw_pair_small", 1, 1.0))
    backends = dict(result["extras"]["cache_info"]["backends"])
    assert backends == {"native": 1}


def test_wrong_reference_shows_as_failed_ops(run_dir):
    spec = workloads.build("sw_pair_small", 1, 1.0)
    spec["expected"][0] += 1
    result = _child(run_dir, spec)
    attempted, failed, messages = run.failures([result], None)
    pool = len(spec["expected"])
    assert 0 < failed <= attempted // pool + 1
    assert "expected" in messages[0]


def test_a_child_given_no_window_only_sets_up(run_dir):
    spec = workloads.build("sw_pair_small", 1, 1.0)
    result = _child(run_dir, spec, window=0.0)
    assert result["slices"] == [] and result["setup_s"] > 0
    with pytest.raises(RuntimeError, match="no op ran"):
        run.failures([result], None)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_second_smoke(run_dir, name):
    result = _child(run_dir, workloads.build(name, 3, 1.0))
    attempted, failed, messages = run.failures([result], None)
    assert attempted >= 1
    assert failed == 0, messages
    assert result["setup_s"] > 0 and result["peak_rss_mb"] > 0
    piece = result["slices"][0]
    assert len(piece["latencies_ms"]) == piece["ops"]
    assert len(piece["kinds"]) == piece["ops"]


def test_traced_slices_alternate_and_record_spans(run_dir):
    spec = workloads.build("cold_compile", 2, 1.0)
    result = _child(run_dir, spec, window=0.2, trace=1)
    assert [s["traced"] for s in result["slices"]] == [False, True]
    assert all(s["failed"] == 0 for s in result["slices"])
    spans = result["trace"]["spans"]
    roots = [s for s in spans if s[3] == -1]
    assert {s[0].split(".")[0] for s in roots} == {"cold"}
    stages = {s[0] for s in spans if s[3] != -1}
    assert {"lang.parse_ms", "native.cc_build_ms", "cache.store_ms",
            "engine.run_warm_ms"} <= stages
    # The stage spans account for the staged op's wall time.
    own = self_times_ns(spans)
    uncovered = sum(own[k] for k, s in enumerate(spans) if s[3] == -1)
    total = sum(s[2] - s[1] for s in roots)
    assert uncovered / total < 0.05


def test_trace_run_prints_every_layer_metric():
    out = io.StringIO()
    result = run.run_workload("service_http", 2, 3.0, 1, out=out)
    listed = [m["name"] for m in run.manifest()["per_layer"]]
    assert list(result["metrics"]) == listed
    assert result["correct"] and result["failed"] == 0
    for name in listed:
        assert name in out.getvalue()
    assert result["metrics"]["cold.phase_cover_share"]["value"] > 0.95
