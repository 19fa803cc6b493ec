"""Self-tests of the end-to-end benchmark harness (outside tier 1)::

    python -m pytest benchmarks/e2e/test_harness.py -q
"""

import json
import shutil
import signal
import statistics
import sys

import pytest

import run
import traced


# -- statistics and verdicts ------------------------------------------------


def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = run.quartiles(values)
    assert (q1, median, q3) == tuple(statistics.quantiles(values, n=4))
    assert run.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarize_marks_spread_wider_than_bound_unresolved():
    tight = run.summarize([10.0, 10.1, 9.9, 10.0, 10.05], bound=0.1)
    assert tight["median"] == 10.0 and tight["resolved"]
    loose = run.summarize([8.0, 12.0, 10.0, 7.0, 13.0], bound=0.1)
    assert loose["spread"] > 0.1 and not loose["resolved"]


def test_verdict_rules():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9]
    faster = [b * 0.9 for b in base]
    assert run.verdict(base, faster, "lower", 0.1) == "improved"
    # Same gain, but only 8 of 10 pairs won: not a claimable gain.
    mixed = faster[:8] + [11.0, 11.0]
    assert run.verdict(base, mixed, "lower", 0.2) == "unchanged"
    slower = [b * 1.2 for b in base]
    assert run.verdict(base, slower, "lower", 0.1) == "worse"
    assert run.verdict(base, slower, "lower", 0.25) == "unchanged"
    # Direction flips for higher-is-better metrics.
    assert run.verdict(base, slower, "higher", 0.1) == "improved"
    assert run.verdict(base, faster, "higher", 0.05) == "worse"
    # Ties count for neither side.
    assert run.verdict(base, list(base), "lower", 0.1) == "unchanged"
    # A base spread wider than the bound resolves only a change that is
    # better on every run than every base run.
    noisy = [7.0, 13.0, 10.0, 8.0, 12.0]
    assert run.verdict(noisy, [10.0] * 5, "lower", 0.1) == "unresolved"
    assert run.verdict(noisy, [6.0] * 5, "lower", 0.1) == "improved"


# -- the per-layer table ----------------------------------------------------


def _span(name, ts, dur, pid=1, **args):
    span = {"name": name, "pid": pid, "ts": ts, "dur": dur}
    if args:
        span["args"] = args
    return span


def _run_args(view, dut_s, tb_s, finalize_s, cycles):
    return dict(view=view, dut_s=dut_s, tb_s=tb_s, finalize_s=finalize_s,
                cycles=cycles, signals=10, vcd_bytes=1000,
                process_activations=7, signal_commits=5, signal_toggles=3,
                delta_iterations=2)


def _synthetic():
    """A serial run and a comparison in the main process (pid 1), plus
    one run in a worker (pid 2).  Spawned at 0.0, work ended at 10.0."""
    spans = [
        _span("startup.import", 0.05, 0.1),
        _span("regression.cli", 0.2, 9.7),
        _span("lint_config", 0.3, 0.2),
        _span("RegressionRunner.run", 1.0, 8.5),
        _span("execute_run_job", 1.1, 5.0),
        _span("build_test", 1.2, 0.1),
        _span("VerificationEnv.__init__", 1.4, 0.3),
        _span("VerificationEnv.run", 2.0, 4.0,
              **_run_args("rtl", 1.0, 1.5, 0.4, 100)),
        _span("Simulator.elaborate", 2.0, 0.2),
        _span("VcdWriter.declare", 2.05, 0.05),
        _span("VcdWriter.sample_changes", 3.0, 0.3),
        _span("VcdWriter.finish", 5.8, 0.1),
        _span("execute_compare_job", 6.5, 2.0),
        _span("compare_vcds", 6.6, 1.8, cycles=50),
        _span("parse_vcd", 6.7, 0.5),
        _span("execute_run_job", 1.0, 3.0, pid=2),
        _span("VerificationEnv.run", 1.5, 2.0, pid=2,
              **_run_args("bca", 0.5, 0.5, 0.2, 50)),
    ]
    extras = {"result_bytes": 1, "cache_bytes_read": 0,
              "cache_bytes_written": 0, "impact_processes": 0}
    return {"spans": spans, "main_pid": 1, "end_ts": 10.0, "rc": 0,
            "extras": extras}


def test_self_times_subtract_nested_children_per_pid():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 4.0),
             _span("c", 2.0, 1.0), _span("d", 6.0, 2.0),
             _span("e", 1.0, 3.0, pid=2)]
    assert run.self_times(spans) == pytest.approx([4.0, 3.0, 1.0, 2.0, 3.0])


def test_layer_table_rows_close_on_the_traced_wall():
    table = run.layer_table(_synthetic(), traced_wall=10.0)
    assert table["unattributed_s"] == pytest.approx(10.0 - 0.1 - 9.7)
    # Rows cover the main process's wall plus the worker's busy time.
    assert sum(table[row] for row in run.TIME_ROWS) == pytest.approx(13.0)
    assert table["rtl.self_s"] == pytest.approx(1.0)
    assert table["bca.self_s"] == pytest.approx(0.5)
    # tb processes + finalize, minus VcdWriter.finish inside finalize.
    assert table["catg.self_s"] == pytest.approx(1.5 + 0.4 - 0.1 + 0.5 + 0.2)
    assert table["kernel.self_s"] == pytest.approx(
        (4.0 - 0.2 - 0.3 - 0.1 - 1.0 - 1.5 - 0.4 + 0.1)
        + (2.0 - 0.5 - 0.5 - 0.2))
    assert table["vcd.write_s"] == pytest.approx(0.05 + 0.3 + 0.1)
    assert table["kernel.elaborate_s"] == pytest.approx(0.15)
    assert table["analyzer.parse_s"] == pytest.approx(0.5)
    assert table["analyzer.align_s"] == pytest.approx(1.3)
    assert table["regression.self_s"] == pytest.approx(
        (9.7 - 0.2 - 8.5) + (8.5 - 5.0 - 2.0) + (5.0 - 0.1 - 0.3 - 4.0)
        + (2.0 - 1.8) + (3.0 - 2.0))
    assert table["kernel.cycles"] == 150
    assert table["kernel.host_us_per_cycle"] == pytest.approx(
        (6.0 - 0.2) / 150 * 1e6)
    assert table["analyzer.cycles"] == 50
    assert table["analyzer.compares"] == 1


def test_call_mismatches_name_every_wrong_count():
    expected = run.expected_calls(
        n_configs=1, n_runs=2, n_executed=2, n_compares=1, cached=False,
        spans=_synthetic()["spans"])
    assert expected["VcdWriter.sample_changes"] == 150
    assert expected["VcdWriter.declare"] == 20
    calls = dict(expected, execute_run_job=1)
    del calls["parse_vcd"]
    assert run.call_mismatches(expected, expected) == []
    assert run.call_mismatches(calls, expected) == [
        "execute_run_job: 1 calls, expected 2",
        "parse_vcd: 0 calls, expected 2",
    ]


def test_recorder_spans_opaque_gates_and_worker_flush(tmp_path):
    recorder = traced.SpanRecorder(str(tmp_path))
    inner = recorder.wrap("inner", lambda x: x + 1,
                          on_return=lambda args, result: {"out": result})
    gate = recorder.wrap("gate", lambda x: inner(x) * 2, opaque=True)
    assert gate(1) == 4 and inner(1) == 2
    assert [(s["name"], s.get("args")) for s in recorder.spans] == [
        ("gate", None), ("inner", {"out": 2})]
    # In a worker (any pid but the main one) the outermost call flushes.
    recorder.main_pid = -1
    recorder.reset()
    inner(5)
    assert recorder.spans == []
    assert [s["name"] for s in recorder.all_spans()] == ["inner"]


# -- artifacts and child processes ------------------------------------------


def test_tree_digest_covers_names_and_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.txt").write_bytes(b"1")
    (tmp_path / "y.txt").write_bytes(b"2")
    first = run.tree_digest(tmp_path)
    assert run.tree_digest(tmp_path) == first
    (tmp_path / "y.txt").write_bytes(b"3")
    assert run.tree_digest(tmp_path) != first
    (tmp_path / "y.txt").write_bytes(b"2")
    (tmp_path / "y.txt").rename(tmp_path / "z.txt")
    assert run.tree_digest(tmp_path) != first


def test_run_child_collects_rusage_of_the_whole_tree(tmp_path):
    grandchild = "b = bytearray(96 * 2**20); sum(range(2 * 10**6))"
    code = ("import subprocess, sys; "
            f"subprocess.run([sys.executable, '-c', {grandchild!r}]); "
            "sys.exit(3)")
    child = run.run_child([sys.executable, "-c", code], {}, tmp_path)
    assert child.rc == 3
    assert child.maxrss_kb >= 96 * 1024
    assert child.cpu_s > 0 and child.wall_s >= child.cpu_s * 0.5


def test_run_child_kills_a_child_past_its_deadline(tmp_path):
    code = "import time; time.sleep(60)"
    child = run.run_child([sys.executable, "-c", code], {}, tmp_path,
                          timeout=0.5)
    assert child.rc == -signal.SIGKILL and child.wall_s < 30


# -- the benchmark definition -----------------------------------------------


def test_spec_names_units_and_bounds_match_the_harness():
    spec = run.load_spec()
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric


@pytest.fixture
def small_harness(tmp_path):
    """Two configurations (one with a programming port), one test, one
    seed: four runs, two of them re-simulated after the edit."""
    cfg = tmp_path / "cfg"
    cfg.mkdir()
    for name in ("cfg01_t2_3x2_w32_full_programmable_priority",
                 "cfg22_t3_2x2_w8_full_fixed_priority"):
        shutil.copy(run.CONFIG_DIR / f"{name}.cfg", cfg)
    return run.Harness(tmp_path / "work", seeds=[1], config_dir=cfg,
                       tests=["t01_sanity_write_read"])


def test_smoke_every_workload_one_round(small_harness):
    results = run.measure(small_harness, list(run.WORKLOADS.values()),
                          rounds=1)
    spec = run.load_spec()
    for name, result in results.items():
        assert result["correct"], (name, result["problems"])
        # Warm-up, one timed round and the traced run.
        assert result["attempted"] == 3 * (4 + 2)
        assert len(result["rounds"]) == 1
        layers = result["layers"]
        assert layers["unattributed_s"] < result["traced_wall_s"]
        line = json.loads(run.result_line(result, trace=1))
        assert set(line["metrics"]) == {m["name"]
                                        for m in spec["per_layer"]}
        line = json.loads(run.result_line(result, trace=0))
        assert set(line["metrics"]) == set(run.E2E_METRICS)
    warm = results["cache_warm_edit"]["layers"]
    assert (warm["cache.hits"], warm["cache.misses"]) == (2, 2)
    assert warm["cache.stores"] == 2
    counts = [results[name]["layers"]["kernel.cycles"]
              for name in ("slice_serial", "slice_jobs2")]
    assert len(set(counts)) == 1
