"""End-to-end telemetry acceptance for the regression batch engine.

The observability contract: a ``--jobs 2`` batch with telemetry enabled
produces (a) a metrics rollup with per-run phase timings and kernel
counters, (b) a Chrome/Perfetto trace where each worker process renders
as its own lane, (c) a structured JSON-lines log carrying (config, test,
seed, view) context — and every report artifact stays byte-identical to
a run without any telemetry flags.
"""

import json
import os

import pytest

from repro.regression import BatchSpec, RegressionRunner
from repro.regression.flow import CommonVerificationFlow
from repro.stbus import NodeConfig
from repro.ioutil import TMP_SUFFIX
from repro.telemetry import METRICS_SCHEMA, PHASE_NAMES, TelemetryConfig
from repro.telemetry.session import BatchTelemetry
from repro.telemetry.cli import main as telemetry_main

TESTS = ["t01_sanity_write_read", "t02_random_uniform"]

#: Kernel counters every run must report.
KERNEL_COUNTERS = ("cycles", "delta_iterations", "process_activations",
                   "signal_commits", "signal_toggles", "vcd_bytes")


def _config():
    return NodeConfig(n_initiators=2, n_targets=1, name="tele")


def _run(workdir, jobs, telemetry=None):
    runner = RegressionRunner([_config()], BatchSpec(
        tests=TESTS, seeds=(1,), workdir=str(workdir),
        jobs=jobs, telemetry=telemetry or TelemetryConfig(),
    ))
    return runner.run()


def _snapshot(workdir):
    return {
        name: (workdir / name).read_bytes()
        for name in sorted(os.listdir(workdir))
    }


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """One instrumented jobs=2 batch plus a plain jobs=1 reference."""
    root = tmp_path_factory.mktemp("telemetry_batch")
    side = root / "side"
    side.mkdir()
    config = TelemetryConfig(
        metrics_out=str(side / "metrics.json"),
        trace_out=str(side / "trace.json"),
        log_out=str(side / "run.log.jsonl"),
        time_processes=True,
    )
    report = _run(root / "instrumented", jobs=2, telemetry=config)
    plain_report = _run(root / "plain", jobs=1)
    return {
        "root": root,
        "config": config,
        "report": report,
        "plain_report": plain_report,
        "metrics": json.loads((side / "metrics.json").read_text()),
        "trace": json.loads((side / "trace.json").read_text()),
        "log_lines": [
            json.loads(line)
            for line in (side / "run.log.jsonl").read_text().splitlines()
        ],
    }


def test_artifacts_byte_identical_with_and_without_telemetry(batch):
    """Acceptance (c): telemetry is a pure side channel — the parallel
    instrumented run's artifacts match the serial plain run's, byte for
    byte."""
    assert batch["report"].render() == batch["plain_report"].render()
    snap_i = _snapshot(batch["root"] / "instrumented")
    snap_p = _snapshot(batch["root"] / "plain")
    assert sorted(snap_i) == sorted(snap_p)
    for name in snap_i:
        assert snap_i[name] == snap_p[name], f"{name} differs"


def test_metrics_rollup_batch_section(batch):
    """Acceptance (a): the rollup aggregates phase timings and kernel
    counters across the batch."""
    metrics = batch["metrics"]
    assert metrics["schema"] == METRICS_SCHEMA
    section = metrics["batch"]
    assert section["jobs"] == 2
    assert section["n_runs"] == 2 * len(TESTS)
    assert section["all_signed_off"] == batch["report"].all_signed_off
    assert section["wall_seconds"] > 0
    for name in KERNEL_COUNTERS:
        assert section["kernel_totals"][name] > 0, name
    for name in ("generate", "elaborate", "run", "finalize", "compare"):
        assert section["phase_totals"].get(name, 0) > 0, name


def test_metrics_rollup_per_run_entries(batch):
    metrics = batch["metrics"]
    runs = metrics["runs"]
    assert [(r["test"], r["view"]) for r in runs] == [
        (test, view) for test in TESTS for view in ("rtl", "bca")
    ]
    for run in runs:
        assert run["config"] == "tele"
        assert run["seed"] == 1
        assert run["passed"] is True
        assert run["cycles"] > 0
        assert run["wall_seconds"] > 0
        assert run["queue_wait_seconds"] >= 0
        for name in KERNEL_COUNTERS:
            assert run["kernel"][name] > 0, name
        assert set(run["phase_seconds"]) <= set(PHASE_NAMES)
        assert run["phase_seconds"]["run"] > 0
        # --time-processes: per-process [activations, seconds]
        assert run["process_seconds"]
        for calls, seconds in run["process_seconds"].values():
            assert calls > 0
            assert seconds >= 0


def test_metrics_rollup_compares_and_histogram(batch):
    metrics = batch["metrics"]
    compares = metrics["compares"]
    assert [c["test"] for c in compares] == TESTS
    for entry in compares:
        assert entry["min_rate"] == 1.0
        assert entry["overall_rate"] == 1.0
        assert entry["seconds"] > 0
        # signed-off views dump identical bytes
        assert entry["counters"] == {"analyzer.identical_pairs": 1}
    hist = metrics["histograms"]["analyzer.port_alignment_rate"]
    # one observation per port per comparison; all aligned at 100%
    assert hist["count"] > 0
    assert hist["min"] == 1.0
    assert hist["max"] == 1.0


def test_metrics_worker_lanes(batch):
    workers = batch["metrics"]["batch"]["workers"]
    worker_lanes = [name for name in workers if name.startswith("worker-")]
    assert len(worker_lanes) == 2
    total_jobs = sum(lane["n_jobs"] for lane in workers.values())
    # every run and every comparison is attributed to exactly one lane
    assert total_jobs == 2 * len(TESTS) + len(TESTS)
    for lane in workers.values():
        assert lane["busy_seconds"] > 0
        assert 0 <= lane["utilization"] <= 1


def test_trace_renders_one_lane_per_worker(batch):
    """Acceptance (b): the trace file is Chrome/Perfetto loadable, with
    a named lane per worker process."""
    events = batch["trace"]["traceEvents"]
    assert batch["trace"]["displayTimeUnit"] == "ms"
    process_meta = [e for e in events
                    if e["ph"] == "M" and e["name"] == "process_name"]
    assert len(process_meta) == 1
    lane_names = [e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"]
    assert "main" in lane_names
    assert lane_names.count("worker-0") == 1
    assert lane_names.count("worker-1") == 1
    spans = [e for e in events if e["ph"] == "X"]
    assert all(e["pid"] == 1 for e in spans)
    assert all(e["dur"] >= 0 and e["ts"] > 0 for e in spans)


def test_trace_spans_attributed_to_their_worker_lane(batch):
    """All spans of one (config, test, seed, view) run were recorded in
    one process, so they must land on one lane — and the batch-level
    spans must land on the main lane (tid 0)."""
    events = batch["trace"]["traceEvents"]
    by_run = {}
    for event in events:
        if event["ph"] != "X":
            continue
        args = event.get("args") or {}
        if "view" in args:
            key = (args["config"], args["test"], args["seed"], args["view"])
            by_run.setdefault(key, set()).add(event["tid"])
        if event["name"].startswith("batch."):
            assert event["tid"] == 0
    assert len(by_run) == 2 * len(TESTS) + len(TESTS)  # runs + compares
    for key, tids in by_run.items():
        assert len(tids) == 1, f"{key} spans spread over lanes {tids}"
    run_lanes = {tid for tids in by_run.values() for tid in tids}
    assert run_lanes == {1, 2}  # all work ran on the two worker lanes


def test_structured_log_carries_run_context(batch):
    records = batch["log_lines"]
    assert records[0]["event"] == "batch.start"
    assert records[0]["jobs"] == 2
    assert records[0]["tests"] == TESTS
    assert records[-1]["event"] == "batch.complete"
    assert records[-1]["n_runs"] == 2 * len(TESTS)
    completes = [r for r in records if r["event"] == "run.complete"]
    # replayed in deterministic batch order regardless of finish order
    assert [(r["test"], r["view"]) for r in completes] == [
        (test, view) for test in TESTS for view in ("rtl", "bca")
    ]
    for record in completes:
        assert record["config"] == "tele"
        assert record["seed"] == 1
        assert record["passed"] is True
        assert record["ts"] > 0
    compare_records = [r for r in records if r["event"] == "compare.complete"]
    assert [r["test"] for r in compare_records] == TESTS
    for record in compare_records:
        assert record["view"] == "compare"
        assert record["min_rate"] == 1.0


def test_kernel_totals_are_exactly_the_kernel_counters(batch):
    """The batch rollup carries the delta loop's counters plus the VCD
    byte count, and nothing else."""
    section = batch["metrics"]["batch"]
    assert sorted(section["kernel_totals"]) == sorted(KERNEL_COUNTERS)
    for run in batch["metrics"]["runs"]:
        assert sorted(run["kernel"]) == sorted(KERNEL_COUNTERS)


def test_summarize_cli_digests_the_real_rollup(batch, capsys):
    code = telemetry_main(["summarize", batch["config"].metrics_out])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("Batch: 4 runs over 1 configuration(s), jobs=2")
    assert "Slowest runs:" in out
    assert "Hottest kernel processes:" in out
    assert "Worker utilization:" in out
    assert "Worst alignment:" in out
    assert "Compiled kernel" not in out


def test_serial_telemetry_attributes_everything_to_main(tmp_path):
    config = TelemetryConfig(metrics_out=str(tmp_path / "m.json"))
    report = _run(tmp_path / "work", jobs=1, telemetry=config)
    assert all(c.all_passed for c in report.configs)
    metrics = json.loads((tmp_path / "m.json").read_text())
    assert list(metrics["batch"]["workers"]) == ["main"]
    assert metrics["batch"]["jobs"] == 1


def test_flow_tags_telemetry_files_per_iteration(tmp_path):
    config = TelemetryConfig(metrics_out=str(tmp_path / "metrics.json"))
    flow = CommonVerificationFlow(
        _config(),
        BatchSpec(tests=TESTS, seeds=(1,), workdir=str(tmp_path / "work"),
                  telemetry=config),
        max_iterations=1,
    )
    flow.execute()
    assert (tmp_path / "metrics.iter1.json").exists()
    assert not (tmp_path / "metrics.json").exists()
    tagged = json.loads((tmp_path / "metrics.iter1.json").read_text())
    assert tagged["schema"] == METRICS_SCHEMA


def test_disabled_telemetry_records_nothing_extra(tmp_path):
    """No telemetry config: results still carry kernel stats (always on)
    but no per-run payload, and no side files appear anywhere."""
    report = _run(tmp_path / "work", jobs=1)
    entry = report.configs[0].entries[0]
    for name in KERNEL_COUNTERS:
        assert entry.rtl.kernel_stats[name] > 0
    assert entry.rtl.telemetry is None
    assert entry.rtl.process_seconds == {}
    assert sorted(os.listdir(tmp_path)) == ["work"]


def test_failed_log_replay_keeps_the_old_log(tmp_path):
    """A record that fails to replay aborts the log export: the previous
    log stays as it was and no temp file is left beside it."""
    class Unreplayable:
        @property
        def records(self):
            raise RuntimeError("replay failed")

    log = tmp_path / "run.log.jsonl"
    log.write_text("old log\n")
    tele = BatchTelemetry(TelemetryConfig(log_out=str(log)))
    key = (0, "t01_sanity_write_read", 1, "rtl")
    with pytest.raises(RuntimeError, match="replay failed"):
        tele._write_log(None, 0.0, [key], [], {key: Unreplayable()}, {},
                        [_config()], ["t01_sanity_write_read"], [1])
    assert log.read_text() == "old log\n"
    assert not [p for p in os.listdir(tmp_path) if p.endswith(TMP_SUFFIX)]
