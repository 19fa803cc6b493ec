"""The metrics rollup's derived counts and histogram, and the disabled
telemetry path.

Counts and rates are derived from the reports a batch already holds, so
the only metric code left is :func:`~repro.telemetry.alignment_histogram`
and the rollup in :meth:`~repro.telemetry.BatchTelemetry.export`; the
disabled path is the shared no-op bundle every job body uses when
telemetry is off.
"""

import json
from types import SimpleNamespace

from repro.analyzer import AlignmentReport, PortAlignment
from repro.regression import BatchSpec
from repro.telemetry import (
    ALIGNMENT_BUCKETS,
    BatchTelemetry,
    NULL_LOG,
    NULL_TELEMETRY,
    NULL_TRACE,
    RunRecorder,
    TelemetryConfig,
    alignment_histogram,
)
from repro.telemetry.trace import NULL_SPAN


def _report(*rates, identical=False):
    """An alignment report whose ports have the given (aligned, total)
    cycle counts."""
    ports = {
        f"tb.p{index}": PortAlignment(f"tb.p{index}", total, aligned, None)
        for index, (aligned, total) in enumerate(rates)
    }
    return AlignmentReport(ports, max(t for _, t in rates), identical)


def test_histogram_buckets_and_stats():
    # rates 0.2, 0.5, 0.95, 1.0, 1.0 over two comparisons
    hist = alignment_histogram([_report((1, 5), (1, 2)),
                                _report((19, 20), (4, 4), (7, 7))])
    assert hist["count"] == 5
    assert hist["min"] == 0.2
    assert hist["max"] == 1.0
    assert hist["bounds"] == list(ALIGNMENT_BUCKETS)
    # bisect_left on (0.5, 0.9, 0.95, 0.99, 0.999, 1.0): a rate equal to
    # a bound lands in that bound's bucket; nothing reaches the overflow.
    assert hist["counts"] == [2, 0, 1, 0, 0, 2, 0]
    # each comparison's ports are summed first, then the comparisons
    assert hist["sum"] == (0.0 + 0.2 + 0.5) + (0.0 + 0.95 + 1.0 + 1.0)


def test_histogram_of_no_ports_is_empty():
    hist = alignment_histogram([AlignmentReport({}, 0)])
    assert hist["count"] == 0
    assert hist["min"] is None and hist["max"] is None
    assert hist["counts"] == [0] * (len(ALIGNMENT_BUCKETS) + 1)


# -- the disabled path: shared no-op singletons, no state, no payload ------


def test_null_instruments_ignore_everything():
    assert not NULL_TELEMETRY.enabled
    assert NULL_TELEMETRY.trace is NULL_TRACE
    assert NULL_TELEMETRY.log is NULL_LOG
    assert NULL_TELEMETRY.span("anything", key="value") is NULL_SPAN
    NULL_TELEMETRY.log.log("anything", much=True)
    assert NULL_TRACE.events == [] and NULL_LOG.records == []


def test_disabled_recorder_hands_out_the_null_bundle():
    recorder = RunRecorder({"config": "c", "view": "rtl"}, enabled=False)
    assert recorder.telemetry is NULL_TELEMETRY
    with recorder.span("generate", **recorder.context):
        recorder.telemetry.log.log("run.complete", passed=True)
    assert recorder.payload() is None



# -- the rollup: counts and rates derived from the batch's results ---------


def _export(tmp_path, *, results=(), alignments=None, triages=None):
    """Export a one-config, one-seed batch's metrics file from a
    stand-in report and return it parsed.  ``results`` lists one
    (test, view, result) triple per run; ``alignments`` and
    ``triages`` map entry keys to reports."""
    alignments = alignments or {}
    triages = triages or {}
    runs = {(test, view): result for test, view, result in results}
    tests = sorted({test for test, _, _ in results}
                   | {key[1] for key in alignments}
                   | {key[1] for key in triages})
    entries = [
        SimpleNamespace(
            config_name="cfg", test_name=test, seed=1,
            rtl=runs.get((test, "rtl")), bca=runs.get((test, "bca")),
            alignment=alignments.get((0, test, 1)),
            triage=triages.get((0, test, 1)),
        )
        for test in tests
    ]
    path = tmp_path / "metrics.json"
    batch = BatchTelemetry(
        BatchSpec(telemetry=TelemetryConfig(metrics_out=str(path))))
    batch.export(SimpleNamespace(
        configs=[SimpleNamespace(entries=entries)],
        n_runs=len(results), all_signed_off=False,
    ))
    return json.loads(path.read_text())


def _run(**kernel_stats):
    return SimpleNamespace(
        kernel_stats=kernel_stats, passed=True, cycles=10,
        wall_seconds=0.5, process_seconds={}, telemetry=None,
    )


def _triage(cycle, n_suspects):
    return SimpleNamespace(
        reason="scoreboard", verdict="diverged", signal="tb.init0.req",
        cycle=cycle, suspects=[object()] * n_suspects, top_suspect=None,
    )


def test_counter_accumulates(tmp_path):
    failure = SimpleNamespace(status="crashed",
                              describe=lambda: "worker died")
    metrics = _export(tmp_path, results=[
        ("t01", "rtl", _run(cycles=10, signal_commits=4)),
        ("t01", "bca", _run(cycles=10, signal_commits=1)),
        ("t02", "rtl", _run(cycles=3)),
        ("t02", "bca", failure),
    ])
    # each run's kernel stats are summed; a run that never completed
    # contributes a row but no counts
    assert metrics["batch"]["kernel_totals"] == {
        "cycles": 23, "signal_commits": 5}
    assert [run.get("kernel") for run in metrics["runs"]] == [
        {"cycles": 10, "signal_commits": 4},
        {"cycles": 10, "signal_commits": 1},
        {"cycles": 3},
        None,
    ]
    assert metrics["runs"][-1]["error"] == "worker died"


def test_snapshot_is_sorted_and_json_able(tmp_path):
    metrics = _export(
        tmp_path,
        results=[("t01", "rtl", _run(toggles=2, cycles=1, activations=7))],
        triages={(0, "t01", 1): _triage(40, 2)},
    )
    batch = metrics["batch"]
    for section in ("kernel_totals", "triage_counters"):
        assert list(batch[section]) == sorted(batch[section])
    assert list(batch["kernel_totals"]) == ["activations", "cycles",
                                            "toggles"]
    assert json.loads(json.dumps(metrics)) == metrics


def test_merge_histogram_snapshots():
    first = _report((1, 5), (1, 2))
    second = _report((19, 20), (4, 4), (7, 7))
    one, two = alignment_histogram([first]), alignment_histogram([second])
    both = alignment_histogram([first, second])
    assert both["count"] == one["count"] + two["count"]
    assert both["counts"] == [a + b for a, b in zip(one["counts"],
                                                    two["counts"])]
    assert both["sum"] == one["sum"] + two["sum"]
    assert both["min"] == min(one["min"], two["min"])
    assert both["max"] == max(one["max"], two["max"])
    assert both["bounds"] == one["bounds"] == two["bounds"]


def test_identical_pairs_are_counted_per_comparison(tmp_path):
    identical = _report((4, 4), identical=True)
    metrics = _export(tmp_path, alignments={
        (0, "t01", 1): identical,
        (0, "t02", 1): _report((4, 4)),
        (0, "t03", 1): _report((1, 4)),
    })
    assert [row["test"] for row in metrics["compares"]] == [
        "t01", "t02", "t03"]
    assert [row.get("counters") for row in metrics["compares"]] == [
        {"analyzer.identical_pairs": 1}, None, None]
    assert metrics["histograms"]["analyzer.port_alignment_rate"] == (
        alignment_histogram([identical, _report((4, 4)),
                             _report((1, 4))]))


def test_triage_counters_sum_the_triage_rows(tmp_path):
    metrics = _export(tmp_path, triages={
        (0, "t01", 1): _triage(40, 2),
        (0, "t02", 1): _triage(None, 0),
        (0, "t03", 1): _triage(7, 3),
    })
    rows = metrics["triages"]
    assert [row["first_divergence_cycle"] for row in rows] == [40, None, 7]
    assert metrics["batch"]["triage_counters"] == {
        "triage.first_divergence_cycle": 47,
        "triage.suspect_count": 5,
    }
    # no triage found a divergence cycle: that counter is left out
    metrics = _export(tmp_path, triages={(0, "t01", 1): _triage(None, 1)})
    assert metrics["batch"]["triage_counters"] == {
        "triage.suspect_count": 1}
    # no triage at all: neither the rows nor the counters appear
    metrics = _export(tmp_path, results=[("t01", "rtl", _run(cycles=1))])
    assert "triages" not in metrics
    assert "triage_counters" not in metrics["batch"]
