"""Golden-output tests for the metrics digest and its CLI."""

import json

import pytest

from repro.telemetry import METRICS_SCHEMA, SummaryError, summarize_metrics
from repro.telemetry.cli import main as telemetry_main


def make_payload():
    """A small, fully-populated metrics rollup with unambiguous numbers."""
    return {
        "schema": METRICS_SCHEMA,
        "batch": {
            "wall_seconds": 12.345678,
            "jobs": 2,
            "n_runs": 2,
            "n_configs": 1,
            "all_signed_off": True,
            "kernel_totals": {"cycles": 2000, "delta_iterations": 5000},
            "phase_totals": {"elaborate": 1.25, "run": 10.5},
            "workers": {
                "worker-0": {"pid": 11, "n_jobs": 1, "busy_seconds": 6.0,
                             "utilization": 0.5},
                "worker-1": {"pid": 12, "n_jobs": 1, "busy_seconds": 5.5,
                             "utilization": 0.45},
                "main": {"pid": 1, "n_jobs": 1, "busy_seconds": 0.5,
                         "utilization": 0.04},
            },
        },
        "runs": [
            {"config": "cfg_a", "test": "t01_smoke", "seed": 1,
             "view": "bca", "passed": True, "cycles": 400,
             "wall_seconds": 1.25, "kernel": {},
             "phase_seconds": {"run": 1.0}},
            {"config": "cfg_a", "test": "t01_smoke", "seed": 1,
             "view": "rtl", "passed": True, "cycles": 400,
             "wall_seconds": 3.5, "kernel": {},
             "phase_seconds": {"elaborate": 0.25, "finalize": 0.1,
                               "run": 3.0},
             "process_seconds": {"dut.arb": [400, 0.9],
                                 "tb.probe": [400, 0.2]}},
        ],
        "compares": [
            {"config": "cfg_a", "test": "t01_smoke", "seed": 1,
             "min_rate": 0.9876, "overall_rate": 0.999, "seconds": 0.75},
        ],
        "histograms": {},
    }


GOLDEN = """\
Batch: 2 runs over 1 configuration(s), jobs=2, wall 12.35s, all signed off
Kernel totals: cycles=2000  delta_iterations=5000
Phase totals: run 10.50s  elaborate 1.25s
Worker utilization:
  worker-0     1 jobs      6.00s busy   50.0%
  worker-1     1 jobs      5.50s busy   45.0%
  main         1 jobs      0.50s busy    4.0%
Slowest runs:
  1. 3.500s  cfg_a t01_smoke seed=1 rtl (run 3.000s, elaborate 0.250s)
  2. 1.250s  cfg_a t01_smoke seed=1 bca (run 1.000s)
Hottest kernel processes:
  1. 0.900s  dut.arb (400 activations)
  2. 0.200s  tb.probe (400 activations)
Worst alignment:
  1.  98.76%  cfg_a t01_smoke seed=1 (compare 0.750s)
"""


def test_summarize_golden_output():
    assert summarize_metrics(make_payload()) == GOLDEN


def test_summarize_top_limits_rankings():
    text = summarize_metrics(make_payload(), top=1)
    assert "1. 3.500s" in text
    assert "2. 1.250s" not in text
    assert "2. 0.200s" not in text


def test_summarize_without_process_timing_hints_at_flag():
    payload = make_payload()
    for run in payload["runs"]:
        run.pop("process_seconds", None)
    text = summarize_metrics(payload)
    assert "rerun with --time-processes" in text


def test_summarize_has_no_engine_line():
    # Unknown kernel counters print as plain totals; no counter adds a
    # section of its own.
    payload = make_payload()
    payload["batch"]["kernel_totals"].update(
        levels_evaluated=30, levels_skipped=10)
    lines = summarize_metrics(payload).splitlines()
    assert lines[1] == ("Kernel totals: cycles=2000  delta_iterations=5000"
                        "  levels_evaluated=30  levels_skipped=10")
    assert lines[2].startswith("Phase totals:")
    assert not any("Compiled" in line for line in lines)


def test_summarize_rejects_wrong_schema():
    with pytest.raises(SummaryError):
        summarize_metrics({"schema": "something/else"})
    with pytest.raises(SummaryError):
        summarize_metrics({})


def test_cli_summarize_golden(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(make_payload()), encoding="utf-8")
    code = telemetry_main(["summarize", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == GOLDEN
    assert captured.err == ""


def test_cli_summarize_missing_file(tmp_path, capsys):
    code = telemetry_main(["summarize", str(tmp_path / "ghost.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


def test_cli_summarize_wrong_schema(tmp_path, capsys):
    path = tmp_path / "not_metrics.json"
    path.write_text('{"schema": "nope"}', encoding="utf-8")
    code = telemetry_main(["summarize", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_summarize_rejects_bad_top(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(make_payload()), encoding="utf-8")
    code = telemetry_main(["summarize", str(path), "--top", "0"])
    assert code == 2
    assert "--top" in capsys.readouterr().err
