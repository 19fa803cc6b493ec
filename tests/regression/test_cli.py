"""CLI front-end tests (analyzer and regression tools)."""

import os

import pytest

from repro.analyzer.cli import main as analyzer_main
from repro.catg import run_test
from repro.regression import save_config_dir
from repro.regression.cli import main as regression_main
from repro.regression.testcases import build_test
from repro.stbus import ArbitrationPolicy, NodeConfig


@pytest.fixture(scope="module")
def vcd_pair(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli_vcds")
    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="cli")
    paths = {}
    for view, bugs in (("rtl", ()), ("bca", ()), ("bad", ("lru-recency-stuck",))):
        actual_view = "bca" if view == "bad" else view
        path = str(workdir / f"{view}.vcd")
        run_test(cfg, build_test("t06_lru_fairness", cfg, 2),
                 view=actual_view, bugs=bugs, vcd_path=path)
        paths[view] = path
    return paths


def test_analyzer_cli_signoff(vcd_pair, capsys):
    code = analyzer_main([vcd_pair["rtl"], vcd_pair["bca"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "SIGNED OFF" in out
    assert "100.00%" in out


def test_analyzer_cli_detects_misalignment(vcd_pair, capsys):
    # LRU on a 2-initiator config: the stuck-recency bug changes winners.
    cfg_has_contention = analyzer_main([vcd_pair["rtl"], vcd_pair["bad"]])
    out = capsys.readouterr().out
    assert "verdict" in out
    # With two initiators contending under LRU the traces must diverge.
    assert cfg_has_contention == 1
    assert "NOT SIGNED OFF" in out


def test_analyzer_cli_diff_flag(vcd_pair, capsys):
    code = analyzer_main(["--diff", vcd_pair["rtl"], vcd_pair["bca"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "Transaction-level diff" in out


def test_analyzer_cli_ports_filter(vcd_pair, capsys):
    code = analyzer_main([vcd_pair["rtl"], vcd_pair["bca"],
                          "--ports", "tb.init0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tb.init0" in out
    assert "tb.targ0" not in out


def test_analyzer_cli_bad_inputs(vcd_pair, capsys):
    assert analyzer_main(["/nonexistent.vcd", vcd_pair["bca"]]) == 2
    assert analyzer_main([vcd_pair["rtl"], vcd_pair["bca"],
                          "--threshold", "2.0"]) == 2


def _analyzer_side_files(tmp_path, rtl, bca, capsys):
    """Run the analyzer CLI on ``rtl``/``bca`` with and without
    ``--metrics-out``/``--trace-out``; return (exit status, metrics,
    trace events) after checking that stdout is the same both ways."""
    import json

    code = analyzer_main([rtl, bca])
    plain = capsys.readouterr().out
    metrics, trace = tmp_path / "metrics.json", tmp_path / "trace.json"
    assert analyzer_main([rtl, bca, "--metrics-out", str(metrics),
                          "--trace-out", str(trace)]) == code
    assert capsys.readouterr().out == plain
    # both files written in place, no temp file left behind
    assert sorted(os.listdir(tmp_path)) == ["metrics.json", "trace.json"]
    return (code, json.loads(metrics.read_text()),
            json.loads(trace.read_text())["traceEvents"])


def test_analyzer_cli_metrics_out_on_an_identical_pair(vcd_pair, tmp_path,
                                                       capsys):
    from repro.analyzer import compare_vcds
    from repro.telemetry import alignment_histogram

    code, metrics, _ = _analyzer_side_files(
        tmp_path, vcd_pair["rtl"], vcd_pair["bca"], capsys)
    assert code == 0
    # no always-empty gauges section
    assert list(metrics) == ["schema", "span_seconds", "counters",
                             "histograms"]
    assert metrics["counters"] == {"analyzer.identical_pairs": 1}
    hist = metrics["histograms"]["analyzer.port_alignment_rate"]
    assert hist == alignment_histogram(
        [compare_vcds(vcd_pair["rtl"], vcd_pair["bca"])])
    assert hist["min"] == hist["max"] == 1.0


def test_analyzer_cli_metrics_out_on_a_diverging_pair(vcd_pair, tmp_path,
                                                      capsys):
    from repro.analyzer import compare_vcds
    from repro.telemetry import alignment_histogram

    code, metrics, _ = _analyzer_side_files(
        tmp_path, vcd_pair["rtl"], vcd_pair["bad"], capsys)
    assert code == 1
    assert metrics["counters"] == {}
    report = compare_vcds(vcd_pair["rtl"], vcd_pair["bad"])
    hist = metrics["histograms"]["analyzer.port_alignment_rate"]
    assert hist == alignment_histogram([report])
    assert hist["count"] == len(report.ports)
    assert hist["min"] == report.min_rate < 1.0


def test_analyzer_cli_trace_out_spans_parse_and_align(vcd_pair, tmp_path,
                                                      capsys):
    _, metrics, events = _analyzer_side_files(
        tmp_path, vcd_pair["rtl"], vcd_pair["bad"], capsys)
    spans = [event for event in events if event["ph"] == "X"]
    names = {event["name"] for event in spans}
    assert names == {"analyzer.parse", "analyzer.align"}
    # the metrics file's span totals cover the same spans
    assert set(metrics["span_seconds"]) == names
    assert all(event["dur"] >= 0 for event in spans)


def test_regression_cli_green_run(tmp_path, capsys):
    cfg = NodeConfig(n_initiators=2, n_targets=2, name="clirun")
    save_config_dir([cfg], str(tmp_path / "cfgs"))
    code = regression_main([
        str(tmp_path / "cfgs"),
        "--workdir", str(tmp_path / "out"),
        "--seeds", "1", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "SIGNED OFF" in out
    assert os.path.exists(tmp_path / "out" / "regression_summary.txt")


def test_regression_cli_flags_buggy_bca(tmp_path, capsys):
    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="clibad")
    save_config_dir([cfg], str(tmp_path / "cfgs"))
    code = regression_main([
        str(tmp_path / "cfgs"),
        "--workdir", str(tmp_path / "out"),
        "--tests", "t06_lru_fairness",
        "--seeds", "1",
        "--bugs", "lru-recency-stuck",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT SIGNED OFF" in out


def test_regression_cli_missing_dir(tmp_path, capsys):
    assert regression_main([str(tmp_path / "ghost")]) == 2


def test_regression_cli_parallel_smoke(tmp_path, capsys):
    """A 2-config regression under --jobs 2 works inside pytest (no
    daemon/multiprocessing clash) and prints timing on stderr only, as
    one structured JSON record."""
    import json

    cfgs = [
        NodeConfig(n_initiators=2, n_targets=2, name="clipar_a"),
        NodeConfig(n_initiators=2, n_targets=1, name="clipar_b"),
    ]
    save_config_dir(cfgs, str(tmp_path / "cfgs"))
    code = regression_main([
        str(tmp_path / "cfgs"),
        "--workdir", str(tmp_path / "out"),
        "--seeds", "1", "2",
        "--jobs", "2",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "SIGNED OFF" in captured.out
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["event"] == "batch.complete"
    assert record["jobs"] == 2
    assert record["n_runs"] == 96  # 2 configs x 12 tests x 2 seeds x 2 views
    assert record["all_signed_off"] is True
    assert record["wall_seconds"] > 0
    assert "jobs" not in captured.out
    assert os.path.exists(tmp_path / "out" / "regression_summary.txt")


def test_regression_cli_kernel_flag_byte_identical(tmp_path, capsys):
    """With one simulation engine there is no ``--kernel`` to choose, and
    a repeat of the same batch reproduces the first run's stdout and every
    workdir artifact byte for byte."""
    import filecmp

    cfg = NodeConfig(n_initiators=2, n_targets=2, name="clikern")
    save_config_dir([cfg], str(tmp_path / "cfgs"))
    outputs = {}
    codes = {}
    for run in ("first", "second"):
        out_dir = tmp_path / f"out_{run}"
        codes[run] = regression_main([
            str(tmp_path / "cfgs"),
            "--workdir", str(out_dir),
            "--tests", "t02_random_uniform",
            "--seeds", "1",
        ])
        outputs[run] = capsys.readouterr().out
    # One test case alone does not reach full coverage, so the batch is
    # not signed off — identically on both runs.
    assert codes["second"] == codes["first"]
    assert outputs["second"] == outputs["first"]
    first_dir, second_dir = tmp_path / "out_first", tmp_path / "out_second"
    names = sorted(os.listdir(first_dir))
    assert names == sorted(os.listdir(second_dir))
    for name in names:
        assert filecmp.cmp(str(first_dir / name), str(second_dir / name),
                           shallow=False), f"{name} differs across runs"


def test_regression_cli_rejects_unknown_kernel(tmp_path, capsys):
    """The delta loop is the only simulation engine, so ``--kernel`` is an
    unknown option (usage error) whatever engine it names."""
    cfg = NodeConfig(n_initiators=1, n_targets=1, name="clikernbad")
    save_config_dir([cfg], str(tmp_path / "cfgs"))
    for kernel in ("turbo", "delta", "compiled"):
        with pytest.raises(SystemExit) as exc:
            regression_main([str(tmp_path / "cfgs"), "--kernel", kernel])
        assert exc.value.code == 2
        assert "--kernel" in capsys.readouterr().err


def test_regression_cli_rejects_negative_jobs(tmp_path, capsys):
    cfg = NodeConfig(n_initiators=1, n_targets=1, name="clineg")
    save_config_dir([cfg], str(tmp_path / "cfgs"))
    code = regression_main([str(tmp_path / "cfgs"), "--jobs", "-1"])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err


def _closed_stdout_run(args):
    """Run ``python -m <args>`` with its stdout pipe closed before the
    child writes anything; return (exit status, stderr text)."""
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env.pop("REPRO_CHAOS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m"] + args,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # before the child has imported anything
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(), stderr


def test_analyzer_cli_survives_a_closed_pipe(vcd_pair):
    """``python -m repro.analyzer A B | head -0`` ends quietly, killed
    by SIGPIPE like any other filter (a shell shows 141)."""
    import signal

    code, stderr = _closed_stdout_run(
        ["repro.analyzer", vcd_pair["rtl"], vcd_pair["bca"]])
    assert "Traceback" not in stderr
    assert stderr == ""
    assert code == -signal.SIGPIPE


def test_telemetry_cli_survives_a_closed_pipe(tmp_path):
    """``python -m repro.telemetry summarize FILE | head -0`` ends
    quietly, killed by SIGPIPE."""
    import json
    import signal

    from repro.telemetry import METRICS_SCHEMA

    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"schema": METRICS_SCHEMA, "batch": {}}))
    code, stderr = _closed_stdout_run(
        ["repro.telemetry", "summarize", str(metrics)])
    assert stderr == ""
    assert code == -signal.SIGPIPE


def test_cache_cli_survives_a_closed_pipe(tmp_path):
    """``python -m repro.cache explain ENTRY | head -0`` ends quietly,
    killed by SIGPIPE."""
    import signal

    from repro.analysis.impact import ImpactIndex
    from repro.cache import ResultCache
    from repro.regression.parallel import RunJob, execute_run_job
    from repro.regression.resilience import run_artifact_paths

    stem = str(tmp_path / "entry__rtl")
    job = RunJob(config=NodeConfig(n_initiators=1, n_targets=1,
                                   name="clicache"),
                 test_name="t01_sanity_write_read", seed=1, view="rtl",
                 vcd_path=stem + ".vcd", report_stem=stem,
                 bugs=frozenset())
    index = ImpactIndex([job.config], views=("rtl",))
    cache = ResultCache(str(tmp_path / "cache"), index.resolver())
    entry = cache.store(job, execute_run_job(job), run_artifact_paths(job))
    code, stderr = _closed_stdout_run(["repro.cache", "explain", entry])
    assert stderr == ""
    assert code == -signal.SIGPIPE


def test_regression_cli_survives_a_closed_pipe(tmp_path):
    """``python -m repro.regression ... | head -0`` ends quietly: the
    batch runs on two workers, whose deaths must still raise in the
    coordinator rather than kill it, and the summary write to the closed
    pipe ends the output without a traceback."""
    cfg = NodeConfig(n_initiators=2, n_targets=2, name="clipipe")
    save_config_dir([cfg], str(tmp_path / "cfgs"))
    code, stderr = _closed_stdout_run([
        "repro.regression", str(tmp_path / "cfgs"),
        "--tests", "t01_sanity_write_read", "--seeds", "1", "--jobs", "2",
    ])
    assert "Traceback" not in stderr
    assert '"batch.complete"' in stderr
    assert code == 1  # one test alone never reaches full coverage

