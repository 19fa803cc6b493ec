"""Code coverage collector tests (the RTL-only metric)."""

import importlib.util
import os

from repro.catg import CodeCoverage, run_test
from repro.regression.testcases import build_test
from repro.stbus import NodeConfig


def test_tracer_collects_rtl_lines():
    cfg = NodeConfig(n_initiators=2, n_targets=2)
    with CodeCoverage() as tracer:
        result = run_test(cfg, build_test("t02_random_uniform", cfg, 1))
    assert result.passed
    report = tracer.report()
    assert report.files, "no RTL files traced"
    names = {os.path.basename(p) for p in report.files}
    assert "node.py" in names
    assert "pipeline.py" in names
    assert 0.0 < report.line_percent <= 100.0
    assert 0.0 < report.statement_percent <= 100.0
    assert 0.0 <= report.branch_percent <= 100.0


def test_tracer_scope_excludes_bca():
    cfg = NodeConfig(n_initiators=1, n_targets=1)
    with CodeCoverage() as tracer:
        run_test(cfg, build_test("t01_sanity_write_read", cfg, 1), view="bca")
    report = tracer.report()
    # The BCA view never touches repro/rtl, so nothing is collected —
    # reproducing the paper's "code coverage for the RTL view only".
    assert not report.files


def test_more_tests_cover_more():
    cfg = NodeConfig(n_initiators=2, n_targets=2)
    with CodeCoverage() as small:
        run_test(cfg, build_test("t01_sanity_write_read", cfg, 1))
    with CodeCoverage() as big:
        for name in ("t01_sanity_write_read", "t02_random_uniform",
                     "t08_locked_chunks", "t12_decode_errors"):
            run_test(cfg, build_test(name, cfg, 1))
    node_small = [c for p, c in small.report().files.items()
                  if p.endswith("node.py")]
    node_big = [c for p, c in big.report().files.items()
                if p.endswith("node.py")]
    assert node_big[0].line_percent >= node_small[0].line_percent


def test_report_renders_missed_lines():
    cfg = NodeConfig(n_initiators=1, n_targets=1)
    with CodeCoverage() as tracer:
        run_test(cfg, build_test("t01_sanity_write_read", cfg, 1))
    text = tracer.report().render()
    assert "line" in text and "branch" in text and "statement" in text


def test_custom_predicate():
    cfg = NodeConfig(n_initiators=1, n_targets=1)
    with CodeCoverage(predicate=lambda p: p.endswith("pipeline.py")) as tracer:
        run_test(cfg, build_test("t01_sanity_write_read", cfg, 1))
    report = tracer.report()
    assert set(os.path.basename(p) for p in report.files) == {"pipeline.py"}


def test_docstring_is_not_a_missed_line(tmp_path):
    """Python never executes a function's docstring, so a function run
    end to end covers all of its lines."""
    path = str(tmp_path / "documented.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "def documented(x):\n"
            "    \"\"\"Double ``x``.\n"
            "\n"
            "    A docstring over several lines.\n"
            "    \"\"\"\n"
            "    y = 2 * x\n"
            "    return y\n")
    spec = importlib.util.spec_from_file_location("documented", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with CodeCoverage(predicate=lambda p: p == path) as tracer:
        assert module.documented(3) == 6
    cov = tracer.report().files[path]
    assert cov.missed_lines() == []
    assert cov.line_percent == 100.0
    assert cov.statement_percent == 100.0
