"""python -m repro.analysis CLI behavior, JSON schema and the golden UNR
verdicts for the stock node configuration."""

import json
import os

from repro.analysis.cli import main

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden", "unr_stock_node.json"
)


def test_stock_text_report(capsys):
    assert main(["--stock"]) == 0
    out = capsys.readouterr().out
    assert "node/rtl: CLEAN" in out
    assert "node/bca: CLEAN" in out
    assert "cross-view cones OK" in out
    assert "UNREACHABLE" in out
    assert "tb.prog.req = 0" in out  # the blocking constant


def test_stock_json_matches_golden(capsys):
    assert main(["--stock", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    assert got == expected


def test_json_envelope_schema(capsys):
    assert main(["--stock", "--format", "json", "--view", "rtl"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == 1
    assert data["clean"] is True
    config = data["configs"][0]
    assert config["schema_version"] == 1
    assert set(config["views"]) == {"rtl"}
    assert config["views"]["rtl"]["complete"] is True
    assert config["unr"]["unreachable"] == 3
    assert config["unr"]["model_unreachable"] == []


def test_no_unr_flag_drops_the_verdicts(capsys):
    assert main(["--stock", "--format", "json", "--no-unr"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["configs"][0]["unr"] is None


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("race-delta-overwrite", "tie-off-conflict", "cdc-crossing",
                 "xview-cone", "unr-model-unreachable"):
        assert rule in out


def test_conflicting_sources_is_a_usage_error(capsys):
    assert main(["--stock", "--matrix"]) == 2


def test_unknown_rule_is_a_usage_error(capsys):
    assert main(["--stock", "--rules", "no-such-rule"]) == 2


def test_bad_inline_waiver_is_a_usage_error(capsys):
    assert main(["--stock", "--waive", "missing-colon"]) == 2


def test_config_dir_source(tmp_path, capsys):
    from repro.stbus import NodeConfig

    config = NodeConfig(name="dircfg")
    (tmp_path / "dircfg.cfg").write_text(config.to_text())
    assert main([str(tmp_path)]) == 0
    assert "dircfg/rtl: CLEAN" in capsys.readouterr().out


def test_waiver_file_shared_with_lint(tmp_path, capsys):
    # A lint-dialect waiver file parses and applies cleanly here too.
    waivers = tmp_path / "waivers.txt"
    waivers.write_text("race-* tb.* # shared dialect\n")
    assert main(["--stock", "--waivers", str(waivers)]) == 0


def test_module_entry_point():
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "race-delta-overwrite" in proc.stdout


def test_info_notes_do_not_make_a_report_unclean():
    """``clean`` counts un-waived warnings and errors only, the same
    line the CLI exit gate draws: a skipped-cone INFO note stays
    visible in the findings without failing the report."""
    from types import SimpleNamespace

    from repro.analysis.runner import AnalysisReport, ConfigAnalysisReport
    from repro.lint.diagnostics import Finding, Severity

    def finding(severity, waived=False):
        return Finding(rule="r", severity=severity, message="m",
                       waived=waived)

    view = AnalysisReport(design="d", findings=[finding(Severity.INFO)])
    assert view.clean and view.summary().startswith("d: CLEAN")
    assert view.to_dict()["clean"] is True
    assert not AnalysisReport(
        design="d", findings=[finding(Severity.WARNING)]).clean
    assert AnalysisReport(
        design="d", findings=[finding(Severity.WARNING, waived=True)]).clean

    config = ConfigAnalysisReport(
        config_name="c", views={"rtl": view},
        symbolic=SimpleNamespace(findings=[finding(Severity.INFO)]))
    assert config.clean
    config.unr_findings.append(finding(Severity.WARNING))
    assert not config.clean
