"""The waiver dialect of the static checker."""

import pytest

from repro.analysis.waivers import (
    Waiver,
    WaiverError,
    apply_waivers,
    load_waiver_file,
    parse_waivers,
)


def test_schema_versions_agree():
    """One schema version stamps the per-view and the per-config
    reports of both tiers."""
    import repro.analysis as analysis
    from repro.analysis.demo import build_defective_design
    from repro.lint import lint_config
    from repro.stbus import NodeConfig

    config = lint_config(NodeConfig()).to_dict()
    view = analysis.analyze_simulator(build_defective_design()).to_dict()
    assert config["schema_version"] == analysis.SCHEMA_VERSION
    assert config["views"]["rtl"]["schema_version"] == \
        analysis.SCHEMA_VERSION
    assert view["schema_version"] == analysis.SCHEMA_VERSION


def test_parse_waivers_with_reasons_and_comments():
    waivers = parse_waivers(
        "# header comment\n"
        "race-* tb.dut.* # known bridge artifact\n"
        "\n"
        "cdc-crossing *\n"
    )
    assert len(waivers) == 2
    assert waivers[0].rule == "race-*"
    assert waivers[0].reason == "known bridge artifact"
    assert waivers[1].location == "*"


def test_parse_rejects_single_token_line():
    with pytest.raises(WaiverError):
        parse_waivers("just-a-rule\n")


def test_one_file_waives_both_tools(tmp_path):
    from repro.analysis.diagnostics import Finding, Severity

    path = tmp_path / "waivers.txt"
    path.write_text(
        "dead-net tb.* # structural finding\n"
        "race-delta-overwrite tb.* # dataflow finding\n"
    )
    waivers = load_waiver_file(str(path))
    findings = [
        Finding(rule="dead-net", severity=Severity.WARNING,
                message="m", signal="tb.x"),
        Finding(rule="race-delta-overwrite", severity=Severity.ERROR,
                message="m", signal="tb.y"),
        Finding(rule="comb-loop", severity=Severity.ERROR,
                message="m", signal="tb.z"),
    ]
    apply_waivers(findings, waivers)
    assert [f.waived for f in findings] == [True, True, False]
