"""python -m repro.analysis CLI behavior (configurations, the demo
design, user designs), JSON schema and the golden report for the stock
node configuration.

The golden file pins the complete ``--stock`` JSON output: the UNR
verdicts (exact interval proofs, with the structured witness vectors)
and the per-port agreement verdicts with their lockstep evidence.
Any engine change that shifts a verdict, a witness or the serialization
fails here first.
"""

import json
import os

import pytest

from repro.analysis import analyze_config
from repro.analysis.cli import main
from repro.regression.configs import configuration_matrix, save_config_dir
from repro.stbus import AddressMap, NodeConfig, Region

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden",
    "analysis_stock_node.json",
)


def test_stock_text_report(capsys):
    assert main(["--stock"]) == 0
    out = capsys.readouterr().out
    assert "node/rtl: CLEAN" in out
    assert "node/bca: CLEAN" in out
    assert "cross-view cones OK" in out
    assert "UNREACHABLE" in out
    assert "tb.prog.req = 0" in out  # the blocking constant


def test_stock_text_report_ends_with_the_agreement_summary(capsys):
    assert main(["--stock"]) == 0
    out = capsys.readouterr().out
    assert "node: RTL/BCA agreement" in out
    assert "0 mismatched port(s)" in out
    assert "0 UNKNOWN UNR verdict(s)" in out


def test_stock_json_matches_golden(capsys):
    assert main(["--stock", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    assert got == expected


def test_analyze_config_matches_the_stock_golden():
    """The regression gate calls ``analyze_config`` directly, not the
    CLI: its report must serialize to the golden's config block."""
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        expected = json.load(handle)["configs"][0]
    assert analyze_config(NodeConfig()).to_dict() == expected


def test_golden_pins_verdicts_and_deltas():
    """Belt and braces: assert the golden's semantic content directly so
    a regenerated-but-wrong golden cannot silently pass the diff."""
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    agreed = data["configs"][0]["agreement"]
    assert agreed["agreed"] is True
    assert [(p["port"], p["verdict"]) for p in agreed["ports"]] == [
        ("init0", "AGREED"), ("init1", "AGREED"),
        ("targ0", "AGREED"), ("targ1", "AGREED"),
    ]
    # The UNR bins carry the exact interval proof and its witness.
    unr = data["configs"][0]["unr"]
    assert unr["unknown"] == 0
    unr_bins = {f"{v['group']}:{v['bin']}": v for v in unr["verdicts"]}
    for key in ("decode:error", "response:error"):
        verdict = unr_bins[key]
        assert verdict["verdict"] == "REACHABLE"
        assert "interval" in verdict["reason"]
        assert verdict["witness"]["address"] == "0x2000"
        assert verdict["witness"]["opcode"] == "LOAD4"


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
    # Agreement needs both views.
    assert config["agreement"] is None


def test_json_config_block_has_one_key_per_check(capsys):
    assert main(["--stock", "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["configs"][0]
    assert set(config) == {
        "schema_version", "config", "clean", "has_errors", "views",
        "cross_view", "unr_findings", "unr", "agreement",
    }
    assert config["agreement"]["agreed"] is True
    # The one pass proves the decode-error bin and names its witness.
    decode_error = next(v for v in config["unr"]["verdicts"]
                        if v["group"] == "decode" and v["bin"] == "error")
    assert decode_error["witness"]["address"] == "0x2000"


def _fully_mapped_via_api(config, tmp_path, capsys):
    report = analyze_config(config)
    errors = [(f.rule, f.process) for f in report.all_findings()
              if f.severity.name == "ERROR" and not f.waived]
    return report.unr.to_dict(), errors, report.has_errors


def _fully_mapped_via_cli(config, tmp_path, capsys):
    (tmp_path / f"{config.name}.cfg").write_text(config.to_text())
    exit_code = main([str(tmp_path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)["configs"][0]
    findings = [f for view in report["views"].values()
                for f in view["findings"]]
    findings += report["cross_view"] + report["unr_findings"]
    findings += report["agreement"]["findings"]
    errors = [(f["rule"], f["process"]) for f in findings
              if f["severity"] == "error" and not f["waived"]]
    return report["unr"], errors, exit_code == 1


@pytest.mark.parametrize("run", [_fully_mapped_via_api,
                                 _fully_mapped_via_cli],
                         ids=["api", "cli"])
def test_fully_mapped_node_fails_the_gate(run, tmp_path, capsys):
    """Two regions map all 2^32 addresses, so a decode error is
    impossible, yet the stock model keeps both error bins: the proof
    must reach the gate as two model-bug errors, in ``analyze_config``'s
    report and in the CLI's exit status."""
    config = NodeConfig(name="fullmap", address_map=AddressMap([
        Region(0, 1 << 31, 0), Region(1 << 31, 1 << 31, 1),
    ]))
    unr, errors, fails_the_gate = run(config, tmp_path, capsys)
    assert unr["model_unreachable"] == ["response:error", "decode:error"]
    assert sorted(errors) == [
        ("unr-model-unreachable", "coverage:decode:error"),
        ("unr-model-unreachable", "coverage:response:error"),
    ]
    assert fails_the_gate


def test_inject_bug_fails_the_gate(capsys):
    # subword-lane-misplacement is observable on the stock w32 node.
    assert main(["--stock",
                 "--inject-bug", "subword-lane-misplacement"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "xview-function" in out


def test_inject_bug_is_caught_by_the_default_json_pass(capsys):
    """No other flag is needed: the one pass runs the agreement check,
    and its JSON names the injected bug and the failing rule."""
    assert main(["--stock", "--format", "json",
                 "--inject-bug", "subword-lane-misplacement"]) == 1
    config = json.loads(capsys.readouterr().out)["configs"][0]
    assert config["has_errors"] is True
    agreed = config["agreement"]
    assert agreed["agreed"] is False
    assert agreed["bca_bugs"] == ["subword-lane-misplacement"]
    assert {f["rule"] for f in agreed["findings"]} == {"xview-function"}


def test_unknown_bug_name_is_a_usage_error(capsys):
    assert main(["--stock", "--inject-bug", "no-such-bug"]) == 2
    err = capsys.readouterr().err
    assert "no-such-bug" in err
    # A single view runs no agreement check, so no bug could show.
    assert main(["--stock", "--view", "rtl",
                 "--inject-bug", "subword-lane-misplacement"]) == 2
    assert "needs both views" in capsys.readouterr().err


def test_agreement_findings_respect_waivers(capsys):
    """The shared waiver dialect applies to agreement findings too."""
    assert main(["--stock", "--inject-bug", "subword-lane-misplacement",
                 "--waive", "xview-function:*", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    agreed = data["configs"][0]["agreement"]
    mismatches = [f for f in agreed["findings"]
                  if f["rule"] == "xview-function"]
    assert mismatches and all(f["waived"] for f in mismatches)


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("race-delta-overwrite", "tie-off-conflict", "cdc-crossing",
                 "xview-cone", "xview-function", "unr-model-unreachable",
                 "comb-loop", "multi-driver", "undriven-input", "dead-net",
                 "width-mismatch", "incomplete-sensitivity",
                 "xview-interface"):
        assert rule in out
    assert "comb-loop                  structural error" in out


def test_conflicting_sources_is_a_usage_error(capsys):
    assert main(["--stock", "--matrix"]) == 2
    assert main(["--demo", "--matrix"]) == 2
    assert main(["--demo", "--design", "repro.analysis.demo:x"]) == 2
    assert main(["--demo", "--view", "rtl"]) == 2


def test_unknown_rule_is_a_usage_error(capsys):
    assert main(["--stock", "--rules", "no-such-rule"]) == 2
    assert main(["--demo", "--rules", "no-such-rule"]) == 2


# ---------------------------------------------------------------------------
# single designs: --demo and --design
# ---------------------------------------------------------------------------

def test_demo_exits_nonzero_and_names_the_loop(capsys):
    assert main(["--demo"]) == 1
    out = capsys.readouterr().out
    assert "comb-loop" in out
    assert "demo.invert_b" in out and "demo.invert_a" in out
    assert "undriven-input" in out
    assert "demo.floating_in" in out


def test_demo_json_output(capsys):
    assert main(["--demo", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["design"] == "lint-demo"
    assert data["errors"] == 5 and data["warnings"] == 6
    rules = {f["rule"] for f in data["findings"]}
    assert "comb-loop" in rules and "width-mismatch" in rules


def test_waiving_everything_clears_the_gate(capsys):
    assert main(["--demo", "--waive", "*:*"]) == 0
    assert "waived" in capsys.readouterr().out


def test_strict_fails_on_warnings(capsys):
    # Keep only the warning-severity findings alive.
    argv = ["--demo", "--waive", "comb-loop:*", "--waive", "multi-driver:*",
            "--waive", "undriven-input:*", "--waive", "width-mismatch:*"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--strict"]) == 1


def test_rule_selection(capsys):
    assert main(["--demo", "--rules", "dead-net"]) == 0  # warnings only
    out = capsys.readouterr().out
    assert "dead-net" in out
    assert "comb-loop" not in out
    # No dataflow rule selected: no dataflow graph is built.
    assert "dataflow edges" not in out


def test_design_loading(capsys):
    assert main(["--design", "repro.analysis.demo:build_defective_design"]) == 1
    assert main(["--design", "not-a-spec"]) == 2
    assert main(["--design", "repro.analysis.demo:missing_attr"]) == 2


def test_waiver_file(tmp_path, capsys):
    waiver_file = tmp_path / "waivers.txt"
    waiver_file.write_text("* * # waive the world\n", encoding="utf-8")
    assert main(["--demo", "--waivers", str(waiver_file)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("too many tokens here\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["--demo", "--waivers", str(bad)]) == 2


# ---------------------------------------------------------------------------
# configuration directories and tiers
# ---------------------------------------------------------------------------

def test_config_dir_mode(tmp_path, capsys):
    save_config_dir(configuration_matrix(small=True)[:2], str(tmp_path))
    assert main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("cross-view interface OK") == 2
    assert out.count("cross-view cones OK") == 2
    assert "analyzed 2 configuration(s) x 2 view(s)" in out


def test_config_dir_structural_tier(tmp_path, capsys):
    """The structural rules alone: the interface check, but no UNR,
    cones or agreement."""
    save_config_dir(configuration_matrix(small=True)[:1], str(tmp_path))
    argv = [str(tmp_path)]
    for rule in ("comb-loop", "multi-driver", "undriven-input",
                 "width-mismatch", "incomplete-sensitivity", "dead-net"):
        argv += ["--rules", rule]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cross-view interface OK" in out
    assert "cross-view cones" not in out
    assert "agreement" not in out and "UNR" not in out


def test_config_dir_single_view(tmp_path, capsys):
    save_config_dir(configuration_matrix(small=True)[:1], str(tmp_path))
    assert main([str(tmp_path), "--view", "rtl"]) == 0
    out = capsys.readouterr().out
    assert "/rtl: CLEAN" in out
    assert "/bca" not in out
    assert "cross-view" not in out


def test_bad_inline_waiver_is_a_usage_error(capsys):
    assert main(["--stock", "--waive", "missing-colon"]) == 2


def test_config_dir_source(tmp_path, capsys):
    from repro.stbus import NodeConfig

    config = NodeConfig(name="dircfg")
    (tmp_path / "dircfg.cfg").write_text(config.to_text())
    assert main([str(tmp_path)]) == 0
    assert "dircfg/rtl: CLEAN" in capsys.readouterr().out


def test_waiver_file_shared_with_lint(tmp_path, capsys):
    # A waiver file for the regression's lint gate applies here too.
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


def test_module_entry_point_survives_a_closed_pipe():
    """``python -m repro.analysis --list-rules | head -1``: a reader that
    closes stdout before the listing is written ends the run quietly."""
    import signal
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # before the child has imported anything
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == -signal.SIGPIPE  # a shell shows 141
    assert stderr == ""


def test_info_notes_do_not_make_a_report_unclean():
    """``clean`` counts un-waived warnings and errors only, the same
    line the CLI exit gate draws: a skipped-cone INFO note stays
    visible in the findings without failing the report."""
    from types import SimpleNamespace

    from repro.analysis import Finding, Severity
    from repro.analysis.runner import AnalysisReport, ConfigAnalysisReport

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
        agreement=SimpleNamespace(findings=[finding(Severity.INFO)]))
    assert config.clean
    config.unr_findings.append(finding(Severity.WARNING))
    assert not config.clean
