"""``--symbolic`` CLI behavior and the golden symbolic stock report.

The golden file pins the complete ``--stock --symbolic`` JSON output:
per-port agreement verdicts with their comb/lockstep evidence, and the
UNR upgrade deltas (probe reason → exact interval proof, with the
structured witness vectors).  Any engine change that shifts a verdict, a witness or
the serialization fails here first.
"""

import json
import os

import pytest

from repro.analysis.cli import main

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden",
    "symbolic_stock_node.json",
)


def _stock_symbolic(capsys, *extra):
    assert main(["--stock", "--symbolic", "--format", "json", *extra]) == 0
    return json.loads(capsys.readouterr().out)


def test_stock_symbolic_json_matches_golden(capsys):
    got = _stock_symbolic(capsys)
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    assert got == expected


def test_golden_pins_verdicts_and_deltas():
    """Belt and braces: assert the golden's semantic content directly so
    a regenerated-but-wrong golden cannot silently pass the diff."""
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    sym = data["configs"][0]["symbolic"]
    assert sym["equivalence_clean"] is True
    assert [(p["port"], p["verdict"]) for p in sym["ports"]] == [
        ("init0", "AGREED"), ("init1", "AGREED"),
        ("targ0", "AGREED"), ("targ1", "AGREED"),
    ]
    upgrade = sym["unr_upgrade"]
    assert upgrade["unknown_after"] == 0
    assert {d["bin"] for d in upgrade["deltas"]} == {
        "decode:error", "response:error",
    }
    for delta in upgrade["deltas"]:
        assert "interval" in delta["new_reason"]
        assert delta["witness"]["address"] == "0x2000"
    # The upgraded verdicts land on the UNR bins themselves too.
    unr_bins = {f"{v['group']}:{v['bin']}": v
                for v in data["configs"][0]["unr"]["verdicts"]}
    assert unr_bins["decode:error"]["witness"]["opcode"] == "LOAD4"


def test_symbolic_text_mode_prints_summary(capsys):
    assert main(["--stock", "--symbolic"]) == 0
    out = capsys.readouterr().out
    assert "symbolic analysis" in out
    assert "0 mismatched port(s)" in out
    assert "0 UNKNOWN UNR verdict(s)" in out


def test_without_symbolic_flag_output_has_no_symbolic_key(capsys):
    assert main(["--stock", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    config = data["configs"][0]
    assert "symbolic" not in config
    for verdict in config["unr"]["verdicts"]:
        assert "witness" not in verdict


def test_inject_bug_fails_the_gate(capsys):
    # subword-lane-misplacement is observable on the stock w32 node.
    assert main(["--stock", "--symbolic",
                 "--inject-bug", "subword-lane-misplacement"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "xview-function" in out


def test_inject_bug_requires_symbolic_run_to_catch(capsys):
    """Without --symbolic the same bug sails through the static pass —
    the functional agreement check is what catches it."""
    assert main(["--stock", "--inject-bug",
                 "subword-lane-misplacement"]) == 0


def test_unknown_bug_name_is_a_usage_error(capsys):
    assert main(["--stock", "--symbolic",
                 "--inject-bug", "no-such-bug"]) == 2
    err = capsys.readouterr().err
    assert "no-such-bug" in err


def test_symbolic_budget_flag_reaches_the_engine(capsys):
    assert main(["--stock", "--symbolic", "--symbolic-budget", "2",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    sym = data["configs"][0]["symbolic"]
    assert sym["budget"] == 2
    rules = {f["rule"] for f in sym["findings"]}
    assert "symbolic-domain-too-large" in rules
    assert sym["equivalence_clean"] is True  # lockstep still agrees


def test_symbolic_findings_respect_waivers(capsys):
    """The shared waiver dialect applies to symbolic findings too."""
    assert main(["--stock", "--symbolic", "--symbolic-budget", "2",
                 "--waive", "symbolic-domain-too-large:*",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    sym = data["configs"][0]["symbolic"]
    skips = [f for f in sym["findings"]
             if f["rule"] == "symbolic-domain-too-large"]
    assert skips and all(f["waived"] for f in skips)
