"""``--symbolic`` CLI behavior and the golden symbolic stock report.

The golden file pins the complete ``--stock --symbolic`` JSON output:
per-port agreement verdicts with their comb/lockstep evidence, and the
UNR verdicts (exact interval proofs, with the structured witness
vectors), which must equal the plain pass's.  Any engine change that
shifts a verdict, a witness or the serialization fails here first.
"""

import json
import os

import pytest

from repro.analysis import analyze_config
from repro.analysis.cli import main
from repro.regression.configs import configuration_matrix
from repro.stbus import AddressMap, NodeConfig, Region

GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden",
    "symbolic_stock_node.json",
)
PLAIN_GOLDEN = os.path.join(os.path.dirname(GOLDEN), "unr_stock_node.json")


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
    # ...and equal the plain pass's golden: --symbolic adds no UNR work.
    with open(PLAIN_GOLDEN, "r", encoding="utf-8") as handle:
        assert json.load(handle)["configs"][0]["unr"] == unr


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
    # The plain pass proves the decode-error bin and names its witness.
    decode_error = next(v for v in config["unr"]["verdicts"]
                        if v["group"] == "decode" and v["bin"] == "error")
    assert decode_error["witness"]["address"] == "0x2000"


def _unr_blocks(argv, capsys):
    main(argv + ["--format", "json"])
    data = json.loads(capsys.readouterr().out)
    return [(c["config"], c["unr"], c["unr_findings"])
            for c in data["configs"]]


@pytest.mark.parametrize("source", [["--stock"], ["--matrix", "--small"]],
                         ids=["stock", "small-matrix"])
def test_unr_blocks_do_not_depend_on_symbolic(capsys, source):
    plain = _unr_blocks(source, capsys)
    symbolic = _unr_blocks(source + ["--symbolic"], capsys)
    assert len(plain) == (1 if source == ["--stock"]
                          else len(configuration_matrix(small=True)))
    assert plain == symbolic


@pytest.mark.parametrize("symbolic", [False, True],
                         ids=["plain", "symbolic"])
def test_fully_mapped_node_fails_the_gate_in_both_modes(symbolic):
    """Two regions map all 2^32 addresses, so a decode error is
    impossible, yet the stock model keeps both error bins: the proof
    must reach the gate as two model-bug errors with or without the
    symbolic pass."""
    config = NodeConfig(address_map=AddressMap([
        Region(0, 1 << 31, 0), Region(1 << 31, 1 << 31, 1),
    ]))
    report = analyze_config(config, symbolic=symbolic)
    assert report.unr.to_dict()["model_unreachable"] == [
        "response:error", "decode:error",
    ]
    errors = [(f.rule, f.process) for f in report.all_findings()
              if f.severity.name == "ERROR" and not f.waived]
    assert sorted(errors) == [
        ("unr-model-unreachable", "coverage:decode:error"),
        ("unr-model-unreachable", "coverage:response:error"),
    ]
    assert report.has_errors


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
