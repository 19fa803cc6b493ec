"""Functional RTL/BCA agreement: clean checks and bug detection.

Two engines back the per-port verdicts: enumeration of representative
comb-cone stimulus points from reset (skipped with an honest diagnostic
past the budget) and deterministic lockstep execution of targeted
scenarios on both views.  The shipped models must be AGREED on every
port; every registered injectable BCA bug must be caught statically on
a configuration where it is architecturally observable.
"""

import pytest

from repro.analysis.symbolic.equiv import (
    AGREED,
    MISMATCH,
    check_functional_equivalence,
)
from repro.analysis.symbolic.report import run_symbolic_analysis
from repro.bca import ALL_BUGS
from repro.regression.configs import configuration_matrix
from repro.stbus import NodeConfig

MATRIX = configuration_matrix()
SMALL = configuration_matrix(small=True)


def _first(predicate):
    return next(c for c in MATRIX if predicate(c))


def test_stock_node_proves_equivalent_on_every_port():
    ports, findings = check_functional_equivalence(NodeConfig())
    assert ports
    assert all(p.verdict == AGREED for p in ports)
    assert not [f for f in findings if f.rule == "xview-function"]
    # Both engines actually ran: enumeration points and lockstep cycles.
    assert any(p.comb_points > 0 for p in ports)
    assert all(p.lockstep_cycles > 0 for p in ports)
    assert all(p.scenarios for p in ports)


@pytest.mark.parametrize(
    "config", SMALL, ids=[c.name for c in SMALL]
)
def test_small_matrix_is_equivalence_clean(config):
    report = run_symbolic_analysis(config)
    assert report.equivalence_clean, (
        "\n".join(p.render() for p in report.ports)
    )


#: bug -> a matrix configuration where the defect is observable.
BUG_CONFIGS = {
    "lru-recency-stuck": _first(
        lambda c: "lru" in c.name and c.n_initiators == 3
    ),
    "subword-lane-misplacement": MATRIX[0],
    "src-tag-truncation": _first(lambda c: c.n_initiators == 8),
    "chunk-lock-ignored": MATRIX[0],
    "prog-update-stale": _first(
        lambda c: c.has_programming_port and "programmable" in c.name
    ),
}


def test_every_registered_bug_has_a_detection_config():
    assert set(BUG_CONFIGS) == set(ALL_BUGS)


@pytest.mark.parametrize("bug", sorted(BUG_CONFIGS))
def test_registered_bug_is_detected_statically(bug):
    config = BUG_CONFIGS[bug]
    report = run_symbolic_analysis(config, bca_bugs=(bug,))
    assert not report.equivalence_clean, (
        f"{bug} on {config.name} survived the agreement check"
    )
    mismatched = [p for p in report.ports if p.verdict == MISMATCH]
    assert mismatched
    witness = mismatched[0].witness
    assert witness is not None
    assert witness["engine"] in ("lockstep", "comb")
    assert "signal" in witness
    findings = [f for f in report.findings if f.rule == "xview-function"]
    assert findings and all(f.severity.value == "error" for f in findings)
    assert report.bca_bugs == [bug]


def test_budget_overflow_degrades_honestly():
    """A tiny budget skips every cone with a diagnostic instead of a
    false verdict; the lockstep engine still checks the ports."""
    report = run_symbolic_analysis(NodeConfig(), budget=2)
    assert report.equivalence_clean
    skips = [f for f in report.findings
             if f.rule == "symbolic-domain-too-large"]
    assert skips
    assert all(f.severity.value == "info" for f in skips)
    assert any(p.comb_skipped for p in report.ports)
    assert all(p.comb_points == 0 for p in report.ports)


def test_skipped_comb_cone_claims_no_comb_agreement():
    """A port whose comb cone was skipped says so and claims only the
    lockstep agreement that backs it."""
    report = run_symbolic_analysis(NodeConfig(), budget=2)
    for port in report.ports:
        text = port.render()
        assert "comb agreed" not in text
        assert "comb skipped: " in text
        assert "lockstep agreed over " in text


def test_agreed_port_renders_its_evidence():
    ports, _ = check_functional_equivalence(NodeConfig())
    text = ports[0].render()
    assert text.startswith(f"{ports[0].port}: AGREED")
    assert f"comb agreed on {ports[0].comb_points} point(s) from reset" \
        in text
    assert (f"lockstep agreed over {ports[0].lockstep_cycles} cycle(s), "
            f"{len(ports[0].scenarios)} scenario(s)") in text


def test_port_reports_serialize():
    report = run_symbolic_analysis(NodeConfig())
    data = report.to_dict()
    assert data["equivalence_clean"] is True
    assert len(data["ports"]) == len(report.ports)
    for entry in data["ports"]:
        assert entry["verdict"] == AGREED
        assert "witness" not in entry  # only mismatches carry one
    assert "bca_bugs" not in data  # clean run: key suppressed
