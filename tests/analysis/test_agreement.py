"""Per-port RTL/BCA agreement: clean checks and bug detection.

Deterministic lockstep execution of targeted scenarios, on one
verification environment per view, backs the per-port verdicts.  The
shipped models must be AGREED on every port; every registered
injectable BCA bug must be caught statically on a configuration where
it is architecturally observable, with the first witness that the
golden bug x matrix table records for it.
"""

import json
import os

import pytest

from repro.analysis.agreement import (
    AGREED,
    MISMATCH,
    _scenarios,
    _step_together,
    check_agreement,
)
from repro.bca import ALL_BUGS
from repro.catg.env import VerificationEnv
from repro.regression.configs import configuration_matrix
from repro.stbus import R_OPC_ERROR, NodeConfig

BUG_MATRIX = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden",
    "agreement_bug_matrix.json",
)
MATRIX = configuration_matrix()
SMALL = configuration_matrix(small=True)


def _first(predicate):
    return next(c for c in MATRIX if predicate(c))


def test_stock_node_agrees_on_every_port():
    report = check_agreement(NodeConfig())
    ports, findings = report.ports, report.findings
    assert ports
    assert all(p.verdict == AGREED for p in ports)
    assert not [f for f in findings if f.rule == "xview-function"]
    # The lockstep engine actually ran on every port.
    assert all(p.lockstep_cycles > 0 for p in ports)
    assert all(p.scenarios for p in ports)


@pytest.mark.parametrize(
    "config", SMALL, ids=[c.name for c in SMALL]
)
def test_small_matrix_agrees(config):
    report = check_agreement(config)
    assert report.agreed, (
        "\n".join(p.render() for p in report.ports)
    )


def _witness(scenario, cycle, signal, rtl, bca):
    return {"engine": "lockstep", "scenario": scenario, "cycle": cycle,
            "signal": signal, "rtl": rtl, "bca": bca}


#: bug -> (a matrix configuration where the defect is observable, the
#: first witness the lockstep engine gives there).
BUG_CONFIGS = {
    "lru-recency-stuck": (_first(
        lambda c: "lru" in c.name and c.n_initiators == 3
    ), _witness("contention", 1, "tb.init0.gnt", 0, 1)),
    "subword-lane-misplacement": (
        MATRIX[0],
        _witness("subword-unaligned", 1, "tb.targ0.data", 256, 1)),
    "src-tag-truncation": (
        _first(lambda c: c.n_initiators == 8),
        _witness("contention", 5, "tb.targ0.src", 4, 0)),
    "chunk-lock-ignored": (
        MATRIX[0], _witness("chunk-lock", 1, "tb.init0.gnt", 0, 1)),
    "prog-update-stale": (_first(
        lambda c: c.has_programming_port and "programmable" in c.name
    ), _witness("prog-then-contend", 8, "tb.init0.gnt", 0, 1)),
}


def test_every_registered_bug_has_a_detection_config():
    assert set(BUG_CONFIGS) == set(ALL_BUGS)


@pytest.mark.parametrize("bug", sorted(BUG_CONFIGS))
def test_registered_bug_is_detected_statically(bug):
    config, witness = BUG_CONFIGS[bug]
    report = check_agreement(config, bca_bugs=(bug,))
    assert not report.agreed, (
        f"{bug} on {config.name} survived the agreement check"
    )
    mismatched = [p for p in report.ports if p.verdict == MISMATCH]
    assert mismatched
    assert mismatched[0].witness == witness
    findings = [f for f in report.findings if f.rule == "xview-function"]
    assert findings and all(f.severity.value == "error" for f in findings)
    assert report.bca_bugs == [bug]


def _bug_matrix(bug):
    """config name -> the first mismatched port and its witness, for
    every matrix configuration on which ``bug`` is caught."""
    caught = {}
    for config in MATRIX:
        report = check_agreement(config, bca_bugs=(bug,))
        port = next((p for p in report.ports if p.verdict == MISMATCH),
                    None)
        if port is not None:
            caught[config.name] = {"port": port.port,
                                   "witness": port.witness}
    return caught


@pytest.mark.parametrize("bug", sorted(ALL_BUGS))
def test_bug_matrix_matches_golden(bug):
    """Each registered bug is caught on the same matrix configurations,
    with the same first witness, as the golden table records."""
    with open(BUG_MATRIX) as handle:
        golden = json.load(handle)
    assert set(golden) == set(ALL_BUGS)
    assert _bug_matrix(bug) == golden[bug]


def test_agreed_port_renders_its_evidence():
    ports = check_agreement(NodeConfig()).ports
    text = ports[0].render()
    assert text.startswith(f"{ports[0].port}: AGREED")
    assert (f"lockstep agreed over {ports[0].lockstep_cycles} cycle(s), "
            f"{len(ports[0].scenarios)} scenario(s)") in text


def test_port_reports_serialize():
    report = check_agreement(NodeConfig())
    data = report.to_dict()
    assert data["agreed"] is True
    assert len(data["ports"]) == len(report.ports)
    for entry in data["ports"]:
        assert entry["verdict"] == AGREED
        assert "witness" not in entry  # only mismatches carry one
    assert "bca_bugs" not in data  # clean run: key suppressed


#: The matrix configurations whose partial crossbar blocks some path.
BLOCKED = [c for c in MATRIX
           if any(not c.path_allowed(i, r.target)
                  for i in range(c.n_initiators)
                  for r in c.resolved_map.regions)]


def test_only_partial_crossbars_get_the_blocked_path_scenario():
    assert [c.name for c in BLOCKED] == [
        "cfg14_t2_2x2_w32_partial_round_robin",
        "cfg17_t3_2x2_w32_partial_round_robin",
    ]
    for config in MATRIX:
        names = [s.name for s in _scenarios(config)]
        assert ("blocked-paths" in names) == (config in BLOCKED), config.name


def _env(config, view, test):
    env = VerificationEnv(config, view)
    env.load_test(test)
    return env


@pytest.mark.parametrize("config", BLOCKED, ids=[c.name for c in BLOCKED])
@pytest.mark.parametrize("view", ["rtl", "bca"])
def test_blocked_path_scenario_drives_error_responses(config, view):
    """init1 has no path to targ0: its load and store there are decoded
    but blocked, and the node answers each with an error response."""
    test = next(s for s in _scenarios(config) if s.name == "blocked-paths")
    env = _env(config, view, test)
    port = env.init_ports[1]
    errors = [
        port.r_tid.value
        for _ in _step_together((env,), test)
        if port.r_req.value and port.r_gnt.value
        and port.r_opc.value & R_OPC_ERROR
    ]
    assert errors == [0, 1]  # the load's tid, then the store's


@pytest.mark.parametrize("config", [NodeConfig()] + MATRIX,
                         ids=["stock"] + [c.name for c in MATRIX])
def test_lockstep_scenarios_end_with_no_outstanding_packet(config):
    """A scenario runs until both nodes have answered every packet,
    including the error responses a node makes itself."""
    for rtl_test, bca_test in zip(_scenarios(config), _scenarios(config)):
        envs = [_env(config, "rtl", rtl_test), _env(config, "bca", bca_test)]
        for _ in _step_together(envs, rtl_test):
            pass
        for env in envs:
            left = [env.dut.outstanding_count(i)
                    for i in range(config.n_initiators)]
            assert not any(left), (rtl_test.name, env.view, left)


if __name__ == "__main__":
    # Re-record the bug x matrix golden after an intended detection change.
    with open(BUG_MATRIX, "w") as handle:
        json.dump({bug: _bug_matrix(bug) for bug in sorted(ALL_BUGS)},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
