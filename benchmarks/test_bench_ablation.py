"""Ablation — which mechanism of the common environment earns its keep.

DESIGN.md calls out the environment's layered defenses: protocol
checkers, scoreboard, the DUT-specific arbitration reference checker
("Specific checks, not covered by CATG, have also been developed",
Section 5).

This bench disables mechanisms one at a time and re-runs the five-bug
experiment: the detection matrix shows that (a) dropping the arbitration
reference checker loses two bugs entirely — the quantitative argument for
developing specific checks — and (b) the remaining generic machinery
still catches the data-path bugs.
"""

import pytest

from repro.bca import ALL_BUGS
from repro.catg import run_test
from repro.regression.testcases import TESTCASES, build_test
from repro.stbus import ArbitrationPolicy, NodeConfig


def hunt_configs():
    return [
        NodeConfig(n_initiators=6, n_targets=2,
                   arbitration=ArbitrationPolicy.LRU,
                   has_programming_port=True, name="abl-lru"),
        NodeConfig(n_initiators=6, n_targets=2,
                   arbitration=ArbitrationPolicy.PROGRAMMABLE_PRIORITY,
                   has_programming_port=True, name="abl-prog"),
    ]


def detect(bug, with_arbitration_checker):
    for config in hunt_configs():
        for name in TESTCASES:
            result = run_test(
                config, build_test(name, config, 1), view="bca",
                bugs={bug},
                with_arbitration_checker=with_arbitration_checker,
            )
            if not result.passed:
                return True
    return False


def test_ablation_specific_checks_earn_their_keep(benchmark):
    def experiment():
        matrix = {}
        for bug in ALL_BUGS:
            matrix[bug] = {
                "full": detect(bug, with_arbitration_checker=True),
                "no_arb_checker": detect(bug, with_arbitration_checker=False),
            }
        return matrix

    matrix = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print()
    print(f"{'bug':<30} {'full env':<10} {'without specific checks':<10}")
    for bug, row in matrix.items():
        print(f"{bug:<30} {'FOUND' if row['full'] else 'missed':<10} "
              f"{'FOUND' if row['no_arb_checker'] else 'missed'}")
    full = sum(r["full"] for r in matrix.values())
    without = sum(r["no_arb_checker"] for r in matrix.values())
    print(f"[ABL] full environment: {full}/5; without the node-specific "
          f"arbitration checker: {without}/5")
    assert full == 5
    # The pure-arbitration bugs are invisible without the specific checks
    # (the data-path bugs are still caught by the generic machinery).
    assert not matrix["lru-recency-stuck"]["no_arb_checker"]
    assert not matrix["prog-update-stale"]["no_arb_checker"]
    assert matrix["subword-lane-misplacement"]["no_arb_checker"]
    assert matrix["src-tag-truncation"]["no_arb_checker"]

