"""E2 — Section 5: "The verification environment permitted to find five
bugs on BCA models, not found using old environment of the past flow."

The headline delta of the paper.  For each of the five seeded BCA bugs we
run the past flow (directed single-initiator write-then-read, read-back
check only) and the common environment (twelve seeded test cases with
checkers, scoreboard, arbitration reference).  Expected shape: past flow
0/5, common environment 5/5.
"""

import pytest

from repro.bca import ALL_BUGS, BUG_CATALOG
from repro.catg import run_test
from repro.oldflow import run_past_flow
from repro.regression.testcases import TESTCASES, build_test
from repro.stbus import ArbitrationPolicy, NodeConfig


def hunt_configs():
    return [
        NodeConfig(n_initiators=6, n_targets=2,
                   arbitration=ArbitrationPolicy.LRU,
                   has_programming_port=True, name="hunt-lru"),
        NodeConfig(n_initiators=6, n_targets=2,
                   arbitration=ArbitrationPolicy.PROGRAMMABLE_PRIORITY,
                   has_programming_port=True, name="hunt-prog"),
    ]


def detection_experiment():
    rows = []
    for bug in ALL_BUGS:
        old = run_past_flow(hunt_configs()[0], view="bca", bugs={bug})
        found_by_new = False
        first_test = None
        rules = []
        for config in hunt_configs():
            for name in TESTCASES:
                result = run_test(config, build_test(name, config, 1),
                                  view="bca", bugs={bug})
                if not result.passed:
                    found_by_new = True
                    first_test = name
                    rules = sorted(result.report.rules_hit())
                    break
            if found_by_new:
                break
        rows.append({
            "bug": bug,
            "old_flow_found": not old.passed,
            "new_flow_found": found_by_new,
            "first_test": first_test,
            "rules": rules,
        })
    return rows


def test_e2_five_bugs_old_vs_new_flow(benchmark):
    rows = benchmark.pedantic(detection_experiment, rounds=1, iterations=1)
    print()
    print(f"{'bug':<30} {'past flow':<10} {'common env':<10} detected by")
    for row in rows:
        print(f"{row['bug']:<30} "
              f"{'FOUND' if row['old_flow_found'] else 'missed':<10} "
              f"{'FOUND' if row['new_flow_found'] else 'missed':<10} "
              f"{row['first_test'] or '-'}: {', '.join(row['rules'])}")
    old_total = sum(r["old_flow_found"] for r in rows)
    new_total = sum(r["new_flow_found"] for r in rows)
    print(f"[E2] paper: old flow 0/5, common environment 5/5")
    print(f"[E2] ours:  old flow {old_total}/5, "
          f"common environment {new_total}/5")
    benchmark.extra_info["old_flow_found"] = old_total
    benchmark.extra_info["new_flow_found"] = new_total
    assert old_total == 0
    assert new_total == 5
    # Each bug is caught by the mechanism its catalog entry names.
    by_bug = {r["bug"]: r for r in rows}
    assert "ARB_POLICY" in by_bug["lru-recency-stuck"]["rules"]
    assert any(r.startswith("SB_") or r == "PKT_BE"
               for r in by_bug["subword-lane-misplacement"]["rules"])
    assert "CHUNK_ATOMIC" in by_bug["chunk-lock-ignored"]["rules"] \
        or "ARB_POLICY" in by_bug["chunk-lock-ignored"]["rules"]
    assert "ARB_POLICY" in by_bug["prog-update-stale"]["rules"]


def test_e2_clean_bca_passes_both_flows(benchmark):
    """Control: without seeded bugs both flows report green."""

    def control():
        config = hunt_configs()[0]
        old = run_past_flow(config, view="bca")
        new = run_test(config, build_test("t02_random_uniform", config, 1),
                       view="bca")
        return old.passed and new.passed

    assert benchmark.pedantic(control, rounds=1, iterations=1)
