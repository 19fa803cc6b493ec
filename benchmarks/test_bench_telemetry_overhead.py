"""Telemetry overhead guard.

The observability layer promises near-zero cost: disabled telemetry is
one shared no-op bundle, and *enabled* telemetry only touches per-phase
spans and buffered log records — never the per-cycle hot path.  This
bench times one configuration's twelve test cases in both views through
``execute_run_job`` (the real batch-engine path), in pairs of a plain
and a traced round, and asserts that the median ratio of a traced round
to the plain round paired with it stays under 5%.  Results land in
``.bench_build/BENCH_telemetry_overhead.json`` (see conftest.py).
"""

import gc
import statistics
import time

from repro.regression.parallel import RunJob, execute_run_job
from repro.regression.testcases import TESTCASES
from repro.stbus import ArbitrationPolicy, NodeConfig

CONFIG = NodeConfig(n_initiators=3, n_targets=2,
                    arbitration=ArbitrationPolicy.LRU, name="tele_ovh")
TESTS = tuple(TESTCASES)
VIEWS = ("rtl", "bca")
#: Pairs of rounds; each round runs every test in both views.
PAIRS = 9

#: Enabled-telemetry overhead budget (fraction) on the median ratio.
MAX_OVERHEAD = 0.05


def _run(test, view, telemetry):
    """Seconds for one run of CONFIG through the batch-engine path."""
    start = time.perf_counter()
    result = execute_run_job(RunJob(
        config=CONFIG, test_name=test, seed=1, view=view,
        vcd_path=None, report_stem=None, bugs=frozenset(),
        telemetry=telemetry,
        submitted_at=time.time() if telemetry else None,
    ))
    elapsed = time.perf_counter() - start
    assert result.passed, (test, view)
    return elapsed


def _pair(pair):
    """One plain and one traced round: every test of CONFIG in both
    views, as (plain seconds, traced seconds).  The two rounds alternate
    run by run, and the side that goes first alternates too, so a burst
    of load on a shared host lands on both sides alike."""
    gc.collect()  # no pair pays for the garbage of the one before
    plain = traced = 0.0
    jobs = [(test, view) for test in TESTS for view in VIEWS]
    for index, (test, view) in enumerate(jobs):
        if (index + pair) % 2:
            traced += _run(test, view, True)
            plain += _run(test, view, False)
        else:
            plain += _run(test, view, False)
            traced += _run(test, view, True)
    return plain, traced


def test_telemetry_overhead_under_budget(write_record):
    _pair(0)  # warm both paths (imports, allocator, branch caches)
    plain, traced = zip(*(_pair(pair) for pair in range(PAIRS)))
    ratios = [t / p for p, t in zip(plain, traced)]
    overhead = statistics.median(ratios) - 1.0
    payload = {
        "harness": "benchmarks/test_bench_telemetry_overhead.py",
        "workload": {
            "config": CONFIG.name, "tests": len(TESTS), "views": list(VIEWS),
            "pairs": PAIRS, "estimator": "median traced/plain round ratio",
        },
        "plain_seconds": [round(s, 6) for s in plain],
        "telemetry_seconds": [round(s, 6) for s in traced],
        "overhead_percent": round(overhead * 100, 2),
        "spread_percent": [round((r - 1.0) * 100, 2)
                           for r in (min(ratios), max(ratios))],
        "budget_percent": MAX_OVERHEAD * 100,
    }
    write_record("BENCH_telemetry_overhead.json", payload)
    print()
    print(f"[telemetry] plain rounds  {statistics.median(plain):.3f}s "
          f"(median of {PAIRS})")
    print(f"[telemetry] traced/plain  {overhead * 100:+.1f}% median, "
          f"{payload['spread_percent'][0]:+.1f}% .. "
          f"{payload['spread_percent'][1]:+.1f}% per pair")
    assert overhead <= MAX_OVERHEAD, (
        f"telemetry overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% budget"
    )
