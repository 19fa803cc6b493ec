"""Telemetry overhead guard.

The observability layer promises near-zero cost: disabled telemetry is
shared no-op singletons, and *enabled* telemetry only touches per-phase
spans, one counter bulk-increment per run and buffered log records —
never the per-cycle hot path.  This bench times the same RTL regression
run through ``execute_run_job`` (the real batch-engine path) with and
without telemetry recording and asserts the enabled overhead stays under
~5%.  Results land in ``.bench_build/BENCH_telemetry_overhead.json``
(see conftest.py).
"""

import time

from repro.regression.parallel import RunJob, execute_run_job
from repro.stbus import ArbitrationPolicy, NodeConfig

CONFIG = NodeConfig(n_initiators=3, n_targets=2,
                    arbitration=ArbitrationPolicy.LRU, name="tele_ovh")
TEST = "t02_random_uniform"
ROUNDS = 5

#: Enabled-telemetry overhead budget on one RTL run (fraction), plus a
#: small absolute slack so sub-second workloads don't fail on scheduler
#: jitter alone.
MAX_OVERHEAD = 0.05
ABS_SLACK_S = 0.02


def _job(telemetry):
    return RunJob(
        config=CONFIG, test_name=TEST, seed=1, view="rtl",
        vcd_path=None, report_stem=None, bugs=frozenset(),
        with_arbitration_checker=True,
        telemetry=telemetry,
        submitted_at=time.time() if telemetry else None,
    )


def _min_wall(telemetry):
    """Min-of-N wall time: the least-noise estimate of the true cost."""
    best = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = execute_run_job(_job(telemetry))
        elapsed = time.perf_counter() - start
        assert result.passed
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_telemetry_overhead_under_budget(write_record):
    # Warm both paths once (imports, allocator, branch caches), then
    # interleave-measure plain and instrumented runs.
    execute_run_job(_job(False))
    execute_run_job(_job(True))
    plain_s = _min_wall(False)
    telemetry_s = _min_wall(True)
    overhead = telemetry_s / plain_s - 1.0
    payload = {
        "harness": "benchmarks/test_bench_telemetry_overhead.py",
        "workload": {
            "config": CONFIG.name, "test": TEST, "view": "rtl",
            "rounds": ROUNDS, "estimator": "min",
        },
        "plain_seconds": round(plain_s, 6),
        "telemetry_seconds": round(telemetry_s, 6),
        "overhead_percent": round(overhead * 100, 2),
        "budget_percent": MAX_OVERHEAD * 100,
    }
    write_record("BENCH_telemetry_overhead.json", payload)
    print()
    print(f"[telemetry] plain       {plain_s:.3f}s (min of {ROUNDS})")
    print(f"[telemetry] instrumented {telemetry_s:.3f}s "
          f"({overhead * 100:+.1f}%)")
    assert telemetry_s <= plain_s * (1.0 + MAX_OVERHEAD) + ABS_SLACK_S, (
        f"telemetry overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% budget"
    )
