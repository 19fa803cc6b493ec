"""Leased-worker and result-cache benchmark.

Two claims get numbers here:

* **Scaling** — the same batch, executed serially and on 2 and 4
  leased worker processes (``jobs=``).  Workers cost real fork
  overhead, so tiny batches are *not* expected to scale
  linearly; the bench records the curve and only asserts correctness
  (byte-identical summaries at every worker count).

* **Cache leverage** — a warm content-addressed cache replays the
  whole batch without simulating a cycle.  That *is* asserted: the
  warm re-run must beat the cold run outright, and must register zero
  stores (every run served from the pool).

Results land in ``BENCH_distributed.json``.
"""

import json
import time
from pathlib import Path

from repro.regression import BatchSpec, RegressionRunner
from repro.stbus import NodeConfig, ProtocolType

TESTS = ["t02_random_uniform", "t09_mixed_sizes"]
SEEDS = (1, 2)

#: The warm (all-hits) run must be at least this much faster than the
#: cold run that populated the cache.  Deliberately modest: the point
#: is "replay beats simulate", not a precise ratio.
MIN_WARM_SPEEDUP = 1.3


def _configs():
    return [NodeConfig(n_initiators=3, n_targets=2,
                       protocol_type=ProtocolType.T3, name="bench_dist")]


def _batch(workdir, jobs=1, cache_dir=None):
    runner = RegressionRunner(_configs(), BatchSpec(
        tests=TESTS, seeds=SEEDS, workdir=str(workdir),
        cache_dir=str(cache_dir) if cache_dir else None, jobs=jobs,
    ))
    start = time.perf_counter()
    report = runner.run()
    return report, time.perf_counter() - start, runner


def test_distributed_and_cache_bench(tmp_path):
    walls = {}
    report_ref, walls["serial"], _ = _batch(tmp_path / "serial")
    for jobs in (2, 4):
        report, walls[f"jobs_{jobs}"], _ = _batch(
            tmp_path / f"j{jobs}", jobs=jobs)
        assert report.render() == report_ref.render()

    cold_report, cold_s, cold_runner = _batch(
        tmp_path / "cold", cache_dir=tmp_path / "cache")
    assert cold_runner.cache.stats.stores == cold_report.n_runs
    warm_report, warm_s, warm_runner = _batch(
        tmp_path / "warm", cache_dir=tmp_path / "cache")
    assert warm_runner.cache.stats.stores == 0
    assert warm_runner.cache.stats.hits == warm_report.n_runs
    assert warm_report.render() == cold_report.render()
    speedup = cold_s / warm_s

    payload = {
        "harness": "benchmarks/test_bench_distributed.py",
        "workload": {
            "configs": [cfg.name for cfg in _configs()],
            "tests": TESTS, "seeds": list(SEEDS),
            "n_runs": report_ref.n_runs,
        },
        "wall_seconds": {name: round(wall, 6)
                         for name, wall in sorted(walls.items())},
        "cache": {
            "cold_seconds": round(cold_s, 6),
            "warm_seconds": round(warm_s, 6),
            "warm_speedup": round(speedup, 2),
            "floor": MIN_WARM_SPEEDUP,
        },
    }
    path = Path(__file__).with_name("BENCH_distributed.json")
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print()
    for name, wall in sorted(walls.items()):
        print(f"[distributed] {name:<10} {wall:.3f}s")
    print(f"[cache] cold {cold_s:.3f}s  warm {warm_s:.3f}s "
          f"({speedup:.1f}x)")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm cache replay only {speedup:.2f}x faster than cold "
        f"(floor {MIN_WARM_SPEEDUP}x)"
    )
