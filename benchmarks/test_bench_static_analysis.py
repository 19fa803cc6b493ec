"""Static-analysis benchmark: RTL/BCA agreement-check and UNR wall
times over the configuration matrix.

The agreement check runs in every two-view ``analyze_config``, so it
must stay cheap next to simulation: a functional RTL/BCA agreement check
per port, for every matrix configuration, should cost seconds — not the
minutes a seeded regression of the same matrix takes.  This harness times
the lockstep agreement check and the UNR pass separately over the full
matrix and persists the rates to
``.bench_build/BENCH_static_analysis.json`` (see conftest.py).

Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_static_analysis.py -q
"""

import json
import time

import pytest

from repro.analysis.agreement import check_agreement
from repro.analysis.unr import (
    REACHABLE,
    UNKNOWN,
    UNREACHABLE,
    analyze_unreachability,
)
from repro.regression.configs import configuration_matrix

MATRIX = configuration_matrix()

#: filled by the timed phases, persisted by the final test
_RESULTS = {}


def test_bench_equivalence_phase():
    """Per-port lockstep agreement check over the full matrix."""
    start = time.perf_counter()
    n_ports = n_cycles = 0
    for config in MATRIX:
        ports = check_agreement(config).ports
        assert all(p.verdict == "AGREED" for p in ports), config.name
        n_ports += len(ports)
        n_cycles += sum(p.lockstep_cycles for p in ports)
    equiv_s = time.perf_counter() - start
    _RESULTS.update({
        "configs_agreed": len(MATRIX),
        "ports_agreed": n_ports,
        "lockstep_port_cycles": n_cycles,
        "equivalence_seconds": round(equiv_s, 3),
        "equivalence_ports_per_second": round(n_ports / equiv_s, 1),
    })
    print(f"[bench] equivalence: {n_ports} ports over {len(MATRIX)} "
          f"configs in {equiv_s:.2f}s ({n_cycles} lockstep port-cycles)")
    # Seconds, not minutes: the static check must be far cheaper than a
    # regression of the same matrix (generous ceiling for slow CI).
    assert equiv_s < 120.0


def test_bench_reachability_phase():
    """The UNR pass (exact decode-error argument included), full matrix."""
    start = time.perf_counter()
    reports = [analyze_unreachability(config) for config in MATRIX]
    reach_s = time.perf_counter() - start
    totals = {REACHABLE: 0, UNREACHABLE: 0, UNKNOWN: 0}
    for config, report in zip(MATRIX, reports):
        counts = report.counts()
        assert counts[UNKNOWN] == 0, config.name
        for verdict, n in counts.items():
            totals[verdict] += n
    assert totals == {REACHABLE: 2073, UNREACHABLE: 101, UNKNOWN: 0}
    n_bins = sum(totals.values())
    _RESULTS.update({
        "unr_bins_decided": n_bins,
        "reachability_seconds": round(reach_s, 3),
        "reachability_bins_per_second": round(n_bins / reach_s, 1),
    })
    print(f"[bench] reachability: {n_bins} bins in {reach_s:.2f}s")
    assert reach_s < 30.0


def test_bench_record_results_json(write_record):
    """Persist the measured rates; runs last (file executes in order)."""
    required = {"equivalence_seconds", "reachability_seconds"}
    if not required.issubset(_RESULTS):
        pytest.skip("run the two phase benchmarks first")
    payload = {
        "harness": "benchmarks/test_bench_static_analysis.py",
        "matrix_size": len(MATRIX),
        "results": dict(sorted(_RESULTS.items())),
    }
    path = write_record("BENCH_static_analysis.json", payload)
    assert json.loads(path.read_text(encoding="utf-8"))["results"]
