"""Static-analysis benchmark: RTL/BCA agreement-check and exact-UNR
wall times over the configuration matrix.

The symbolic pass only earns its place in the flow if it stays cheap
next to simulation: a functional RTL/BCA agreement check per port, for
every matrix configuration, should cost seconds — not the minutes a
seeded regression of the same matrix takes.  This harness times the two
engines separately over the full matrix and persists the rates to
``BENCH_static_analysis.json``.

Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_static_analysis.py -q
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis.symbolic.equiv import check_functional_equivalence
from repro.analysis.symbolic.reach import upgrade_unr_report
from repro.analysis.unr import analyze_unreachability
from repro.regression.configs import configuration_matrix

MATRIX = configuration_matrix()

#: filled by the timed phases, persisted by the final test
_RESULTS = {}


def test_bench_equivalence_phase():
    """Per-port agreement check (both engines) over the full matrix."""
    start = time.perf_counter()
    n_ports = n_points = n_cycles = 0
    for config in MATRIX:
        ports, findings = check_functional_equivalence(config)
        assert all(p.verdict == "AGREED" for p in ports), config.name
        n_ports += len(ports)
        n_points += sum(p.comb_points for p in ports)
        n_cycles += sum(p.lockstep_cycles for p in ports)
    equiv_s = time.perf_counter() - start
    _RESULTS.update({
        "configs_agreed": len(MATRIX),
        "ports_agreed": n_ports,
        "comb_points_enumerated": n_points,
        "lockstep_port_cycles": n_cycles,
        "equivalence_seconds": round(equiv_s, 3),
        "equivalence_ports_per_second": round(n_ports / equiv_s, 1),
    })
    print(f"[bench] equivalence: {n_ports} ports over {len(MATRIX)} "
          f"configs in {equiv_s:.2f}s ({n_points} enumerated points, "
          f"{n_cycles} lockstep port-cycles)")
    # Seconds, not minutes: the static check must be far cheaper than a
    # regression of the same matrix (generous ceiling for slow CI).
    assert equiv_s < 120.0


def test_bench_reachability_phase():
    """Probe-based UNR plus the exact interval upgrade, full matrix."""
    start = time.perf_counter()
    n_bins = n_deltas = 0
    for config in MATRIX:
        report = analyze_unreachability(config)
        upgrade = upgrade_unr_report(report, config)
        assert upgrade.unknown_after == 0, config.name
        n_bins += len(report.verdicts)
        n_deltas += len(upgrade.deltas)
    reach_s = time.perf_counter() - start
    _RESULTS.update({
        "unr_bins_decided": n_bins,
        "unr_upgrade_deltas": n_deltas,
        "reachability_seconds": round(reach_s, 3),
        "reachability_bins_per_second": round(n_bins / reach_s, 1),
    })
    print(f"[bench] reachability: {n_bins} bins ({n_deltas} upgraded) "
          f"in {reach_s:.2f}s")
    assert reach_s < 30.0


def test_bench_record_results_json():
    """Persist the measured rates; runs last (file executes in order)."""
    required = {"equivalence_seconds", "reachability_seconds"}
    if not required.issubset(_RESULTS):
        pytest.skip("run the two phase benchmarks first")
    payload = {
        "harness": "benchmarks/test_bench_static_analysis.py",
        "matrix_size": len(MATRIX),
        "results": dict(sorted(_RESULTS.items())),
    }
    path = Path(__file__).with_name("BENCH_static_analysis.json")
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    assert json.loads(path.read_text(encoding="utf-8"))["results"]
