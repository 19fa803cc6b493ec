"""Incremental-regression benchmark: what one process edit costs.

The ISSUE's quantitative claim: after editing **one** process, an
incremental batch re-runs only the entries whose fan-out cone contains
it.  The workload is a four-configuration matrix where exactly one
configuration has a programming port; the edit lands in
``ProgrammingMaster._clk``, so only that configuration's two views are
affected — a 2/8 = 25% re-run fraction, asserted against a 50% floor.

The edit is applied to a *copy* of the package tree and both batches
run as subprocesses against it (an in-process run cannot re-import an
edited module).  Results land in ``BENCH_incremental.json``.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from repro.regression.configs import save_config_dir
from repro.stbus import ArbitrationPolicy, NodeConfig, ProtocolType

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src"))

CLK_MARKER = "    def _clk(self) -> None:"

#: Hard floor from the ISSUE: a one-process edit must re-run strictly
#: less than half the batch.
MAX_RERUN_FRACTION = 0.5


def _configs():
    return [
        NodeConfig(n_initiators=2, n_targets=2,
                   protocol_type=ProtocolType.T3, name="incr_a"),
        NodeConfig(n_initiators=3, n_targets=2,
                   protocol_type=ProtocolType.T3, name="incr_b"),
        NodeConfig(n_initiators=2, n_targets=3,
                   protocol_type=ProtocolType.T3, name="incr_c"),
        NodeConfig(n_initiators=2, n_targets=2,
                   protocol_type=ProtocolType.T3,
                   arbitration=ArbitrationPolicy.PROGRAMMABLE_PRIORITY,
                   has_programming_port=True, name="incr_prog"),
    ]


def _edit_prog_master(src):
    """AST-visible, behavior-neutral edit to ``ProgrammingMaster._clk``
    — registered only by designs with a programming port."""
    path = os.path.join(src, "repro", "catg", "prog.py")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert text.count(CLK_MARKER) == 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(
            CLK_MARKER, CLK_MARKER + "\n        _bench_probe = 0", 1))


def _run_batch(src, cfg_dir, workdir, cache_dir, metrics):
    """One batch; returns its metrics, wall seconds and the seconds its
    ``impact.index`` span (the ``ImpactIndex`` build) took."""
    trace = str(metrics) + ".trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("REPRO_CACHE_DIR", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.regression", str(cfg_dir),
         "--workdir", str(workdir),
         "--tests", "t01_sanity_write_read", "--seeds", "1",
         "--skip-lint", "--cache-dir", str(cache_dir),
         "--incremental", "--metrics-out", str(metrics),
         "--trace-out", trace],
        capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    with open(trace, "r", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    index_s = sum(event["dur"] for event in events
                  if event.get("name") == "impact.index") / 1e6
    with open(metrics, "r", encoding="utf-8") as handle:
        return json.load(handle)["batch"], wall, index_s


def test_incremental_rerun_fraction(tmp_path):
    src = str(tmp_path / "pkg")
    shutil.copytree(
        REPO_SRC, src,
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    cfg_dir = tmp_path / "cfg"
    save_config_dir(_configs(), str(cfg_dir))

    cold, cold_s, cold_index_s = _run_batch(
        src, cfg_dir, tmp_path / "cold", tmp_path / "cache",
        tmp_path / "cold.json")
    n_runs = sum(cold["cache"][name] for name in ("hits", "misses"))
    assert cold["cache"]["misses"] == n_runs  # nothing pre-warmed

    _edit_prog_master(src)
    warm, warm_s, warm_index_s = _run_batch(
        src, cfg_dir, tmp_path / "warm", tmp_path / "cache",
        tmp_path / "warm.json")
    rerun = warm["cache"]["misses"]
    fraction = rerun / n_runs

    payload = {
        "harness": "benchmarks/test_bench_incremental.py",
        "workload": {
            "configs": [cfg.name for cfg in _configs()],
            "tests": ["t01_sanity_write_read"], "seeds": [1],
            "n_runs": n_runs,
            "edit": "catg/prog.py ProgrammingMaster._clk "
                    "(one-line behavior-neutral insert)",
        },
        "incremental": {
            "rerun_jobs": rerun,
            "rerun_fraction": round(fraction, 4),
            "floor": MAX_RERUN_FRACTION,
            "cold_seconds": round(cold_s, 6),
            "warm_seconds": round(warm_s, 6),
            "cold_index_seconds": round(cold_index_s, 6),
            "warm_index_seconds": round(warm_index_s, 6),
            "impact_counters": cold["impact"],
        },
    }
    path = Path(__file__).with_name("BENCH_incremental.json")
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8")
    print()
    print(f"[incremental] edit re-ran {rerun}/{n_runs} jobs "
          f"({fraction:.0%}); cold {cold_s:.3f}s warm {warm_s:.3f}s "
          f"(index {warm_index_s:.3f}s)")
    # Only the programming-port configuration's two views may re-run.
    assert rerun == 2, warm["cache"]
    assert fraction < MAX_RERUN_FRACTION, (
        f"one-process edit re-ran {fraction:.0%} of the batch "
        f"(floor {MAX_RERUN_FRACTION:.0%})"
    )
