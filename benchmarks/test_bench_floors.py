"""Perf floors, asserted on the stock workload only.

Every floor here is measured on the batch the end-to-end benchmark
times: ``e2e/configs`` (six configurations) x all 12 tests x seeds 1 2,
that is 288 view runs and 144 comparisons.  No smaller batch stands in
for it.  Two measurements:

* ``test_e2e_workload_floors`` runs one full set of ``e2e/run.py``
  (3 interleaved timed rounds of every workload, then one traced run
  each).  The command checks every batch against ``REFERENCE_DIGEST``
  and the exact cache counters, and exits nonzero on any mismatch.
  From its ``--out`` file:

  - ``--jobs`` speedup: the ``slice_jobs2`` median ``runs_per_s`` is
    at least 1.2x the ``slice_serial`` median on a host with 2 or more
    CPUs (0.6 per worker), and at least 0.5x on one CPU;
  - re-run fraction: after a one-line edit to ``ProgrammingMaster._clk``
    the traced ``cache_warm_edit`` batch re-simulates under half of its
    runs (only cfg01 has a programming port: 48 of 288).

* ``test_warm_cache_rerun_floor`` runs a cold cached batch, then the
  same batch unedited into a fresh workdir against that cache.  The
  rerun must hit all 288 runs, store nothing, write a tree identical to
  the cold one (``diff -r``) and take at most 1/1.3 of the cold wall.

Neither test writes a record, and both leave the checkout clean.  Run
with::

    python -m pytest benchmarks/test_bench_floors.py -q -s
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
STOCK_RUNS = 288

#: ``slice_jobs2`` over ``slice_serial`` runs/s, 2 or more CPUs.
MIN_JOBS2_SPEEDUP = 1.2
#: The same ratio on one CPU, where two workers can only add overhead.
MIN_ONE_CPU_RATIO = 0.5
#: A one-process edit must re-run strictly less than this share.
MAX_RERUN_FRACTION = 0.5
#: Cold cached batch wall over the all-hit rerun's wall.
MIN_WARM_SPEEDUP = 1.3


def test_e2e_workload_floors(tmp_path):
    out = tmp_path / "e2e.json"
    proc = subprocess.run([sys.executable, str(E2E / "run.py"),
                           "--rounds", "3", "--out", str(out)])
    assert proc.returncode == 0, "run.py failed a correctness check"
    result = json.loads(out.read_text(encoding="utf-8"))
    workloads = result["workloads"]

    rate = {name: workloads[name]["metrics"]["runs_per_s"]["median"]
            for name in ("slice_serial", "slice_jobs2")}
    speedup = rate["slice_jobs2"] / rate["slice_serial"]
    floor = (MIN_JOBS2_SPEEDUP if result["host"]["nproc"] >= 2
             else MIN_ONE_CPU_RATIO)

    layers = workloads["cache_warm_edit"]["layers"]
    n_runs = layers["cache.hits"] + layers["cache.misses"]
    fraction = layers["cache.misses"] / n_runs

    print(f"\n[floors] slice_jobs2 {rate['slice_jobs2']:.2f} runs/s, "
          f"slice_serial {rate['slice_serial']:.2f} runs/s: "
          f"{speedup:.2f}x on {result['host']['nproc']} CPU(s) "
          f"(floor {floor}x)")
    print(f"[floors] cache_warm_edit re-ran {layers['cache.misses']:.0f}"
          f"/{n_runs:.0f} runs ({fraction:.1%}; floor "
          f"< {MAX_RERUN_FRACTION:.0%})")
    assert speedup >= floor
    assert fraction < MAX_RERUN_FRACTION


def _cached_batch(workdir, cache_dir, metrics):
    """One stock batch against ``cache_dir``; its cache counters and wall
    seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_CHAOS", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.regression", str(E2E / "configs"),
         "--workdir", str(workdir), "--cache-dir", str(cache_dir),
         "--metrics-out", str(metrics)],
        env=env, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    assert proc.returncode == 0, "the stock batch did not sign off"
    batch = json.loads(metrics.read_text(encoding="utf-8"))["batch"]
    return batch["cache"], wall


def test_warm_cache_rerun_floor(tmp_path):
    cache_dir = tmp_path / "cache"
    cold, cold_s = _cached_batch(tmp_path / "cold", cache_dir,
                                 tmp_path / "cold.json")
    warm, warm_s = _cached_batch(tmp_path / "warm", cache_dir,
                                 tmp_path / "warm.json")
    speedup = cold_s / warm_s
    print(f"\n[floors] stock batch cold {cold_s:.2f} s, all-hit rerun "
          f"{warm_s:.2f} s: {speedup:.1f}x (floor {MIN_WARM_SPEEDUP}x)")
    assert (cold["misses"], cold["stores"]) == (STOCK_RUNS, STOCK_RUNS), cold
    assert (warm["hits"], warm["misses"], warm["stores"]) == \
        (STOCK_RUNS, 0, 0), warm
    diff = subprocess.run(["diff", "-r", str(tmp_path / "cold"),
                           str(tmp_path / "warm")],
                          capture_output=True, text=True)
    assert diff.returncode == 0, diff.stdout[-2000:]
    assert speedup >= MIN_WARM_SPEEDUP
