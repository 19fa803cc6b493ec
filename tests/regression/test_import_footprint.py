"""A regression batch imports only the code it runs.

A serial batch with no cache never touches the result store, forks no
worker and runs neither the converter testbench, the fast BCA model,
the past flow, the sign-off flow nor the dataflow tier of the static
checker (UNR, cone diff, agreement), so none of them (nor ``hashlib``)
may be in ``sys.modules`` when it exits.  The same batch with
``--jobs 2``, with a cold ``--cache-dir`` (serial and ``--jobs 2``) and
with a warm one must print and write the same bytes, and those batches
do load ``multiprocessing`` or the store, which shows the probe sees a
module when it is there.  No batch loads ``hashlib`` or OpenSSL's
``_hashlib``: the store hashes with CPython's builtin SHA-256
(:mod:`repro.digest`).

Each batch is a subprocess (``python -S``, so no ``.pth`` hook of the
interpreter's site adds modules of its own) that records the names in
``sys.modules`` at exit.
"""

import os
import subprocess
import sys

import pytest

from repro.cache.store import DESIGN_ROOTS
from repro.catg.env import run_test
from repro.regression.configs import save_config_dir
from repro.regression.testcases import build_test
from repro.stbus import NodeConfig

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: Modules a serial batch without a cache must not load.
UNUSED = (
    "_hashlib",
    "hashlib",
    "repro.cache.store",
    "multiprocessing",
    "repro.bca.fast",
    "repro.catg.converter_env",
    "repro.oldflow",
    "repro.regression.flow",
    "repro.analysis.agreement",
    "repro.analysis.unr",
    "repro.analysis.xview",
)

#: ``python -S -c PROBE MODULES_OUT ARGS...`` runs
#: ``python -m repro.regression ARGS...`` and, at exit, writes the names
#: of every loaded module to MODULES_OUT, one a line.
PROBE = """
import atexit, runpy, sys
out = sys.argv.pop(1)
def dump():
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("\\n".join(sorted(sys.modules)))
atexit.register(dump)
sys.argv[0] = "repro.regression"
runpy.run_module("repro.regression", run_name="__main__", alter_sys=True)
"""


def _snapshot(workdir):
    snap = {}
    for dirpath, _, filenames in os.walk(workdir):
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as handle:
                snap[os.path.relpath(full, workdir)] = handle.read()
    assert snap
    return snap


def _batch(root, name, *extra):
    """Run the one-config, one-test batch; return (modules, stdout,
    workdir snapshot)."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.pop("REPRO_CACHE_DIR", None)
    modules = os.path.join(root, f"{name}.modules")
    workdir = os.path.join(root, name)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, modules,
         os.path.join(root, "cfg"), "--workdir", workdir,
         "--tests", "t01_sanity_write_read", "--seeds", "1", *extra],
        capture_output=True, text=True, env=env, timeout=120)
    # Exit 1 is the expected not-signed-off verdict of a one-test batch.
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    with open(modules, "r", encoding="utf-8") as handle:
        loaded = set(handle.read().split("\n"))
    return loaded, proc.stdout, _snapshot(workdir)


@pytest.fixture(scope="module")
def batches(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("footprint"))
    save_config_dir([NodeConfig(n_initiators=2, n_targets=2,
                                name="footprint")],
                    os.path.join(root, "cfg"))
    cache = os.path.join(root, "cache")
    return {
        "serial": _batch(root, "serial"),
        "jobs2": _batch(root, "jobs2", "--jobs", "2"),
        "cold": _batch(root, "cold", "--cache-dir", cache),
        "warm": _batch(root, "warm", "--cache-dir", cache),
        "cold_jobs2": _batch(root, "cold_jobs2", "--jobs", "2",
                             "--cache-dir", os.path.join(root, "cache2")),
    }

#: The batches that run with a result cache.
CACHED = ("cold", "warm", "cold_jobs2")


def test_serial_batch_without_cache_loads_no_unused_module(batches):
    loaded, _, _ = batches["serial"]
    assert "repro.regression.cli" in loaded
    assert sorted(set(UNUSED) & loaded) == []


def test_probe_sees_the_modules_other_batches_load(batches):
    assert "multiprocessing" in batches["jobs2"][0]
    for name in CACHED:
        assert "repro.cache.store" in batches[name][0]
        assert not {"hashlib", "_hashlib"} & batches[name][0], name


#: The orchestration layers that ``DESIGN_ROOTS`` leaves out (its
#: comment names them), plus the helper modules every layer shares.
ORCHESTRATION = {"regression", "telemetry", "triage", "analysis", "lint",
                 "analyzer", "cache", "_lazy", "digest", "ioutil"}


def test_cached_batch_keys_on_exactly_the_design_it_runs(batches):
    """Every ``repro`` package a cached batch imports either keys the
    cache or cannot change a simulated cycle, and every key root is
    code the batch runs."""
    for name in CACHED:
        packages = {module.split(".")[1] for module in batches[name][0]
                    if module.startswith("repro.")}
        assert sorted(packages - set(DESIGN_ROOTS) - ORCHESTRATION) == []
        assert sorted(set(DESIGN_ROOTS) - packages) == []


def test_every_batch_prints_and_writes_the_same_bytes(batches):
    _, stdout, snapshot = batches["serial"]
    assert "Regression: 1 configurations, 2 runs" in stdout
    for name in ("jobs2", *CACHED):
        assert batches[name][1] == stdout, name
        assert batches[name][2] == snapshot, name


def test_runs_share_one_string_per_coverage_bin():
    config = NodeConfig(n_initiators=2, n_targets=2)
    first, second = (
        run_test(config, build_test("t01_sanity_write_read", config, seed))
        for seed in (1, 2))
    for name, group in first.coverage.groups.items():
        other = list(second.coverage.groups[name].bins)
        assert other == list(group.bins)
        for mine, theirs in zip(group.bins, other):
            assert mine is theirs, (name, mine)
