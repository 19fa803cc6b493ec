"""The telemetry side files of a failing, triaged batch, pinned.

A two-config batch with a seeded BCA bug runs through the CLI once
serially and once on two workers, writing ``--metrics-out``,
``--log-json`` and ``--trace-out``.  Everything that measures time or
names a process is masked (``ts``, ``pid``, ``jobs``, the worker lanes,
every ``*seconds``/``utilization`` value and the phase totals); what is
left — every record, its order and its counts — must match between the
two runs and match ``side_files/golden.json``.

To re-record the golden after an intended change to a side file::

    PYTHONPATH=src python -m tests.regression.test_side_files
"""

import json
import os
import tempfile

import pytest

from repro.regression.cli import main as regression_main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "side_files")
GOLDEN = os.path.join(CONFIG_DIR, "golden.json")

TESTS = ["t01_sanity_write_read", "t02_random_uniform", "t12_decode_errors"]

#: Keys whose values depend on the clock, the process or the worker
#: count, never on what the batch did.
MASKED_KEYS = {"ts", "pid", "jobs", "workers", "phase_totals"}


def _masked(value):
    if isinstance(value, dict):
        return {
            key: "<masked>" if key in MASKED_KEYS
            or key.endswith("seconds") or key.endswith("utilization")
            else _masked(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_masked(item) for item in value]
    return value


def side_files(out_dir, jobs):
    """Run the pinned batch into ``out_dir`` on ``jobs`` workers and
    return its masked side files."""
    paths = {name: os.path.join(out_dir, name)
             for name in ("metrics.json", "log.jsonl", "trace.json")}
    code = regression_main([
        CONFIG_DIR, "--workdir", os.path.join(out_dir, "work"),
        "--tests", *TESTS, "--seeds", "1",
        "--bugs", "subword-lane-misplacement", "--triage",
        "--jobs", str(jobs),
        "--metrics-out", paths["metrics.json"],
        "--log-json", paths["log.jsonl"],
        "--trace-out", paths["trace.json"],
    ])
    assert code == 1  # the seeded bug keeps both configs from sign-off
    with open(paths["metrics.json"]) as handle:
        metrics = json.load(handle)
    with open(paths["log.jsonl"]) as handle:
        log = [json.loads(line) for line in handle]
    with open(paths["trace.json"]) as handle:
        trace = json.load(handle)["traceEvents"]
    # However the lanes split them: 12 runs, 6 comparisons, 4 triages.
    assert sum(lane["n_jobs"] for lane
               in metrics["batch"]["workers"].values()) == 22
    # Metadata events name the lanes, which depend on the worker count.
    spans = [{"name": event["name"], "args": event.get("args", {})}
             for event in trace if event["ph"] == "X"]
    return {"metrics": _masked(metrics), "log": _masked(log),
            "trace": _masked(spans)}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("jobs", [1, 2])
def test_side_files_match_the_golden(tmp_path, capsys, golden, jobs):
    files = side_files(str(tmp_path), jobs)
    capsys.readouterr()
    assert len(files["log"]) == 24
    assert len(files["metrics"]["triages"]) == 4
    for name in ("metrics", "log", "trace"):
        assert files[name] == golden[name], name


def test_serial_and_two_workers_agree(tmp_path, capsys):
    serial = side_files(str(tmp_path / "serial"), 1)
    workers = side_files(str(tmp_path / "jobs2"), 2)
    capsys.readouterr()
    assert serial == workers


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = side_files(scratch, 1)
    with open(GOLDEN, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
