"""End-to-end benchmark: regression batches, timed from outside, split into layers.

One workload is one regression batch of ``python -m repro.regression``
over the six configurations in ``configs/`` (12 tests x 2 seeds: 144
entries, 288 view runs, 144 comparisons), run as a child process.  Three
workloads vary what the batch exercises: serial simulation, a two-worker
executor, and a warm result cache after a one-line source edit.  See
README.md for the workloads, metrics and bounds.

Usage::

    python benchmarks/e2e/run.py [--rounds N] [--seeds S1 S2] [--out FILE]
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S \
        --trace 0|1
    python benchmarks/e2e/run.py compare BASE.json NEW.json

The first form times every workload for N interleaved rounds, then makes
one traced run per workload and prints the end-to-end and per-layer
tables.  The second times one workload for at most S seconds and prints,
as its last line, one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  Both forms
run one untimed warm-up round per workload first.  Every batch is
checked for correct output; the command exits nonzero if any check
fails.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CONFIG_DIR = HERE / "configs"
WORK_ROOT = ROOT / ".bench_build" / "e2e"

#: The regression CLI's default seeds; ``--seed N`` maps to 2N+1, 2N+2,
#: so seed 0 is this workload exactly.
DEFAULT_SEEDS = (1, 2)
#: Test cases per batch: the CLI default, all twelve.
N_TESTS = 12
#: Digest of the artifact tree (every relpath and its bytes) of the six
#: configurations x 12 tests x seeds 1 2.  Serial, pooled, cold-cache
#: and warm-cache batches must all write exactly these bytes.
REFERENCE_DIGEST = (
    "99858e68f0bd0a5ffb3f7ee853555f7c12c3a84a9d6cd3864eba4f8224fc0c90")

#: Fewest timed rounds per workload, even when ``--seconds`` is short.
MIN_ROUNDS = 3
#: ``--seconds`` runs start no round after this, whatever they ask for.
MAX_TIMED_S = 90.0
#: A child batch past this is killed and counted as failed (a healthy
#: one takes under 20 s).
CHILD_TIMEOUT_S = 100.0
#: The per-layer table must explain all but this share of traced wall.
UNATTRIBUTED_BUDGET = 0.05

E2E_METRICS = ("batch_wall_s", "setup_s", "runs_per_s", "cpu_s",
               "peak_rss_mb")

#: Self-time rows of the per-layer table, in print order; they and
#: ``unattributed_s`` add up to the traced wall time (plus, with worker
#: processes, the seconds those workers were busy).
TIME_ROWS = (
    "startup.import_s", "lint.gate_s", "analysis.impact_s", "cache.load_s",
    "cache.store_s", "regression.generate_s", "catg.build_s",
    "kernel.elaborate_s", "kernel.self_s", "rtl.self_s", "bca.self_s",
    "catg.self_s", "vcd.write_s", "regression.report_s", "analyzer.parse_s",
    "analyzer.align_s", "regression.self_s", "unattributed_s",
)

#: Which row each benchmark span's self time lands in.
#: ``VerificationEnv.run`` is split four ways (see ``layer_table``).
SPAN_ROW = {
    "startup.import": "startup.import_s",
    "regression.cli": "regression.self_s",
    "RegressionRunner.run": "regression.self_s",
    "execute_run_job": "regression.self_s",
    "execute_compare_job": "regression.self_s",
    "lint_config": "lint.gate_s",
    "ImpactIndex.__init__": "analysis.impact_s",
    "ResultCache.load": "cache.load_s",
    "ResultCache.store": "cache.store_s",
    "build_test": "regression.generate_s",
    "VerificationEnv.__init__": "catg.build_s",
    "Simulator.elaborate": "kernel.elaborate_s",
    "VcdWriter.declare": "vcd.write_s",
    "VcdWriter.sample_changes": "vcd.write_s",
    "VcdWriter.finish": "vcd.write_s",
    "write_run_reports": "regression.report_s",
    "parse_vcd": "analyzer.parse_s",
    "compare_vcds": "analyzer.align_s",
}

KERNEL_COUNTS = ("cycles", "process_activations", "signal_commits",
                 "signal_toggles", "delta_iterations")


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    #: None, "cold" (empty cache; only the warm fixture uses it) or
    #: "warm_edit" (cache of a cold batch, source tree with a one-line
    #: edit to ProgrammingMaster._clk).
    cache: Optional[str] = None


WORKLOADS = {w.name: w for w in (
    Workload("slice_serial", jobs=1),
    Workload("slice_jobs2", jobs=2),
    Workload("cache_warm_edit", jobs=1, cache="warm_edit"),
)}

CLK_MARKER = "    def _clk(self) -> None:"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if "bytes" in name:
        return "bytes"
    for suffix, unit in (("_per_s", "runs/s"), ("_us_per_cycle", "us"),
                         ("_pct", "%"), ("_mb", "MB"), ("_s", "s"),
                         ("utilization", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# -- statistics and verdicts ------------------------------------------------


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float], bound: float) -> dict:
    q1, median, q3 = quartiles(values)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "bound": bound, "spread": spread, "resolved": spread <= bound}


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """``improved``, ``unchanged``, ``worse`` or ``unresolved``.

    A gain needs >= 9/10 pair wins (ties count for neither) and a median
    gap wider than the base IQR.  A loss is a median worse by more than
    ``bound``.  Where either side's own spread exceeds the bound, nothing
    but a change better on every run than every base run resolves.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, base_median, q3 = quartiles(base)
    new_median = quartiles(new)[1]
    gain = (base_median - new_median) * sign
    if max(summarize(base, bound)["spread"],
           summarize(new, bound)["spread"]) > bound:
        everywhere = all((b - n) * sign > 0 for b in base for n in new)
        return "improved" if everywhere else "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if (b - n) * sign > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(base_median):
        return "worse"
    return "unchanged"


# -- child processes and artifacts ------------------------------------------


@dataclass
class ChildRun:
    rc: int
    started: float  #: perf_counter() just before the spawn
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: List[str], env: Dict[str, str], log_dir: Path,
              timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run ``argv`` to completion; wall time from spawn to exit, CPU and
    peak RSS of the whole process tree from ``os.wait4``."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                cwd=ROOT, start_new_session=True)
        watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        rc=proc.returncode, started=started, wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime, maxrss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: sorted relpath, then bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def batch_complete(stderr: str) -> Optional[dict]:
    """The CLI's ``batch.complete`` stderr record, if it wrote one."""
    for line in reversed(stderr.splitlines()):
        if '"batch.complete"' in line:
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


_ENTRY = re.compile(r"^  (PASS|FAIL|ERROR|TIMEOUT|QUARANTINED) \S+ \S+ "
                    r"seed=\d+ (.*)$")


def failed_jobs(workdir: Path, n_entries: int):
    """Failed jobs in the per-config reports: a view run that is not
    ``ok`` or a comparison that is not an exact, coverage-equal match
    (one entry is two runs and one comparison).  Returns (failed,
    problems)."""
    failed, seen, problems = 0, 0, []
    for report in sorted(workdir.glob("*__report.txt")):
        for line in report.read_text(encoding="utf-8").splitlines():
            match = _ENTRY.match(line)
            if not match:
                continue
            seen += 1
            fields = dict(part.split("=", 1)
                          for part in match.group(2).split())
            bad = [fields.get("rtl") != "ok", fields.get("bca") != "ok",
                   fields.get("cov_eq") != "yes"
                   or fields.get("align") != "100.00%"]
            if any(bad):
                failed += sum(bad)
                problems.append(f"{report.name}: {line.strip()}")
    if seen != n_entries:
        failed += 3 * abs(n_entries - seen)
        problems.append(f"{seen} report entries, expected {n_entries}")
    return failed, problems


def count_entries(cache_dir: Optional[Path]) -> int:
    if cache_dir is None or not (cache_dir / "objects").is_dir():
        return 0
    return sum(1 for _ in (cache_dir / "objects").glob("*/*.json"))


# -- the per-layer table ----------------------------------------------------


def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the part its child spans cover
    (children: spans of the same pid nested inside it), in input order."""
    child = [0.0] * len(spans)
    by_pid = defaultdict(list)
    for index, span in enumerate(spans):
        by_pid[span["pid"]].append(index)
    for indices in by_pid.values():
        indices.sort(key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
        stack: List[int] = []
        for i in indices:
            start = spans[i]["ts"]
            while stack and (spans[stack[-1]]["ts"]
                             + spans[stack[-1]]["dur"]) <= start:
                stack.pop()
            if stack:
                child[stack[-1]] += spans[i]["dur"]
            stack.append(i)
    return [span["dur"] - child[i] for i, span in enumerate(spans)]


def layer_table(traced: dict, traced_wall: float,
                metrics: Optional[dict] = None) -> Dict[str, float]:
    """Per-layer metrics of one traced batch.

    ``traced`` is traced.py's output (spans of every process, the main
    pid, extras); ``metrics`` the batch's own ``--metrics-out`` rollup.
    ``VerificationEnv.run`` self time splits into DUT process seconds
    (``rtl``/``bca``), other testbench process seconds plus checker and
    scoreboard ``finalize`` (``catg``), and the rest (``kernel``).
    """
    spans = traced["spans"]
    rows = dict.fromkeys(TIME_ROWS, 0.0)
    totals: Dict[str, float] = defaultdict(float)
    main_self = 0.0
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        totals["calls." + name] += 1
        if span["pid"] == traced["main_pid"]:
            main_self += own
        if name == "Simulator.elaborate":
            totals["sim_s"] -= span["dur"]
        elif name == "compare_vcds":
            totals["compare_cycles"] += span["args"]["cycles"]
        elif name == "VcdWriter.finish":
            # finish() runs inside the finalize phase, which the run
            # span's args count as testbench time.
            totals["finish_s"] += span["dur"]
        if name != "VerificationEnv.run":
            rows[SPAN_ROW[name]] += own
            continue
        args = span["args"]
        rows[f"{args['view']}.self_s"] += args["dut_s"]
        rows["catg.self_s"] += args["tb_s"] + args["finalize_s"]
        rows["kernel.self_s"] += (own - args["dut_s"] - args["tb_s"]
                                  - args["finalize_s"])
        totals["sim_s"] += span["dur"]
        for key in KERNEL_COUNTS + ("vcd_bytes",):
            totals[key] += args.get(key, 0)
    rows["catg.self_s"] -= totals["finish_s"]
    rows["kernel.self_s"] += totals["finish_s"]
    rows["unattributed_s"] = traced_wall - main_self

    table = dict(rows)
    for key in KERNEL_COUNTS:
        table[f"kernel.{key}"] = int(totals[key])
    table["kernel.host_us_per_cycle"] = (
        totals["sim_s"] / totals["cycles"] * 1e6 if totals["cycles"] else 0.0)
    extras = traced["extras"]
    table.update({
        "vcd.bytes": int(totals["vcd_bytes"]),
        "analyzer.compares": int(totals["calls.compare_vcds"]),
        "analyzer.cycles": int(totals["compare_cycles"]),
        "cache.bytes_read": extras["cache_bytes_read"],
        "cache.bytes_written": extras["cache_bytes_written"],
        "analysis.impact_processes": extras["impact_processes"],
        "regression.result_bytes": extras["result_bytes"],
    })
    batch = (metrics or {}).get("batch", {})
    cache = batch.get("cache", {})
    for key in ("hits", "misses", "stores"):
        table[f"cache.{key}"] = cache.get(key, 0)
    lanes = [lane for lane in batch.get("workers", {}).values()
             if lane["n_jobs"]]
    table["regression.worker_busy_s"] = sum(
        lane["busy_seconds"] for lane in lanes)
    table["regression.worker_utilization"] = (
        statistics.mean(lane["utilization"] for lane in lanes)
        if lanes else 0.0)
    waits = [run["queue_wait_seconds"] for run in (metrics or {}).get(
        "runs", []) if "queue_wait_seconds" in run]
    table["regression.queue_wait_s"] = statistics.mean(waits) if waits \
        else 0.0
    return table


def expected_calls(*, n_configs: int, n_runs: int, n_executed: int,
                   n_compares: int, cached: bool, spans: Sequence[dict]
                   ) -> Dict[str, int]:
    """How often each wrapped entry point must run in one batch.  The
    VCD writer's calls follow from the runs' own cycle and signal
    counts."""
    runs = [span["args"] for span in spans
            if span["name"] == "VerificationEnv.run"]
    signals = sum(args["signals"] for args in runs)
    cycles = sum(args["cycles"] for args in runs)
    return {
        "startup.import": 1, "regression.cli": 1, "RegressionRunner.run": 1,
        "lint_config": n_configs,
        "ImpactIndex.__init__": int(cached),
        "ResultCache.load": n_runs if cached else 0,
        "ResultCache.store": n_executed if cached else 0,
        "execute_run_job": n_executed, "build_test": n_executed,
        "VerificationEnv.__init__": n_executed,
        "VerificationEnv.run": n_executed,
        "Simulator.elaborate": n_executed,
        "VcdWriter.declare": signals, "VcdWriter.sample_changes": cycles,
        "VcdWriter.finish": n_executed, "write_run_reports": n_executed,
        "execute_compare_job": n_compares, "compare_vcds": n_compares,
        "parse_vcd": 2 * n_compares,
    }


def call_mismatches(calls: Dict[str, int],
                    expected: Dict[str, int]) -> List[str]:
    return [f"{name}: {calls.get(name, 0)} calls, expected {want}"
            for name, want in sorted(expected.items())
            if calls.get(name, 0) != want]


# -- workloads --------------------------------------------------------------


class Harness:
    """Source trees, caches and reference outputs shared by the rounds
    of every workload in one invocation.

    ``config_dir``, ``tests`` and ``seeds`` default to the benchmark's
    inputs; the self-tests pass smaller ones.
    """

    def __init__(self, work: Path, *, seeds: Sequence[int] = DEFAULT_SEEDS,
                 config_dir: Path = CONFIG_DIR,
                 tests: Optional[Sequence[str]] = None) -> None:
        self.work = Path(work)
        self.seeds = [int(seed) for seed in seeds]
        self.config_dir = Path(config_dir)
        self.tests = list(tests) if tests else None
        cfgs = sorted(self.config_dir.glob("*.cfg"))
        self.n_configs = len(cfgs)
        n_prog = sum(1 for cfg in cfgs if re.search(
            r"^has_programming_port\s*=\s*1\s*$",
            cfg.read_text(encoding="utf-8"), re.M))
        per_config = len(self.tests or range(N_TESTS)) * len(self.seeds)
        self.n_entries = self.n_configs * per_config
        self.n_runs = 2 * self.n_entries
        #: Runs a warm batch re-simulates: both views of every entry of
        #: the configurations that instantiate ProgrammingMaster.
        self.n_warm_misses = 2 * n_prog * per_config
        default = (self.seeds == list(DEFAULT_SEEDS) and self.tests is None
                   and self.config_dir == CONFIG_DIR)
        self.default_inputs = default
        self.reference_digest = REFERENCE_DIGEST if default else None
        self.reference_summary: Optional[str] = None
        self._trees: Dict[str, Path] = {}
        self._incremental: Optional[bool] = None
        self._warm_cache: Optional[Path] = None
        self.setup_problems: List[str] = []

    # -- set-up (untimed) ---------------------------------------------------

    def tree(self, kind: str) -> Path:
        """``src`` (the checkout), ``pristine`` (a copy) or ``edited`` (a
        copy with a behaviour-neutral line in ProgrammingMaster._clk),
        byte-compiled so no round pays for it."""
        if kind not in self._trees:
            if kind == "src":
                path = SRC
            else:
                path = self.work / kind
                shutil.copytree(SRC, path, ignore=shutil.ignore_patterns(
                    "__pycache__", "*.pyc"))
            if kind == "edited":
                prog = path / "repro" / "catg" / "prog.py"
                text = prog.read_text(encoding="utf-8")
                if text.count(CLK_MARKER) != 1:
                    raise RuntimeError(f"cannot find {CLK_MARKER!r} in "
                                       f"{prog}")
                prog.write_text(text.replace(
                    CLK_MARKER, CLK_MARKER + "\n        _bench_probe = 0", 1),
                    encoding="utf-8")
            compileall.compile_dir(str(path), quiet=1)
            self._trees[kind] = path
        return self._trees[kind]

    def env(self, tree: Path) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(tree)
        for name in ("REPRO_CACHE_DIR", "REPRO_CHAOS"):
            env.pop(name, None)
        return env

    def incremental(self) -> bool:
        """Pass ``--incremental`` only while the CLI still offers it."""
        if self._incremental is None:
            tree = self.tree("pristine")
            help_text = subprocess.run(
                [sys.executable, "-m", "repro.regression", "--help"],
                env=self.env(tree), capture_output=True, text=True,
                timeout=60, check=True).stdout
            self._incremental = "--incremental" in help_text
        return self._incremental

    def prepare(self, workload: Workload) -> None:
        self.tree(self.tree_kind(workload))
        if workload.cache == "warm_edit" and self._warm_cache is None:
            # Any cold batch stores the same entries; two processes
            # make this untimed one shorter.
            cache = self.work / "warm_cache"
            outcome = self._batch(Workload("warm_fixture", 2, "cold"),
                                  self.work / "warm_setup", cache)
            shutil.rmtree(self.work / "warm_setup", ignore_errors=True)
            self.setup_problems += outcome["problems"]
            self._warm_cache = cache

    @staticmethod
    def tree_kind(workload: Workload) -> str:
        return {None: "src", "cold": "pristine",
                "warm_edit": "edited"}[workload.cache]

    def cli_args(self, workload: Workload, workdir: Path,
                 cache: Optional[Path]) -> List[str]:
        args = [str(self.config_dir), "--workdir", str(workdir),
                "--jobs", str(workload.jobs),
                "--seeds", *map(str, self.seeds)]
        if self.tests:
            args += ["--tests", *self.tests]
        if cache is not None:
            args += ["--cache-dir", str(cache)]
            if self.incremental():
                args.append("--incremental")
        return args

    def _cache_for(self, workload: Workload, rdir: Path) -> Optional[Path]:
        if workload.cache is None:
            return None
        cache = rdir / "cache"
        if workload.cache == "warm_edit":
            shutil.copytree(self._warm_cache, cache)
        return cache

    # -- one batch ----------------------------------------------------------

    def _batch(self, workload: Workload, rdir: Path,
               cache: Optional[Path] = None) -> dict:
        """One untraced batch: metrics plus every correctness check."""
        self.prepare(workload)
        shutil.rmtree(rdir, ignore_errors=True)
        rdir.mkdir(parents=True)
        if cache is None:
            cache = self._cache_for(workload, rdir)
        before = count_entries(cache)
        workdir = rdir / "out"
        # Write back earlier rounds' files now, not during this batch.
        os.sync()
        child = run_child(
            [sys.executable, "-m", "repro.regression",
             *self.cli_args(workload, workdir, cache)],
            self.env(self.tree(self.tree_kind(workload))), rdir)
        outcome, complete = self.check(workload, child, workdir,
                                       stores=count_entries(cache) - before)
        if complete is not None:
            wall = complete["wall_seconds"]
            outcome["metrics"] = {
                "batch_wall_s": child.wall_s,
                "setup_s": child.wall_s - wall,
                "runs_per_s": complete["n_runs"] / wall,
                "cpu_s": child.cpu_s,
                "peak_rss_mb": child.maxrss_kb / 1024.0,
            }
        return outcome

    def run_round(self, workload: Workload, index: int | str) -> dict:
        rdir = self.work / workload.name / f"r{index}"
        try:
            return self._batch(workload, rdir)
        finally:
            shutil.rmtree(rdir, ignore_errors=True)

    def check(self, workload: Workload, child: ChildRun, workdir: Path,
              stores: Optional[int]):
        """Correctness of one batch: exit status, every report entry, the
        artifact digest against the reference, and the cache counters.
        Returns the outcome (attempted, failed, problems) and the CLI's
        ``batch.complete`` record (None if the batch did not finish)."""
        attempted = self.n_runs + self.n_entries
        complete = batch_complete(child.stderr)
        if complete is None or child.rc not in (0, 1):
            return {"attempted": attempted, "failed": attempted,
                    "problems": [f"{workload.name}: exit {child.rc}: "
                                 f"{child.stderr.strip()[-400:]}"]}, None
        failed, problems = failed_jobs(workdir, self.n_entries)
        signed_off = complete.get("all_signed_off")
        if child.rc != (0 if signed_off else 1) or (
                self.default_inputs and not signed_off):
            failed += 1
            problems.append(f"exit {child.rc} with all_signed_off="
                            f"{signed_off}")
        digest = tree_digest(workdir)
        summary = (workdir / "regression_summary.txt").read_text(
            encoding="utf-8")
        if self.reference_digest is None:
            self.reference_digest = digest
        if self.reference_summary is None:
            self.reference_summary = summary
        if digest != self.reference_digest:
            failed += 1
            problems.append(f"artifact digest {digest[:16]} differs from "
                            f"the reference {self.reference_digest[:16]}")
        if summary != self.reference_summary:
            failed += 1
            problems.append("regression_summary.txt differs from the "
                            "reference")
        want = {"cold": self.n_runs, "warm_edit": self.n_warm_misses}.get(
            workload.cache)
        if None not in (want, stores) and stores != want:
            failed += 1
            problems.append(f"cache stored {stores} entries, expected {want}")
        return {"attempted": attempted, "failed": failed,
                "problems": [f"{workload.name}: {p}" for p in problems]
                }, complete

    # -- one traced batch ---------------------------------------------------

    def traced_run(self, workload: Workload, untraced_wall: float,
                   chrome: Path) -> dict:
        """One batch under traced.py; the per-layer table plus checks."""
        self.prepare(workload)
        rdir = self.work / workload.name / "traced"
        shutil.rmtree(rdir, ignore_errors=True)
        rdir.mkdir(parents=True)
        try:
            cache = self._cache_for(workload, rdir)
            workdir, spans_out = rdir / "out", rdir / "spans.json"
            metrics_out = rdir / "metrics.json"
            chrome.parent.mkdir(parents=True, exist_ok=True)
            os.sync()
            child = run_child(
                [sys.executable, str(HERE / "traced.py"),
                 "--out", str(spans_out), "--chrome", str(chrome), "--",
                 *self.cli_args(workload, workdir, cache),
                 "--metrics-out", str(metrics_out), "--time-processes"],
                self.env(self.tree(self.tree_kind(workload))), rdir)
            outcome, _ = self.check(workload, child, workdir, stores=None)
            if not spans_out.is_file() or not metrics_out.is_file():
                outcome["failed"] = outcome["attempted"]
                outcome["problems"].append(
                    f"{workload.name}: traced batch wrote no spans/metrics")
                return outcome
            traced = json.loads(spans_out.read_text(encoding="utf-8"))
            metrics = json.loads(metrics_out.read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(rdir, ignore_errors=True)
        traced_wall = traced["end_ts"] - child.started
        table = layer_table(traced, traced_wall, metrics)
        table["trace.overhead_pct"] = (traced_wall / untraced_wall - 1) * 100
        n_executed = {"warm_edit": self.n_warm_misses}.get(
            workload.cache, self.n_runs)
        calls = Counter(span["name"] for span in traced["spans"])
        problems = call_mismatches(calls, expected_calls(
            n_configs=self.n_configs, n_runs=self.n_runs,
            n_executed=n_executed, n_compares=self.n_entries,
            cached=workload.cache is not None, spans=traced["spans"]))
        if workload.cache is not None:
            want = (self.n_runs - n_executed, n_executed, n_executed)
            got = tuple(table[f"cache.{k}"]
                        for k in ("hits", "misses", "stores"))
            if got != want:
                problems.append(f"cache hits/misses/stores {got}, "
                                f"expected {want}")
        outcome["failed"] += len(problems)
        outcome["problems"] += [f"{workload.name} traced: {p}"
                                for p in problems]
        outcome["traced_wall_s"] = traced_wall
        outcome["layers"] = table
        return outcome


# -- measurement ------------------------------------------------------------


def measure(harness: Harness, workloads: Sequence[Workload], *,
            rounds: Optional[int] = None, seconds: Optional[float] = None,
            trace: Optional[int] = None) -> dict:
    """One untimed warm-up round and then timed rounds, interleaved
    across ``workloads``; then (unless ``trace == 0``) one traced batch
    per workload."""
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    results = {w.name: {"rounds": [], "attempted": 0, "failed": 0,
                        "problems": []} for w in workloads}

    def account(workload: Workload, outcome: dict) -> None:
        result = results[workload.name]
        result["attempted"] += outcome["attempted"]
        result["failed"] += outcome["failed"]
        result["problems"] += outcome["problems"]

    for workload in workloads:
        harness.prepare(workload)
    # A workload's first batch reads its source tree cold and ran 15-30%
    # slower than the rest, so it is checked but not timed.
    for workload in workloads:
        account(workload, harness.run_round(workload, "warmup"))
    start = time.perf_counter()
    n = 0
    while True:
        for workload in workloads:
            outcome = harness.run_round(workload, n)
            account(workload, outcome)
            if "metrics" in outcome:
                results[workload.name]["rounds"].append(outcome["metrics"])
        n += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if n >= rounds:
                break
        # Start no round that would end past ``seconds``.
        elif (n >= MIN_ROUNDS and elapsed * (n + 1) / n > seconds) \
                or elapsed > MAX_TIMED_S:
            break
    for workload in workloads:
        result = results[workload.name]
        if harness.setup_problems and workload.cache == "warm_edit":
            result["failed"] += len(harness.setup_problems)
            result["problems"] += harness.setup_problems
        result["metrics"] = {
            name: dict(summarize([r[name] for r in result["rounds"]],
                                 e2e[name]["bound"]), unit=e2e[name]["unit"])
            for name in E2E_METRICS if result["rounds"]
        }
        if trace == 0 or not result["rounds"] or result["failed"]:
            continue
        traced = harness.traced_run(
            workload, result["metrics"]["batch_wall_s"]["median"],
            WORK_ROOT / "traces" / f"{workload.name}.trace.json")
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["problems"] += traced["problems"]
        result["layers"] = traced.get("layers")
        result["traced_wall_s"] = traced.get("traced_wall_s")
    for result in results.values():
        result["correct"] = result["failed"] == 0 and bool(result["rounds"])
    return results


# -- printing ---------------------------------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}" if abs(value) < 1000 else f"{value:.0f}"
    return f"{int(value)}"


def print_table(rows: List[List[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def print_results(results: dict) -> None:
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    rows = [["workload", "metric", "unit", "better", "median", "q1", "q3",
             "rounds", "bound", "iqr/median", "status"]]
    for name, result in results.items():
        for metric, stats in result["metrics"].items():
            rows.append([name, metric, stats["unit"], better[metric],
                         _fmt(stats["median"]), _fmt(stats["q1"]),
                         _fmt(stats["q3"]), str(stats["n"]),
                         f"{stats['bound']:.0%}", f"{stats['spread']:.1%}",
                         "ok" if stats["resolved"] else "unresolved"])
    print("End-to-end metrics (median over timed rounds)")
    print_table(rows)
    for name, result in results.items():
        layers = result.get("layers")
        if not layers:
            continue
        wall = result["traced_wall_s"]
        total = sum(layers[row] for row in TIME_ROWS)
        print(f"\nPer-layer table: {name} (traced wall {wall:.3f} s; rows "
              f"sum to {total:.3f} process-seconds)")
        rows = [["layer", "unit", "value", "share of traced wall"]]
        for row in TIME_ROWS:
            rows.append([row, "s", f"{layers[row]:.4f}",
                         f"{layers[row] / wall:.1%}"])
        for key in sorted(k for k in layers if k not in TIME_ROWS):
            rows.append([key, unit_of(key), _fmt(layers[key]), ""])
        print_table(rows)
    for name, result in results.items():
        status = "correct" if result["correct"] else "INCORRECT"
        print(f"\n{name}: {status}: {result['failed']} of "
              f"{result['attempted']} jobs failed")
        for problem in result["problems"][:20]:
            print(f"  {problem}")
        layers = result.get("layers")
        if layers and layers["unattributed_s"] > \
                UNATTRIBUTED_BUDGET * result["traced_wall_s"]:
            print(f"  warning: unattributed_s is over "
                  f"{UNATTRIBUTED_BUDGET:.0%} of the traced wall")


def result_line(result: dict, trace: int) -> str:
    """The last line for a single-workload run: every end-to-end metric
    (``trace == 0``) or every per-layer metric (``trace == 1``)."""
    spec = load_spec()
    metrics = {}
    if trace == 0:
        for m in spec["end_to_end"]:
            stats = result["metrics"].get(m["name"])
            if stats:
                metrics[m["name"]] = {"value": stats["median"],
                                      "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            layers = result.get("layers") or {}
            if m["name"] in layers:
                metrics[m["name"]] = {"value": layers[m["name"]],
                                      "unit": m["unit"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# -- compare ----------------------------------------------------------------


def compare(base: dict, new: dict) -> int:
    """Print one verdict row per (workload, end-to-end metric) and each
    layer's self-time delta.  Exit 1 on a ``worse`` row or on a count
    metric that differs (counts repeat exactly for the same seeds)."""
    spec = load_spec()
    rows = [["workload", "metric", "base median [q1, q3]",
             "new median [q1, q3]", "bound", "verdict"]]
    bad = 0
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        b, n = base["workloads"][name], new["workloads"][name]
        for m in spec["end_to_end"]:
            metric = m["name"]
            bv = [r[metric] for r in b["rounds"]]
            nv = [r[metric] for r in n["rounds"]]
            if not bv or not nv:
                continue
            result = verdict(bv, nv, m["better"], m["bound"])
            bad += result == "worse"
            bq, nq = quartiles(bv), quartiles(nv)
            rows.append([name, metric,
                         f"{_fmt(bq[1])} [{_fmt(bq[0])}, {_fmt(bq[2])}]",
                         f"{_fmt(nq[1])} [{_fmt(nq[0])}, {_fmt(nq[2])}]",
                         f"{m['bound']:.0%}", result])
    print_table(rows)
    for name in base["workloads"]:
        bl = base["workloads"][name].get("layers")
        nl = new["workloads"].get(name, {}).get("layers")
        if not bl or not nl:
            continue
        print(f"\nLayer self time: {name}")
        rows = [["layer", "base s", "new s", "delta s"]]
        for row in TIME_ROWS:
            rows.append([row, f"{bl[row]:.4f}", f"{nl[row]:.4f}",
                         f"{nl[row] - bl[row]:+.4f}"])
        print_table(rows)
        for key in sorted(bl):
            if unit_of(key) == "count" and bl[key] != nl.get(key):
                bad += 1
                print(f"  count changed: {key} {_fmt(bl[key])} -> "
                      f"{_fmt(nl.get(key, 0))}")
    return 1 if bad else 0


# -- command line -----------------------------------------------------------


def host_info() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine()}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        with open(args.base, encoding="utf-8") as handle:
            base = json.load(handle)
        with open(args.new, encoding="utf-8") as handle:
            new = json.load(handle)
        return compare(base, new)

    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int,
                       help="input seed N >= 0: regression seeds 2N+1 2N+2")
    seeds.add_argument("--seeds", type=int, nargs=2,
                       default=list(DEFAULT_SEEDS),
                       help="regression seeds (default: 1 2)")
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--rounds", type=int,
                        help="timed rounds per workload (default: 5)")
    length.add_argument("--seconds", type=float,
                        help="time each workload for at most this long "
                             "(at least 3 rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: also the "
                             "traced run, and report per-layer metrics "
                             "(default: both, full tables)")
    parser.add_argument("--out", help="write every result to this JSON "
                                      "file (input to compare)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "regression" / "cli.py").is_file():
        print(f"error: no program to benchmark under {SRC}",
              file=sys.stderr)
        return 2
    seed_list = ([2 * args.seed + 1, 2 * args.seed + 2]
                 if args.seed is not None else args.seeds)
    workloads = [WORKLOADS[name] for name in
                 (args.workload or list(WORKLOADS))]
    rounds = args.rounds if args.rounds or args.seconds else 5

    # A fixed path, so a run that was killed leaves nothing behind for
    # long: the next run starts by clearing it.
    work = WORK_ROOT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        harness = Harness(work, seeds=seed_list)
        results = measure(harness, workloads, rounds=rounds,
                          seconds=args.seconds, trace=args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_results(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"host": host_info(), "seeds": seed_list,
                       "workloads": results}, handle, indent=1)
            handle.write("\n")
    if args.trace is not None and len(workloads) == 1:
        print(result_line(results[workloads[0].name], args.trace))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
