"""Parallel batch execution for the regression tool.

The paper's regression tool "runs regression tests in batch mode" across
many node configurations and seeds; every (config, test, seed, view) run
is independent of every other — the test factories are deterministic in
(config, seed), both views rebuild the test from scratch, and each run
owns its VCD/report files.  That makes the batch embarrassingly
parallel: this module describes each run, comparison and triage as a
plain picklable job plus the function that executes it, so the
leased workers of :mod:`repro.regression.distributed` and the inline
path run identical code, while the
:class:`~repro.regression.runner.RegressionRunner` assembles the results
in the same deterministic order as a serial run — so the final
:class:`~repro.regression.runner.RegressionReport` (entry order,
coverage merge, sign-off verdict, rendered text) is byte-identical for
``jobs=1`` and ``jobs=N``.

Everything that crosses the process boundary is a plain picklable value:
a job in, one result out — a :class:`~repro.catg.env.RunResult`, an
:class:`~repro.analyzer.AlignmentReport` or a
:class:`~repro.triage.TriageReport`, each carrying its own telemetry
payload.  Workers rebuild the test
program locally instead of shipping it, exactly as the serial path does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ..analyzer import AlignmentReport, compare_vcds
from ..catg.env import RunResult, run_test
from ..ioutil import atomic_write
from ..stbus import NodeConfig
from ..telemetry import RunRecorder
from .testcases import build_test

#: (config index, test name, seed) — one regression entry (both views).
EntryKey = Tuple[int, str, int]
#: EntryKey plus the view — one simulation run.
RunKey = Tuple[int, str, int, str]


@dataclass(frozen=True)
class RunJob:
    """One simulation run, fully described by picklable values."""

    config: NodeConfig
    test_name: str
    seed: int
    view: str
    vcd_path: Optional[str]
    report_stem: Optional[str]
    bugs: FrozenSet[str]
    #: Record per-run telemetry (phase spans, structured log records)
    #: and attach it to the returned RunResult.
    telemetry: bool = False
    #: Enable kernel per-process wall-time accounting.
    time_processes: bool = False
    #: Wall-clock (epoch) submission time; queue wait = start - submit.
    submitted_at: Optional[float] = None

    #: Which of the three job kinds this is (a class attribute, not a
    #: field, so it never crosses the pipe).
    kind = "run"

    @property
    def coordinates(self) -> Tuple[str, str, int, str]:
        """(config, test, seed, view): where the job sits in the batch."""
        return (self.config.name, self.test_name, self.seed, self.view)


@dataclass(frozen=True)
class CompareJob:
    """One bus-accurate comparison, fully described by picklable values."""

    rtl_vcd: str
    bca_vcd: str
    config_name: str
    test_name: str
    seed: int
    telemetry: bool = False
    submitted_at: Optional[float] = None

    kind = "compare"

    @property
    def coordinates(self) -> Tuple[str, str, int, str]:
        return (self.config_name, self.test_name, self.seed, self.kind)


@dataclass(frozen=True)
class TriageJob:
    """One failure triage, fully described by picklable values.

    Scheduled only for entries that failed (checkers or alignment); the
    worker walks both dumps to the first divergence, ranks the fan-in
    cone suspects and writes the ``triage.json`` minimal-repro artifact.
    """

    config: NodeConfig
    test_name: str
    seed: int
    rtl_vcd: str
    bca_vcd: str
    out_path: Optional[str]
    bugs: FrozenSet[str]
    reason: str
    telemetry: bool = False
    submitted_at: Optional[float] = None

    kind = "triage"

    @property
    def coordinates(self) -> Tuple[str, str, int, str]:
        return (self.config.name, self.test_name, self.seed, self.kind)


def write_run_reports(stem: str, result: RunResult) -> None:
    """Per-(test, seed) artifacts: "a verification report and a
    functional coverage one are generated" (Section 4).  Written
    atomically so a worker killed mid-write never leaves a torn report
    a later rerun would trust."""
    with atomic_write(stem + ".report.txt") as handle:
        handle.write(result.report.render())
    with atomic_write(stem + ".coverage.txt") as handle:
        handle.write(result.coverage.render())


def execute_run_job(job: RunJob) -> RunResult:
    """Run one (config, test, seed, view); artifact files land where the
    serial path puts them.  Runs in a worker process under ``jobs=N`` and
    inline under ``jobs=1`` — identical code either way.

    A :class:`~repro.telemetry.RunRecorder` built in *this* process (a
    worker or the parent) records phase spans and structured log
    records when ``job.telemetry`` is set; its picklable payload (or
    ``None``) rides back on ``result.telemetry``.  Artifact bytes are
    identical either way.
    """
    recorder = RunRecorder(
        {"config": job.config.name, "test": job.test_name,
         "seed": job.seed, "view": job.view},
        submitted_at=job.submitted_at, enabled=job.telemetry,
    )
    ctx = recorder.context
    with recorder.span("generate", **ctx):
        test = build_test(job.test_name, job.config, job.seed)
    result = run_test(
        job.config, test, view=job.view,
        bugs=job.bugs if job.view == "bca" else (),
        vcd_path=job.vcd_path,
        telemetry=recorder.telemetry,
        time_processes=job.time_processes,
    )
    if job.report_stem:
        with recorder.span("report", **ctx):
            write_run_reports(job.report_stem, result)
    recorder.telemetry.log.log(
        "run.complete",
        passed=result.passed,
        timed_out=result.timed_out,
        cycles=result.cycles,
        wall_seconds=round(result.wall_seconds, 6),
        violations=len(result.report.violations),
    )
    result.telemetry = recorder.payload()
    return result


def execute_compare_job(job: CompareJob) -> AlignmentReport:
    """Run one bus-accurate comparison; its telemetry payload (``None``
    unless ``job.telemetry`` is set) rides on ``report.telemetry``."""
    recorder = RunRecorder(
        {"config": job.config_name, "test": job.test_name,
         "seed": job.seed, "view": "compare"},
        submitted_at=job.submitted_at, enabled=job.telemetry,
    )
    with recorder.span("compare", **recorder.context):
        report = compare_vcds(
            job.rtl_vcd, job.bca_vcd, telemetry=recorder.telemetry)
    recorder.telemetry.log.log(
        "compare.complete",
        min_rate=round(report.min_rate, 6),
        overall_rate=round(report.overall_rate, 6),
        signed_off=report.signed_off,
        cycles=report.total_cycles,
    )
    report.telemetry = recorder.payload()
    return report


def execute_triage_job(job: TriageJob) -> "TriageReport":
    """Triage one failed entry; its telemetry payload (``None`` unless
    ``job.telemetry`` is set) rides on ``report.telemetry``, triage
    spans and the ``triage.complete`` log record included."""
    from ..triage import triage_entry

    recorder = RunRecorder(
        {"config": job.config.name, "test": job.test_name,
         "seed": job.seed, "view": "triage"},
        submitted_at=job.submitted_at, enabled=job.telemetry,
    )
    with recorder.span("triage", **recorder.context):
        report = triage_entry(
            job.config, job.test_name, job.seed,
            job.rtl_vcd, job.bca_vcd,
            bugs=job.bugs, reason=job.reason, out_path=job.out_path,
            telemetry=recorder.telemetry,
        )
    report.telemetry = recorder.payload()
    return report


def default_jobs() -> int:
    """A sensible ``--jobs`` default for "use the machine": one worker
    per available CPU (respecting affinity masks under cgroups/taskset)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1
