"""The regression tool (batch mode).

"The regression tool, which is developed internally to run regression
flow, generates and compiles these files. ... It runs regression tests in
batch mode, through generic scripts that are design independent.  For each
test file associated with the test seed, a verification report and a
functional coverage one are generated.  Moreover, an associated VCD file
... is generated so that it can be used later for bus accurate comparison.
... It applies same test cases on both [models] with same seeds.  So that
it can later proceed to alignment comparison activity, if all checkers
passed."

The GUI of the original tool is replaced by this programmatic API (and the
``examples/`` scripts); everything else — same tests, same seeds, both
views, VCD dumps, reports, automatic analyzer invocation — is here.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analyzer import AlignmentReport
from ..catg.coverage import CoverageModel, build_node_coverage
from ..catg.env import KERNELS, RunResult
from ..ioutil import atomic_write
from ..stbus import NodeConfig
from ..telemetry import BatchTelemetry, TelemetryConfig
from .resilience import ResilienceConfig, ResilientBatchExecutor, RunFailure
from .testcases import TESTCASES

#: Failure-status precedence when an entry carries more than one fault.
_FAULT_PRIORITY = ("QUARANTINED", "TIMEOUT", "ERROR")


@dataclass
class TestEntry:
    """One (config, test, seed): both view runs plus the comparison.

    ``rtl``/``bca`` are normally :class:`~repro.catg.env.RunResult`; when
    the resilience layer absorbed an infrastructure fault (worker crash,
    watchdog timeout, quarantine) the affected view holds a
    :class:`~repro.regression.resilience.RunFailure` instead, and a
    comparison that itself failed is recorded in ``compare_failure``.
    """

    config_name: str
    test_name: str
    seed: int
    rtl: RunResult
    bca: RunResult
    alignment: Optional[AlignmentReport] = None
    compare_failure: Optional[RunFailure] = None
    #: Auto-triage payload (:class:`~repro.triage.TriageReport`) attached
    #: when the entry failed and the batch ran with ``triage=True``.
    triage: Optional[object] = None

    @property
    def both_passed(self) -> bool:
        return self.rtl.passed and self.bca.passed

    @property
    def has_faults(self) -> bool:
        """True when an infrastructure fault (not a checker failure)
        touched this entry."""
        return (
            isinstance(self.rtl, RunFailure)
            or isinstance(self.bca, RunFailure)
            or self.compare_failure is not None
        )

    @property
    def failures(self) -> List[RunFailure]:
        out = [view for view in (self.rtl, self.bca)
               if isinstance(view, RunFailure)]
        if self.compare_failure is not None:
            out.append(self.compare_failure)
        return out

    @property
    def status(self) -> str:
        """``PASS``/``FAIL`` for fault-free entries (checker verdict),
        else the most severe fault status."""
        faults = self.failures
        if not faults:
            return "PASS" if self.both_passed else "FAIL"
        statuses = {failure.status for failure in faults}
        for status in _FAULT_PRIORITY:
            if status in statuses:
                return status
        return "ERROR"

    @property
    def coverage_equal(self) -> bool:
        """The paper's requirement: same tests => equal functional coverage."""
        if isinstance(self.rtl, RunFailure) or isinstance(self.bca, RunFailure):
            return False
        return (
            self.rtl.coverage.hit_signature()
            == self.bca.coverage.hit_signature()
        )

    @staticmethod
    def _view_text(view) -> str:
        if isinstance(view, RunFailure):
            return view.status
        return "ok" if view.passed else "FAIL"

    def summary(self) -> str:
        if not self.has_faults:
            align = (
                f" align={self.alignment.min_rate * 100:.2f}%"
                if self.alignment is not None else ""
            )
            status = "PASS" if self.both_passed else "FAIL"
            return (
                f"{status} {self.config_name} {self.test_name} "
                f"seed={self.seed}"
                f" rtl={'ok' if self.rtl.passed else 'FAIL'}"
                f" bca={'ok' if self.bca.passed else 'FAIL'}"
                f" cov_eq={'yes' if self.coverage_equal else 'NO'}{align}"
            )
        parts = [
            f"{self.status} {self.config_name} {self.test_name} "
            f"seed={self.seed}",
            f"rtl={self._view_text(self.rtl)}",
            f"bca={self._view_text(self.bca)}",
        ]
        if not isinstance(self.rtl, RunFailure) \
                and not isinstance(self.bca, RunFailure):
            parts.append(f"cov_eq={'yes' if self.coverage_equal else 'NO'}")
        if self.compare_failure is not None:
            parts.append(f"align={self.compare_failure.status}")
        elif self.alignment is not None:
            parts.append(f"align={self.alignment.min_rate * 100:.2f}%")
        return " ".join(parts)


@dataclass
class ConfigReport:
    """Regression outcome for one node configuration."""

    config: NodeConfig
    entries: List[TestEntry] = field(default_factory=list)
    rtl_coverage: Optional[CoverageModel] = None
    bca_coverage: Optional[CoverageModel] = None

    @property
    def all_passed(self) -> bool:
        return all(entry.both_passed for entry in self.entries)

    @property
    def full_functional_coverage(self) -> bool:
        return (
            self.rtl_coverage is not None
            and self.rtl_coverage.percent >= 100.0
            and self.bca_coverage is not None
            and self.bca_coverage.percent >= 100.0
        )

    @property
    def min_alignment(self) -> float:
        rates = [
            entry.alignment.min_rate
            for entry in self.entries if entry.alignment is not None
        ]
        return min(rates) if rates else 1.0

    @property
    def has_faults(self) -> bool:
        return any(entry.has_faults for entry in self.entries)

    def quarantined_failures(self) -> List["RunFailure"]:
        return [
            failure
            for entry in self.entries
            for failure in entry.failures
            if failure.quarantined
        ]

    @property
    def signed_off(self) -> bool:
        """The flow's BCA sign-off: everything green, coverage full, every
        port of every run at or above the 99% alignment threshold — and
        no run lost to an infrastructure fault."""
        from ..analyzer import SIGNOFF_THRESHOLD

        return (
            not self.has_faults
            and self.all_passed
            and self.full_functional_coverage
            and self.min_alignment >= SIGNOFF_THRESHOLD
            and all(entry.coverage_equal for entry in self.entries)
        )

    def render(self) -> str:
        lines = [
            f"Configuration {self.config.name}: "
            f"{'SIGNED OFF' if self.signed_off else 'not signed off'}",
            f"  tests: {len(self.entries)}, all passed: {self.all_passed}",
        ]
        if self.rtl_coverage is not None:
            lines.append(
                f"  functional coverage: rtl {self.rtl_coverage.percent:.1f}%"
                f" bca {self.bca_coverage.percent:.1f}%"
            )
        lines.append(f"  min port alignment: {self.min_alignment * 100:.2f}%")
        for entry in self.entries:
            lines.append("  " + entry.summary())
        quarantined = self.quarantined_failures()
        if quarantined:
            lines.append(f"  quarantined: {len(quarantined)} job(s)")
            for failure in quarantined:
                lines.append(
                    f"    {failure.config_name} {failure.test_name} "
                    f"seed={failure.seed} view={failure.view}"
                )
                for item in failure.history:
                    lines.append(f"      {item}")
        triaged = [entry for entry in self.entries
                   if entry.triage is not None]
        if triaged:
            # Present only when failures were auto-triaged; fault-free
            # (and triage-disabled) reports stay byte-identical.
            lines.append("  Triage:")
            for entry in triaged:
                for line in entry.triage.render().rstrip("\n").split("\n"):
                    lines.append("    " + line)
        return "\n".join(lines) + "\n"


@dataclass
class RegressionReport:
    """Whole-regression outcome across all configurations."""

    configs: List[ConfigReport] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def all_signed_off(self) -> bool:
        return all(config.signed_off for config in self.configs)

    @property
    def n_runs(self) -> int:
        return 2 * sum(len(c.entries) for c in self.configs)

    def render(self) -> str:
        # Deliberately excludes wall_seconds: the rendered summary (and
        # the regression_summary.txt artifact) must be byte-identical
        # between serial and parallel runs of the same matrix.
        lines = [
            f"Regression: {len(self.configs)} configurations, "
            f"{self.n_runs} runs",
            f"All signed off: {self.all_signed_off}",
        ]
        for config in self.configs:
            status = "SIGNED OFF" if config.signed_off else "NOT SIGNED OFF"
            lines.append(
                f"  {config.config.name:<48} {status} "
                f"(align {config.min_alignment * 100:6.2f}%, "
                f"cov rtl {config.rtl_coverage.percent:5.1f}% / "
                f"bca {config.bca_coverage.percent:5.1f}%)"
            )
        return "\n".join(lines) + "\n"


class RegressionRunner:
    """Runs the same seeded suite on both views and compares the dumps.

    Parameters
    ----------
    configs:
        Node configurations (e.g. from
        :func:`~repro.regression.configs.load_config_dir` or
        :func:`~repro.regression.configs.configuration_matrix`).
    tests:
        Test-case names (default: all twelve).
    seeds:
        Seeds applied to *every* test on *both* views.
    workdir:
        Where VCDs and text reports go; None disables VCD dumping (and
        therefore alignment comparison).
    bca_bugs:
        Seeded bugs for the BCA view (experiments only).
    jobs:
        Number of worker processes for the batch.  ``1`` (default) runs
        everything serially in this process; ``N > 1`` fans the
        independent (config, test, seed, view) runs — and the
        bus-accurate comparisons behind them — out over a process pool.
        The assembled report and every artifact are byte-identical
        either way.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryConfig`.  When any of
        its outputs is set, every run records phase spans, kernel
        counters and structured log records, and :meth:`run` exports the
        metrics/trace/log side-channel files.  The report artifacts stay
        byte-identical with or without telemetry.
    resilience:
        Optional :class:`~repro.regression.resilience.ResilienceConfig`
        tuning the fault-tolerance layer (per-run deadline, retry
        budget, backoff).  The default policy is always
        active — a crashed worker yields an ``ERROR`` entry instead of
        aborting the batch — and a fault-free batch stays byte-identical
        to an unguarded one.
    triage:
        Auto-triage failed entries: after the comparison stage, walk
        both dumps in lockstep to the first diverging (signal, cycle)
        point, rank the processes in its fan-in cone, and emit a
        ``<config>__<test>__s<seed>__triage.json`` minimal repro per
        failure; the per-config report gains a "Triage" section.  A
        fault-free batch never schedules a triage, so its artifacts stay
        byte-identical with the flag on or off.
    workers:
        Distributed worker processes.  ``0`` (default) keeps the batch
        local; ``N > 0`` shards the jobs across N leased loopback
        workers (``python -m repro.regression.worker``), degrading to
        the local executor when none is reachable.  Artifacts are
        byte-identical to a local batch at any worker count.
    cache_dir:
        Root of the content-addressed result cache
        (:class:`~repro.cache.ResultCache`).  ``None`` disables
        caching.  A verified hit replays the run's artifacts byte-
        for-byte without simulating; corrupt entries are quarantined
        and re-executed, never served.  Every run is stored as it
        completes, so rerunning an interrupted batch against the same
        cache resumes it.
    distributed:
        Optional
        :class:`~repro.regression.distributed.DistributedConfig`
        overriding the cluster knobs (lease/heartbeat/respawn budget);
        implies ``workers`` from its own field when given.
    incremental:
        Key cache entries on cone-scoped semantic fingerprints
        (:class:`~repro.analysis.impact.ImpactIndex`) instead of the
        monolithic design-source hash, so a warm cache survives
        comment-only/formatting edits and edits to processes a design
        does not instantiate; everything a change can affect still
        re-executes (conservative fallbacks, never stale).  Requires
        ``cache_dir``.  Both the populating and the consuming batch
        must run incrementally for the refined keys to match.
    """

    def __init__(
        self,
        configs: Sequence[NodeConfig],
        tests: Optional[Iterable[str]] = None,
        seeds: Sequence[int] = (1,),
        workdir: Optional[str] = None,
        compare_waveforms: bool = True,
        bca_bugs=(),
        with_arbitration_checker: bool = True,
        jobs: int = 1,
        telemetry: Optional[TelemetryConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
        unr: bool = False,
        kernel: str = "delta",
        triage: bool = False,
        workers: int = 0,
        cache_dir: Optional[str] = None,
        distributed=None,
        incremental: bool = False,
    ):
        self.configs = list(configs)
        self.tests = list(tests) if tests is not None else list(TESTCASES)
        unknown = set(self.tests) - set(TESTCASES)
        if unknown:
            raise KeyError(f"unknown test cases: {sorted(unknown)}")
        self.seeds = list(seeds)
        self.workdir = workdir
        self.compare_waveforms = compare_waveforms and workdir is not None
        self.bca_bugs = bca_bugs
        self.with_arbitration_checker = with_arbitration_checker
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryConfig()
        )
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        #: Annotate per-config reports with static UNR verdicts.  Off by
        #: default: with it off, every artifact stays byte-identical to a
        #: runner without the feature.
        self.unr = unr
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        #: Simulation engine every run executes under; artifacts are
        #: byte-identical across engines, so it is deliberately excluded
        #: from the cache key.
        self.kernel = kernel
        #: Auto-triage failed entries: walk both dumps to the first
        #: divergence, rank the fan-in cone suspects and write a
        #: ``triage.json`` minimal repro per failure.  Requires the
        #: comparison stage (dumps); triage never touches a cache key, so
        #: a cached batch may be rerun with triage toggled.
        self.triage = triage and self.compare_waveforms
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if distributed is not None:
            workers = distributed.workers
        #: Distributed worker count (0 = local execution).
        self.workers = workers
        self.distributed = distributed
        #: Result-cache root (None = caching disabled).  The
        #: :class:`~repro.cache.ResultCache` itself is created per
        #: :meth:`run` so its hit/miss accounting is per-batch.
        self.cache_dir = cache_dir
        self.cache = None
        if incremental and not cache_dir:
            raise ValueError(
                "incremental regression requires a result cache "
                "(cache_dir)")
        #: Cone-scoped semantic cache keys (see
        #: :mod:`repro.analysis.impact`); the index itself is built per
        #: :meth:`run` so its fingerprints reflect the batch's configs.
        self.incremental = incremental
        self.impact = None
        if workdir:
            os.makedirs(workdir, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def _vcd_path(self, config: NodeConfig, test: str, seed: int,
                  view: str) -> Optional[str]:
        if not self.workdir:
            return None
        return os.path.join(
            self.workdir, f"{config.name}__{test}__s{seed}__{view}.vcd"
        )

    def _report_stem(self, config: NodeConfig, test: str, seed: int,
                     view: str) -> Optional[str]:
        if not self.workdir:
            return None
        return os.path.join(
            self.workdir, f"{config.name}__{test}__s{seed}__{view}"
        )

    def _triage_path(self, config: NodeConfig, test: str,
                     seed: int) -> Optional[str]:
        if not self.workdir:
            return None
        return os.path.join(
            self.workdir, f"{config.name}__{test}__s{seed}__triage.json"
        )

    def _triage_paths(self) -> Dict[Tuple[int, str, int], str]:
        if not self.triage:
            return {}
        return {
            (ci, test_name, seed): self._triage_path(
                self.configs[ci], test_name, seed)
            for ci, test_name, seed in self._entry_keys()
        }

    # -- execution --------------------------------------------------------------
    #
    # The batch is a flat list of independent (config, test, seed, view)
    # run jobs plus one optional comparison per (config, test, seed).
    # Serial and parallel modes execute the *same* jobs through the same
    # worker function (repro.regression.parallel.execute_run_job); only
    # the scheduling differs.  Assembly back into ConfigReports is a
    # single deterministic code path, so the report text, the coverage
    # merge order and every artifact are byte-identical for any ``jobs``.

    def _make_job(self, config: NodeConfig, test_name: str, seed: int,
                  view: str) -> "RunJob":
        from .parallel import RunJob

        telemetry = self.telemetry.enabled
        return RunJob(
            config=config,
            test_name=test_name,
            seed=seed,
            view=view,
            vcd_path=self._vcd_path(config, test_name, seed, view),
            report_stem=self._report_stem(config, test_name, seed, view),
            bugs=frozenset(self.bca_bugs),
            with_arbitration_checker=self.with_arbitration_checker,
            telemetry=telemetry,
            time_processes=telemetry and self.telemetry.time_processes,
            submitted_at=time.time() if telemetry else None,
            kernel=self.kernel,
        )

    def _entry_keys(self) -> List[Tuple[int, str, int]]:
        """Every (config index, test, seed) in deterministic batch order."""
        return [
            (ci, test_name, seed)
            for ci in range(len(self.configs))
            for test_name in self.tests
            for seed in self.seeds
        ]

    def _build_jobs(self):
        """Every run job of the batch, in deterministic serial order
        (entry by entry, rtl before bca)."""
        return {
            (ci, test_name, seed, view):
                self._make_job(self.configs[ci], test_name, seed, view)
            for ci, test_name, seed in self._entry_keys()
            for view in ("rtl", "bca")
        }

    def _make_executor(self, jobs_by_key, **kwargs):
        """The resilient executor for this batch: local (serial or
        pool) by default, the leased-worker coordinator when a
        distributed worker count is set."""
        if self.workers > 0:
            from .distributed import (
                DistributedBatchExecutor,
                DistributedConfig,
            )

            cluster = self.distributed or DistributedConfig(
                workers=self.workers)
            return DistributedBatchExecutor(
                jobs_by_key, distributed=cluster, **kwargs)
        return ResilientBatchExecutor(jobs_by_key, **kwargs)

    def _execute(self, batch):
        """Run the whole batch through the resilient executor (serial
        inline for ``jobs=1``, process pool otherwise, leased workers
        when distributed)."""
        jobs_by_key = self._build_jobs()
        if self.cache_dir:
            from ..cache import ResultCache

            resolver = None
            if self.incremental:
                from ..analysis.impact import ImpactIndex

                with batch.span("impact.index",
                                configs=len(self.configs)):
                    self.impact = ImpactIndex(self.configs)
                resolver = self.impact.resolver()
            self.cache = ResultCache(
                self.cache_dir, design_resolver=resolver)
            if self.impact is not None:
                # The per-design key decisions ride the cache's event
                # stream into the telemetry run log.
                self.cache.events.extend(self.impact.events)
        else:
            self.cache = None
        executor = self._make_executor(
            jobs_by_key,
            jobs=self.jobs,
            compare_waveforms=self.compare_waveforms,
            telemetry=self.telemetry.enabled,
            config=self.resilience,
            triage=self.triage,
            triage_paths=self._triage_paths(),
            tracer=batch,
            cache=self.cache,
        )
        return executor.execute()

    def _assemble(self, results, alignments, compare_failures=None,
                  triages=None) -> RegressionReport:
        compare_failures = compare_failures or {}
        triages = triages or {}
        report = RegressionReport()
        for ci, config in enumerate(self.configs):
            config_report = ConfigReport(config)
            config_report.rtl_coverage = build_node_coverage(config)
            config_report.bca_coverage = build_node_coverage(config)
            for test_name in self.tests:
                for seed in self.seeds:
                    entry = TestEntry(
                        config.name, test_name, seed,
                        results[(ci, test_name, seed, "rtl")],
                        results[(ci, test_name, seed, "bca")],
                        alignment=alignments.get((ci, test_name, seed)),
                        compare_failure=compare_failures.get(
                            (ci, test_name, seed)),
                        triage=triages.get((ci, test_name, seed)),
                    )
                    config_report.entries.append(entry)
                    if not isinstance(entry.rtl, RunFailure):
                        config_report.rtl_coverage.merge(entry.rtl.coverage)
                    if not isinstance(entry.bca, RunFailure):
                        config_report.bca_coverage.merge(entry.bca.coverage)
            if self.workdir:
                path = os.path.join(
                    self.workdir, f"{config.name}__report.txt"
                )
                with atomic_write(path) as handle:
                    handle.write(config_report.render())
                    handle.write("\n")
                    handle.write(config_report.rtl_coverage.render())
                    if self.unr:
                        handle.write("\n")
                        handle.write(self._unr_annotation(config_report))
            report.configs.append(config_report)
        return report

    @staticmethod
    def _unr_annotation(config_report: ConfigReport) -> str:
        """Static UNR verdicts joined against the run's coverage holes.

        Only written when the runner was built with ``unr=True``; the
        per-config report is byte-identical to a pre-UNR runner
        otherwise.
        """
        from ..analysis.unr import analyze_unreachability

        unr = analyze_unreachability(config_report.config)
        lines = [unr.render().rstrip("\n")]
        holes = config_report.rtl_coverage.holes()
        if holes:
            lines.append("  coverage holes vs static verdicts:")
            for hole in holes:
                group, _, bin_name = hole.partition(":")
                verdict = unr.verdict_for(group, bin_name)
                if verdict is None:
                    lines.append(f"    {hole}: no static verdict")
                else:
                    lines.append(
                        f"    {hole}: {verdict.verdict} — {verdict.reason}"
                    )
        else:
            lines.append(
                "  no coverage holes; every in-model bin was hit"
            )
        return "\n".join(lines) + "\n"

    def run(self) -> RegressionReport:
        batch = BatchTelemetry(self.telemetry, jobs=self.jobs)
        with batch.span("batch.execute", jobs=self.jobs):
            (results, alignments, compare_telemetry, compare_failures,
             triages, triage_telemetry, faults) = self._execute(batch)
        with batch.span("batch.assemble"):
            report = self._assemble(results, alignments, compare_failures,
                                    triages)
        report.wall_seconds = batch.stop()
        if self.workdir:
            path = os.path.join(self.workdir, "regression_summary.txt")
            with atomic_write(path) as handle:
                handle.write(report.render())
        batch.export(
            report=report, results=results, alignments=alignments,
            compare_telemetry=compare_telemetry, configs=self.configs,
            tests=self.tests, seeds=self.seeds, faults=faults,
            triages=triages, triage_telemetry=triage_telemetry,
            cache=self.cache, impact=self.impact,
        )
        return report
