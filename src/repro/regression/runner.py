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
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from ..analyzer import AlignmentReport
from ..catg.coverage import CoverageModel, build_node_coverage
from ..catg.env import RunResult
from ..ioutil import atomic_write
from ..stbus import NodeConfig
from ..telemetry import BatchTelemetry
from .distributed import DistributedBatchExecutor
from .parallel import EntryKey, RunJob
from .resilience import RunFailure
from .spec import BatchSpec


@dataclass
class TestEntry:
    """One (config, test, seed): both view runs plus the comparison.

    The runner makes one empty record per entry and the executor fills
    it in as the entry's jobs complete.  ``rtl``/``bca`` are normally
    :class:`~repro.catg.env.RunResult`; when the resilience layer
    absorbed an infrastructure fault (job crash, worker death, watchdog
    timeout) the affected view holds a
    :class:`~repro.regression.resilience.RunFailure` instead, and a
    comparison that itself failed is recorded in ``compare_failure``.
    """

    config_name: str
    test_name: str
    seed: int
    rtl: Optional[RunResult] = None
    bca: Optional[RunResult] = None
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
        else the most severe fault status (``TIMEOUT`` over ``ERROR``)."""
        faults = self.failures
        if not faults:
            return "PASS" if self.both_passed else "FAIL"
        if any(failure.timed_out for failure in faults):
            return "TIMEOUT"
        return "ERROR"

    @cached_property
    def coverage_equal(self) -> bool:
        """The paper's requirement: same tests => equal functional coverage.

        Computed once per entry: the summary, the report and the sign-off
        all ask, and an entry's runs never change once it is built.
        """
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


@dataclass
class GateResult:
    """What the static gates found: one report per configuration and
    pass (empty for a pass the spec did not ask for)."""

    lint: list = field(default_factory=list)
    analysis: list = field(default_factory=list)

    @property
    def failed(self) -> list:
        """The reports with error-severity findings."""
        return [result for result in self.lint + self.analysis
                if result.has_errors]


class RegressionRunner:
    """Runs the same seeded suite on both views and compares the dumps.

    ``configs`` are the node configurations (e.g. from
    :func:`~repro.regression.configs.load_config_dir` or
    :func:`~repro.regression.configs.configuration_matrix`); ``spec``
    (a :class:`~repro.regression.spec.BatchSpec`) says everything else.
    :meth:`gate` runs the static gates, :meth:`run` the batch.
    """

    def __init__(self, configs: Sequence[NodeConfig], spec: BatchSpec):
        self.configs = list(configs)
        self.spec = spec
        #: The batch's :class:`~repro.cache.ResultCache` (None without a
        #: ``cache_dir``), created per :meth:`run` so its hit/miss
        #: accounting is per-batch.
        self.cache = None
        #: The cache's design-key index (see
        #: :mod:`repro.analysis.impact`), built per :meth:`run` so its
        #: fingerprints reflect the current sources; its manifest
        #: replaces the store's ``manifest.json`` when the batch ends.
        self.impact = None
        if spec.workdir:
            os.makedirs(spec.workdir, exist_ok=True)

    def gate(self) -> GateResult:
        """The static gates, before any cycle is simulated: the
        checker's structural tier over both views of every configuration
        with the spec's waivers (:func:`repro.lint.lint_config`), then,
        when the spec asks and no configuration failed that, its dataflow
        tier.  Both tiers read one build of a configuration's views,
        released before the next is built.  Front-ends call this before
        :meth:`run` and only render the result."""
        from .. import lint
        from ..analysis import DATAFLOW_RULES, analyze_config
        from ..analysis.runner import release_contexts

        spec = self.spec
        result = GateResult()
        analysis = []
        for config in self.configs:
            contexts = {} if spec.lint and spec.analysis else None
            if spec.lint:
                result.lint.append(lint.lint_config(
                    config, waivers=spec.waivers, contexts=contexts))
            if spec.analysis and not result.failed:
                analysis.append(analyze_config(
                    config, rules=DATAFLOW_RULES, waivers=spec.waivers,
                    contexts=contexts))
            if contexts:
                release_contexts(contexts)
        if not result.failed:
            result.analysis = analysis
        return result

    # -- paths ---------------------------------------------------------------

    def _stem(self, config: NodeConfig, test: str, seed: int,
              suffix: str) -> Optional[str]:
        """``WORKDIR/{config}__{test}__s{seed}__{suffix}``, or None
        without a workdir."""
        if not self.spec.workdir:
            return None
        return os.path.join(
            self.spec.workdir, f"{config.name}__{test}__s{seed}__{suffix}")

    # -- execution --------------------------------------------------------------
    #
    # The batch is one record per (config, test, seed) entry, filled in
    # by two independent run jobs (one per view), an optional comparison
    # and, for a failed entry, an optional triage.  Serial and parallel
    # modes execute the *same* jobs through the same guard
    # (repro.regression.resilience.guarded_execute); only the scheduling
    # differs.  Assembly groups the records by configuration in batch
    # order, so the report text, the coverage merge order and every
    # artifact are byte-identical for any ``jobs``.

    def _make_job(self, config: NodeConfig, test_name: str, seed: int,
                  view: str) -> RunJob:
        telemetry = self.spec.telemetry.enabled
        stem = self._stem(config, test_name, seed, view)
        return RunJob(
            config=config,
            test_name=test_name,
            seed=seed,
            view=view,
            vcd_path=stem + ".vcd" if stem else None,
            report_stem=stem,
            bugs=self.spec.bca_bugs,
            telemetry=telemetry,
            time_processes=telemetry and self.spec.telemetry.time_processes,
            submitted_at=time.time() if telemetry else None,
        )

    def _entries(self) -> Dict[EntryKey, TestEntry]:
        """One empty record per (config index, test, seed), in the
        batch order every stage follows."""
        return {
            (ci, test_name, seed): TestEntry(config.name, test_name, seed)
            for ci, config in enumerate(self.configs)
            for test_name in self.spec.tests
            for seed in self.spec.seeds
        }

    def _execute(self, batch, entries: Dict[EntryKey, TestEntry]):
        """Run the whole batch through the resilient executor (inline
        for ``jobs=1``, leased worker processes otherwise), filling in
        ``entries``; returns the batch's fault accounting."""
        jobs_by_key = {
            (ci, test_name, seed, view):
                self._make_job(self.configs[ci], test_name, seed, view)
            for ci, test_name, seed in entries
            for view in ("rtl", "bca")
        }
        triage_paths = {
            (ci, test_name, seed):
                self._stem(self.configs[ci], test_name, seed, "triage.json")
            for ci, test_name, seed in entries
        } if self.spec.triage else {}
        if self.spec.cache_dir:
            from ..analysis.impact import ImpactIndex
            from ..cache import ResultCache

            self.cache = ResultCache(self.spec.cache_dir)
            with batch.span("impact.index", configs=len(self.configs)):
                # Unchanged source files are summarized from the cache.
                self.impact = ImpactIndex(self.configs, store=self.cache)
                # A miss names what moved since the last cached batch.
                self.cache.design_change = self.impact.changes_since(
                    self.cache.manifest_path)
            self.cache.design_key = self.impact.resolver()
            # The per-design key decisions ride the cache's event stream
            # into the telemetry run log.
            self.cache.events.extend(self.impact.events)
        else:
            self.cache = None
        executor = DistributedBatchExecutor(
            entries, jobs_by_key, self.spec,
            triage_paths=triage_paths, cache=self.cache,
        )
        return executor.execute()

    def _assemble(self,
                  entries: Dict[EntryKey, TestEntry]) -> RegressionReport:
        report = RegressionReport([ConfigReport(config)
                                   for config in self.configs])
        for (ci, _, _), entry in entries.items():
            report.configs[ci].entries.append(entry)
        for config_report in report.configs:
            config = config_report.config
            config_report.rtl_coverage = build_node_coverage(config)
            config_report.bca_coverage = build_node_coverage(config)
            for entry in config_report.entries:
                if not isinstance(entry.rtl, RunFailure):
                    config_report.rtl_coverage.merge(entry.rtl.coverage)
                if not isinstance(entry.bca, RunFailure):
                    config_report.bca_coverage.merge(entry.bca.coverage)
            if self.spec.workdir:
                path = os.path.join(
                    self.spec.workdir, f"{config.name}__report.txt"
                )
                with atomic_write(path) as handle:
                    handle.write(config_report.render())
                    handle.write("\n")
                    handle.write(config_report.rtl_coverage.render())
                    if self.spec.unr:
                        handle.write("\n")
                        handle.write(self._unr_annotation(config_report))
        return report

    @staticmethod
    def _unr_annotation(config_report: ConfigReport) -> str:
        """Static UNR verdicts joined against the run's coverage holes.

        Only written when the spec has ``unr=True``; the
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
        spec = self.spec
        batch = BatchTelemetry(spec)
        entries = self._entries()
        with batch.span("batch.execute", jobs=spec.jobs):
            faults = self._execute(batch, entries)
        with batch.span("batch.assemble"):
            report = self._assemble(entries)
        if self.cache is not None:
            # What the next cached batch diffs its misses against.
            self.impact.manifest().write(self.cache.manifest_path)
        report.wall_seconds = batch.stop()
        if spec.workdir:
            path = os.path.join(spec.workdir, "regression_summary.txt")
            with atomic_write(path) as handle:
                handle.write(report.render())
        batch.export(report, faults=faults, cache=self.cache,
                     impact=self.impact)
        return report
