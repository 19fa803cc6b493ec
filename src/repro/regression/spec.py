"""One regression batch, described once.

The paper's regression tool "receives configuration parameters" and runs
the same seeded suite on both views in batch mode.  A :class:`BatchSpec`
is those parameters: which tests and seeds, where the artifacts go,
which stages run and how the batch executes.  It is validated once, when
it is built, so a contradictory request fails before any configuration
is loaded.  The CLI builds one from its flags,
:class:`~repro.regression.runner.RegressionRunner` runs one, and
:class:`~repro.regression.flow.CommonVerificationFlow` derives each
iteration's spec from the last with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Sequence, Tuple

from ..analysis.waivers import Waiver, WaiverError, load_waiver_file
from ..telemetry import TelemetryConfig
from .testcases import TESTCASES


class BatchSpecError(ValueError):
    """A spec field holds a value no batch can run with.  ``field`` names
    the field, so a front-end can point at whatever set it."""

    def __init__(self, field: str, problem: str) -> None:
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


@dataclass(frozen=True)
class BatchSpec:
    """Everything one regression batch is asked to do.

    Sequences are stored as tuples and the bug set as a frozenset, so a
    spec is immutable; derive a changed one with
    :func:`dataclasses.replace`, which validates it again.
    """

    #: Test-case names; ``None`` means all twelve.  An unknown name
    #: raises ``KeyError``.
    tests: Optional[Sequence[str]] = None
    #: Seeds applied to *every* test on *both* views.
    seeds: Sequence[int] = (1,)
    #: Where VCDs and text reports go; ``None`` writes no files.
    workdir: Optional[str] = None
    #: Run the bus-accurate comparison of each entry's two dumps.  The
    #: comparison reads the dumps and only a workdir gets dumps, so
    #: without a workdir this is always False.  This is the one place
    #: that rule lives.
    compare: bool = True
    #: Seeded bugs for the BCA view (experiments only).
    bca_bugs: FrozenSet[str] = frozenset()
    #: Worker processes.  ``1`` runs everything serially in this
    #: process; ``N > 1`` fans the independent (config, test, seed,
    #: view) runs, and the comparisons behind them, out over N forked
    #: worker processes that lease jobs from this one.  The report and
    #: every artifact are byte-identical either way.
    jobs: int = 1
    #: Side-channel observability files (metrics, trace, log).  Report
    #: artifacts are byte-identical with or without them.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    #: Wall-clock deadline per run/compare/triage job (seconds); a job
    #: past it is killed and recorded as ``TIMEOUT``.  ``None`` disables
    #: the watchdog.  Under ``jobs=1`` a deadline moves execution into
    #: one kill-able worker process.
    run_timeout: Optional[float] = None
    #: Append the static coverage-unreachability verdicts to each
    #: per-config report.  Off, every artifact is byte-identical to a
    #: batch without the feature.
    unr: bool = False
    #: Auto-triage failed entries: walk both dumps to the first diverging
    #: (signal, cycle) point, rank the fan-in cone suspects and write a
    #: ``<config>__<test>__s<seed>__triage.json`` minimal repro per
    #: failure.  Needs the comparison, so it raises without one.  A
    #: fault-free batch never triages, and no cache key includes it.
    triage: bool = False
    #: Root of the content-addressed result cache
    #: (:class:`~repro.cache.ResultCache`); ``None`` disables caching.
    #: A verified hit replays a run's artifacts without simulating;
    #: every run is stored as it completes, so rerunning an interrupted
    #: batch against the same cache resumes it.  Entries key on each
    #: (config, view)'s cone-scoped design key
    #: (:class:`~repro.analysis.impact.ImpactIndex`).
    cache_dir: Optional[str] = None
    #: Lint both views of every configuration in the static gate.
    lint: bool = True
    #: Waiver file for the static gate (one ``<rule-glob>
    #: <location-glob> [# reason]`` per line); read and parsed here, so
    #: a missing or malformed file raises before anything runs.
    lint_waivers: Optional[str] = None
    #: Also run the dataflow analysis (races, CDC, cross-view cones, UNR)
    #: in the static gate, after lint passes.
    analysis: bool = False
    #: The parsed ``lint_waivers``; they apply to lint and analysis
    #: findings alike, since both passes speak one waiver dialect.
    waivers: Tuple[Waiver, ...] = field(
        init=False, default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        tests = tuple(TESTCASES) if self.tests is None else tuple(self.tests)
        unknown = sorted(set(tests) - set(TESTCASES))
        if unknown:
            raise KeyError(f"unknown test cases: {unknown}")
        if self.jobs < 1:
            raise BatchSpecError("jobs", f"must be >= 1, got {self.jobs}")
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise BatchSpecError(
                "run_timeout", f"must be > 0, got {self.run_timeout:g}")
        normalized = {
            "tests": tests,
            "seeds": tuple(self.seeds),
            "bca_bugs": frozenset(self.bca_bugs),
            "compare": self.compare and bool(self.workdir),
        }
        if self.triage and not normalized["compare"]:
            raise BatchSpecError(
                "triage", "needs the comparison stage (a workdir and "
                "compare on)")
        if self.lint_waivers is not None:
            try:
                normalized["waivers"] = tuple(
                    load_waiver_file(self.lint_waivers))
            except OSError as exc:
                raise BatchSpecError("lint_waivers",
                                     f"cannot be read: {exc}") from None
            except WaiverError as exc:
                raise BatchSpecError("lint_waivers",
                                     f"is malformed: {exc}") from None
        for name, value in normalized.items():
            object.__setattr__(self, name, value)
