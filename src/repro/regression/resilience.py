"""Fault-tolerant execution layer for the regression batch engine.

The paper's regression tool earns its keep overnight: a batch across
many configurations and seeds must *finish with a usable report* even
when individual runs misbehave.  This module owns the batch's
bookkeeping and its inline (``jobs=1``) path; the leased worker
processes that run every other batch live in
:mod:`repro.regression.distributed` and reuse all of it.  Three layers
of protection:

1. **Run-level crash isolation** — every run/compare job executes under
   a guard that converts any exception (including a truncated or corrupt
   VCD discovered in the compare stage) into a structured, picklable
   :class:`RunFailure` carried into the report instead of aborting the
   batch.
2. **Wall-clock deadlines** — the coordinator enforces ``run_timeout``
   per job; the existing ``max_cycles`` budget only bounds *simulated*
   cycles, not a worker stuck in native code.  A timed-out worker is
   killed and replaced; only its current job is charged.
3. **Resume from the result cache** — with a cache configured, every
   run is published to it the moment it completes, so an interrupted
   batch (Ctrl-C, OOM, machine crash) resumes by rerunning the same
   command against the same ``--cache-dir``: finished runs are verified
   hits, only the remainder simulates.

A failed job fails once.  A job is a pure function of its coordinates
(config, test, seed, view, bugs), so running it again in the same batch
would fail the same way; it is recorded as ``ERROR`` or ``TIMEOUT`` and
the batch moves on.  Failed runs are never stored, so a rerun against
the same cache executes exactly the jobs that failed.

The invariant throughout: a fault-free batch produces byte-identical
report artifacts for any ``jobs=N``, inline or on workers, interrupted
and rerun or not.  The module has no fault hook of its own: the guard
looks ``execute_run_job`` up in this module on every call, so a test
that replaces that global faults the runs it chooses, inline and on
forked workers alike.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .parallel import (
    CompareJob,
    EntryKey,
    RunJob,
    RunKey,
    TriageJob,
    execute_compare_job,
    execute_run_job,
    execute_triage_job,
)
from .spec import BatchSpec


# ---------------------------------------------------------------------------
# Structured failures


@dataclass(frozen=True)
class RunFailure:
    """A failed run or comparison, reduced to plain picklable values.

    Instances stand in for :class:`~repro.catg.env.RunResult` (or an
    alignment report) in the batch results, so the assembly path can
    render a complete report with the affected entries marked instead of
    losing the whole batch to one raw traceback.
    """

    config_name: str
    test_name: str
    seed: int
    view: str                  # "rtl" | "bca" | "compare" | "triage"
    stage: str                 # "run" | "compare" | "triage"
    kind: str                  # "ERROR" | "TIMEOUT"
    exc_type: str
    message: str
    traceback_text: str = ""

    # RunResult-compatible surface for the report assembly path.
    @property
    def passed(self) -> bool:
        return False

    @property
    def timed_out(self) -> bool:
        return self.kind == "TIMEOUT"

    @property
    def status(self) -> str:
        return self.kind

    def describe(self) -> str:
        return f"{self.kind} {self.exc_type}: {self.message}"

    @classmethod
    def from_exception(cls, *, config_name: str, test_name: str, seed: int,
                       view: str, stage: str,
                       exc: BaseException) -> "RunFailure":
        return cls(
            config_name=config_name, test_name=test_name, seed=seed,
            view=view, stage=stage, kind="ERROR",
            exc_type=type(exc).__name__, message=str(exc) or repr(exc),
            traceback_text="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )


def guarded_execute_run(job: RunJob):
    """Worker-side run wrapper: never raises, returns a tagged outcome
    ``("ok", RunResult)`` or ``("fail", RunFailure)``."""
    try:
        return ("ok", execute_run_job(job))
    except Exception as exc:
        return ("fail", RunFailure.from_exception(
            config_name=job.config.name, test_name=job.test_name,
            seed=job.seed, view=job.view, stage="run", exc=exc,
        ))


def guarded_execute_compare(job: CompareJob):
    """Worker-side compare wrapper; corrupt/truncated VCDs surface as a
    structured failure, not a traceback."""
    try:
        return ("ok", execute_compare_job(job))
    except Exception as exc:
        return ("fail", RunFailure.from_exception(
            config_name=job.config_name, test_name=job.test_name,
            seed=job.seed, view="compare", stage="compare", exc=exc,
        ))


def guarded_execute_triage(job: TriageJob):
    """Worker-side triage wrapper; a triage crash must never take down a
    batch whose entry already failed — it degrades to an untriaged FAIL."""
    try:
        return ("ok", execute_triage_job(job))
    except Exception as exc:
        return ("fail", RunFailure.from_exception(
            config_name=job.config.name, test_name=job.test_name,
            seed=job.seed, view="triage", stage="triage", exc=exc,
        ))


#: The guarded wrapper that executes each task kind, inline or on a
#: worker.
GUARDS = {
    "run": guarded_execute_run,
    "compare": guarded_execute_compare,
    "triage": guarded_execute_triage,
}


# ---------------------------------------------------------------------------
# Fault accounting


@dataclass
class BatchFaults:
    """What went wrong (and was absorbed) during one batch."""

    crashes: int = 0
    timeouts: int = 0
    compare_failures: int = 0
    triage_failures: int = 0
    # Worker accounting (all zero for inline batches).
    worker_deaths: int = 0
    worker_respawns: int = 0
    #: Structured fault records for the telemetry run log.
    events: List[dict] = field(default_factory=list)

    def note(self, event: str, **fields: object) -> None:
        record: Dict[str, object] = {
            "event": event, "ts": round(time.time(), 6)}
        record.update(fields)
        self.events.append(record)

    def counters(self) -> Dict[str, object]:
        return {
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "compare_failures": self.compare_failures,
            "triage_failures": self.triage_failures,
            "worker_deaths": self.worker_deaths,
            "worker_respawns": self.worker_respawns,
        }


# ---------------------------------------------------------------------------
# Run artifacts


def run_artifact_paths(job: RunJob) -> Dict[str, str]:
    """The files one run job writes, keyed by role."""
    paths: Dict[str, str] = {}
    if job.vcd_path:
        paths["vcd"] = job.vcd_path
    if job.report_stem:
        paths["report"] = job.report_stem + ".report.txt"
        paths["coverage"] = job.report_stem + ".coverage.txt"
    return paths


# ---------------------------------------------------------------------------
# The resilient batch executor


class _Task:
    """One schedulable unit: a run, a comparison or a triage."""

    __slots__ = ("kind", "key", "job")

    def __init__(self, kind: str, key: tuple, job) -> None:
        self.kind = kind          # "run" | "compare" | "triage"
        self.key = key            # RunKey | EntryKey
        self.job = job

    @property
    def names(self) -> Dict[str, object]:
        if self.kind == "run":
            return {"config": self.job.config.name,
                    "test": self.job.test_name, "seed": self.job.seed,
                    "view": self.job.view}
        if self.kind == "triage":
            return {"config": self.job.config.name,
                    "test": self.job.test_name, "seed": self.job.seed,
                    "view": "triage"}
        return {"config": self.job.config_name, "test": self.job.test_name,
                "seed": self.job.seed, "view": "compare"}


class ResilientBatchExecutor:
    """Schedules a batch's run/compare jobs with crash isolation and
    the result cache, executing them inline.

    The results feed one deterministic assembly path, so fault-free
    output is byte-identical to the leased-worker subclass at any
    ``jobs``.
    """

    def __init__(
        self,
        jobs_by_key: Dict[RunKey, RunJob],
        spec: BatchSpec,
        *,
        triage_paths: Optional[Dict[EntryKey, str]] = None,
        cache=None,
    ) -> None:
        self.jobs_by_key = jobs_by_key
        self.spec = spec
        self.telemetry = spec.telemetry.enabled
        #: Optional :class:`repro.cache.ResultCache`; when set, run
        #: tasks are satisfied from the store where possible and every
        #: fresh result is published back to it.
        self.cache = cache
        self.faults = BatchFaults()
        self.results: Dict[RunKey, object] = {}
        self.alignments: Dict[EntryKey, object] = {}
        self.compare_failures: Dict[EntryKey, RunFailure] = {}
        self.compare_telemetry: Dict[EntryKey, object] = {}
        # Failure triage rides behind the comparisons: entries that
        # failed (checkers or alignment) get a TriageJob, everything
        # else is untouched — a fault-free batch never schedules one.
        self.triage_paths = dict(triage_paths or {})
        self.triages: Dict[EntryKey, object] = {}
        self.triage_telemetry: Dict[EntryKey, object] = {}
        self._triaged = set()
        self._entry_order: List[EntryKey] = []
        seen = set()
        for key in jobs_by_key:
            entry_key = key[:3]
            if entry_key not in seen:
                seen.add(entry_key)
                self._entry_order.append(entry_key)
        self._compared = set()

    # -- shared bookkeeping -------------------------------------------------

    def _register_failure(self, task: _Task, failure: RunFailure) -> None:
        """Record ``task``'s one failure: it is terminal."""
        if failure.stage == "compare":
            self.faults.compare_failures += 1
        elif failure.stage == "triage":
            self.faults.triage_failures += 1
        elif failure.kind == "TIMEOUT":
            self.faults.timeouts += 1
        else:
            self.faults.crashes += 1
        if task.kind == "run":
            self.results[task.key] = failure
        elif task.kind == "compare":
            self.compare_failures[task.key] = failure
        # triage is best-effort: the entry already failed, so a failed
        # triage only lives in the fault accounting above.
        self.faults.note("job.failed", **task.names, kind=failure.kind,
                         error=failure.describe())

    def _satisfy_from_cache(self, task: _Task, ready) -> bool:
        """Try to complete a run task from the result cache.

        On a verified hit the artifacts are materialized, the result is
        completed exactly as an executed run would be, and (when
        ``ready`` is a queue) the entry's comparison is scheduled.
        A miss — including a corrupt entry the cache quarantined —
        returns False and the task executes normally.
        """
        if self.cache is None or task.kind != "run":
            return False
        result = self.cache.load(task.job, run_artifact_paths(task.job))
        if result is None:
            return False
        self._complete(task, result, from_cache=True)
        if ready is not None:
            compare = self._compare_task(task.key[:3])
            if compare is not None:
                ready.append(compare)
        return True

    def _complete(self, task: _Task, payload,
                  from_cache: bool = False) -> None:
        if task.kind == "run":
            self.results[task.key] = payload
            if self.cache is not None and not from_cache:
                self.cache.store(
                    task.job, payload, run_artifact_paths(task.job))
        elif task.kind == "triage":
            report, tele = payload
            self.triages[task.key] = report
            if tele is not None:
                self.triage_telemetry[task.key] = tele
        else:
            report, tele = payload
            self.alignments[task.key] = report
            if tele is not None:
                self.compare_telemetry[task.key] = tele

    def _compare_task(self, entry_key: EntryKey) -> Optional[_Task]:
        """A compare task for ``entry_key`` if it is due: comparison
        wanted (so both views dumped), both succeeded, not yet
        compared."""
        if not self.spec.compare or entry_key in self._compared:
            return None
        rtl = self.results.get(entry_key + ("rtl",))
        bca = self.results.get(entry_key + ("bca",))
        if isinstance(rtl, RunFailure) or isinstance(bca, RunFailure):
            self._compared.add(entry_key)
            return None
        if rtl is None or bca is None:
            return None
        rtl_job = self.jobs_by_key[entry_key + ("rtl",)]
        bca_job = self.jobs_by_key[entry_key + ("bca",)]
        self._compared.add(entry_key)
        job = CompareJob(
            rtl_vcd=rtl_job.vcd_path, bca_vcd=bca_job.vcd_path,
            config_name=rtl_job.config.name, test_name=entry_key[1],
            seed=entry_key[2], telemetry=self.telemetry,
            submitted_at=time.time() if self.telemetry else None,
        )
        return _Task("compare", entry_key, job)

    def _triage_task(self, entry_key: EntryKey) -> Optional[_Task]:
        """A triage task for ``entry_key`` if it is due: triage enabled,
        the entry failed (checkers or alignment), both views ran, not
        yet triaged."""
        if not self.spec.triage or entry_key in self._triaged:
            return None
        alignment = self.alignments.get(entry_key)
        if alignment is None:
            return None
        rtl = self.results.get(entry_key + ("rtl",))
        bca = self.results.get(entry_key + ("bca",))
        if (rtl is None or bca is None or isinstance(rtl, RunFailure)
                or isinstance(bca, RunFailure)):
            self._triaged.add(entry_key)
            return None
        checkers_failed = not (rtl.passed and bca.passed)
        if not checkers_failed and alignment.signed_off:
            self._triaged.add(entry_key)
            return None
        rtl_job = self.jobs_by_key[entry_key + ("rtl",)]
        bca_job = self.jobs_by_key[entry_key + ("bca",)]
        self._triaged.add(entry_key)
        job = TriageJob(
            config=rtl_job.config, test_name=entry_key[1],
            seed=entry_key[2],
            rtl_vcd=rtl_job.vcd_path, bca_vcd=bca_job.vcd_path,
            out_path=self.triage_paths.get(entry_key),
            bugs=bca_job.bugs,
            reason="checkers-failed" if checkers_failed
            else "low-alignment",
            telemetry=self.telemetry,
            submitted_at=time.time() if self.telemetry else None,
        )
        return _Task("triage", entry_key, job)

    def _worker_failure(self, task: _Task, exc_type: str,
                        message: str) -> RunFailure:
        """A failure charged to ``task`` by the scheduler itself (its
        worker died, overran its deadline or returned garbage) rather
        than raised by the job."""
        names = task.names
        return RunFailure(
            config_name=str(names["config"]), test_name=str(names["test"]),
            seed=int(names["seed"]), view=str(names["view"]),
            stage=task.kind,
            kind="ERROR", exc_type=exc_type, message=message,
        )

    def _timeout_failure(self, task: _Task) -> RunFailure:
        deadline = self.spec.run_timeout
        return dataclasses.replace(
            self._worker_failure(
                task, "WatchdogTimeout",
                f"exceeded the run deadline of {deadline}s and was killed"),
            kind="TIMEOUT")

    # -- execution ----------------------------------------------------------

    def execute(self):
        """Run the batch inline, one job after another, in this process.
        :class:`~repro.regression.distributed.DistributedBatchExecutor`
        overrides this with leased worker processes."""
        for entry_key in self._entry_order:
            for view in ("rtl", "bca"):
                key = entry_key + (view,)
                self._run_task_inline(
                    _Task("run", key, self.jobs_by_key[key]))
            task = self._compare_task(entry_key)
            if task is not None:
                self._run_task_inline(task)
            task = self._triage_task(entry_key)
            if task is not None:
                self._run_task_inline(task)
        return self._outcome()

    def _outcome(self):
        return (self.results, self.alignments, self.compare_telemetry,
                self.compare_failures, self.triages, self.triage_telemetry,
                self.faults)

    def _run_task_inline(self, task: _Task) -> None:
        if self._satisfy_from_cache(task, None):
            return
        status, payload = GUARDS[task.kind](task.job)
        if status == "ok":
            self._complete(task, payload)
        else:
            self._register_failure(task, payload)
