"""Fault-tolerant execution layer for the regression batch engine.

The paper's regression tool earns its keep overnight: a batch across
many configurations and seeds must *finish with a usable report* even
when individual runs misbehave.  This module wraps the embarrassingly
parallel scheduler of :mod:`repro.regression.parallel` with four layers
of protection:

1. **Run-level crash isolation** — every run/compare job executes under
   a guard that converts any exception (including a truncated or corrupt
   VCD discovered in the compare stage) into a structured, picklable
   :class:`RunFailure` carried into the report instead of aborting the
   batch.
2. **Wall-clock deadlines** — a parent-side watchdog enforces
   ``run_timeout`` per job; the existing ``max_cycles`` budget only
   bounds *simulated* cycles, not a worker stuck in native code.  A
   timed-out worker is killed, the pool rebuilt, and every innocent
   in-flight job rescheduled without consuming one of its attempts.
3. **Bounded retry with backoff + quarantine** — crashed and timed-out
   jobs are retried up to ``max_retries`` times with exponential
   backoff; jobs that fail repeatedly are quarantined (excluded from the
   batch, listed in the report with their failure history).  If the pool
   itself breaks more than ``_MAX_POOL_REBUILDS`` times the batch
   degrades to serial execution in kill-able child processes.
4. **Resume from the result cache** — with a cache configured, every
   run is published to it the moment it completes, so an interrupted
   batch (Ctrl-C, OOM, machine crash) resumes by rerunning the same
   command against the same ``--cache-dir``: finished runs are verified
   hits, only the remainder simulates.

The invariant throughout: a fault-free batch produces byte-identical
report artifacts to the unguarded engine, for any ``jobs=N``, serial or
parallel, interrupted and rerun or not.
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from . import chaos
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

#: Watchdog poll interval (seconds) for the pool scheduling loop.
_TICK = 0.05

#: Ceiling on a single retry backoff delay.
_MAX_BACKOFF = 30.0

#: Unexpected pool breaks tolerated before the batch degrades to serial
#: child-process execution.
_MAX_POOL_REBUILDS = 3

#: Entry statuses a regression report can now carry.
STATUSES = ("PASS", "FAIL", "ERROR", "TIMEOUT", "QUARANTINED")


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
    view: str                  # "rtl" | "bca" | "compare"
    stage: str                 # "run" | "compare"
    kind: str                  # "ERROR" | "TIMEOUT"
    exc_type: str
    message: str
    traceback_text: str = ""
    attempt: int = 0
    quarantined: bool = False
    #: One line per failed attempt, oldest first (set on the terminal
    #: failure so the report can show the whole history).
    history: Tuple[str, ...] = ()

    # RunResult-compatible surface for the report assembly path.
    @property
    def passed(self) -> bool:
        return False

    @property
    def timed_out(self) -> bool:
        return self.kind == "TIMEOUT"

    @property
    def status(self) -> str:
        return "QUARANTINED" if self.quarantined else self.kind

    def describe(self) -> str:
        return f"{self.kind} {self.exc_type}: {self.message}"

    @classmethod
    def from_exception(cls, *, config_name: str, test_name: str, seed: int,
                       view: str, stage: str, exc: BaseException,
                       attempt: int) -> "RunFailure":
        return cls(
            config_name=config_name, test_name=test_name, seed=seed,
            view=view, stage=stage, kind="ERROR",
            exc_type=type(exc).__name__, message=str(exc) or repr(exc),
            traceback_text="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            attempt=attempt,
        )


def guarded_execute_run(job: RunJob):
    """Worker-side run wrapper: never raises, returns a tagged outcome
    ``("ok", RunResult)`` or ``("fail", RunFailure)``."""
    try:
        chaos.inject_before_run(job)
        result = execute_run_job(job)
        chaos.inject_after_run(job)
        return ("ok", result)
    except Exception as exc:
        return ("fail", RunFailure.from_exception(
            config_name=job.config.name, test_name=job.test_name,
            seed=job.seed, view=job.view, stage="run", exc=exc,
            attempt=job.attempt,
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
            attempt=job.attempt,
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
            attempt=job.attempt,
        ))


# ---------------------------------------------------------------------------
# Configuration and fault accounting


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for one regression batch."""

    #: Parent-side wall-clock deadline per run/compare job (seconds);
    #: ``None`` disables the watchdog.  Under ``jobs=1`` a deadline
    #: moves execution into kill-able child processes.
    run_timeout: Optional[float] = None
    #: Retries after the first failed attempt (total attempts = N + 1).
    max_retries: int = 2
    #: Base backoff delay; attempt *k* waits ``backoff * 2**(k-1)``.
    backoff: float = 0.25


@dataclass
class BatchFaults:
    """What went wrong (and was absorbed) during one batch."""

    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    compare_failures: int = 0
    triage_failures: int = 0
    pool_rebuilds: int = 0
    quarantined: List[RunFailure] = field(default_factory=list)
    degraded_serial: bool = False
    # Distributed-cluster accounting (all zero for local batches).
    lease_reclaims: int = 0
    worker_deaths: int = 0
    worker_respawns: int = 0
    #: No distributed worker was reachable; the batch ran on the local
    #: resilient executor instead.
    degraded_local: bool = False
    #: Structured fault records for the telemetry run log.
    events: List[dict] = field(default_factory=list)

    def note(self, event: str, **fields: object) -> None:
        record: Dict[str, object] = {
            "event": event, "ts": round(time.time(), 6)}
        record.update(fields)
        self.events.append(record)

    def counters(self) -> Dict[str, object]:
        return {
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "compare_failures": self.compare_failures,
            "triage_failures": self.triage_failures,
            "pool_rebuilds": self.pool_rebuilds,
            "quarantined": len(self.quarantined),
            "degraded_serial": self.degraded_serial,
            "lease_reclaims": self.lease_reclaims,
            "worker_deaths": self.worker_deaths,
            "worker_respawns": self.worker_respawns,
            "degraded_local": self.degraded_local,
        }

    @property
    def clean(self) -> bool:
        return not (self.retries or self.crashes or self.timeouts
                    or self.compare_failures or self.triage_failures
                    or self.pool_rebuilds or self.quarantined
                    or self.lease_reclaims or self.worker_deaths)


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
# Child-process execution (serial-with-deadline and degraded modes)


def _child_entry(conn, fn, job) -> None:
    try:
        conn.send(fn(job))
    finally:
        conn.close()


def _execute_in_child(fn, job, timeout: Optional[float]):
    """Run one guarded job in a dedicated child process.

    Gives the serial path the same isolation a pool worker has — a hard
    crash or hang kills the child, never the batch — and makes deadlines
    enforceable with a plain ``kill()``.  Returns the guarded outcome
    tuple, ``("timeout", None)`` or ``("died", exitcode)``.
    """
    ctx = multiprocessing.get_context()
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_entry, args=(send, fn, job))
    proc.start()
    send.close()
    deadline = time.monotonic() + timeout if timeout else None
    outcome = None
    try:
        while True:
            if recv.poll(_TICK):
                try:
                    outcome = recv.recv()
                except EOFError:
                    outcome = None
                break
            if not proc.is_alive():
                if recv.poll(0):
                    try:
                        outcome = recv.recv()
                    except EOFError:
                        outcome = None
                break
            if deadline is not None and time.monotonic() > deadline:
                proc.kill()
                proc.join(5)
                return ("timeout", None)
        proc.join(5)
    finally:
        recv.close()
    if outcome is None:
        return ("died", proc.exitcode)
    return outcome


# ---------------------------------------------------------------------------
# The resilient batch executor


class _Task:
    """One schedulable unit (a run or a comparison) plus its history."""

    __slots__ = ("kind", "key", "job", "failures")

    def __init__(self, kind: str, key: tuple, job) -> None:
        self.kind = kind          # "run" | "compare" | "triage"
        self.key = key            # RunKey | EntryKey
        self.job = job
        self.failures: List[RunFailure] = []

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
    """Schedules a batch's run/compare jobs with crash isolation,
    deadlines, retry/quarantine and the result cache.

    ``jobs == 1`` executes inline (or in kill-able child processes when
    a deadline is set); ``jobs > 1`` drives a process pool with a
    watchdog.  Either way the results feed the same deterministic
    assembly path, so fault-free output is byte-identical across modes.
    """

    def __init__(
        self,
        jobs_by_key: Dict[RunKey, RunJob],
        *,
        jobs: int,
        compare_waveforms: bool,
        telemetry: bool = False,
        config: Optional[ResilienceConfig] = None,
        triage: bool = False,
        triage_paths: Optional[Dict[EntryKey, str]] = None,
        tracer=None,
        cache=None,
    ) -> None:
        self.jobs_by_key = jobs_by_key
        self.jobs = jobs
        self.compare_waveforms = compare_waveforms
        self.telemetry = telemetry
        self.config = config if config is not None else ResilienceConfig()
        self.tracer = tracer
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
        self.triage = triage and compare_waveforms
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
        self._degraded = False
        self._task_seq = 0

    # -- shared bookkeeping -------------------------------------------------

    def _span(self, name: str, **args):
        if self.tracer is not None:
            return self.tracer.span(name, **args)
        import contextlib

        return contextlib.nullcontext()

    def _job_for_attempt(self, task: _Task):
        attempt = len(task.failures)
        changes: Dict[str, object] = {}
        if task.job.attempt != attempt:
            changes["attempt"] = attempt
        if self.telemetry and attempt:
            changes["submitted_at"] = time.time()
        if changes:
            task.job = dataclasses.replace(task.job, **changes)
        return task.job

    def _register_failure(self, task: _Task,
                          failure: RunFailure) -> Optional[float]:
        """Record one failed attempt.  Returns the backoff delay before
        the retry, or ``None`` when the job is terminal (quarantined or
        out of budget)."""
        if failure.stage == "compare":
            self.faults.compare_failures += 1
        elif failure.stage == "triage":
            self.faults.triage_failures += 1
        elif failure.kind == "TIMEOUT":
            self.faults.timeouts += 1
        else:
            self.faults.crashes += 1
        task.failures.append(failure)
        n_failed = len(task.failures)
        if n_failed <= self.config.max_retries:
            self.faults.retries += 1
            delay = min(_MAX_BACKOFF,
                        self.config.backoff * (2 ** (n_failed - 1)))
            self.faults.note("job.retry", **task.names,
                             attempt=failure.attempt, kind=failure.kind,
                             error=failure.describe(),
                             backoff_seconds=round(delay, 3))
            return delay
        history = tuple(
            f"attempt {f.attempt}: {f.describe()}" for f in task.failures
        )
        terminal = dataclasses.replace(
            task.failures[-1],
            quarantined=n_failed > 1,
            history=history,
        )
        if task.kind == "run":
            self.results[task.key] = terminal
        elif task.kind == "compare":
            self.compare_failures[task.key] = terminal
        # triage is best-effort: the entry already failed, so a terminal
        # triage failure only lives in the fault accounting above.
        if terminal.quarantined:
            self.faults.quarantined.append(terminal)
            self.faults.note("job.quarantined", **task.names,
                             attempts=n_failed, error=terminal.describe())
        else:
            self.faults.note("job.failed", **task.names,
                             kind=terminal.kind, error=terminal.describe())
        return None

    def _satisfy_from_cache(self, task: _Task, ready) -> bool:
        """Try to complete a run task from the result cache.

        On a verified hit the artifacts are materialized, the result is
        completed exactly as an executed run would be, and (when
        ``ready`` is a queue) the entry's comparison is scheduled.
        A miss — including a quarantined corrupt entry — returns False
        and the task executes normally.
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
                entry_path = self.cache.store(
                    task.job, payload, run_artifact_paths(task.job))
                chaos.inject_after_cache_store(task.job, entry_path)
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
        if task.failures:
            self.faults.note("job.recovered", **task.names,
                             attempts=len(task.failures) + 1)

    def _compare_task(self, entry_key: EntryKey) -> Optional[_Task]:
        """A compare task for ``entry_key`` if it is due: comparison
        wanted, both views succeeded with dumps, not yet compared."""
        if not self.compare_waveforms or entry_key in self._compared:
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
        if not rtl_job.vcd_path or not bca_job.vcd_path:
            self._compared.add(entry_key)
            return None
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
        the entry failed (checkers or alignment), both dumps real, not
        yet triaged."""
        if not self.triage or entry_key in self._triaged:
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
        if not rtl_job.vcd_path or not bca_job.vcd_path:
            self._triaged.add(entry_key)
            return None
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

    @staticmethod
    def _worker_fn(task: _Task):
        if task.kind == "run":
            return guarded_execute_run
        if task.kind == "triage":
            return guarded_execute_triage
        return guarded_execute_compare

    def _pool_crash_failure(self, task: _Task) -> RunFailure:
        names = task.names
        return RunFailure(
            config_name=str(names["config"]), test_name=str(names["test"]),
            seed=int(names["seed"]), view=str(names["view"]),
            stage="run" if task.kind == "run" else "compare",
            kind="ERROR", exc_type="WorkerDied",
            message="worker process died while executing this job "
                    "(process pool crashed)",
            attempt=task.job.attempt,
        )

    def _timeout_failure(self, task: _Task) -> RunFailure:
        names = task.names
        return RunFailure(
            config_name=str(names["config"]), test_name=str(names["test"]),
            seed=int(names["seed"]), view=str(names["view"]),
            stage="run" if task.kind == "run" else "compare",
            kind="TIMEOUT", exc_type="WatchdogTimeout",
            message=f"exceeded the run deadline of "
                    f"{self.config.run_timeout}s and was killed",
            attempt=task.job.attempt,
        )

    # -- execution ----------------------------------------------------------

    def execute(self):
        if self.jobs > 1:
            self._execute_pool()
        else:
            self._execute_serial()
        return (self.results, self.alignments, self.compare_telemetry,
                self.compare_failures, self.triages, self.triage_telemetry,
                self.faults)

    # -- serial (and degraded) mode ----------------------------------------

    def _execute_serial(self, isolate: bool = False) -> None:
        isolate = isolate or self.config.run_timeout is not None
        for entry_key in self._entry_order:
            for view in ("rtl", "bca"):
                key = entry_key + (view,)
                self._run_task_blocking(
                    _Task("run", key, self.jobs_by_key[key]), isolate)
            task = self._compare_task(entry_key)
            if task is not None:
                self._run_task_blocking(task, isolate)
            task = self._triage_task(entry_key)
            if task is not None:
                self._run_task_blocking(task, isolate)

    def _run_task_blocking(self, task: _Task, isolate: bool) -> None:
        if self._satisfy_from_cache(task, None):
            return
        fn = self._worker_fn(task)
        while True:
            job = self._job_for_attempt(task)
            if isolate:
                outcome = _execute_in_child(fn, job, self.config.run_timeout)
            else:
                outcome = fn(job)
            status, payload = outcome
            if status == "ok":
                self._complete(task, payload)
                return
            if status == "timeout":
                failure = self._timeout_failure(task)
            elif status == "died":
                failure = dataclasses.replace(
                    self._pool_crash_failure(task),
                    message="worker child process died "
                            f"(exit code {payload})",
                )
            else:
                failure = payload
            delay = self._register_failure(task, failure)
            if delay is None:
                return
            time.sleep(delay)

    # -- pool mode ----------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.jobs)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.kill()
            except Exception:
                pass
        pool.shutdown(wait=False)

    def _execute_pool(self) -> None:
        ready: Deque[_Task] = deque(
            _Task("run", key, job) for key, job in self.jobs_by_key.items())
        backoff: List[Tuple[float, int, _Task]] = []
        inflight: Dict[object, _Task] = {}
        started: Dict[object, float] = {}
        broken_strikes = 0
        pool = self._new_pool()
        try:
            while ready or backoff or inflight:
                now = time.monotonic()
                while backoff and backoff[0][0] <= now:
                    ready.append(heapq.heappop(backoff)[2])
                # Submit whatever is due.
                submit_failed = False
                while ready and not self._degraded:
                    task = ready[0]
                    if self._satisfy_from_cache(task, ready):
                        ready.popleft()
                        continue
                    job = self._job_for_attempt(task)
                    try:
                        future = pool.submit(self._worker_fn(task), job)
                    except Exception:
                        # Pool broke between completions; recover below.
                        submit_failed = True
                        break
                    ready.popleft()
                    inflight[future] = task
                if self._degraded:
                    break
                if not inflight:
                    if submit_failed:
                        pool, broken_strikes = self._recover_broken_pool(
                            pool, inflight, started, ready, backoff,
                            broken_strikes)
                        continue
                    if backoff:
                        time.sleep(
                            max(0.0, min(backoff[0][0] - now, 0.25)))
                    continue
                done, _ = wait(set(inflight), timeout=_TICK,
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for future in inflight:
                    if future not in started and future.running():
                        started[future] = now
                pool_broke = submit_failed
                for future in done:
                    task = inflight.pop(future)
                    was_started = started.pop(future, None) is not None
                    try:
                        outcome = future.result()
                    except Exception:
                        # BrokenProcessPool (or kin): a worker died
                        # without returning.  In-flight jobs consume an
                        # attempt; queued ones resubmit freely.
                        pool_broke = True
                        if was_started:
                            delay = self._register_failure(
                                task, self._pool_crash_failure(task))
                            if delay is not None:
                                self._push_backoff(backoff, now + delay,
                                                   task)
                        else:
                            ready.append(task)
                        continue
                    self._handle_outcome(task, outcome, ready, backoff, now)
                if pool_broke:
                    pool, broken_strikes = self._recover_broken_pool(
                        pool, inflight, started, ready, backoff,
                        broken_strikes)
                    continue
                if self.config.run_timeout is not None:
                    pool = self._enforce_deadlines(pool, inflight, started,
                                                   ready, backoff, now)
            if self._degraded:
                self._drain_degraded(ready, backoff)
        except BaseException:
            self._kill_pool(pool)
            raise
        else:
            pool.shutdown(wait=False)

    def _push_backoff(self, backoff, due: float, task: _Task) -> None:
        self._task_seq += 1
        heapq.heappush(backoff, (due, self._task_seq, task))

    def _handle_outcome(self, task: _Task, outcome, ready, backoff,
                        now: float) -> None:
        status, payload = outcome
        if status == "ok":
            self._complete(task, payload)
            if task.kind == "run":
                compare = self._compare_task(task.key[:3])
                if compare is not None:
                    ready.append(compare)
            elif task.kind == "compare":
                triage = self._triage_task(task.key)
                if triage is not None:
                    ready.append(triage)
            return
        delay = self._register_failure(task, payload)
        if delay is not None:
            self._push_backoff(backoff, now + delay, task)

    def _recover_broken_pool(self, pool, inflight, started, ready, backoff,
                             broken_strikes: int):
        """The pool died unexpectedly: charge started jobs one attempt,
        free-requeue queued ones, and rebuild (or degrade to serial)."""
        now = time.monotonic()
        for future, task in list(inflight.items()):
            was_started = started.pop(future, None) is not None
            if was_started:
                delay = self._register_failure(
                    task, self._pool_crash_failure(task))
                if delay is not None:
                    self._push_backoff(backoff, now + delay, task)
            else:
                ready.append(task)
        inflight.clear()
        started.clear()
        self._kill_pool(pool)
        broken_strikes += 1
        self.faults.pool_rebuilds += 1
        if broken_strikes > _MAX_POOL_REBUILDS:
            self._degraded = True
            self.faults.degraded_serial = True
            self.faults.note("pool.degraded",
                             strikes=broken_strikes,
                             detail="process pool broke repeatedly; "
                                    "finishing the batch serially in "
                                    "isolated child processes")
            return pool, broken_strikes
        self.faults.note("pool.rebuilt", cause="crash",
                         strikes=broken_strikes)
        with self._span("pool.rebuild", cause="crash"):
            pool = self._new_pool()
        return pool, broken_strikes

    def _enforce_deadlines(self, pool, inflight, started, ready, backoff,
                           now: float):
        """Kill jobs past the deadline.  Returns the (possibly rebuilt)
        pool; the hung worker can only be stopped by killing the whole
        pool, so innocent in-flight jobs are requeued at no cost."""
        timeout = self.config.run_timeout
        timed = [future for future, t0 in started.items()
                 if future in inflight and now - t0 > timeout]
        if not timed:
            return pool
        for future in timed:
            task = inflight.pop(future)
            started.pop(future, None)
            delay = self._register_failure(task, self._timeout_failure(task))
            if delay is not None:
                self._push_backoff(backoff, now + delay, task)
        for future, task in list(inflight.items()):
            started.pop(future, None)
            ready.append(task)
        inflight.clear()
        started.clear()
        self._kill_pool(pool)
        self.faults.pool_rebuilds += 1
        self.faults.note("pool.rebuilt", cause="timeout")
        with self._span("pool.rebuild", cause="timeout"):
            return self._new_pool()

    def _drain_degraded(self, ready, backoff) -> None:
        """Finish the remaining work serially in isolated children."""
        leftovers: List[_Task] = list(ready)
        leftovers.extend(task for _, _, task in sorted(backoff))
        ready.clear()
        backoff.clear()
        for task in leftovers:
            self._run_task_blocking(task, True)
        # Comparisons (and their triages) whose runs only now completed.
        for entry_key in self._entry_order:
            task = self._compare_task(entry_key)
            if task is not None:
                self._run_task_blocking(task, True)
            task = self._triage_task(entry_key)
            if task is not None:
                self._run_task_blocking(task, True)
