"""Leased worker processes: the regression batch's parallel executor.

:class:`DistributedBatchExecutor` runs every batch that does not run
inline — ``jobs > 1``, or ``jobs == 1`` with a ``run_timeout`` — on
``jobs`` local worker processes.  Each worker is forked with
``multiprocessing``'s ``fork`` context and talks to the coordinator
over its own duplex ``multiprocessing.Pipe()``: the coordinator sends
``(job_id, kind, job)``, the worker replies ``(job_id, outcome)``, and
both ends pickle through ``Connection.send``/``recv``.  Workers are
forked, not spawned, for two reasons: they start with the coordinator's
modules already imported (a fresh interpreter pays ~0.2 s of imports
per worker), and they inherit whatever the coordinator's process
wrapped around the job entry points, so instrumentation that patches
those module globals traces the workers too.  Forking is only safe from
a process with one thread, so the coordinator waits on every worker's
connection from one loop (``multiprocessing.connection.wait``) and
starts no threads; neither does a worker.

An inline batch loads no part of ``multiprocessing``.
:meth:`~DistributedBatchExecutor._spawn_worker` imports
``multiprocessing`` (about 0.8 MB of peak RSS over the modules a batch
already holds, CPython 3.11 on x86-64 Linux) and
:meth:`~DistributedBatchExecutor._execute_leased` imports
``multiprocessing.connection`` (about 1.4 MB more, with
``multiprocessing.util`` and ``subprocess``), so only a batch with
workers pays for either.

Ownership of a job is a **lease**.  A worker holds at most
:data:`QUEUE_DEPTH` leases and executes them in the order they were
sent, so the worker always has its next job queued while it reports the
last one, and ownership stays exact:

* a reply belongs to the worker's *oldest* lease;
* ``run_timeout`` applies to the oldest lease, timed from when it
  became the oldest;
* every path that ends a worker — end-of-file, a reply that does not
  unpickle or names another job, run timeout, send failure — charges
  one attempt to the oldest lease only and requeues the queued one at
  no cost.

A worker that dies closes its end of the pipe, so the coordinator sees
end-of-file at once; a hung job is caught by ``run_timeout``.

Charged jobs go through the retry/backoff/quarantine policy of
:class:`~repro.regression.resilience.ResilientBatchExecutor`, of which
this class is a subclass: every completion, failure, cache store and
compare/triage hand-off goes through the same bookkeeping as the inline
path.  That is the whole byte-identity argument — the workers only
change *where* a job runs, never what a completed batch contains.

A dead worker is replaced.  Deaths charged to a lease are bounded by the
retry policy; deaths with no lease count against a budget of
``2 × jobs``.  Once that budget is spent and no worker is alive, the
remaining jobs are recorded as ``WorkerLost`` failures, so the report
stays complete.
"""

from __future__ import annotations

import heapq
import signal
import time
from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from .resilience import GUARDS, ResilientBatchExecutor, RunFailure, _Task

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: Leases one worker holds at once: the job it runs plus one queued.
QUEUE_DEPTH = 2

#: Longest the scheduling loop waits for a reply before re-checking
#: deadlines and backoff.
_TICK = 0.05

#: Grace a finished worker gets to exit on its own before it is killed.
_EXIT_GRACE = 2.0


class _Lease:
    """One job owned by one worker; timed once it is the oldest."""

    __slots__ = ("job_id", "task", "started")

    def __init__(self, job_id: int, task: _Task) -> None:
        self.job_id = job_id
        self.task = task
        self.started = 0.0


class _Worker:
    """Coordinator-side state of one worker process."""

    __slots__ = ("ident", "proc", "conn", "leases", "dead")

    def __init__(self, ident: str, proc, conn: Connection) -> None:
        self.ident = ident
        self.proc = proc
        self.conn = conn
        self.leases: Deque[_Lease] = deque()
        self.dead = False


def _serve(conn: Connection) -> None:
    """The worker loop: execute jobs from ``conn`` in arrival order and
    reply with each outcome, until end-of-file ends the batch."""
    try:
        while True:
            try:
                job_id, kind, job = conn.recv()
            except (EOFError, OSError):
                return
            outcome = GUARDS[kind](job)
            try:
                conn.send((job_id, outcome))
            except OSError:
                # The coordinator dropped this worker (or died); the
                # result has nowhere to go.
                return
    finally:
        conn.close()


def _child_main(conn: Connection, inherited: List[Connection]) -> None:
    """Entry point of a forked worker.

    Closing the coordinator's ends of every pipe keeps end-of-file
    exact: each connection has exactly one process at either end.
    Ctrl-C reaches the whole process group; the coordinator owns the
    abort, so workers ignore SIGINT and drop the SIGTERM handler the CLI
    installed.
    """
    for other in inherited:
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _serve(conn)


class DistributedBatchExecutor(ResilientBatchExecutor):
    """Run a regression batch on ``jobs`` leased worker processes.

    Everything the base class owns — results, retry budget,
    compare/triage scheduling, the result cache — stays with the
    coordinator; workers are stateless executors.  ``jobs == 1`` without
    a ``run_timeout`` runs inline through the base class.
    """

    def __init__(self, jobs_by_key, spec, **kwargs) -> None:
        super().__init__(jobs_by_key, spec, **kwargs)
        self._workers: List[_Worker] = []
        self._job_seq = 0
        self._task_seq = 0
        #: Workers that died holding no lease; bounded by 2 × jobs.
        self._unleased_deaths = 0

    def execute(self):
        if (self.spec.jobs == 1
                and self.spec.resilience.run_timeout is None):
            return super().execute()
        try:
            self._execute_leased()
        except BaseException:
            self._teardown(grace=0.0)
            raise
        self._teardown(grace=_EXIT_GRACE)
        return self._outcome()

    # -- worker lifecycle -----------------------------------------------------

    def _alive(self) -> List[_Worker]:
        return [worker for worker in self._workers if not worker.dead]

    def _spawn_worker(self) -> Optional[_Worker]:
        import multiprocessing  # here, not at the top: see the docstring

        ident = f"w{len(self._workers)}"
        ours, theirs = multiprocessing.Pipe()
        inherited = [worker.conn for worker in self._alive()] + [ours]
        proc = multiprocessing.get_context("fork").Process(
            target=_child_main, args=(theirs, inherited),
            name=f"repro-worker-{ident}", daemon=True)
        try:
            proc.start()
        except OSError as exc:
            ours.close()
            theirs.close()
            self._unleased_deaths += 1
            self.faults.note("worker.spawn-failed", worker=ident,
                             error=str(exc))
            return None
        theirs.close()
        worker = _Worker(ident, proc, ours)
        self._workers.append(worker)
        return worker

    def _ensure_capacity(self, pending: int) -> None:
        """Keep ``min(jobs, pending)`` workers alive, while the budget
        for workers that die without a lease lasts."""
        alive = len(self._alive())
        budget = 2 * self.spec.jobs
        while (alive < min(self.spec.jobs, pending)
                and self._unleased_deaths < budget):
            replacing = len(self._workers) > alive
            worker = self._spawn_worker()
            if worker is None:
                continue
            alive += 1
            if replacing:
                self.faults.worker_respawns += 1
                self.faults.note("worker.respawned", worker=worker.ident,
                                 respawns=self.faults.worker_respawns)

    def _mark_dead(self, worker: _Worker, reason: str) -> None:
        worker.dead = True
        worker.conn.close()
        worker.proc.kill()
        self.faults.worker_deaths += 1
        self.faults.note("worker.lost", worker=worker.ident, reason=reason,
                         pid=worker.proc.pid)

    def _teardown(self, grace: float) -> None:
        """Close every connection (end-of-file tells an idle worker to
        exit), give the workers ``grace`` seconds, then kill."""
        for worker in self._alive():
            worker.conn.close()
        deadline = time.monotonic() + grace
        for worker in self._workers:
            worker.proc.join(max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join()

    # -- the scheduling loop --------------------------------------------------

    def _execute_leased(self) -> None:
        from multiprocessing.connection import wait  # see the docstring

        ready: Deque[_Task] = deque(
            _Task("run", key, job) for key, job in self.jobs_by_key.items())
        backoff: list = []
        while True:
            now = time.monotonic()
            self._enforce_deadlines(ready, backoff, now)
            while backoff and backoff[0][0] <= now:
                ready.append(heapq.heappop(backoff)[2])
            leased = sum(len(worker.leases) for worker in self._alive())
            pending = len(ready) + len(backoff) + leased
            if not pending:
                return
            self._ensure_capacity(pending)
            if not self._alive():
                self._abandon(ready, backoff)
                return
            self._dispatch(ready, backoff, now)
            by_conn = {worker.conn: worker for worker in self._alive()}
            for conn in wait(list(by_conn), timeout=_TICK):
                self._receive(by_conn[conn], ready, backoff)

    def _dispatch(self, ready: Deque[_Task], backoff: list,
                  now: float) -> None:
        """Hand ready tasks to the least-loaded workers with a free
        lease slot (cache hits complete without one)."""
        while ready:
            free = [worker for worker in self._alive()
                    if len(worker.leases) < QUEUE_DEPTH]
            if not free:
                return
            task = ready.popleft()
            if self._satisfy_from_cache(task, ready):
                continue
            worker = min(free, key=lambda w: len(w.leases))
            job = self._job_for_attempt(task)
            self._job_seq += 1
            lease = _Lease(self._job_seq, task)
            try:
                worker.conn.send((lease.job_id, task.kind, job))
            except OSError:
                # Never reached the worker: free requeue.
                ready.appendleft(task)
                self._end_worker(worker, "send-failed", ready, backoff, now)
                continue
            if not worker.leases:
                lease.started = now
            worker.leases.append(lease)

    def _receive(self, worker: _Worker, ready: Deque[_Task],
                 backoff: list) -> None:
        """Take one reply from ``worker``: it must unpickle to
        ``(job_id, (status, payload))`` naming the worker's oldest
        lease, or the worker is dropped rather than half-trusted."""
        reason = None
        try:
            job_id, (status, payload) = worker.conn.recv()
        except (EOFError, OSError):
            reason = "closed"
        except Exception:
            reason = "protocol-error"
        now = time.monotonic()
        if reason is None and (not worker.leases
                               or worker.leases[0].job_id != job_id):
            reason = "protocol-error"
        if reason is not None:
            self._end_worker(worker, reason, ready, backoff, now)
            return
        lease = worker.leases.popleft()
        if worker.leases:
            worker.leases[0].started = now
        self._handle_outcome(lease.task, status, payload, ready, backoff,
                             now)

    def _push_backoff(self, backoff, due: float, task: _Task) -> None:
        self._task_seq += 1
        heapq.heappush(backoff, (due, self._task_seq, task))

    def _handle_outcome(self, task: _Task, status: str, payload, ready,
                        backoff, now: float) -> None:
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

    def _end_worker(self, worker: _Worker, reason: str,
                    ready: Deque[_Task], backoff: list, now: float,
                    failure: Optional[RunFailure] = None) -> None:
        """Kill ``worker``; charge its oldest lease (``failure``, or a
        ``WorkerLost``), requeue the queued ones at no cost."""
        leases = list(worker.leases)
        worker.leases.clear()
        self._mark_dead(worker, reason)
        if not leases:
            self._unleased_deaths += 1
            return
        oldest = leases[0].task
        if failure is None:
            failure = self._worker_failure(
                oldest, "WorkerLost",
                f"worker {worker.ident} was lost ({reason}) while "
                "executing this job")
        delay = self._register_failure(oldest, failure)
        if delay is not None:
            self._push_backoff(backoff, now + delay, oldest)
        for lease in reversed(leases[1:]):
            ready.appendleft(lease.task)
            self.faults.note("lease.requeued", worker=worker.ident,
                             **lease.task.names)

    def _abandon(self, ready: Deque[_Task], backoff: list) -> None:
        """No worker is alive and none may be spawned: record every
        remaining job as a terminal ``WorkerLost`` failure."""
        leftovers = list(ready) + [task for _, _, task in sorted(backoff)]
        ready.clear()
        backoff.clear()
        self.faults.note("workers.exhausted",
                         unleased_deaths=self._unleased_deaths,
                         abandoned=len(leftovers))
        for task in leftovers:
            self._register_failure(task, self._worker_failure(
                task, "WorkerLost",
                f"no worker left to run this job: {self._unleased_deaths} "
                f"worker(s) died without a lease (budget "
                f"{2 * self.spec.jobs})"), retry=False)

    # -- the watchdog ---------------------------------------------------------

    def _enforce_deadlines(self, ready: Deque[_Task], backoff: list,
                           now: float) -> None:
        """End every worker whose oldest lease overran ``run_timeout``."""
        timeout = self.spec.resilience.run_timeout
        if timeout is None:
            return
        for worker in self._alive():
            if worker.leases and now - worker.leases[0].started > timeout:
                self._end_worker(worker, "run-timeout", ready, backoff, now,
                                 self._timeout_failure(worker.leases[0].task))
