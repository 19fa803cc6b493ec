"""Distributed coordinator of the fault-tolerant regression service.

:class:`DistributedBatchExecutor` shards a batch's run/compare/triage
jobs across worker *processes* speaking the framed-JSON protocol of
:mod:`repro.regression.protocol` over loopback TCP.  Workers are
spawned with ``python -m repro.regression.worker`` (the spawn command
is pluggable — :data:`SPAWN_ENV` or ``DistributedConfig.spawn_command``
— which is where remote hosts slot in later).

Ownership of a job is a **lease**: a worker holds at most one job, kept
alive by heartbeats.  A lease whose heartbeats stop (killed worker,
network partition) is reclaimed — the job is charged one attempt and
re-queued under the existing retry/backoff/quarantine policy of
:class:`~repro.regression.resilience.ResilientBatchExecutor`, of which
this class is a subclass: every completion, failure, cache store and
compare/triage hand-off goes through the exact same bookkeeping as the
serial and pool engines.  That is the whole byte-identity argument —
the distributed layer only changes *where* a job runs, never what a
completed batch contains.

Degradation ladder, worst first:

* a worker dies or goes silent → its lease is reclaimed, the job
  retried, the worker respawned (bounded by ``max_respawns``);
* every worker is dead and the respawn budget is spent → the remainder
  of the batch drains through the serial isolated-child path;
* no worker ever connects → one warning line, then the whole batch
  falls back to the local resilient executor.  Never a failure.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import queue
import shlex
import socket
import subprocess
import sys
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .protocol import (
    FrameConnection,
    ProtocolError,
    decode_payload,
    encode_payload,
)
from .resilience import _TICK, ResilientBatchExecutor, _Task

#: Environment override for the worker spawn command (shlex syntax);
#: the coordinator appends ``--connect/--token/--worker-id``.
SPAWN_ENV = "REPRO_WORKER_SPAWN"


@dataclass(frozen=True)
class DistributedConfig:
    """Cluster knobs for one distributed batch."""

    #: Worker processes to spawn.
    workers: int = 2
    #: A lease whose worker has been silent this long is reclaimed and
    #: its job re-queued (the worker, presumed gone, is killed).
    lease_seconds: float = 15.0
    #: Heartbeat interval workers are asked to use while busy; must be
    #: comfortably below ``lease_seconds``.
    heartbeat_seconds: float = 0.5
    #: How long to wait for the first worker to dial back before
    #: degrading to the local executor (also the per-worker join
    #: deadline after which an unconnected spawn is reaped).
    spawn_timeout: float = 30.0
    #: Replacement workers allowed over the batch (``None`` → twice the
    #: cluster size).  The budget bounds a crash-looping design.
    max_respawns: Optional[int] = None
    #: Spawn command override (tests swap in broken/instrumented
    #: workers); default is ``python -m repro.regression.worker``.
    spawn_command: Optional[Tuple[str, ...]] = None

    @property
    def respawn_budget(self) -> int:
        if self.max_respawns is not None:
            return self.max_respawns
        return 2 * self.workers


class _Lease:
    """One job currently owned by one worker."""

    __slots__ = ("job_id", "task", "started", "last_beat")

    def __init__(self, job_id: int, task: _Task, now: float) -> None:
        self.job_id = job_id
        self.task = task
        self.started = now
        self.last_beat = now


class _Worker:
    """Coordinator-side state of one worker process."""

    __slots__ = ("ident", "proc", "spawned_at", "conn", "pid", "lease",
                 "dead")

    def __init__(self, ident: str, proc: subprocess.Popen,
                 now: float) -> None:
        self.ident = ident
        self.proc = proc
        self.spawned_at = now
        self.conn: Optional[FrameConnection] = None
        self.pid: Optional[int] = None
        self.lease: Optional[_Lease] = None
        self.dead = False

    @property
    def joined(self) -> bool:
        return self.conn is not None and not self.dead


class DistributedBatchExecutor(ResilientBatchExecutor):
    """Run a regression batch across leased worker processes.

    Everything the base class owns — results, retry budget,
    compare/triage scheduling, the result cache — stays with the
    coordinator; workers are stateless executors.
    """

    def __init__(self, jobs_by_key, *,
                 distributed: Optional[DistributedConfig] = None,
                 **kwargs) -> None:
        super().__init__(jobs_by_key, **kwargs)
        self.distributed = distributed or DistributedConfig()
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._workers: Dict[str, _Worker] = {}
        self._listener: Optional[socket.socket] = None
        self._token = uuid.uuid4().hex
        self._respawns = 0
        self._job_seq = 0
        self._port: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------

    def execute(self):
        joined = 0
        try:
            joined = self._start_cluster()
        except OSError as exc:
            self.faults.note("cluster.error", error=str(exc))
        if not joined:
            self._teardown_cluster()
            print(
                "regression: no distributed workers reachable; degrading "
                "to the local resilient executor", file=sys.stderr)
            self.faults.degraded_local = True
            self.faults.note("cluster.degraded-local",
                             workers=self.distributed.workers)
            return super().execute()
        try:
            self._execute_distributed()
        finally:
            self._teardown_cluster()
        return (self.results, self.alignments, self.compare_telemetry,
                self.compare_failures, self.triages, self.triage_telemetry,
                self.faults)

    def _start_cluster(self) -> int:
        """Open the listener, spawn the cluster, wait for first contact.

        Returns the number of joined workers — zero means nobody dialed
        back (every spawn exited, or the timeout passed) and the caller
        degrades to local execution."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(self.distributed.workers + 4)
        self._listener = listener
        self._port = listener.getsockname()[1]
        threading.Thread(target=self._accept_loop, daemon=True).start()
        for _ in range(self.distributed.workers):
            self._spawn_worker()
        idle: Deque[_Task] = deque()
        deadline = time.monotonic() + self.distributed.spawn_timeout
        while time.monotonic() < deadline:
            if any(worker.joined for worker in self._workers.values()):
                break
            if (all(worker.proc.poll() is not None
                    for worker in self._workers.values())
                    and self._events.empty()):
                break  # every spawn is already dead; fail fast
            try:
                event = self._events.get(timeout=_TICK)
            except queue.Empty:
                continue
            self._handle_event(event, idle, [], time.monotonic())
        return sum(1 for worker in self._workers.values() if worker.joined)

    def _spawn_command(self) -> Sequence[str]:
        if self.distributed.spawn_command:
            return self.distributed.spawn_command
        text = os.environ.get(SPAWN_ENV)
        if text:
            return shlex.split(text)
        return (sys.executable, "-m", "repro.regression.worker")

    def _spawn_worker(self) -> _Worker:
        ident = f"w{len(self._workers)}"
        command = list(self._spawn_command()) + [
            "--connect", f"127.0.0.1:{self._port}",
            "--token", self._token, "--worker-id", ident,
        ]
        proc = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        worker = _Worker(ident, proc, time.monotonic())
        self._workers[ident] = worker
        return worker

    def _teardown_cluster(self) -> None:
        for worker in self._workers.values():
            if worker.conn is not None:
                try:
                    worker.conn.send({"type": "shutdown"})
                except OSError:
                    pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        grace = time.monotonic() + 2.0
        for worker in self._workers.values():
            while (worker.proc.poll() is None
                    and time.monotonic() < grace):
                time.sleep(0.02)
            if worker.proc.poll() is None:
                try:
                    worker.proc.kill()
                except OSError:
                    pass
            try:
                worker.proc.wait(timeout=5)
            except Exception:
                pass
            if worker.conn is not None:
                worker.conn.close()
                worker.conn = None

    # -- connection plumbing (reader threads feed one event queue) ----------

    def _accept_loop(self) -> None:
        # Hold a local reference: teardown nulls the attribute right
        # after closing the socket, and this thread may be mid-accept.
        listener = self._listener
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener closed: batch is over
            threading.Thread(target=self._serve_connection, args=(sock,),
                             daemon=True).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        conn = FrameConnection(sock)
        try:
            sock.settimeout(10.0)
            hello = conn.recv()
            sock.settimeout(None)
        except (ProtocolError, OSError):
            conn.close()
            return
        if (not hello or hello.get("type") != "hello"
                or hello.get("token") != self._token
                or hello.get("worker_id") not in self._workers):
            conn.close()
            return
        ident = hello["worker_id"]
        self._events.put(("joined", ident, conn, hello.get("pid")))
        while True:
            try:
                frame = conn.recv()
            except ProtocolError:
                # Poisoned connection (e.g. a corrupt result frame):
                # drop the worker rather than guess at the bytes.
                self._events.put(("lost", ident, "protocol-error"))
                return
            except OSError:
                self._events.put(("lost", ident, "closed"))
                return
            if frame is None:
                self._events.put(("lost", ident, "closed"))
                return
            self._events.put(("frame", ident, frame))

    # -- the scheduling loop ------------------------------------------------

    def _execute_distributed(self) -> None:
        ready: Deque[_Task] = deque(
            _Task("run", key, job) for key, job in self.jobs_by_key.items())
        backoff: List[Tuple[float, int, _Task]] = []
        while True:
            now = time.monotonic()
            self._reap_unjoined(now)
            self._enforce_leases(ready, backoff, now)
            while backoff and backoff[0][0] <= now:
                ready.append(heapq.heappop(backoff)[2])
            leased = sum(1 for worker in self._workers.values()
                         if not worker.dead and worker.lease is not None)
            if not ready and not backoff and not leased:
                return
            alive = sum(1 for worker in self._workers.values()
                        if not worker.dead)
            if (alive == 0
                    and self._respawns >= self.distributed.respawn_budget):
                self.faults.degraded_serial = True
                self.faults.note(
                    "cluster.exhausted", respawns=self._respawns,
                    detail="every worker is dead and the respawn budget "
                           "is spent; finishing the batch serially in "
                           "isolated child processes")
                self._drain_degraded(ready, backoff)
                return
            self._ensure_capacity(len(ready) + len(backoff) + leased)
            self._dispatch(ready, now)
            try:
                event = self._events.get(timeout=_TICK)
            except queue.Empty:
                continue
            self._handle_event(event, ready, backoff, time.monotonic())
            while True:
                try:
                    event = self._events.get_nowait()
                except queue.Empty:
                    break
                self._handle_event(event, ready, backoff, time.monotonic())

    def _dispatch(self, ready: Deque[_Task], now: float) -> None:
        idle = [worker for worker in self._workers.values()
                if worker.joined and worker.lease is None]
        while ready and idle:
            task = ready.popleft()
            if self._satisfy_from_cache(task, ready):
                continue
            worker = idle.pop()
            job = self._job_for_attempt(task)
            self._job_seq += 1
            worker.lease = _Lease(self._job_seq, task, now)
            try:
                worker.conn.send({
                    "type": "job", "job_id": worker.lease.job_id,
                    "kind": task.kind, "job": encode_payload(job),
                    "heartbeat": self.distributed.heartbeat_seconds,
                })
            except OSError:
                # Never reached the worker: free requeue, no attempt
                # charged; the reader thread will report the loss too,
                # but the worker is dead by then and it is ignored.
                worker.lease = None
                ready.appendleft(task)
                self._mark_dead(worker, "send-failed")

    def _ensure_capacity(self, pending: int) -> None:
        alive = sum(1 for worker in self._workers.values()
                    if not worker.dead)
        want = min(self.distributed.workers, pending)
        while (alive < want
                and self._respawns < self.distributed.respawn_budget):
            worker = self._spawn_worker()
            self._respawns += 1
            self.faults.worker_respawns += 1
            self.faults.note("worker.respawned", worker=worker.ident,
                             respawns=self._respawns,
                             budget=self.distributed.respawn_budget)
            alive += 1

    # -- event handling -----------------------------------------------------

    def _handle_event(self, event: tuple, ready: Deque[_Task],
                      backoff: list, now: float) -> None:
        kind, ident = event[0], event[1]
        worker = self._workers.get(ident)
        if worker is None or worker.dead:
            if kind == "joined":
                event[2].close()  # stale hello from a reaped worker
            return
        if kind == "joined":
            worker.conn = event[2]
            worker.pid = event[3]
            self.faults.note("worker.joined", worker=worker.ident,
                             pid=worker.pid)
            return
        if kind == "lost":
            self._on_worker_lost(worker, event[2], ready, backoff, now)
            return
        frame = event[2]
        frame_type = frame.get("type")
        if frame_type == "heartbeat":
            lease = worker.lease
            if lease is not None and lease.job_id == frame.get("job_id"):
                lease.last_beat = now
        elif frame_type == "result":
            self._on_result(worker, frame, ready, backoff, now)

    def _on_result(self, worker: _Worker, frame: dict,
                   ready: Deque[_Task], backoff: list, now: float) -> None:
        lease = worker.lease
        if lease is None or lease.job_id != frame.get("job_id"):
            # A result for a reclaimed lease (the net-delay case): the
            # job was already re-queued elsewhere, so a late result must
            # be discarded or the batch double-completes.
            self.faults.note("result.stale", worker=worker.ident,
                             job_id=frame.get("job_id"))
            return
        worker.lease = None
        try:
            outcome = decode_payload(frame["outcome"])
        except Exception as exc:
            failure = dataclasses.replace(
                self._pool_crash_failure(lease.task),
                exc_type="UndecodableResult",
                message=f"worker {worker.ident} returned an undecodable "
                        f"result payload: {exc}")
            delay = self._register_failure(lease.task, failure)
            if delay is not None:
                self._push_backoff(backoff, now + delay, lease.task)
            return
        self._handle_outcome(lease.task, outcome, ready, backoff, now)

    def _on_worker_lost(self, worker: _Worker, reason: str,
                        ready: Deque[_Task], backoff: list,
                        now: float) -> None:
        lease, worker.lease = worker.lease, None
        self._mark_dead(worker, reason)
        if lease is None:
            return
        failure = dataclasses.replace(
            self._pool_crash_failure(lease.task), exc_type="WorkerLost",
            message=f"distributed worker {worker.ident} was lost "
                    f"({reason}) while executing this job")
        delay = self._register_failure(lease.task, failure)
        if delay is not None:
            self._push_backoff(backoff, now + delay, lease.task)

    def _mark_dead(self, worker: _Worker, reason: str) -> None:
        if worker.dead:
            return
        worker.dead = True
        if worker.conn is not None:
            worker.conn.close()
            worker.conn = None
        if worker.proc.poll() is None:
            try:
                worker.proc.kill()
            except OSError:
                pass
        self.faults.worker_deaths += 1
        self.faults.note("worker.lost", worker=worker.ident, reason=reason)

    # -- watchdogs ----------------------------------------------------------

    def _reap_unjoined(self, now: float) -> None:
        for worker in self._workers.values():
            if worker.dead or worker.conn is not None:
                continue
            if worker.proc.poll() is not None:
                self._mark_dead(worker, "exited-before-join")
            elif now - worker.spawned_at > self.distributed.spawn_timeout:
                self._mark_dead(worker, "never-joined")

    def _enforce_leases(self, ready: Deque[_Task], backoff: list,
                        now: float) -> None:
        for worker in self._workers.values():
            if worker.dead or worker.lease is None:
                continue
            lease = worker.lease
            timeout = self.config.run_timeout
            if timeout is not None and now - lease.started > timeout:
                worker.lease = None
                delay = self._register_failure(
                    lease.task, self._timeout_failure(lease.task))
                if delay is not None:
                    self._push_backoff(backoff, now + delay, lease.task)
                self._mark_dead(worker, "run-timeout")
                continue
            silent = now - lease.last_beat
            if silent > self.distributed.lease_seconds:
                worker.lease = None
                self.faults.lease_reclaims += 1
                self.faults.note("lease.reclaimed", worker=worker.ident,
                                 silent_seconds=round(silent, 3),
                                 **lease.task.names)
                failure = dataclasses.replace(
                    self._pool_crash_failure(lease.task),
                    exc_type="LeaseExpired",
                    message=f"worker {worker.ident} stopped heartbeating "
                            f"({silent:.1f}s silent); lease reclaimed")
                delay = self._register_failure(lease.task, failure)
                if delay is not None:
                    self._push_backoff(backoff, now + delay, lease.task)
                self._mark_dead(worker, "lease-expired")
