"""Worker process of the regression batch's leased executor.

Forked by :class:`~repro.regression.distributed.DistributedBatchExecutor`
with one end of a ``socket.socketpair()``.  The worker loops: receive a
job frame, execute it through the guarded wrappers of
:mod:`repro.regression.resilience` (so crash isolation, chaos hooks and
structured failures behave exactly as on the inline path), stream
heartbeats while busy, and send the outcome back as a result frame.
Frames are executed in the order they arrive; the coordinator keeps at
most one job queued behind the running one.  Artifacts (VCDs, reports)
are written directly to the batch workdir.

A worker is deliberately stateless: it owns no cache and no retry
policy.  Everything durable lives with the coordinator, so killing a
worker at any instant loses at most the job it was running; the queued
one is requeued at no cost.  End-of-file on the socket means the batch
is over.
"""

from __future__ import annotations

import threading
import time

from . import chaos
from .protocol import FrameConnection, ProtocolError, decode_payload, \
    encode_payload, frame_bytes
from .resilience import (
    guarded_execute_compare,
    guarded_execute_run,
    guarded_execute_triage,
)

_GUARDS = {
    "run": guarded_execute_run,
    "compare": guarded_execute_compare,
    "triage": guarded_execute_triage,
}


def _heartbeat_loop(conn: FrameConnection, job_id: int, interval: float,
                    stop: threading.Event) -> None:
    """Send a heartbeat for ``job_id`` every ``interval`` seconds until
    the job finishes; a send failure means the coordinator is gone and
    the worker's main loop will discover it on its own."""
    while not stop.wait(interval):
        try:
            conn.send({"type": "heartbeat", "job_id": job_id})
        except OSError:
            return


def _corrupt(body: bytes) -> bytes:
    """Flip one byte in the middle of a frame body (chaos
    ``net-corrupt-frame``)."""
    if not body:
        return body
    position = len(body) // 2
    return (body[:position] + bytes([body[position] ^ 0xFF])
            + body[position + 1:])


def serve(conn: FrameConnection) -> None:
    """Execute job frames from ``conn`` until end-of-file."""
    try:
        while True:
            try:
                frame = conn.recv()
            except (ProtocolError, OSError):
                return
            if frame is None:
                return
            if frame.get("type") != "job":
                continue
            job_id = frame["job_id"]
            kind = frame["kind"]
            job = decode_payload(frame["job"])
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(conn, job_id, float(frame.get("heartbeat", 1.0)),
                      stop),
                daemon=True,
            )
            beat.start()
            try:
                outcome = _GUARDS[kind](job)
            finally:
                stop.set()
                beat.join()
            rule = chaos.net_rule_for(job) if kind == "run" else None
            body = frame_bytes({
                "type": "result", "job_id": job_id,
                "outcome": encode_payload(outcome),
            })
            if rule is not None and rule.mode == "net-drop":
                # Partition: the work happened, the result never
                # arrives; the coordinator sees the connection close.
                return
            if rule is not None and rule.mode == "net-delay":
                time.sleep(chaos.NET_DELAY_SECONDS)
            if rule is not None and rule.mode == "net-corrupt-frame":
                body = _corrupt(body)
            try:
                conn.send_raw(body)
            except OSError:
                # The coordinator already reclaimed our lease (or died);
                # nothing useful left to do with the result.
                return
            if rule is not None and rule.mode == "net-corrupt-frame":
                # The coordinator will drop this connection as
                # poisoned; exit cleanly rather than spin on it.
                return
    finally:
        conn.close()
