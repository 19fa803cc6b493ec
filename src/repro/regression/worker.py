"""Worker process of the distributed regression service.

Spawned (loopback) by the coordinator as::

    python -m repro.regression.worker --connect HOST:PORT --token TOKEN

The worker connects back, authenticates with the one-batch token, and
then loops: receive a job frame, execute it through the *same* guarded
wrappers the process-pool engine uses
(:func:`~repro.regression.resilience.guarded_execute_run` and friends —
so crash isolation, chaos hooks and structured failures behave
identically at any distance), stream heartbeats while busy, and send
the outcome back as a result frame.  Artifacts (VCDs, reports) are
written directly to the batch workdir: loopback workers share the
coordinator's filesystem; remote hosts would add an artifact-upload
frame, which the protocol leaves room for.

A worker is deliberately stateless: it owns no queue and no cache.  Everything durable lives with the coordinator, so killing a
worker at any instant loses at most the single job it was leasing.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
from typing import List, Optional

from . import chaos
from .protocol import FrameConnection, ProtocolError, decode_payload, \
    encode_payload, frame_bytes


def _guards():
    # Imported lazily so ``--help`` stays instant.
    from .resilience import (
        guarded_execute_compare,
        guarded_execute_run,
        guarded_execute_triage,
    )

    return {
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


def serve(host: str, port: int, token: str, worker_id: str) -> int:
    """Connect to the coordinator and execute jobs until shutdown."""
    try:
        sock = socket.create_connection((host, port), timeout=10.0)
    except OSError as exc:
        print(f"worker {worker_id}: cannot reach coordinator "
              f"{host}:{port}: {exc}", file=sys.stderr)
        return 2
    sock.settimeout(None)
    conn = FrameConnection(sock)
    guards = _guards()
    try:
        conn.send({"type": "hello", "token": token, "pid": os.getpid(),
                   "worker_id": worker_id})
        while True:
            try:
                frame = conn.recv()
            except ProtocolError:
                return 2
            if frame is None or frame.get("type") == "shutdown":
                return 0
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
                outcome = guards[kind](job)
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
                # arrives; the coordinator re-leases after expiry.
                return 0
            if rule is not None and rule.mode == "net-delay":
                time.sleep(chaos.NET_DELAY_SECONDS)
            if rule is not None and rule.mode == "net-corrupt-frame":
                body = _corrupt(body)
            try:
                conn.send_raw(body)
            except OSError:
                # Coordinator already reclaimed our lease (or died);
                # nothing useful left to do with the result.
                return 0
            if rule is not None and rule.mode == "net-corrupt-frame":
                # The coordinator will drop this connection as
                # poisoned; exit cleanly rather than spin on it.
                return 0
    finally:
        conn.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.regression.worker",
        description="Worker process of the distributed regression "
                    "service; spawned by the coordinator, not by hand.",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address to dial back to")
    parser.add_argument("--token", required=True,
                        help="one-batch authentication token")
    parser.add_argument("--worker-id", default=None, metavar="ID",
                        help="stable identity for logs and telemetry "
                             "(default: w<pid>)")
    args = parser.parse_args(argv)
    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: bad --connect address {args.connect!r}",
              file=sys.stderr)
        return 2
    worker_id = args.worker_id or f"w{os.getpid()}"
    return serve(host or "127.0.0.1", port, args.token, worker_id)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
