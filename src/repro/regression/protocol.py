"""The coordinator↔worker wire protocol of the leased executor.

Deliberately tiny: **length-prefixed JSON frames** over one
``socket.socketpair()`` per worker.  Every frame is a 4-byte big-endian
length followed by that many bytes of UTF-8 JSON (one object).  Rich
values — jobs, run results, alignment reports — ride inside frames as
*payload strings*: zlib-compressed pickles, base64-armored so they
embed in JSON.  That keeps the framing layer trivially debuggable while
the payloads are the exact picklable job/result values the inline path
produces.

Frame types (``type`` field):

========== ============ ==========================================
type       direction    fields
========== ============ ==========================================
job        co → worker  ``job_id``, ``kind`` (run|compare|triage),
                        ``job`` (payload), ``heartbeat`` (seconds)
heartbeat  worker → co  ``job_id``
result     worker → co  ``job_id``, ``outcome`` (payload)
========== ============ ==========================================

End-of-file is the only other signal: the coordinator closing its end
tells the worker the batch is over.  A frame that fails to parse
(truncated, oversized, corrupt bytes) is a :class:`ProtocolError`; the
coordinator treats the connection as poisoned — the worker is dropped
and its leased job re-leased — rather than guessing at intent.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct
import threading
import zlib
from typing import Optional

#: Frames beyond this are a protocol violation, not a big result.
MAX_FRAME_BYTES = 1 << 30

#: struct format of the length prefix.
_HEADER = ">I"
_HEADER_BYTES = 4


class ProtocolError(Exception):
    """The peer sent bytes that are not a well-formed frame."""


def encode_payload(value) -> str:
    """Arm a picklable value for transport inside a JSON frame."""
    return base64.b64encode(
        zlib.compress(pickle.dumps(value, protocol=4))).decode("ascii")


def decode_payload(text: str):
    return pickle.loads(zlib.decompress(base64.b64decode(text)))


def frame_bytes(obj: dict) -> bytes:
    """Serialize one frame body (without the length prefix)."""
    return json.dumps(obj, sort_keys=True).encode("utf-8")


class FrameConnection:
    """One framed stream-socket connection.

    Sending is serialized by a lock (the worker's heartbeat thread and
    its main loop share the socket); receiving is single-reader.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    # -- send ---------------------------------------------------------------

    def send(self, obj: dict) -> None:
        self.send_raw(frame_bytes(obj))

    def send_raw(self, body: bytes) -> None:
        """Send pre-serialized frame bytes (the chaos ``net-corrupt-frame``
        hook flips a byte in ``body`` before calling this)."""
        header = struct.pack(_HEADER, len(body))
        with self._send_lock:
            self.sock.sendall(header + body)

    # -- receive ------------------------------------------------------------

    def _recv_exact(self, count: int) -> Optional[bytes]:
        chunks = []
        remaining = count
        while remaining:
            chunk = self.sock.recv(remaining)
            if not chunk:
                if remaining == count and not chunks:
                    return None  # clean EOF on a frame boundary
                raise ProtocolError(
                    f"connection closed mid-frame ({count - remaining}"
                    f"/{count} bytes)")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> Optional[dict]:
        """Read one frame; ``None`` on clean EOF,
        :class:`ProtocolError` on anything malformed."""
        header = self._recv_exact(_HEADER_BYTES)
        if header is None:
            return None
        (length,) = struct.unpack(_HEADER, header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length {length} exceeds the "
                                f"{MAX_FRAME_BYTES}-byte ceiling")
        body = self._recv_exact(length)
        if body is None:
            raise ProtocolError("connection closed before frame body")
        try:
            frame = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"corrupt frame: {exc}")
        if not isinstance(frame, dict) or "type" not in frame:
            raise ProtocolError("frame is not an object with a 'type'")
        return frame

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
