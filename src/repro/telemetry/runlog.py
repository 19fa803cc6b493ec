"""Structured (JSON-lines) run logging with a fixed context.

Every record is one JSON object per line: ``{"event": ..., "ts": ...,
<context>, <record fields>}``.  A logger built with
``context={"config": "a", "test": "t01", "seed": 1, "view": "rtl"}``
stamps those coordinates on every record emitted inside a run without
the call sites repeating them.

Three sink modes:

* ``stream`` — write lines to an open text stream (e.g. ``sys.stderr``;
  never stdout: report artifacts must stay byte-identical with and
  without telemetry),
* ``path`` — append lines to a file the logger owns,
* ``buffer=True`` — collect records in memory; worker processes use this
  and ship ``records`` (plain dicts, picklable) back for the parent to
  replay in deterministic batch order via :meth:`write_record`.

A disabled logger (:data:`NULL_LOG`) ignores everything.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, TextIO


class RunLogger:
    """JSON-lines logger with a fixed context and pluggable sink."""

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        path: Optional[str] = None,
        buffer: bool = False,
        context: Optional[Dict[str, object]] = None,
        enabled: bool = True,
        _clock=time.time,
    ) -> None:
        if stream is not None and path is not None:
            raise ValueError("pass either stream or path, not both")
        self.enabled = enabled and (
            stream is not None or path is not None or buffer
        )
        self._stream = stream
        self._own_stream = False
        if path is not None and self.enabled:
            self._stream = open(path, "w", encoding="utf-8")
            self._own_stream = True
        self.records: List[dict] = []
        self._buffering = buffer
        self._context = dict(context or {})
        self._clock = _clock

    def log(self, event: str, **fields: object) -> None:
        """Emit one record carrying the logger's context."""
        if not self.enabled:
            return
        record: Dict[str, object] = {
            "event": event, "ts": round(self._clock(), 6),
        }
        record.update(self._context)
        record.update(fields)
        self.write_record(record)

    def write_record(self, record: dict) -> None:
        """Emit a pre-built record verbatim (used to replay worker logs)."""
        if not self.enabled:
            return
        if self._buffering:
            self.records.append(record)
        if self._stream is not None:
            self._stream.write(json.dumps(record) + "\n")

    def close(self) -> None:
        if self._own_stream and self._stream is not None:
            self._stream.close()
            self._stream = None


#: Shared disabled logger: the default for instrumented code paths.
NULL_LOG = RunLogger(enabled=False)
