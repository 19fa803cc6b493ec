"""Small filesystem helpers shared across the tool suite.

The fault-tolerance contract of the regression engine is that a killed
worker never leaves a half-written artifact behind that a later rerun
would trust: every report, VCD and telemetry export is written to a
sibling temp file and moved into place with the atomic
:func:`os.replace`.  A reader therefore either sees the complete old
file, the complete new file, or no file at all — never a torn one.
"""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator

#: Suffix of the sibling temp file :func:`atomic_write` stages into.
TMP_SUFFIX = ".tmp~"


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w",
                 encoding: str = "utf-8") -> Iterator[IO]:
    """Open ``path + ".tmp~"`` for writing and :func:`os.replace` it over
    ``path`` on clean exit; on an exception the temp file is removed and
    the final path is left untouched."""
    tmp = path + TMP_SUFFIX
    handle = open(tmp, mode, encoding=encoding)
    try:
        yield handle
    except BaseException:
        handle.close()
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    handle.flush()
    handle.close()
    os.replace(tmp, path)

