"""Shared fixture of the experiment benches: where they write records.

A bench writes what it measured to ``.bench_build/BENCH_<name>.json``
at the repository root, never over the committed
``benchmarks/BENCH_<name>.json``: running the benches leaves the
checkout clean, and a committed record changes only when it is copied
over on purpose.  Every gate asserts on the in-memory measurement, not
on either file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RECORD_DIR = Path(__file__).resolve().parents[1] / ".bench_build"


@pytest.fixture
def write_record():
    """``write_record(name, payload)`` writes ``payload`` as indented
    JSON to ``.bench_build/<name>`` and returns the path."""
    def write(name: str, payload: dict) -> Path:
        RECORD_DIR.mkdir(parents=True, exist_ok=True)
        path = RECORD_DIR / name
        path.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
        return path
    return write
