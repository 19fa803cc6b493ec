"""Deterministic fault injection for the resilience test suite.

The resilience layer needs reproducible worker crashes, hard process
deaths, hangs, corrupt VCDs and corrupt cache entries to test against.
This module provides a test-only injection point keyed off the
``REPRO_CHAOS`` environment variable, which crosses the process
boundary for free (forked workers inherit the parent's environment).
When the variable is unset — the production case — every hook is a
no-op costing one dict lookup.

Spec grammar (semicolon-separated rules)::

    REPRO_CHAOS = "MODE:CONFIG:TEST:SEED:VIEW[:LIMIT]; ..."

* ``MODE`` — one of :data:`CHAOS_MODES`:

  - ``crash``        raise ``RuntimeError`` inside the run job,
  - ``exit``         ``os._exit(42)`` (kills the worker mid-job),
  - ``hang``         sleep far past any sane deadline (watchdog food),
  - ``truncate-vcd`` let the run succeed, then corrupt its VCD so the
    compare stage fails on a truncated dump,
  - ``worker-kill``  ``os._exit(43)`` — the OS OOM-killing a worker
    mid-job (the coordinator sees end-of-file on the worker's pipe and
    re-leases the job),
  - ``cache-corrupt`` let the run succeed and be stored, then flip a
    byte inside its result-cache entry so the next lookup must detect
    the corruption, quarantine the entry and re-execute.

* ``CONFIG``/``TEST``/``SEED``/``VIEW`` — match fields for one
  (config, test, seed, view) run; ``*`` matches anything.
* ``LIMIT`` — trigger only while the job's attempt number is below it
  (so ``:1`` faults the first attempt and lets the retry succeed);
  omitted means trigger on every attempt.

The attempt number rides on :class:`~repro.regression.parallel.RunJob`
itself, so limited rules are deterministic without any cross-process
shared state.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

#: Environment variable holding the chaos spec.
CHAOS_ENV = "REPRO_CHAOS"

CHAOS_MODES = ("crash", "exit", "hang", "truncate-vcd", "worker-kill",
               "cache-corrupt")

#: The modes the in-process run hooks act on (everything a worker can
#: suffer); the VCD and cache faults live in their own hooks so one
#: rule never shadows another hook's modes.
EXEC_MODES = ("crash", "exit", "hang", "worker-kill")

#: How long a ``hang`` sleeps; far beyond any test deadline, far below
#: a CI job timeout.
HANG_SECONDS = 600.0


class ChaosError(ValueError):
    """Malformed ``REPRO_CHAOS`` spec."""


@dataclass(frozen=True)
class ChaosRule:
    """One parsed directive of the chaos spec."""

    mode: str
    config: str
    test: str
    seed: str
    view: str
    limit: Optional[int] = None

    def matches(self, config: str, test: str, seed: int, view: str,
                attempt: int) -> bool:
        for pattern, value in (
            (self.config, config), (self.test, test),
            (self.seed, str(seed)), (self.view, view),
        ):
            if pattern != "*" and pattern != value:
                return False
        return self.limit is None or attempt < self.limit


@dataclass(frozen=True)
class ChaosSpec:
    """All active rules; :meth:`from_env` is empty when the var is unset."""

    rules: Tuple[ChaosRule, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        rules = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) not in (5, 6):
                raise ChaosError(
                    f"bad chaos rule {chunk!r}: want "
                    "MODE:CONFIG:TEST:SEED:VIEW[:LIMIT]"
                )
            mode = parts[0]
            if mode not in CHAOS_MODES:
                raise ChaosError(
                    f"bad chaos mode {mode!r}: want one of {CHAOS_MODES}")
            limit: Optional[int] = None
            if len(parts) == 6:
                try:
                    limit = int(parts[5])
                except ValueError:
                    raise ChaosError(f"bad chaos limit {parts[5]!r}")
            rules.append(ChaosRule(mode, parts[1], parts[2], parts[3],
                                   parts[4], limit))
        return cls(tuple(rules))

    @classmethod
    def from_env(cls, environ=os.environ) -> "ChaosSpec":
        text = environ.get(CHAOS_ENV, "")
        if not text:
            return _INERT
        return cls.parse(text)

    def rule_for(self, config: str, test: str, seed: int, view: str,
                 attempt: int,
                 modes: Optional[Tuple[str, ...]] = None,
                 ) -> Optional[ChaosRule]:
        for rule in self.rules:
            if modes is not None and rule.mode not in modes:
                continue
            if rule.matches(config, test, seed, view, attempt):
                return rule
        return None


_INERT = ChaosSpec()


def _corrupt_vcd(path: str) -> None:
    """Truncate a finished dump mid-header — exactly what a worker killed
    before ``finish()`` used to leave behind pre-atomic-writes."""
    size = os.path.getsize(path)
    with open(path, "r+", encoding="ascii") as handle:
        handle.truncate(min(200, size // 2))


def inject_before_run(job) -> None:
    """Fault hook at the top of a guarded run job (worker side)."""
    rule = ChaosSpec.from_env().rule_for(
        job.config.name, job.test_name, job.seed, job.view, job.attempt,
        modes=EXEC_MODES)
    if rule is None:
        return
    if rule.mode == "crash":
        raise RuntimeError(
            f"chaos: injected crash ({job.config.name}/{job.test_name}"
            f"/s{job.seed}/{job.view}, attempt {job.attempt})"
        )
    if rule.mode == "exit":
        os._exit(42)
    if rule.mode == "worker-kill":
        os._exit(43)
    if rule.mode == "hang":
        time.sleep(HANG_SECONDS)


def inject_after_run(job) -> None:
    """Fault hook after a run job completed (worker side)."""
    rule = ChaosSpec.from_env().rule_for(
        job.config.name, job.test_name, job.seed, job.view, job.attempt,
        modes=("truncate-vcd",))
    if rule is not None and job.vcd_path:
        _corrupt_vcd(job.vcd_path)


def _flip_byte(path: str, offset: int = -1) -> None:
    """Flip one byte of ``path`` in place (default: in the middle)."""
    size = os.path.getsize(path)
    if not size:
        return
    position = size // 2 if offset < 0 else min(offset, size - 1)
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))


def inject_after_cache_store(job, entry_path: Optional[str]) -> None:
    """Fault hook after a run's result was published to the result
    cache (coordinator side): ``cache-corrupt`` flips one byte of the
    just-written entry so the *next* lookup exercises the
    verify-quarantine-reexecute path."""
    if entry_path is None:
        return
    rule = ChaosSpec.from_env().rule_for(
        job.config.name, job.test_name, job.seed, job.view,
        getattr(job, "attempt", 0), modes=("cache-corrupt",))
    if rule is not None:
        _flip_byte(entry_path)
