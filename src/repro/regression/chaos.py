"""Deterministic fault injection for the resilience test suite.

The resilience layer needs reproducible job crashes, hard process
deaths and hangs to test against.  This module provides a test-only
injection point keyed off the ``REPRO_CHAOS`` environment variable,
which crosses the process boundary for free (forked workers inherit the
parent's environment).  When the variable is unset — the production
case — the hook is a no-op costing one dict lookup.

Spec grammar (semicolon-separated rules)::

    REPRO_CHAOS = "MODE:CONFIG:TEST:SEED:VIEW; ..."

* ``MODE`` — one of :data:`CHAOS_MODES`:

  - ``crash``  raise ``RuntimeError`` inside the run job,
  - ``exit``   ``os._exit(42)`` inside the run job: the OS killing a
    worker mid-job (the coordinator sees end-of-file on the worker's
    pipe); inline, it ends the batch itself,
  - ``hang``   sleep far past any sane deadline (watchdog food).

* ``CONFIG``/``TEST``/``SEED``/``VIEW`` — match fields for one
  (config, test, seed, view) run; ``*`` matches anything.

A job is a pure function of its coordinates, so a matching rule faults
every execution of it; a rerun with the variable unset (against the
same ``--cache-dir``) is how a test recovers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

#: Environment variable holding the chaos spec.
CHAOS_ENV = "REPRO_CHAOS"

CHAOS_MODES = ("crash", "exit", "hang")

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

    def matches(self, config: str, test: str, seed: int, view: str) -> bool:
        for pattern, value in (
            (self.config, config), (self.test, test),
            (self.seed, str(seed)), (self.view, view),
        ):
            if pattern != "*" and pattern != value:
                return False
        return True


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
            if len(parts) != 5:
                raise ChaosError(
                    f"bad chaos rule {chunk!r}: want "
                    "MODE:CONFIG:TEST:SEED:VIEW"
                )
            if parts[0] not in CHAOS_MODES:
                raise ChaosError(
                    f"bad chaos mode {parts[0]!r}: want one of "
                    f"{CHAOS_MODES}")
            rules.append(ChaosRule(*parts))
        return cls(tuple(rules))

    @classmethod
    def from_env(cls, environ=os.environ) -> "ChaosSpec":
        text = environ.get(CHAOS_ENV, "")
        if not text:
            return _INERT
        return cls.parse(text)

    def rule_for(self, config: str, test: str, seed: int,
                 view: str) -> Optional[ChaosRule]:
        for rule in self.rules:
            if rule.matches(config, test, seed, view):
                return rule
        return None


_INERT = ChaosSpec()


def inject_before_run(job) -> None:
    """Fault hook at the top of a guarded run job (worker side)."""
    rule = ChaosSpec.from_env().rule_for(
        job.config.name, job.test_name, job.seed, job.view)
    if rule is None:
        return
    if rule.mode == "crash":
        raise RuntimeError(
            f"chaos: injected crash ({job.config.name}/{job.test_name}"
            f"/s{job.seed}/{job.view})"
        )
    if rule.mode == "exit":
        os._exit(42)
    time.sleep(HANG_SECONDS)
