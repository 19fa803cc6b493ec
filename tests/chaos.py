"""Deterministic fault injection for the regression tests.

A :class:`Chaos` stands in for ``repro.regression.resilience.execute_run_job``,
which the run guard looks up on every call: a run job its spec matches
faults, every other job runs as usual.  Forked workers inherit the
stand-in, so the faults reach leased workers too.  In-process tests take
the ``chaos`` fixture (``tests/conftest.py``) and call :meth:`Chaos.set`;
CLI-level tests and CI run a batch under a spec with::

    python -m tests.chaos SPEC ARGS...

which installs SPEC, runs ``python -m repro.regression ARGS...`` in the
same process and returns its exit status unchanged (130 on SIGINT).

Spec grammar (semicolon-separated rules)::

    MODE:CONFIG:TEST:SEED:VIEW; ...

* ``MODE`` — one of :data:`CHAOS_MODES`:

  - ``crash``  raise ``RuntimeError`` inside the run job,
  - ``exit``   ``os._exit(42)`` inside the run job: the OS killing a
    worker mid-job (the coordinator sees end-of-file on the worker's
    pipe); inline, it ends the batch itself,
  - ``hang``   sleep far past any sane deadline (watchdog food).

* ``CONFIG``/``TEST``/``SEED``/``VIEW`` — match fields for one
  (config, test, seed, view) run; ``*`` matches anything.

A job is a pure function of its coordinates, so a matching rule faults
every execution of it; a rerun with the spec cleared (against the same
``--cache-dir``) is how a test recovers.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.regression import resilience
from repro.regression.cli import main as regression_main

CHAOS_MODES = ("crash", "exit", "hang")

#: How long a ``hang`` sleeps; far beyond any test deadline, far below
#: a CI job timeout.
HANG_SECONDS = 600.0


class ChaosError(ValueError):
    """Malformed chaos spec."""


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
    """All active rules; the empty spec faults nothing."""

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

    def rule_for(self, config: str, test: str, seed: int,
                 view: str) -> Optional[ChaosRule]:
        for rule in self.rules:
            if rule.matches(config, test, seed, view):
                return rule
        return None


class Chaos:
    """The run-job entry point with faults: :meth:`inject` first, then
    the wrapped ``execute_run_job``."""

    def __init__(self, execute_run_job) -> None:
        self.execute_run_job = execute_run_job
        self.spec = ChaosSpec()

    def set(self, text: str = "") -> None:
        """Fault the jobs ``text`` matches ("" faults none); a worker
        forked before the call keeps the spec it was forked with."""
        self.spec = ChaosSpec.parse(text)

    def __call__(self, job):
        self.inject(job)
        return self.execute_run_job(job)

    def inject(self, job) -> None:
        rule = self.spec.rule_for(
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


def install(setattr=setattr) -> Chaos:
    """Put a :class:`Chaos` in place of ``execute_run_job``; the
    ``chaos`` fixture passes ``monkeypatch.setattr`` to undo it."""
    chaos = Chaos(resilience.execute_run_job)
    setattr(resilience, "execute_run_job", chaos)
    return chaos


def main(argv) -> int:
    """``python -m tests.chaos SPEC ARGS...``: the regression CLI on
    ``ARGS`` with the run jobs ``SPEC`` matches faulted."""
    install().set(argv[0])
    return regression_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
