"""Waiver parsing and matching for the static checker.

A waiver file holds one ``<rule-glob> <location-glob> [# reason]`` per
line; the regression's ``--lint-waivers`` and the analysis CLI's
``--waivers`` read the same dialect.  This module is deliberately a
leaf: it imports nothing from the rest of the package.

Matching is duck-typed: anything with ``rule`` and ``location``
attributes (``repro.analysis.diagnostics.Finding``) can be waived.
Waived findings stay in reports — flagged, but excluded from the error
counts that gate the flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, List, Sequence


@dataclass(frozen=True)
class Waiver:
    """Suppress findings whose rule and location match the glob patterns."""

    rule: str
    location: str
    reason: str = ""

    def matches(self, finding) -> bool:
        """``finding`` is anything with ``rule``/``location`` attributes."""
        return fnmatchcase(finding.rule, self.rule) and fnmatchcase(
            finding.location, self.location
        )


class WaiverError(ValueError):
    """A waiver file line could not be parsed."""


def parse_waivers(text: str) -> List[Waiver]:
    """Parse the waiver file format.

    One waiver per line: ``<rule-glob> <location-glob> [# reason]``.
    Blank lines and pure comment lines are skipped.
    """
    waivers: List[Waiver] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise WaiverError(
                f"waiver line {lineno}: expected '<rule> <location>', "
                f"got {raw.strip()!r}"
            )
        waivers.append(Waiver(parts[0], parts[1], comment.strip()))
    return waivers


def apply_waivers(findings: Iterable, waivers: Sequence[Waiver]) -> None:
    """Mark findings matched by any waiver (in place, via ``.waived``)."""
    if not waivers:
        return
    for finding in findings:
        if any(w.matches(finding) for w in waivers):
            finding.waived = True


def load_waiver_file(path: str) -> List[Waiver]:
    """Read and parse one waiver file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_waivers(handle.read())
