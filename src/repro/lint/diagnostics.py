"""Structured static-check diagnostics: severities and findings.

A :class:`Finding` is one rule violation, anchored to a signal and/or a
process by hierarchical name and carrying a fix hint — the same shape an
industrial HDL lint tool emits, so the static gate can act on severity
and ``python -m repro.analysis`` can render text or JSON.  Waivers
(:mod:`repro.analysis.waivers`) flag findings without removing them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, asdict
from typing import Dict, Optional, Tuple


class Severity(enum.Enum):
    """Finding severity; the regression flow fails fast on ERROR."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass
class Finding:
    """One design-rule violation."""

    rule: str
    severity: Severity
    message: str
    signal: Optional[str] = None  # hierarchical signal name
    process: Optional[str] = None  # hierarchical process name
    path: Tuple[str, ...] = ()  # e.g. the full combinational loop
    hint: str = ""
    waived: bool = False

    @property
    def location(self) -> str:
        """Primary anchor: the signal if known, else the process."""
        return self.signal or self.process or "<design>"

    def render(self) -> str:
        mark = "waived " if self.waived else ""
        lines = [
            f"{mark}{self.severity.value}[{self.rule}] "
            f"{self.location}: {self.message}"
        ]
        if self.path:
            lines.append(f"    path: {' -> '.join(self.path)}")
        if self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["severity"] = self.severity.value
        data["path"] = list(self.path)
        return data
