"""Failure triage: first-divergence localization and cone-ranked suspects.

When a regression entry fails — the arbitration checkers flag the BCA,
or the bus-alignment rate drops below sign-off — this package walks the
two waveform dumps in lockstep to the first (signal, cycle) point where
they split, intersects the static fan-in cone of that signal with the
process write-sets to shrink the whole model to a ranked suspect list,
and emits a self-contained minimal repro (``triage.json``): the replay
command, the trimmed cycle window, the cone wave excerpt and the
configuration text.
"""

from .divergence import (
    DivergenceScan,
    SignalDivergence,
    find_first_divergence,
)
from .suspects import Suspect, SuspectReport, rank_suspects
from .report import (
    REASON_ALIGNMENT,
    REASON_CHECKERS,
    REASON_MANUAL,
    TRIAGE_SCHEMA,
    TRIAGE_SCHEMA_VERSION,
    VERDICT_LOCALIZED,
    VERDICT_NOT_PIN_VISIBLE,
    TriageReport,
    build_triage,
    load_triage,
    triage_entry,
)

__all__ = [
    "SignalDivergence",
    "DivergenceScan",
    "find_first_divergence",
    "Suspect",
    "SuspectReport",
    "rank_suspects",
    "TriageReport",
    "triage_entry",
    "build_triage",
    "load_triage",
    "TRIAGE_SCHEMA",
    "TRIAGE_SCHEMA_VERSION",
    "REASON_CHECKERS",
    "REASON_ALIGNMENT",
    "REASON_MANUAL",
    "VERDICT_LOCALIZED",
    "VERDICT_NOT_PIN_VISIBLE",
]
