"""Cycle-based simulation kernel (the NCSim substitute).

Public API:

- :class:`Signal` — 2-state wire/register with deferred commit
- :class:`Simulator` — single-clock scheduler with delta-cycle settling
- :class:`Module` — hierarchical container for signals and processes
- :class:`Tracer` — per-cycle waveform observer interface
- :func:`drive_changes` — a sole writer's drive of only the pins that change
"""

from .signal import (
    MultipleDriverError,
    Signal,
    SignalError,
    WidthError,
    drive_changes,
    multiple_driver_message,
)
from .simulator import (
    MAX_DELTAS,
    DeltaOverflowError,
    ElaborationError,
    ProcessInfo,
    Simulator,
    SimulatorError,
    Tracer,
    delta_overflow_message,
)
from .module import Module

__all__ = [
    "Signal",
    "SignalError",
    "MultipleDriverError",
    "WidthError",
    "Simulator",
    "SimulatorError",
    "DeltaOverflowError",
    "ElaborationError",
    "ProcessInfo",
    "Tracer",
    "Module",
    "MAX_DELTAS",
    "multiple_driver_message",
    "drive_changes",
    "delta_overflow_message",
]
