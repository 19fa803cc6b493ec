"""Symbolic pass: per-port RTL/BCA agreement.

:mod:`~repro.analysis.symbolic.equiv` checks functional RTL/BCA
agreement on bare dual harnesses: comb-cone enumeration from reset on
both simulators plus bounded lockstep execution of both views under
identical stimulus, one ``AGREED``/``MISMATCH`` verdict per interface
port.  Agreement is a bounded check, not a proof.

Everything here is reachable through ``python -m repro.analysis
--symbolic`` and :func:`repro.analysis.analyze_config` with
``symbolic=True``; with the flag off none of these modules is imported
and the analysis output carries no ``symbolic`` key.  The UNR verdicts
are the same either way: :mod:`repro.analysis.unr` decides them alone.
"""

from .equiv import (
    DEFAULT_DOMAIN_BUDGET,
    PortEquivalence,
    check_functional_equivalence,
)
from .report import SymbolicReport, run_symbolic_analysis

__all__ = [
    "DEFAULT_DOMAIN_BUDGET",
    "PortEquivalence",
    "SymbolicReport",
    "check_functional_equivalence",
    "run_symbolic_analysis",
]
