"""Symbolic pass: per-port RTL/BCA agreement and exact UNR.

Two engines behind ``--symbolic``:

* :mod:`~repro.analysis.symbolic.equiv` — functional RTL/BCA agreement
  on bare dual harnesses: comb-cone enumeration from reset on both
  simulators plus bounded lockstep execution of both views under
  identical stimulus, one ``AGREED``/``MISMATCH`` verdict per interface
  port.  Agreement is a bounded check, not a proof;
* :mod:`~repro.analysis.symbolic.reach` — the exact address-interval
  reachability engine that upgrades probe-based UNKNOWN verdicts to
  REACHABLE (with a concrete witness vector) or UNREACHABLE (with an
  interval-coverage proof).

Everything here is reachable through ``python -m repro.analysis
--symbolic`` and :func:`repro.analysis.analyze_config` with
``symbolic=True``; with the flag off none of these modules is imported
and the analysis output stays byte-identical to the non-symbolic pass.
"""

from .equiv import (
    DEFAULT_DOMAIN_BUDGET,
    PortEquivalence,
    check_functional_equivalence,
)
from .reach import exact_decode_verdict, upgrade_unr_report
from .report import SymbolicReport, run_symbolic_analysis

__all__ = [
    "DEFAULT_DOMAIN_BUDGET",
    "PortEquivalence",
    "SymbolicReport",
    "check_functional_equivalence",
    "exact_decode_verdict",
    "run_symbolic_analysis",
    "upgrade_unr_report",
]
