"""Structural design rules for elaborated designs.

The rules run over an elaborated :class:`~repro.kernel.Simulator` *before
any cycle is simulated* and report structural defects — combinational
feedback loops, driver conflicts, floating inputs, dead nets, width
violations, incomplete sensitivity lists — as structured findings with
severities, hierarchical locations and fix hints.  They are the
structural tier of the one static checker, :mod:`repro.analysis`
(``python -m repro.analysis``); this package holds the
:class:`DesignGraph` they read, their check functions and a defective
demo design.

:func:`lint_config` is the regression flow's default gate: the
structural tier over both views of one configuration, plus the check
that the RTL and BCA views present the identical port interface the
common verification environment binds to.
"""

from .diagnostics import Finding, Severity
from .graph import DesignGraph

# The checker's modules import this package's submodules, so either side
# may meet the other partly initialised: bind modules, read names per call.
from ..analysis import rules as _rules, runner as _runner


def lint_config(config, *, waivers=(), contexts=None):
    """The structural tier of :func:`repro.analysis.analyze_config`."""
    return _runner.analyze_config(config, rules=_rules.STRUCTURAL_RULES,
                                  waivers=waivers, contexts=contexts)


__all__ = ["DesignGraph", "Finding", "Severity", "lint_config"]
