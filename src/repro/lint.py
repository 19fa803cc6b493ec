"""The regression flow's default gate, :func:`lint_config`, and nothing else.

The static checker is :mod:`repro.analysis`.  ``RegressionRunner.gate``
calls :func:`lint_config` by module attribute, so a wrapper set here
sees every gate call.
"""

from .analysis.rules import STRUCTURAL_RULES as _STRUCTURAL_RULES
from .analysis.runner import analyze_config as _analyze_config


def lint_config(config, *, waivers=(), contexts=None):
    """The structural tier of :func:`repro.analysis.analyze_config`."""
    return _analyze_config(config, rules=_STRUCTURAL_RULES,
                           waivers=waivers, contexts=contexts)


__all__ = ["lint_config"]
