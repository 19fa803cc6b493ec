"""Run the rules over simulators, environments and configurations.

Three entry points, in increasing scope:

* :func:`lint_simulator` — one elaborated (or elaboratable) design;
* :func:`lint_view` — one node configuration in one view, by building the
  common verification environment around it exactly as a regression run
  would (minus tracing);
* :func:`lint_config` — both views of one configuration plus the
  cross-view interface-equivalence check the paper's reuse story depends
  on: the RTL and BCA testbenches must expose the *same* port signals with
  the *same* widths, or the "common environment" is not actually common.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..kernel import Simulator
from ..stbus import NodeConfig
from .diagnostics import (
    Finding,
    LintReport,
    Severity,
    Waiver,
    apply_waivers,
)
from .graph import DesignGraph
from .rules import DEFAULT_RULES, RULES, Rule


def lint_simulator(
    sim: Simulator,
    *,
    design: str = "design",
    rules: Optional[Sequence[Rule]] = None,
    waivers: Sequence[Waiver] = (),
) -> LintReport:
    """Statically check one design; no cycle is ever simulated.

    The simulator is elaborated in harvest mode if it has not been
    elaborated yet, so even designs that could not run (combinational
    loops, driver conflicts) produce a report instead of an exception.
    """
    graph = DesignGraph.from_simulator(sim)
    report = LintReport(
        design=design,
        n_signals=len(graph.signals),
        n_comb=len(graph.comb),
        n_clocked=len(graph.clocked),
    )
    for rule in rules if rules is not None else DEFAULT_RULES:
        report.findings.extend(rule.check(graph))
    apply_waivers(report.findings, waivers)
    report.sort()
    return report


def resolve_rules(rule_ids: Optional[Iterable[str]]) -> Optional[List[Rule]]:
    """Map rule ids to Rule records; None passes through (= defaults)."""
    if rule_ids is None:
        return None
    resolved = []
    for rule_id in rule_ids:
        try:
            resolved.append(RULES[rule_id])
        except KeyError:
            known = ", ".join(sorted(RULES))
            raise ValueError(f"unknown rule {rule_id!r} (known: {known})")
    return resolved


# ---------------------------------------------------------------------------
# Environment-level linting
# ---------------------------------------------------------------------------

def build_env(config: NodeConfig, view: str):
    """The environment a regression run would build, without tracing."""
    from ..catg.env import VerificationEnv  # local import: avoid cycle

    return VerificationEnv(config, view=view)


def lint_view(
    config: NodeConfig,
    view: str,
    *,
    rules: Optional[Sequence[Rule]] = None,
    waivers: Sequence[Waiver] = (),
) -> LintReport:
    """Build the full testbench around one view and lint it."""
    env = build_env(config, view)
    return lint_simulator(
        env.sim,
        design=f"{config.name}/{view}",
        rules=rules,
        waivers=waivers,
    )


def interface_signature(sim: Simulator,
                        exclude: Tuple[str, ...] = ("tb.dut.",)
                        ) -> Dict[str, int]:
    """``{signal name: width}`` for the testbench-side interface.

    DUT-internal signals (under ``tb.dut.``) are excluded: the two views
    legitimately differ inside; the reusable environment only requires the
    *port* signals to match.
    """
    return {
        sig.name: sig.width
        for sig in sim.signals
        if not any(sig.name.startswith(prefix) for prefix in exclude)
    }


def cross_view_findings(config: NodeConfig,
                        rtl_sim: Simulator,
                        bca_sim: Simulator) -> List[Finding]:
    """Check both views expose an identical port-level interface."""
    rtl = interface_signature(rtl_sim)
    bca = interface_signature(bca_sim)
    findings: List[Finding] = []
    for name in sorted(set(rtl) - set(bca)):
        findings.append(Finding(
            rule="xview-interface",
            severity=Severity.ERROR,
            message="interface signal exists in the RTL view only "
                    f"(width {rtl[name]}); the common environment cannot "
                    "bind to the BCA view",
            signal=name,
            hint="add the signal to the BCA view or drop it from the "
                 "shared port bundle",
        ))
    for name in sorted(set(bca) - set(rtl)):
        findings.append(Finding(
            rule="xview-interface",
            severity=Severity.ERROR,
            message="interface signal exists in the BCA view only "
                    f"(width {bca[name]})",
            signal=name,
            hint="add the signal to the RTL view or drop it from the "
                 "shared port bundle",
        ))
    for name in sorted(set(rtl) & set(bca)):
        if rtl[name] != bca[name]:
            findings.append(Finding(
                rule="xview-interface",
                severity=Severity.ERROR,
                message=f"width differs between views: {rtl[name]} bit(s) "
                        f"in RTL vs {bca[name]} bit(s) in BCA",
                signal=name,
                hint="derive both widths from the same NodeConfig field",
            ))
    return findings


@dataclass
class ConfigLintReport:
    """Lint outcome for one configuration: both views + cross-view check."""

    config_name: str
    views: Dict[str, LintReport] = field(default_factory=dict)
    cross_view: List[Finding] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        return any(r.has_errors for r in self.views.values()) or any(
            f.severity is Severity.ERROR and not f.waived
            for f in self.cross_view
        )

    @property
    def clean(self) -> bool:
        return all(r.clean for r in self.views.values()) and not any(
            not f.waived for f in self.cross_view
        )

    def all_findings(self) -> List[Finding]:
        findings: List[Finding] = []
        for report in self.views.values():
            findings.extend(report.findings)
        findings.extend(self.cross_view)
        return findings

    def render(self) -> str:
        lines = []
        for view in sorted(self.views):
            lines.append(self.views[view].render().rstrip("\n"))
        if self.cross_view:
            lines.append(f"{self.config_name}: cross-view interface")
            for finding in self.cross_view:
                lines.append("  " + finding.render().replace("\n", "\n  "))
        else:
            lines.append(
                f"{self.config_name}: cross-view interface OK "
                "(RTL and BCA ports match)"
            )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, object]:
        from .diagnostics import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config_name,
            "clean": self.clean,
            "has_errors": self.has_errors,
            "views": {v: r.to_dict() for v, r in self.views.items()},
            "cross_view": [f.to_dict() for f in self.cross_view],
        }


def lint_config(
    config: NodeConfig,
    *,
    views: Sequence[str] = ("rtl", "bca"),
    rules: Optional[Sequence[Rule]] = None,
    waivers: Sequence[Waiver] = (),
) -> ConfigLintReport:
    """Lint every requested view of one configuration.

    With both views requested, also verifies they present the same
    port-level interface to the (shared) verification environment.
    """
    result = ConfigLintReport(config_name=config.name)
    sims: Dict[str, Simulator] = {}
    for view in views:
        env = build_env(config, view)
        sims[view] = env.sim
        result.views[view] = lint_simulator(
            env.sim,
            design=f"{config.name}/{view}",
            rules=rules,
            waivers=waivers,
        )
    if "rtl" in sims and "bca" in sims:
        result.cross_view = cross_view_findings(
            config, sims["rtl"], sims["bca"]
        )
        apply_waivers(result.cross_view, waivers)
    # Release the designs: unfinished, they stay in reference cycles.
    for sim in sims.values():
        sim.finish()
    return result
