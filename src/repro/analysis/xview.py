"""Cross-view cone equivalence: RTL vs BCA dataflow at the ports.

The structural ``xview-interface`` check already makes the two views
expose *identical* interface signals (names and widths).  This pass checks something stronger: that
each interface signal is *influenced by the same interface signals* in
both views.  If a BCA port responds to inputs its RTL twin ignores (or
vice versa), the two models disagree about causality at the boundary —
exactly the class of divergence the common environment exists to catch,
surfaced before a single cycle is simulated.

DUT-internal signals (``tb.dut.*``) are treated as transparent transit:
influence may flow through them, but they never appear in a reported
cone, because the two views legitimately differ inside the DUT.

If either view's dataflow graph is incomplete (a clocked process without
declarations), the comparison would under-approximate one side and
produce noise; the pass then emits a single INFO note and no per-signal
findings — conservative, like everything else in this package.
"""

from __future__ import annotations

from typing import List

from .diagnostics import Finding, Severity
from .dataflow import DataflowGraph, interface_cones


def cone_equivalence_findings(
    config_name: str,
    rtl_flow: DataflowGraph,
    bca_flow: DataflowGraph,
) -> List[Finding]:
    """Diff the per-port fan-in cones of the two views' dataflow graphs."""
    if not rtl_flow.complete or not bca_flow.complete:
        which = [view for view, flow in (("RTL", rtl_flow), ("BCA", bca_flow))
                 if not flow.complete]
        return [Finding(
            rule="xview-cone",
            severity=Severity.INFO,
            message=(
                f"cone comparison skipped: the {' and '.join(which)} "
                "view(s) contain clocked processes without dataflow "
                "declarations, so the cones would be incomparable "
                "under-approximations"
            ),
            process=config_name,
            hint="declare reads=/writes= on every clocked process to "
                 "enable the cross-view cone check",
        )]

    rtl_cones = interface_cones(rtl_flow)
    bca_cones = interface_cones(bca_flow)
    findings: List[Finding] = []
    # xview-interface reports signals present in only one view; here we
    # only compare the cones of the shared ones.
    for name in sorted(set(rtl_cones) & set(bca_cones)):
        rtl_cone, bca_cone = rtl_cones[name], bca_cones[name]
        if rtl_cone == bca_cone:
            continue
        rtl_only = sorted(rtl_cone - bca_cone)
        bca_only = sorted(bca_cone - rtl_cone)
        parts = []
        if rtl_only:
            parts.append("influence it in the RTL view only: "
                         + ", ".join(rtl_only))
        if bca_only:
            parts.append("influence it in the BCA view only: "
                         + ", ".join(bca_only))
        findings.append(Finding(
            rule="xview-cone",
            severity=Severity.ERROR,
            message="fan-in cone differs between views — "
                    + "; ".join(parts),
            signal=name,
            hint="the views disagree about port causality; align the "
                 "dataflow (or the declarations) of the divergent side",
        ))
    return findings
