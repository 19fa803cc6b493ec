"""Ordering-race, tie-off-conflict and clock-domain-crossing rules.

These rules target the hazard classes the kernel's *runtime* checks
cannot see:

* ``MultipleDriverError`` fires only when two processes drive different
  values onto one net in the *same* delta.  A clocked process committing
  a value at the posedge and a combinational process overwriting it
  while the deltas settle land in different delta slots — silent at
  runtime, and the last writer wins by scheduling accident.  That is the
  ``race-delta-overwrite`` rule.
* The kernel has one implicit clock, so nothing at runtime models a
  clock-domain crossing.  Designs annotate domains statically
  (``domain=`` at registration or ``Simulator.assign_clock_domain``);
  the ``cdc-crossing`` rule then flags any net registered in one domain
  and sampled in another — including through arbitrary combinational
  logic in between.  With no annotations everything shares the implicit
  default domain and the rule is vacuously quiet.
* Two processes tying one net to *different* constants is a contradiction
  in the declarations themselves (``tie-off-conflict``); the constant
  engine refuses to pick a side, so the conflict must surface here.

Rules follow the same registry shape as :mod:`repro.lint.rules` but
check an :class:`AnalysisContext` (design graph + dataflow graph +
constant facts) instead of a bare design graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..lint.diagnostics import Finding, Severity
from ..lint.graph import DesignGraph
from .constants import ConstantFacts, derive_constants
from .dataflow import DataflowGraph


@dataclass
class AnalysisContext:
    """Everything an analysis rule may consult."""

    graph: DesignGraph
    dataflow: DataflowGraph
    constants: ConstantFacts

    @classmethod
    def from_graph(cls, graph: DesignGraph) -> "AnalysisContext":
        return cls(
            graph=graph,
            dataflow=DataflowGraph(graph),
            constants=derive_constants(graph),
        )


class AnalysisRule:
    """A registered dataflow-analysis rule."""

    def __init__(
        self,
        rule_id: str,
        severity: Severity,
        summary: str,
        check: Callable[[AnalysisContext], List[Finding]],
    ) -> None:
        self.id = rule_id
        self.severity = severity
        self.summary = summary
        self.check = check

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AnalysisRule({self.id}, {self.severity.value})"


ANALYSIS_RULES: Dict[str, AnalysisRule] = {}


def _rule(rule_id: str, severity: Severity, summary: str):
    def register(check: Callable[[AnalysisContext], List[Finding]]):
        ANALYSIS_RULES[rule_id] = AnalysisRule(rule_id, severity, summary,
                                               check)
        return check

    return register


# ---------------------------------------------------------------------------
# race-delta-overwrite
# ---------------------------------------------------------------------------

@_rule(
    "race-delta-overwrite",
    Severity.ERROR,
    "a net written by both a clocked and a combinational process "
    "(the comb write silently overwrites the registered value)",
)
def check_delta_overwrite(ctx: AnalysisContext) -> List[Finding]:
    """Flag nets written by both a clocked and a comb process: the comb
    write lands in a later delta slot and silently overwrites the
    registered value, invisible to the runtime multi-driver check."""
    findings: List[Finding] = []
    for sig in ctx.graph.signals:
        writers = ctx.graph.known_writers.get(sig, [])
        clocked = sorted(
            (w for w in writers if w.kind == "clocked"),
            key=lambda w: w.name,
        )
        comb = sorted(
            (w for w in writers if w.kind == "comb"),
            key=lambda w: w.name,
        )
        if not clocked or not comb:
            continue
        readers = sorted(
            {r.name for r in ctx.graph.known_readers.get(sig, [])
             if r.kind == "clocked"}
        )
        observed = (
            f"; clocked reader(s) {', '.join(readers)} sample the comb "
            "override, not the registered value" if readers
            else "; the registered value is never observable"
        )
        findings.append(Finding(
            rule="race-delta-overwrite",
            severity=Severity.ERROR,
            message=(
                f"registered by {', '.join(w.name for w in clocked)} at "
                f"the clock edge but rewritten by "
                f"{', '.join(w.name for w in comb)} while the same "
                "cycle's deltas settle — the writes land in different "
                "delta slots, so the runtime multi-driver check never "
                f"fires{observed}"
            ),
            signal=sig.name,
            process=clocked[0].name,
            hint="give the net one owner: move the comb drive into the "
                 "clocked process, or split the net in two",
        ))
    return findings


# ---------------------------------------------------------------------------
# tie-off-conflict
# ---------------------------------------------------------------------------

@_rule(
    "tie-off-conflict",
    Severity.ERROR,
    "two processes declare tie-offs with different constants on one net",
)
def check_tie_off_conflict(ctx: AnalysisContext) -> List[Finding]:
    """Flag two declared tie-offs on one net that disagree."""
    findings: List[Finding] = []
    for sig, entries in ctx.graph.tie_offs.items():
        values = {value for _, value in entries}
        if len(values) >= 2:
            detail = ", ".join(
                f"{info.name}->{value}"
                for info, value in sorted(entries, key=lambda e: e[0].name)
            )
            findings.append(Finding(
                rule="tie-off-conflict",
                severity=Severity.ERROR,
                message=f"contradictory constant drives declared: {detail}",
                signal=sig.name,
                hint="the declarations cannot all hold; fix the wrong one "
                     "(the constant engine trusts neither)",
            ))
    return findings


# ---------------------------------------------------------------------------
# cdc-crossing
# ---------------------------------------------------------------------------

@_rule(
    "cdc-crossing",
    Severity.ERROR,
    "a net registered in one clock domain is sampled in another "
    "(directly or through combinational logic)",
)
def check_cdc_crossing(ctx: AnalysisContext) -> List[Finding]:
    """Flag nets registered in one annotated clock domain and sampled
    in another (directly or through comb logic) with no synchronizer."""
    domains = ctx.graph.clock_domains()
    if len(domains) < 2:
        return []  # single (or implicit) domain: nothing can cross
    findings: List[Finding] = []

    def domain_of(info) -> str:
        return info.domain or "clk"

    # Clocked readers per signal, including sensitivity-free declared reads.
    clocked_readers: Dict[object, List] = {}
    for info in ctx.graph.clocked:
        for sig in info.declared_reads or ():
            clocked_readers.setdefault(sig, []).append(info)

    seen: set = set()
    for info in ctx.graph.clocked:
        src_domain = domain_of(info)
        for sig in info.declared_writes or ():
            # The written net plus everything it reaches through comb
            # logic in the same cycle.
            reach = {sig} | ctx.dataflow.comb_fan_out_cone(sig)
            for net in reach:
                for reader in clocked_readers.get(net, ()):
                    dst_domain = domain_of(reader)
                    if dst_domain == src_domain:
                        continue
                    key = (sig.name, net.name, src_domain, dst_domain)
                    if key in seen:
                        continue
                    seen.add(key)
                    via = "" if net is sig \
                        else f" (reaching {net.name} through comb logic)"
                    findings.append(Finding(
                        rule="cdc-crossing",
                        severity=Severity.ERROR,
                        message=(
                            f"registered in domain {src_domain!r} by "
                            f"{info.name} but sampled in domain "
                            f"{dst_domain!r} by {reader.name}{via} with "
                            "no synchronizer on the path"
                        ),
                        signal=sig.name,
                        process=reader.name,
                        hint="add a two-flop synchronizer in the "
                             "destination domain, or move both processes "
                             "into one domain",
                    ))
    return findings


#: Evaluation order (deterministic output order).
DEFAULT_ANALYSIS_RULES: Tuple[AnalysisRule, ...] = tuple(
    ANALYSIS_RULES[rule_id]
    for rule_id in (
        "race-delta-overwrite",
        "tie-off-conflict",
        "cdc-crossing",
    )
)


def resolve_analysis_rules(
    rule_ids: Optional[List[str]],
) -> Optional[List[AnalysisRule]]:
    """Map rule ids to rule records; None passes through (= defaults)."""
    if rule_ids is None:
        return None
    resolved = []
    for rule_id in rule_ids:
        try:
            resolved.append(ANALYSIS_RULES[rule_id])
        except KeyError:
            known = ", ".join(sorted(ANALYSIS_RULES))
            raise ValueError(
                f"unknown analysis rule {rule_id!r} (known: {known})"
            )
    return resolved
