"""The one rule registry of the static checker, and its dataflow rules.

Rules come in two tiers:

* **structural** — local design rules over the
  :class:`~repro.analysis.graph.DesignGraph` alone
  (:mod:`~repro.analysis.structural`): cheap enough to gate every
  regression batch;
* **dataflow** — rules that also need the signal dataflow graph or the
  constant facts, defined here.

A tier is nothing but a tuple of rules: :func:`~repro.analysis.runner.
analyze_config` runs whichever rules it is given, and runs a tier's
config-level checks when at least one of the tier's rules is selected.
Every rule's ``check`` takes an :class:`AnalysisContext`, which builds the
dataflow graph and the constant facts on first use, so a structural-only
pass builds neither.

The dataflow rules target the hazard classes the kernel's *runtime*
checks cannot see:

* ``MultipleDriverError`` fires only when two processes drive different
  values onto one net in the *same* delta.  A clocked process committing
  a value at the posedge and a combinational process overwriting it
  while the deltas settle land in different delta slots — silent at
  runtime, and the last writer wins by scheduling accident.  That is the
  ``race-delta-overwrite`` rule.
* The kernel has one implicit clock, so nothing at runtime models a
  clock-domain crossing.  Designs annotate domains statically
  (``domain=`` at registration);
  the ``cdc-crossing`` rule then flags any net registered in one domain
  and sampled in another — including through arbitrary combinational
  logic in between.  With no annotations everything shares the implicit
  default domain and the rule is vacuously quiet.
* Two processes tying one net to *different* constants is a contradiction
  in the declarations themselves (``tie-off-conflict``); the constant
  engine refuses to pick a side, so the conflict must surface here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from . import structural
from .diagnostics import Finding, Severity
from .graph import DesignGraph

if TYPE_CHECKING:  # built on first use only
    from .constants import ConstantFacts
    from .dataflow import DataflowGraph

STRUCTURAL = "structural"
DATAFLOW = "dataflow"


class AnalysisContext:
    """Everything a rule may consult about one design."""

    def __init__(self, graph: DesignGraph) -> None:
        self.graph = graph

    @cached_property
    def dataflow(self) -> DataflowGraph:
        from .dataflow import DataflowGraph

        return DataflowGraph(self.graph)

    @cached_property
    def constants(self) -> ConstantFacts:
        from .constants import derive_constants

        return derive_constants(self.graph)


@dataclass(frozen=True)
class Rule:
    """A registered rule: its check reports findings for one design."""

    id: str
    severity: Severity
    tier: str
    summary: str
    check: Callable[[AnalysisContext], List[Finding]]


# ---------------------------------------------------------------------------
# race-delta-overwrite
# ---------------------------------------------------------------------------

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


#: Evaluation order within each tier (reports are sorted afterwards).
STRUCTURAL_RULES: Tuple[Rule, ...] = (
    Rule("comb-loop", Severity.ERROR, STRUCTURAL,
         "combinational feedback loop (would raise DeltaOverflowError)",
         structural.check_comb_loop),
    Rule("multi-driver", Severity.ERROR, STRUCTURAL,
         "one signal with two or more registered driving processes",
         structural.check_multi_driver),
    Rule("undriven-input", Severity.ERROR, STRUCTURAL,
         "signal read by a process but driven by nothing (floating pin)",
         structural.check_undriven_input),
    Rule("width-mismatch", Severity.ERROR, STRUCTURAL,
         "a drive or stored value exceeds the signal's declared width",
         structural.check_width_mismatch),
    Rule("incomplete-sensitivity", Severity.WARNING, STRUCTURAL,
         "combinational process reads a signal missing from its "
         "sensitivity list",
         structural.check_incomplete_sensitivity),
    Rule("dead-net", Severity.WARNING, STRUCTURAL,
         "signal driven but never read, never in a sensitivity list, "
         "not traced",
         structural.check_dead_net),
)

DATAFLOW_RULES: Tuple[Rule, ...] = (
    Rule("race-delta-overwrite", Severity.ERROR, DATAFLOW,
         "a net written by both a clocked and a combinational process "
         "(the comb write silently overwrites the registered value)",
         check_delta_overwrite),
    Rule("tie-off-conflict", Severity.ERROR, DATAFLOW,
         "two processes declare tie-offs with different constants on one "
         "net",
         check_tie_off_conflict),
    Rule("cdc-crossing", Severity.ERROR, DATAFLOW,
         "a net registered in one clock domain is sampled in another "
         "(directly or through combinational logic)",
         check_cdc_crossing),
)

DEFAULT_RULES: Tuple[Rule, ...] = STRUCTURAL_RULES + DATAFLOW_RULES

RULES: Dict[str, Rule] = {rule.id: rule for rule in DEFAULT_RULES}


def resolve_rules(rule_ids: Optional[Iterable[str]]) -> Optional[List[Rule]]:
    """Map rule ids to rules; None passes through (= every rule)."""
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
