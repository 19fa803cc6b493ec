"""The structural design rules.

Each rule is a pure function of an analysis context (it reads only
``ctx.graph``, the :class:`~repro.lint.graph.DesignGraph`) returning
:class:`~repro.lint.diagnostics.Finding` objects;
:func:`check_xview_interface` compares the design graphs of two views.
The registry in :mod:`repro.analysis.rules` gives each check its id,
severity and tier, beside the dataflow rules.

Soundness stance: rules are built to avoid false positives on designs the
kernel can actually run.

* Combinational dataflow is *observed* (the elaboration dry run), so a
  write or read that only happens under runtime-dependent conditions may
  be missed — the rules under-approximate rather than guess.
* Clocked dataflow is *declared*; rules that need the complete driver
  (reader) universe — ``undriven-input`` and ``dead-net`` — disable
  themselves unless every clocked process declared its writes (reads).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..kernel import Signal
from ..kernel.signal import MultipleDriverError, WidthError
from ..kernel.simulator import DeltaOverflowError
from .diagnostics import Finding, Severity
from .graph import DesignGraph


# ---------------------------------------------------------------------------
# comb-loop
# ---------------------------------------------------------------------------

def check_comb_loop(ctx) -> List[Finding]:
    """Flag combinational feedback cycles (process -> signal -> process)
    that would raise DeltaOverflowError the moment they went active."""
    graph = ctx.graph
    findings: List[Finding] = []
    cycles = graph.comb_cycles()
    for cycle in cycles:
        path: List[str] = []
        for info, sig in cycle:
            path += [info.name, sig.name]
        path.append(cycle[0][0].name)  # close the loop visually
        first_proc, first_sig = cycle[0]
        findings.append(
            Finding(
                rule="comb-loop",
                severity=Severity.ERROR,
                message=(
                    f"combinational feedback loop through "
                    f"{len(cycle)} process(es): {' -> '.join(path)}"
                ),
                signal=first_sig.name,
                process=first_proc.name,
                path=tuple(path),
                hint=(
                    "break the loop with a clocked (registered) stage, or "
                    "remove the written signal from the downstream "
                    "sensitivity list"
                ),
            )
        )
    if not cycles:
        # A loop the static graph missed (e.g. conditional writes first
        # taken while settling) still surfaces as a harvested overflow.
        for info, exc in graph.sim.elaboration_errors:
            if isinstance(exc, DeltaOverflowError):
                findings.append(
                    Finding(
                        rule="comb-loop",
                        severity=Severity.ERROR,
                        message=f"combinational logic failed to settle "
                                f"during elaboration: {exc}",
                        process=info.name if info else None,
                        hint="break the feedback with a registered stage",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# multi-driver
# ---------------------------------------------------------------------------

def check_multi_driver(ctx) -> List[Finding]:
    """Flag signals owned by two or more registered processes, plus
    driver conflicts the kernel harvested during elaboration."""
    graph = ctx.graph
    findings: List[Finding] = []
    reported = set()
    for sig, writers in graph.known_writers.items():
        if len(writers) < 2:
            continue
        names = sorted(w.name for w in writers)
        reported.add(sig.name)
        findings.append(
            Finding(
                rule="multi-driver",
                severity=Severity.ERROR,
                message=(
                    f"driven by {len(writers)} processes: {', '.join(names)}"
                ),
                signal=sig.name,
                hint="give the signal a single owning process, or mux the "
                     "sources explicitly",
            )
        )
    for info, exc in graph.sim.elaboration_errors:
        if isinstance(exc, MultipleDriverError):
            # Conflicts the static sets missed (e.g. an unregistered
            # external writer); the kernel message already names both.
            sig_name = str(exc).split("'")[1] if "'" in str(exc) else None
            if sig_name in reported:
                continue
            findings.append(
                Finding(
                    rule="multi-driver",
                    severity=Severity.ERROR,
                    message=f"driver conflict while elaborating: {exc}",
                    signal=sig_name,
                    process=info.name if info else None,
                    hint="give the signal a single owning process",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# incomplete-sensitivity
# ---------------------------------------------------------------------------

def check_incomplete_sensitivity(ctx) -> List[Finding]:
    """Flag signals a comb process was observed reading but left out of
    its sensitivity list, so the process misses their changes."""
    graph = ctx.graph
    findings: List[Finding] = []
    for info in graph.comb:
        missing = info.observed_reads - set(info.sensitivity)
        for sig in sorted(missing, key=lambda s: s.name):
            findings.append(
                Finding(
                    rule="incomplete-sensitivity",
                    severity=Severity.WARNING,
                    message=(
                        f"read by combinational process {info.name} but "
                        "absent from its sensitivity list (the process "
                        "will not re-evaluate when it changes)"
                    ),
                    signal=sig.name,
                    process=info.name,
                    hint=f"add {sig.name} to the sensitivity list of "
                         f"{info.name}",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# undriven-input
# ---------------------------------------------------------------------------

def _input_signals(graph: DesignGraph) -> List[Tuple[Signal, str]]:
    """Signals some process depends on, with one representative consumer."""
    consumers: Dict[Signal, str] = {}
    for info in graph.comb:
        for sig in info.sensitivity:
            consumers.setdefault(sig, info.name)
        for sig in info.observed_reads:
            consumers.setdefault(sig, info.name)
    for info in graph.clocked:
        for sig in info.declared_reads or ():
            consumers.setdefault(sig, info.name)
    return sorted(consumers.items(), key=lambda item: item[0].name)


def check_undriven_input(ctx) -> List[Finding]:
    """Flag signals consumed by some process but driven by none and
    never toggled externally (a floating input pin)."""
    graph = ctx.graph
    if not graph.clocked_writes_known:
        # An undeclared clocked process could drive anything; stay silent
        # rather than guess (declare `writes=` on every clocked process
        # to enable this rule).
        return []
    findings: List[Finding] = []
    for sig, consumer in _input_signals(graph):
        if graph.known_writers.get(sig):
            continue
        if sig._value != sig.init:
            continue  # toggled before/at elaboration: externally driven
        findings.append(
            Finding(
                rule="undriven-input",
                severity=Severity.ERROR,
                message=(
                    f"read by {consumer} but driven by no process and "
                    "never toggled (floating input)"
                ),
                signal=sig.name,
                process=consumer,
                hint="connect a driver or tie the signal off with an "
                     "explicit constant drive",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# dead-net
# ---------------------------------------------------------------------------

def check_dead_net(ctx) -> List[Finding]:
    """Flag driven-but-never-observed signals, exempting nets every
    driver declares as a tie-off."""
    graph = ctx.graph
    if graph.traced:
        return []  # a tracer observes every signal
    if not graph.clocked_reads_known:
        return []  # an undeclared clocked process could read anything
    findings: List[Finding] = []
    for sig in graph.signals:
        writers = graph.known_writers.get(sig)
        if not writers:
            continue
        if graph.known_readers.get(sig) or graph.wakes.get(sig):
            continue
        tied = graph.tie_offs.get(sig, [])
        if all(any(w is t for t, _ in tied) for w in writers):
            # Every driver declares the net tied to a constant (e.g. a
            # BFM tying src to 0): pinned on purpose, not left dangling.
            continue
        names = ", ".join(sorted(w.name for w in writers))
        findings.append(
            Finding(
                rule="dead-net",
                severity=Severity.WARNING,
                message=f"driven by {names} but never read, never in a "
                        "sensitivity list, and not traced",
                signal=sig.name,
                hint="delete the net, or attach a tracer/reader if it is "
                     "meant to be observed",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# width-mismatch
# ---------------------------------------------------------------------------

def check_width_mismatch(ctx) -> List[Finding]:
    """Flag drives whose value exceeds the target's declared bit width,
    plus stored values that violate the width invariant."""
    graph = ctx.graph
    findings: List[Finding] = []
    seen = set()
    for info, sig, value in graph.sim.width_events:
        key = (sig.name, value)
        if key in seen:
            continue
        seen.add(key)
        by = info.name if info else "<external>"
        findings.append(
            Finding(
                rule="width-mismatch",
                severity=Severity.ERROR,
                message=(
                    f"process {by} drives {value}, which does not fit the "
                    f"declared width of {sig.width} bit(s) "
                    f"(max {sig.mask})"
                ),
                signal=sig.name,
                process=info.name if info else None,
                hint=f"widen {sig.name} or mask the driven expression",
            )
        )
    for sig in graph.signals:
        # Defensive: unreachable through the public constructor/drive API,
        # but subclasses or direct slot pokes can corrupt the invariant.
        if sig.init > sig.mask or sig._value > sig.mask \
                or sig._next > sig.mask:
            findings.append(
                Finding(
                    rule="width-mismatch",
                    severity=Severity.ERROR,
                    message=(
                        f"stored value exceeds the {sig.width}-bit range "
                        f"(init={sig.init}, value={sig._value}, "
                        f"next={sig._next}, max={sig.mask})"
                    ),
                    signal=sig.name,
                    hint=f"declare {sig.name} wide enough for its values",
                )
            )
    # Width errors harvested from processes but not seen by the write hook
    # (cannot happen through Signal.drive; kept for completeness).
    for info, exc in graph.sim.elaboration_errors:
        if isinstance(exc, WidthError) and not graph.sim.width_events:
            findings.append(
                Finding(
                    rule="width-mismatch",
                    severity=Severity.ERROR,
                    message=f"width violation while elaborating: {exc}",
                    process=info.name if info else None,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# xview-interface
# ---------------------------------------------------------------------------

def _interface(graph: DesignGraph) -> Dict[str, int]:
    """``{signal name: width}`` for the testbench-side interface.

    DUT-internal signals (under ``tb.dut.``) are excluded: the two views
    legitimately differ inside; the reusable environment only requires the
    *port* signals to match.
    """
    return {sig.name: sig.width for sig in graph.signals
            if not sig.name.startswith("tb.dut.")}


def check_xview_interface(rtl_graph: DesignGraph,
                          bca_graph: DesignGraph) -> List[Finding]:
    """Check both views expose an identical port-level interface."""
    rtl = _interface(rtl_graph)
    bca = _interface(bca_graph)
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
