"""Signal-level dataflow graph with cones of influence.

Built on top of :class:`repro.analysis.graph.DesignGraph`, which indexes
the *process*-level facts (who wakes, who writes, who reads).  This
module projects those facts down to signal->signal edges:

    src --[process P]--> dst   iff   P reads src and writes dst

For combinational processes the read set is the union of the declared
sensitivity list and the reads observed during the elaboration dry run;
the write set is the observed writes.  For clocked processes both sets
come from the registration-time declarations; a clocked process that
declares neither contributes no edges and marks the graph *incomplete*
(cones are then under-approximations, and the analyses that need the full
cone say so instead of guessing).

Fan-in and fan-out cones are plain BFS closures over these edges.  The
fan-in cone of a port signal answers "which signals can influence the
value sampled here" — the cross-view equivalence check compares exactly
that set (restricted to interface signals) between the RTL and the BCA
testbench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from ..kernel import ProcessInfo, Signal
from .graph import DesignGraph


class DataflowGraph:
    """Signal->signal influence edges projected from a design graph."""

    def __init__(self, graph: DesignGraph) -> None:
        self.design = graph
        #: dst -> set of src signals with an edge into dst.
        self.fan_in: Dict[Signal, Set[Signal]] = {}
        #: src -> set of dst signals reachable in one step.
        self.fan_out: Dict[Signal, Set[Signal]] = {}
        #: clocked processes contributing no edges (nothing declared).
        self.opaque: List[ProcessInfo] = []

        for info in graph.comb:
            reads = set(info.sensitivity) | set(info.observed_reads)
            self._add_edges(reads, set(info.observed_writes))
        for info in graph.clocked:
            if info.declared_reads is None and info.declared_writes is None \
                    and not info.declared_tie_offs:
                self.opaque.append(info)
                continue
            reads = set(info.declared_reads or ())
            writes = set(info.declared_writes or ())
            # Tie-offs are constant drives: the written value depends on
            # no input, so they add sinks but no influence edges.
            tied = {sig for sig, _ in info.declared_tie_offs}
            self._add_edges(reads, writes - tied)
            for sig in writes | tied:
                self.fan_in.setdefault(sig, set())
                self.fan_out.setdefault(sig, set())

    def _add_edges(self, reads: Set[Signal], writes: Set[Signal]) -> None:
        for dst in writes:
            self.fan_in.setdefault(dst, set()).update(reads)
            self.fan_out.setdefault(dst, set())
        for src in reads:
            self.fan_out.setdefault(src, set()).update(writes)
            self.fan_in.setdefault(src, set())

    @property
    def complete(self) -> bool:
        """True when every clocked process declared its dataflow.

        An incomplete graph still supports cone queries, but the cones
        are lower bounds: an undeclared process may add influence paths
        the graph cannot see.
        """
        return not self.opaque

    @property
    def n_edges(self) -> int:
        return sum(len(srcs) for srcs in self.fan_in.values())

    # -- cone queries -------------------------------------------------------

    def fan_in_cone(self, sig: Signal) -> Set[Signal]:
        """All signals that can influence ``sig`` (transitively).

        ``sig`` itself is included only if it sits on a feedback path.
        """
        return self._closure(sig, self.fan_in)

    def fan_out_cone(self, sig: Signal) -> Set[Signal]:
        """All signals ``sig`` can influence (transitively)."""
        return self._closure(sig, self.fan_out)

    @staticmethod
    def _closure(start: Signal, edges: Dict[Signal, Set[Signal]]) -> Set[Signal]:
        seen: Set[Signal] = set()
        frontier = list(edges.get(start, ()))
        while frontier:
            sig = frontier.pop()
            if sig in seen:
                continue
            seen.add(sig)
            frontier.extend(edges.get(sig, ()))
        return seen

    def comb_fan_out_cone(self, sig: Signal) -> Set[Signal]:
        """Fan-out closure through *combinational* processes only.

        This is the same-cycle propagation cone: everything a clocked
        write to ``sig`` can reach before the next clock edge.  Used by
        the CDC rule — a domain crossing remains a crossing through any
        amount of combinational logic.
        """
        comb_writes: Set[Signal] = set()
        for info in self.design.comb:
            comb_writes.update(info.observed_writes)
        seen: Set[Signal] = set()
        frontier = [s for s in self.fan_out.get(sig, ()) if s in comb_writes]
        while frontier:
            cur = frontier.pop()
            if cur in seen:
                continue
            seen.add(cur)
            frontier.extend(
                s for s in self.fan_out.get(cur, ()) if s in comb_writes
            )
        return seen


@dataclass
class ConeReport:
    """Cone-of-influence summary for one anchor signal."""

    signal: str
    fan_in: Tuple[str, ...] = ()
    fan_out: Tuple[str, ...] = ()
    complete: bool = True

    @classmethod
    def for_signal(cls, dataflow: DataflowGraph, sig: Signal) -> "ConeReport":
        return cls(
            signal=sig.name,
            fan_in=tuple(sorted(s.name for s in dataflow.fan_in_cone(sig))),
            fan_out=tuple(sorted(s.name for s in dataflow.fan_out_cone(sig))),
            complete=dataflow.complete,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "signal": self.signal,
            "fan_in": list(self.fan_in),
            "fan_out": list(self.fan_out),
            "complete": self.complete,
        }


def interface_cones(
    dataflow: DataflowGraph,
    exclude: Tuple[str, ...] = ("tb.dut.",),
) -> Dict[str, FrozenSet[str]]:
    """Fan-in cone per interface signal, restricted to interface signals.

    DUT-internal signals (under ``tb.dut.`` by convention) are transit:
    influence may flow *through* them, but they are dropped from the
    reported cone so that the RTL and BCA views — which legitimately
    differ internally — can be compared at the port level.
    """
    def is_interface(name: str) -> bool:
        return not any(name.startswith(prefix) for prefix in exclude)

    cones: Dict[str, FrozenSet[str]] = {}
    for sig in dataflow.design.signals:
        if not is_interface(sig.name):
            continue
        cone = dataflow.fan_in_cone(sig)
        cones[sig.name] = frozenset(
            s.name for s in cone if is_interface(s.name)
        )
    return cones
