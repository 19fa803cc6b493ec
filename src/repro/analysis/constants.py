"""Constant propagation and value ranges over the static design graph.

Two sound sources of constant facts, both gated on the clocked write
universe being fully declared (``clocked_writes_known``) — without that,
an undeclared clocked process could drive anything and no net is provably
constant:

* **Declared tie-offs.**  A clocked process registered with
  ``tie_offs={sig: v}`` promises to drive ``sig`` to ``v`` on every
  activation.  If *every* known writer of ``sig`` makes that promise
  with the *same* value, the net is the constant ``v`` from the first
  clock edge on.
* **Undriven nets.**  A signal no process writes, still holding its
  initialization value after elaboration, stays at that value forever
  (external pokes would have toggled it during elaboration).

Combinational outputs are deliberately *never* proven constant: a comb
process may read hidden Python state (queue depths, counters) that the
dry run observed in only one configuration, so its output can change
even when no traced input does.  Conservative UNKNOWN beats a wrong
proof.

Value ranges are the trivial lattice over those facts: a proven constant
``v`` has range ``[v, v]``; anything else spans the signal's full
declared width.  That is enough to discharge range-style UNR arguments
(a 1-bit byte-enable can never take a "partial" value distinct from its
full mask).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..kernel import Signal
from ..lint.graph import DesignGraph


@dataclass(frozen=True)
class ValueRange:
    """Closed integer interval ``[lo, hi]`` a signal's value stays in."""

    lo: int
    hi: int

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    @staticmethod
    def constant(value: int) -> "ValueRange":
        return ValueRange(value, value)

    @staticmethod
    def full(sig: Signal) -> "ValueRange":
        return ValueRange(0, sig.mask)

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def __str__(self) -> str:
        if self.is_constant:
            return f"[{self.lo}]"
        return f"[{self.lo}..{self.hi}]"


class ConstantFacts:
    """Proven-constant nets with the reason for each proof."""

    def __init__(self) -> None:
        self._facts: Dict[Signal, Tuple[int, str]] = {}

    def add(self, sig: Signal, value: int, reason: str) -> None:
        self._facts[sig] = (value, reason)

    def value_of(self, sig: Signal) -> Optional[int]:
        fact = self._facts.get(sig)
        return fact[0] if fact else None

    def reason_of(self, sig: Signal) -> Optional[str]:
        fact = self._facts.get(sig)
        return fact[1] if fact else None

    def __contains__(self, sig: Signal) -> bool:
        return sig in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Tuple[Signal, int, str]]:
        for sig in sorted(self._facts, key=lambda s: s.name):
            value, reason = self._facts[sig]
            yield sig, value, reason

    def range_of(self, sig: Signal) -> ValueRange:
        value = self.value_of(sig)
        if value is not None:
            return ValueRange.constant(value)
        return ValueRange.full(sig)


def derive_constants(graph: DesignGraph) -> ConstantFacts:
    """All nets provably constant from declarations alone."""
    facts = ConstantFacts()
    if not graph.clocked_writes_known:
        # An undeclared clocked process could write any net: no proof
        # survives, so return the empty fact set rather than guess.
        return facts

    for sig in graph.signals:
        writers = graph.known_writers.get(sig, [])
        tied = graph.tie_offs.get(sig, [])
        if writers:
            if not tied:
                continue
            tied_procs = {id(info) for info, _ in tied}
            if any(id(w) not in tied_procs for w in writers):
                continue  # some writer drives a computed value
            values = {value for _, value in tied}
            if len(values) != 1:
                continue  # conflicting tie-offs: tie-off-conflict reports it
            value = values.pop()
            names = ", ".join(sorted(info.name for info, _ in tied))
            facts.add(sig, value,
                      f"tied off to {value} by {names}")
        else:
            if sig._value != sig.init:
                continue  # poked externally before/during elaboration
            facts.add(sig, sig.init,
                      f"undriven; holds its initialization value "
                      f"{sig.init}")
    return facts
