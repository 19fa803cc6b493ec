"""Functional coverage — the paper's first quality metric.

"The functional coverage is built in the common verification environment
and it can be obtained in both RTL and BCA models (of course they must be
equal running the same tests)."  The coverage space below is a pure
function of the DUT configuration, so the RTL and BCA runs share the exact
same bins; sampling only looks at port-level observations, never at DUT
internals.  Goal: 100% of defined bins (Section 4).
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Tuple

from ..stbus import (
    ERROR_TARGET,
    NodeConfig,
    Opcode,
    OpcodeError,
    ProtocolType,
    T1_WRITE,
    all_opcodes,
)
from .checker import Type1Checker
from .monitor import (ObservedRequest, ObservedResponse, PortMonitor,
                      on_every_sample)


class CoverGroup:
    """A named set of bins with hit counts."""

    def __init__(self, name: str, bins: Iterable[str]):
        self.name = name
        # Interned: a batch keeps every run's model until its reports are
        # written, and 288 runs then share one string per bin name.
        self.bins: Dict[str, int] = {sys.intern(str(b)): 0 for b in bins}
        if not self.bins:
            raise ValueError(f"cover group {name!r} has no bins")

    def sample(self, bin_name: str) -> None:
        """Hit a bin; samples outside the defined space are ignored
        (illegal values are the checkers' business, not coverage's)."""
        key = str(bin_name)
        if key in self.bins:
            self.bins[key] += 1

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def n_covered(self) -> int:
        return sum(1 for count in self.bins.values() if count)

    @property
    def percent(self) -> float:
        return 100.0 * self.n_covered / self.n_bins

    def holes(self) -> List[str]:
        return [name for name, count in self.bins.items() if not count]

    def hit_map(self) -> Dict[str, bool]:
        return {name: bool(count) for name, count in self.bins.items()}


class CoverageModel:
    """All cover groups of one verification environment."""

    def __init__(self, groups: Iterable[CoverGroup]):
        self.groups: Dict[str, CoverGroup] = {g.name: g for g in groups}

    def __getitem__(self, name: str) -> CoverGroup:
        return self.groups[name]

    @property
    def n_bins(self) -> int:
        return sum(g.n_bins for g in self.groups.values())

    @property
    def n_covered(self) -> int:
        return sum(g.n_covered for g in self.groups.values())

    @property
    def percent(self) -> float:
        total = self.n_bins
        return 100.0 * self.n_covered / total if total else 100.0

    def holes(self) -> List[str]:
        result = []
        for group in self.groups.values():
            result.extend(f"{group.name}:{hole}" for hole in group.holes())
        return result

    def hit_signature(self) -> Tuple[Tuple[str, Tuple[Tuple[str, bool], ...]], ...]:
        """Canonical covered/uncovered signature.

        Two runs with the same tests and seeds must produce the *same*
        signature on both design views — the paper's equality requirement.
        """
        return tuple(
            (name, tuple(sorted(group.hit_map().items())))
            for name, group in sorted(self.groups.items())
        )

    def merge(self, other: "CoverageModel") -> None:
        """Accumulate another run's hits (regression-level coverage)."""
        for name, group in other.groups.items():
            mine = self.groups.get(name)
            if mine is None:
                self.groups[name] = CoverGroup(name, group.bins)
                mine = self.groups[name]
            for bin_name, count in group.bins.items():
                if bin_name not in mine.bins:
                    mine.bins[bin_name] = 0
                mine.bins[bin_name] += count

    def render(self) -> str:
        lines = [f"Functional coverage: {self.percent:.1f}% "
                 f"({self.n_covered}/{self.n_bins} bins)"]
        for name in sorted(self.groups):
            group = self.groups[name]
            lines.append(
                f"  {name:<24} {group.percent:6.1f}%  "
                f"({group.n_covered}/{group.n_bins})"
            )
            for hole in group.holes()[:8]:
                lines.append(f"      hole: {hole}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the node coverage space
# ----------------------------------------------------------------------

_LEN_BINS = ("1", "2", "4", "8", "16")


def _len_bin(n_cells: int) -> str:
    for candidate in reversed(_LEN_BINS):
        if n_cells >= int(candidate):
            return candidate
    return "1"


def _reachable_len_bins(config: NodeConfig) -> List[str]:
    """Packet-length bins a configuration can actually produce.

    The longest packet is a 64-byte operation: ``64 / bus_bytes`` cells.
    Wider buses make the longer bins unreachable; excluding them keeps
    "100% functional coverage" meaningful per configuration.
    """
    max_cells = max(1, 64 // config.bus_bytes)
    return [b for b in _LEN_BINS if int(b) <= max_cells]


def build_node_coverage(config: NodeConfig) -> CoverageModel:
    """The functional coverage space for a node configuration.

    The space is a pure function of the configuration, with bins the
    configuration makes unreachable excluded (single-initiator nodes
    cannot contend; an 8-bit bus has no partial byte enables; credit-1
    Type III traffic cannot reorder).
    """
    opcode_bins = [str(op) for op in all_opcodes()
                   if op.size <= 64]  # every legal operation
    paths = [
        f"init{i}->targ{t}"
        for i in range(config.n_initiators)
        for t in range(config.n_targets)
        if config.path_allowed(i, t)
    ]
    be_bins = ["full"] if config.bus_bytes == 1 else ["full", "partial"]
    conflict_bins = ["solo"] if config.n_initiators == 1 \
        else ["solo", "contended"]
    groups = [
        CoverGroup("opcode", opcode_bins),
        CoverGroup("request_len", _reachable_len_bins(config)),
        CoverGroup("path", paths),
        CoverGroup("be", be_bins),
        CoverGroup("chunk", ["plain", "locked"]),
        CoverGroup("response", ["ok", "error"]),
        CoverGroup("outstanding", [str(d) for d in
                                   range(1, config.max_outstanding + 1)]),
        CoverGroup("conflict", conflict_bins),
    ]
    if config.protocol_type is ProtocolType.T3 \
            and config.max_outstanding > 1 and config.n_targets > 1:
        groups.append(CoverGroup("ordering", ["in_order", "out_of_order"]))
    if config.has_programming_port:
        groups.append(CoverGroup("programming", ["write", "read"]))
    groups.append(CoverGroup("decode", ["hit", "error"]))
    return CoverageModel(groups)


class NodeCoverageCollector:
    """Samples the node coverage space from monitors and per-cycle state."""

    def __init__(self, config: NodeConfig, model: Optional[CoverageModel] = None):
        self.config = config
        self.model = model or build_node_coverage(config)
        self._req_order: Dict[int, List[int]] = {
            i: [] for i in range(config.n_initiators)
        }
        self._outstanding: Dict[int, int] = {
            i: 0 for i in range(config.n_initiators)
        }

    def connect(self, monitors: List[PortMonitor],
                prog_checker: Optional[Type1Checker] = None) -> None:
        initiators = [m for m in monitors if m.role == "initiator"]
        for monitor in initiators:
            monitor.on_request(self._on_request)
            monitor.on_response(self._on_response)
        self._initiators = [monitor.sample for monitor in initiators]
        on_every_sample(initiators, self._on_cycle)
        if prog_checker is not None and "programming" in self.model.groups:
            prog_checker.on_command(self._on_prog_command)

    # -- packet-level sampling ------------------------------------------------

    def _on_request(self, obs: ObservedRequest) -> None:
        model = self.model
        try:
            opcode = Opcode.decode(obs.opc)
        except OpcodeError:
            return
        model["opcode"].sample(str(opcode))
        model["request_len"].sample(_len_bin(len(obs.cells)))
        if obs.dest == ERROR_TARGET:
            model["decode"].sample("error")
        else:
            model["decode"].sample("hit")
            model["path"].sample(f"init{obs.index}->targ{obs.dest}")
        full = all(
            cell.be == (1 << self.config.bus_bytes) - 1 for cell in obs.cells
        )
        model["be"].sample("full" if full else "partial")
        model["chunk"].sample("locked" if obs.lck else "plain")
        self._req_order[obs.index].append(obs.tid)
        self._outstanding[obs.index] += 1
        model["outstanding"].sample(str(
            min(self._outstanding[obs.index], self.config.max_outstanding)
        ))

    def _on_response(self, obs: ObservedResponse) -> None:
        model = self.model
        model["response"].sample("error" if obs.is_error else "ok")
        order = self._req_order[obs.index]
        if "ordering" in model.groups and order:
            if order[0] == obs.r_tid:
                model["ordering"].sample("in_order")
            else:
                model["ordering"].sample("out_of_order")
        if obs.r_tid in order:
            order.remove(obs.r_tid)
        if self._outstanding[obs.index] > 0:
            self._outstanding[obs.index] -= 1

    # -- cycle-level sampling ----------------------------------------------------

    def _on_cycle(self) -> None:
        # A request on a blocked path goes to the error engine, so it
        # contends for nothing at its decoded target.
        dests = [sample.dest for sample in self._initiators
                 if sample.dest not in (None, ERROR_TARGET)]
        for dest in set(dests):
            self.model["conflict"].sample(
                "contended" if dests.count(dest) > 1 else "solo")

    def _on_prog_command(self, opc: int, add: int, wdata: int) -> None:
        self.model["programming"].sample("write" if opc == T1_WRITE else "read")
