"""Bus-accurate comparison — the STBus Analyzer's alignment metric.

"STBus Analyzer (STBA), an STBus internal tool, compares signals
information at each port level. ... The rate that is calculated at each
port level is the number of cycles RTL and BCA signals port are aligned
over total number of clock cycles.  The targeted value, in order to
consider BCA model signed off is 99%."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..telemetry import ALIGNMENT_BUCKETS, NULL_TELEMETRY, Telemetry
from ..vcd import VcdFile, VcdParseError, parse_vcd
from .extract import PORT_SIGNALS, ExtractionError, discover_ports

#: The paper's sign-off threshold.
SIGNOFF_THRESHOLD = 0.99


@dataclass
class PortAlignment:
    """Per-port alignment between the two dumps."""

    port: str
    total_cycles: int
    aligned_cycles: int
    first_divergence: Optional[int]
    #: per-signal mismatch cycle counts (only signals that ever diverged)
    signal_mismatches: Dict[str, int] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        if self.total_cycles == 0:
            return 1.0
        return self.aligned_cycles / self.total_cycles

    @property
    def signed_off(self) -> bool:
        return self.rate >= SIGNOFF_THRESHOLD

    def summary(self) -> str:
        status = "OK " if self.signed_off else "LOW"
        diverge = (
            f" first divergence @{self.first_divergence}"
            if self.first_divergence is not None else ""
        )
        return f"{status} {self.port}: {self.rate * 100:6.2f}%{diverge}"


@dataclass
class AlignmentReport:
    """Whole-dump comparison result."""

    ports: Dict[str, PortAlignment]
    total_cycles: int

    @property
    def min_rate(self) -> float:
        if not self.ports:
            return 1.0
        return min(p.rate for p in self.ports.values())

    @property
    def overall_rate(self) -> float:
        """Aggregate rate across ports (mean of per-port rates)."""
        if not self.ports:
            return 1.0
        return sum(p.rate for p in self.ports.values()) / len(self.ports)

    @property
    def signed_off(self) -> bool:
        """BCA sign-off per the paper: every port at or above 99%."""
        return all(p.signed_off for p in self.ports.values())

    def worst_port(self) -> Optional[PortAlignment]:
        if not self.ports:
            return None
        return min(self.ports.values(), key=lambda p: p.rate)

    def render(self) -> str:
        lines = [
            f"Bus-accurate comparison over {self.total_cycles} cycles",
            f"overall rate {self.overall_rate * 100:.2f}% — "
            f"{'SIGNED OFF' if self.signed_off else 'NOT signed off'} "
            f"(threshold {SIGNOFF_THRESHOLD * 100:.0f}% per port)",
        ]
        for name in sorted(self.ports):
            port = self.ports[name]
            lines.append("  " + port.summary())
            for signal, count in sorted(port.signal_mismatches.items()):
                lines.append(f"      {signal}: {count} mismatching cycles")
        return "\n".join(lines) + "\n"


def _parse_dump(source: Union[str, VcdFile]) -> VcdFile:
    """Parse one dump, naming the offending file when it is truncated,
    empty or otherwise corrupt (a crashed simulation run leaves exactly
    such dumps behind)."""
    if not isinstance(source, str):
        return source
    try:
        return parse_vcd(source)
    except VcdParseError as exc:
        raise ExtractionError(
            f"cannot compare {source}: truncated or corrupt VCD ({exc})"
        ) from exc


def compare_vcds(
    a: Union[str, VcdFile],
    b: Union[str, VcdFile],
    scopes: Optional[Sequence[str]] = None,
    telemetry: Optional[Telemetry] = None,
) -> AlignmentReport:
    """Compare two dumps port by port, cycle by cycle.

    ``a`` and ``b`` are VCD paths or parsed files (conventionally the RTL
    and the BCA run of the same test and seed).  Ports present in either
    dump but not both raise :class:`ExtractionError` — that means the two
    testbenches were *not* identical, which the flow forbids.

    ``telemetry`` optionally records parse/align spans and a per-port
    alignment-rate histogram; ``None`` costs nothing.
    """
    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    with tele.span("analyzer.parse"):
        vcd_a = _parse_dump(a)
        vcd_b = _parse_dump(b)
    ports_a = set(discover_ports(vcd_a))
    ports_b = set(discover_ports(vcd_b))
    if scopes is None:
        if ports_a != ports_b:
            raise ExtractionError(
                f"port scopes differ between dumps: {sorted(ports_a ^ ports_b)}"
            )
        scopes = sorted(ports_a)
    total = min(vcd_a.n_cycles, vcd_b.n_cycles)
    same_timescale = vcd_a.timescale == vcd_b.timescale
    report_ports: Dict[str, PortAlignment] = {}
    with tele.span("analyzer.align", ports=len(scopes), cycles=total):
        for scope in scopes:
            names = [f"{scope}.{leaf}" for leaf in PORT_SIGNALS]
            for name in names:
                if name not in vcd_a or name not in vcd_b:
                    raise ExtractionError(
                        f"signal {name!r} missing from a dump")
            if same_timescale and all(
                    vcd_a[name].changes == vcd_b[name].changes
                    for name in names):
                # Equal change lists expand to equal series: every
                # cycle is aligned without sampling one.
                report_ports[scope] = PortAlignment(
                    scope, total, total, None, {})
                continue
            aligned = 0
            first_divergence: Optional[int] = None
            mismatches: Dict[str, int] = {}
            series_a = {}
            series_b = {}
            for leaf, name in zip(PORT_SIGNALS, names):
                series_a[leaf] = vcd_a[name].expand(total, vcd_a.timescale)
                series_b[leaf] = vcd_b[name].expand(total, vcd_b.timescale)
            for cycle in range(total):
                ok = True
                for leaf in PORT_SIGNALS:
                    if series_a[leaf][cycle] != series_b[leaf][cycle]:
                        ok = False
                        mismatches[leaf] = mismatches.get(leaf, 0) + 1
                if ok:
                    aligned += 1
                elif first_divergence is None:
                    first_divergence = cycle
            report_ports[scope] = PortAlignment(
                scope, total, aligned, first_divergence, mismatches
            )
    if tele.enabled:
        hist = tele.registry.histogram(
            "analyzer.port_alignment_rate", buckets=ALIGNMENT_BUCKETS)
        for port in report_ports.values():
            hist.observe(port.rate)
    return AlignmentReport(report_ports, total)
