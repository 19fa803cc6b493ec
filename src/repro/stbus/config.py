"""Node configuration — the "HDL parameters" of the paper.

Section 5: the node "can manage up to 32 initiators and 32 targets and its
data interface width varies from 8 to 256 bits.  It can have three
different architectures: shared bus, full crossbar or partial crossbar.
The Node supports 6 arbitration types ... It has an optional programmable
port"; and the regression tool "can load text files defining HDL
parameters of each [configuration]".

:class:`NodeConfig` is that parameter set, with validation, and with the
text-file round-trip (:meth:`NodeConfig.to_text` /
:meth:`NodeConfig.from_text`) the regression tool uses for its
configuration directories.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .arbitration import ArbitrationPolicy
from .routing import AddressMap, Region
from .types import LEGAL_DATA_WIDTHS, ProtocolType


#: The route of a packet the node answers itself, with an error response:
#: its address decodes to no target, or to a target its initiator has no
#: path to.
ERROR_TARGET = -1


class ConfigError(ValueError):
    """An illegal node configuration."""


class Architecture(enum.Enum):
    """Node datapath architectures (Section 3)."""

    SHARED_BUS = "shared_bus"
    FULL_CROSSBAR = "full_crossbar"
    PARTIAL_CROSSBAR = "partial_crossbar"


@dataclass
class NodeConfig:
    """Complete parameterisation of one STBus node instance."""

    protocol_type: ProtocolType = ProtocolType.T2
    n_initiators: int = 2
    n_targets: int = 2
    data_width_bits: int = 32
    architecture: Architecture = Architecture.FULL_CROSSBAR
    arbitration: ArbitrationPolicy = ArbitrationPolicy.FIXED_PRIORITY
    #: PARTIAL_CROSSBAR only: allowed (initiator, target) paths.
    connectivity: Optional[FrozenSet[Tuple[int, int]]] = None
    #: Request/response pipeline register stages through the node (>= 1).
    pipe_depth: int = 1
    #: Per-initiator split-transaction credit (max outstanding packets).
    max_outstanding: int = 4
    #: Optional Type I programming port for arbitration parameters.
    has_programming_port: bool = False
    #: Arbitration parameters (policy dependent; None = policy defaults).
    priorities: Optional[Sequence[int]] = None
    latency_budgets: Optional[Sequence[int]] = None
    bandwidth_allocations: Optional[Sequence[int]] = None
    bandwidth_window: int = 32
    #: Address decoding; None = AddressMap.default(n_targets).
    address_map: Optional[AddressMap] = None
    #: Byte ordering of the datapath (CATG config lists "endianess").
    big_endian: bool = False
    #: Free-form name used in reports and file names.
    name: str = "node"

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if self.protocol_type not in (ProtocolType.T2, ProtocolType.T3):
            raise ConfigError("node supports Type II or Type III protocol")
        if not 1 <= self.n_initiators <= 32:
            raise ConfigError("n_initiators must be in 1..32")
        if not 1 <= self.n_targets <= 32:
            raise ConfigError("n_targets must be in 1..32")
        if self.data_width_bits not in LEGAL_DATA_WIDTHS:
            raise ConfigError(
                f"data width {self.data_width_bits} not in {LEGAL_DATA_WIDTHS}"
            )
        if self.pipe_depth < 1:
            raise ConfigError("pipe_depth must be >= 1")
        if self.max_outstanding < 1:
            raise ConfigError("max_outstanding must be >= 1")
        if self.architecture is Architecture.PARTIAL_CROSSBAR:
            if not self.connectivity:
                raise ConfigError("partial crossbar requires a connectivity set")
            for init, targ in self.connectivity:
                if not (0 <= init < self.n_initiators):
                    raise ConfigError(f"connectivity initiator {init} out of range")
                if not (0 <= targ < self.n_targets):
                    raise ConfigError(f"connectivity target {targ} out of range")
            reachable_targets = {t for _, t in self.connectivity}
            if len(reachable_targets) < self.n_targets:
                raise ConfigError("every target needs at least one allowed path")
        elif self.connectivity is not None:
            raise ConfigError("connectivity is only valid for partial crossbar")
        for name, params in (
            ("priorities", self.priorities),
            ("latency_budgets", self.latency_budgets),
        ):
            if params is not None and len(params) != self.n_initiators:
                raise ConfigError(f"{name} needs one entry per initiator")
        if (
            self.bandwidth_allocations is not None
            and len(self.bandwidth_allocations) != self.n_initiators
        ):
            raise ConfigError("bandwidth_allocations needs one entry per initiator")
        if self.address_map is not None:
            mapped = set(self.address_map.targets())
            if not mapped.issubset(range(self.n_targets)):
                raise ConfigError("address map references unknown targets")

    # -- derived properties ----------------------------------------------------

    @property
    def bus_bytes(self) -> int:
        return self.data_width_bits // 8

    @property
    def resolved_map(self) -> AddressMap:
        if self.address_map is None:
            self.address_map = AddressMap.default(self.n_targets)
        return self.address_map

    def path_allowed(self, initiator: int, target: int) -> bool:
        if self.architecture is Architecture.PARTIAL_CROSSBAR:
            return (initiator, target) in (self.connectivity or frozenset())
        return True

    def route(self, initiator: int, address: int) -> int:
        """The target a packet from ``initiator`` to ``address`` goes to,
        or :data:`ERROR_TARGET`."""
        target = self.resolved_map.decode(address)
        if target is None or not self.path_allowed(initiator, target):
            return ERROR_TARGET
        return target

    def reachable_targets(self, initiator: int) -> List[int]:
        return [
            t for t in range(self.n_targets) if self.path_allowed(initiator, t)
        ]

    # -- text round-trip (regression tool configuration files) -----------------

    def to_text(self) -> str:
        """Serialize as the key=value "HDL parameter" text format."""
        lines = [
            f"name = {self.name}",
            f"protocol_type = {self.protocol_type.value}",
            f"n_initiators = {self.n_initiators}",
            f"n_targets = {self.n_targets}",
            f"data_width_bits = {self.data_width_bits}",
            f"architecture = {self.architecture.value}",
            f"arbitration = {self.arbitration.value}",
            f"pipe_depth = {self.pipe_depth}",
            f"max_outstanding = {self.max_outstanding}",
            f"has_programming_port = {int(self.has_programming_port)}",
            f"big_endian = {int(self.big_endian)}",
            f"bandwidth_window = {self.bandwidth_window}",
        ]
        if self.connectivity:
            paths = ";".join(
                f"{i}-{t}" for i, t in sorted(self.connectivity)
            )
            lines.append(f"connectivity = {paths}")
        for key, params in (
            ("priorities", self.priorities),
            ("latency_budgets", self.latency_budgets),
            ("bandwidth_allocations", self.bandwidth_allocations),
        ):
            if params is not None:
                lines.append(f"{key} = {','.join(str(p) for p in params)}")
        if self.address_map is not None:
            regions = ";".join(
                f"{r.base:#x}+{r.size:#x}->{r.target}"
                for r in self.address_map.regions
            )
            lines.append(f"address_map = {regions}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "NodeConfig":
        """Parse the key=value format produced by :meth:`to_text`."""
        values: Dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()

        def take_int(key: str, default: Optional[int] = None) -> int:
            if key not in values:
                if default is None:
                    raise ConfigError(f"missing required key {key!r}")
                return default
            try:
                return int(values[key], 0)
            except ValueError:
                raise ConfigError(f"key {key!r}: bad integer {values[key]!r}")

        def take_ints(key: str) -> Optional[List[int]]:
            if key not in values:
                return None
            return [int(v, 0) for v in values[key].split(",") if v.strip()]

        connectivity = None
        if "connectivity" in values:
            pairs = set()
            for chunk in values["connectivity"].split(";"):
                if not chunk.strip():
                    continue
                init_s, _, targ_s = chunk.partition("-")
                pairs.add((int(init_s), int(targ_s)))
            connectivity = frozenset(pairs)

        address_map = None
        if "address_map" in values:
            regions = []
            for chunk in values["address_map"].split(";"):
                if not chunk.strip():
                    continue
                base_s, _, rest = chunk.partition("+")
                size_s, _, target_s = rest.partition("->")
                regions.append(
                    Region(int(base_s, 0), int(size_s, 0), int(target_s))
                )
            address_map = AddressMap(regions)

        try:
            protocol = ProtocolType(take_int("protocol_type", 2))
            architecture = Architecture(values.get("architecture", "full_crossbar"))
            arbitration = ArbitrationPolicy(
                values.get("arbitration", "fixed_priority")
            )
        except ValueError as exc:
            raise ConfigError(str(exc))

        return NodeConfig(
            name=values.get("name", "node"),
            protocol_type=protocol,
            n_initiators=take_int("n_initiators", 2),
            n_targets=take_int("n_targets", 2),
            data_width_bits=take_int("data_width_bits", 32),
            architecture=architecture,
            arbitration=arbitration,
            connectivity=connectivity,
            pipe_depth=take_int("pipe_depth", 1),
            max_outstanding=take_int("max_outstanding", 4),
            has_programming_port=bool(take_int("has_programming_port", 0)),
            big_endian=bool(take_int("big_endian", 0)),
            bandwidth_window=take_int("bandwidth_window", 32),
            priorities=take_ints("priorities"),
            latency_budgets=take_ints("latency_budgets"),
            bandwidth_allocations=take_ints("bandwidth_allocations"),
            address_map=address_map,
        )
