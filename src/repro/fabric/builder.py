"""Fabric builder — declarative construction of hierarchical interconnects.

Section 3: the STBus "is not only a single bus or a set of buses, but it
can be a hierarchical communication network composed of more than one
router ... connecting a set of 4 basic components: nodes, size
converters, type converters and register decoders."

:class:`FabricSpec` describes such a network — components and
point-to-point links — validates it (port counts, widths, link roles),
and builds it in either design view, wiring every link as one shared
:class:`~repro.stbus.interface.StbusPort`.  Every link speaks the
protocol of the node or converter side it touches.  The masters are CATG
BFMs, so a built fabric is driven with the same sequences the node
testbench uses.  ``examples/interconnect.py`` builds the paper's
Figure 1 with it::

    spec = FabricSpec()
    spec.master("bfm0")
    spec.node("nodeA", config_a)
    spec.memory("memA", latency=2)
    spec.connect("bfm0", ("nodeA", "init", 0))
    spec.connect(("nodeA", "targ", 0), "memA")
    fabric = spec.build("rtl")
    fabric.masters["bfm0"].load_program(...)
    fabric.sim.elaborate()
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..bca import (
    BcaNode,
    BcaRegisterDecoder,
    BcaSizeConverter,
    BcaTypeConverter,
)
from ..catg.bfm import InitiatorBfm
from ..catg.target import TargetHarness
from ..kernel import Module, Signal, Simulator
from ..rtl import (
    RtlNode,
    RtlRegisterDecoder,
    RtlSizeConverter,
    RtlTypeConverter,
)
from ..stbus import NodeConfig, ProtocolType, StbusPort


class FabricError(ValueError):
    """Inconsistent fabric description."""


#: Endpoint naming: a plain component name ("cpu", "memA", bridges use
#: ("name", "up"/"down")), or a node port ("nodeA", "init"|"targ", index).
Endpoint = Union[str, Tuple[str, str], Tuple[str, str, int]]


def _canonical(endpoint: Endpoint) -> Tuple:
    if isinstance(endpoint, str):
        return (endpoint,)
    return tuple(endpoint)


class FabricSpec:
    """Declarative description of an interconnect fabric."""

    def __init__(self) -> None:
        self._masters: Dict[str, int] = {}          # name -> width
        self._memories: Dict[str, int] = {}         # name -> latency
        self._registers: List[str] = []
        self._nodes: Dict[str, NodeConfig] = {}
        #: name -> (kind "size"|"type", up protocol, down protocol)
        self._bridges: Dict[str, Tuple[str, ProtocolType, ProtocolType]] = {}
        self._links: List[Tuple[Tuple, Tuple]] = []

    # -- component declaration ---------------------------------------------

    def master(self, name: str, width: int = 32) -> None:
        self._check_new(name)
        self._masters[name] = width

    def memory(self, name: str, latency: int = 2) -> None:
        self._check_new(name)
        self._memories[name] = latency

    def register_decoder(self, name: str) -> None:
        self._check_new(name)
        self._registers.append(name)

    def node(self, name: str, config: NodeConfig) -> None:
        self._check_new(name)
        config.validate()
        self._nodes[name] = config

    def size_converter(self, name: str, protocol: ProtocolType) -> None:
        self._check_new(name)
        self._bridges[name] = ("size", protocol, protocol)

    def type_converter(self, name: str, up_protocol: ProtocolType,
                       down_protocol: ProtocolType) -> None:
        self._check_new(name)
        self._bridges[name] = ("type", up_protocol, down_protocol)

    def _check_new(self, name: str) -> None:
        for pool in (self._masters, self._memories, self._registers,
                     self._nodes, self._bridges):
            if name in pool:
                raise FabricError(f"duplicate component name {name!r}")

    # -- wiring ----------------------------------------------------------------

    def connect(self, a: Endpoint, b: Endpoint) -> None:
        """Wire two endpoints with one STBus link.

        One side must *drive requests* (master, bridge ``("x","down")``,
        node target port); the other must *serve* them (memory, register
        decoder, bridge ``("x","up")``, node initiator port).
        """
        self._links.append((_canonical(a), _canonical(b)))

    # -- endpoint classification ------------------------------------------------

    def _endpoint_role(self, ep: Tuple) -> str:
        """'source' drives requests; 'sink' serves them."""
        name = ep[0]
        if name in self._masters:
            return "source"
        if name in self._memories or name in self._registers:
            return "sink"
        if name in self._bridges:
            if len(ep) != 2 or ep[1] not in ("up", "down"):
                raise FabricError(
                    f"bridge endpoint must be ('{name}', 'up'|'down')"
                )
            return "sink" if ep[1] == "up" else "source"
        if name in self._nodes:
            if len(ep) != 3 or ep[1] not in ("init", "targ"):
                raise FabricError(
                    f"node endpoint must be ('{name}', 'init'|'targ', k)"
                )
            config = self._nodes[name]
            limit = config.n_initiators if ep[1] == "init" \
                else config.n_targets
            if not 0 <= ep[2] < limit:
                raise FabricError(f"{ep}: port index out of range")
            return "sink" if ep[1] == "init" else "source"
        raise FabricError(f"unknown component in endpoint {ep!r}")

    def _endpoint_width(self, ep: Tuple) -> Optional[int]:
        name = ep[0]
        if name in self._masters:
            return self._masters[name]
        if name in self._nodes:
            return self._nodes[name].data_width_bits
        return None  # memories/registers/bridges adapt to the link

    def _link_width(self, a: Tuple, b: Tuple) -> int:
        width = self._endpoint_width(a)
        if width is None:
            width = self._endpoint_width(b)
        return width if width is not None else 32

    def _link_protocol(self, a: Tuple, b: Tuple) -> ProtocolType:
        """The protocol spoken on a link (from whichever side fixes it)."""
        for ep in (a, b):
            name = ep[0]
            if name in self._nodes:
                return self._nodes[name].protocol_type
            if name in self._bridges:
                _, up, down = self._bridges[name]
                return up if ep[1] == "up" else down
        return ProtocolType.T2

    # -- validation + build -----------------------------------------------------

    def validate(self) -> None:
        seen: Dict[Tuple, int] = {}
        for a, b in self._links:
            roles = {self._endpoint_role(a), self._endpoint_role(b)}
            if roles != {"source", "sink"}:
                raise FabricError(
                    f"link {a} <-> {b}: needs one request driver and one "
                    "server"
                )
            for ep in (a, b):
                seen[ep] = seen.get(ep, 0) + 1
                if seen[ep] > 1:
                    raise FabricError(f"endpoint {ep} connected twice")
            width_a = self._endpoint_width(a)
            width_b = self._endpoint_width(b)
            if width_a is not None and width_b is not None \
                    and width_a != width_b:
                raise FabricError(
                    f"link {a} <-> {b}: width mismatch "
                    f"{width_a} vs {width_b}"
                )
        # Every node port must be wired.
        for name, config in self._nodes.items():
            for kind, count in (("init", config.n_initiators),
                                ("targ", config.n_targets)):
                for k in range(count):
                    if (name, kind, k) not in seen:
                        raise FabricError(
                            f"node port ({name!r}, {kind!r}, {k}) unwired"
                        )
        # Every bridge needs both sides.
        for name in self._bridges:
            for side in ("up", "down"):
                if (name, side) not in seen:
                    raise FabricError(
                        f"bridge side ({name!r}, {side!r}) unwired"
                    )
        # Masters, memories and register decoders need exactly one link.
        for pool in (self._masters, self._memories, self._registers):
            for name in pool:
                if (name,) not in seen:
                    raise FabricError(f"component {name!r} unwired")

    def build(self, view: str = "rtl") -> "Fabric":
        if view not in ("rtl", "bca"):
            raise FabricError("view must be 'rtl' or 'bca'")
        self.validate()
        return Fabric(self, view)


class Fabric:
    """A built interconnect: its simulator, the components a test drives
    or inspects by name, and one port per link."""

    def __init__(self, spec: FabricSpec, view: str):
        self.sim = Simulator()
        sim = self.sim
        top = Module(sim, "fabric")
        rtl = view == "rtl"
        # One port per link, reached from either of its endpoints.
        self._ports: List[StbusPort] = []
        port_at: Dict[Tuple, StbusPort] = {}
        protocol_at: Dict[Tuple, ProtocolType] = {}
        for a, b in spec._links:
            label = "__".join("_".join(str(p) for p in ep) for ep in (a, b))
            port = StbusPort(top, f"link_{label}", spec._link_width(a, b))
            self._ports.append(port)
            protocol = spec._link_protocol(a, b)
            for ep in (a, b):
                port_at[ep] = port
                protocol_at[ep] = protocol

        self.masters: Dict[str, InitiatorBfm] = {
            name: InitiatorBfm(sim, name, port_at[(name,)],
                               protocol_at[(name,)], parent=top)
            for name in spec._masters
        }
        self.memories: Dict[str, TargetHarness] = {
            name: TargetHarness(sim, name, port_at[(name,)],
                                protocol_at[(name,)], latency=latency,
                                parent=top)
            for name, latency in spec._memories.items()
        }
        regdec_cls = RtlRegisterDecoder if rtl else BcaRegisterDecoder
        self.registers: Dict[str, object] = {
            name: regdec_cls(sim, name, port_at[(name,)],
                             protocol_at[(name,)], parent=top)
            for name in spec._registers
        }
        node_cls = RtlNode if rtl else BcaNode
        for name, config in spec._nodes.items():
            node_cls(
                sim, name, config,
                [port_at[(name, "init", k)]
                 for k in range(config.n_initiators)],
                [port_at[(name, "targ", k)] for k in range(config.n_targets)],
                parent=top,
            )
        for name, (kind, up_protocol, down_protocol) in spec._bridges.items():
            up, down = port_at[(name, "up")], port_at[(name, "down")]
            if kind == "size":
                cls = RtlSizeConverter if rtl else BcaSizeConverter
                cls(sim, name, up, down, up_protocol, parent=top)
            else:
                cls = RtlTypeConverter if rtl else BcaTypeConverter
                cls(sim, name, up, down, up_protocol, down_protocol,
                    parent=top)

    def all_port_signals(self) -> List[Signal]:
        """Every signal of every link port, in link order."""
        return [sig for port in self._ports for sig in port.signals()]
