"""RTL/BCA agreement: a bounded per-port check, not a proof.

:func:`check_agreement` runs in every :func:`repro.analysis.analyze_config`
that analyzes both views; its :class:`AgreementReport` hangs off the
configuration report under the ``agreement`` key.  Two complementary
engines drive *bare* dual harnesses (the two node views instantiated on
identical port bundles, no BFMs, no checkers):

**Pointwise comb enumeration.**  The node's combinational outputs —
request grants, response grants, programming ack/rdata — are functions
of the current pin values and the node state.  From reset, each cone's
stimulus axes are enumerated on both simulators and the settled outputs
compared.  The axes are representative per-port stimulus states (one
address per decode class, a few handshake variants), not every value
of every pin, so agreement holds on those points only.  When a cone's
point count exceeds :data:`DOMAIN_BUDGET` the cone is skipped with an
explicit ``agreement-domain-too-large`` diagnostic — never silently.

**Bounded lockstep execution.**  Sequential behaviour (datapath
routing, response matching, arbitration state evolution, chunk locks,
programming-port side effects, decode and path-blocked errors) is
compared on a deterministic, configuration-derived scenario set: both
views receive byte-identical external stimulus — packet streams, an
always-ready echo responder that reflects observed src/tid back,
programming-port writes — and every node-driven interface pin is
compared every settled cycle.  The scenarios are chosen so that each
entry of the injectable BCA bug registry falls inside the compared
behaviour on at least one matrix configuration (sub-word stores,
>4-initiator source tags, chunk-locked contention, LRU recency,
programming-port reprogramming).

A mismatch from either engine carries a concrete witness: the stimulus
assignment (comb) or the scenario/cycle/pin triple (lockstep).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bca.node import BcaNode
from ..kernel.module import Module
from ..kernel.signal import Signal
from ..kernel.simulator import Simulator
from ..lint.diagnostics import Finding, Severity
from ..rtl.node import RtlNode
from ..stbus import (
    NodeConfig,
    Opcode,
    StbusPort,
    T1_READ,
    T1_WRITE,
    Transaction,
    Type1Port,
    build_request_cells,
    build_response_cells,
)
from .unr import coverage_gaps

__all__ = [
    "AgreementReport",
    "DOMAIN_BUDGET",
    "PortAgreement",
    "check_agreement",
]

#: Maximum number of enumeration points per comb cone before the engine
#: logs ``agreement-domain-too-large`` and leaves the cone to lockstep.
DOMAIN_BUDGET = 8192

AGREED = "AGREED"
MISMATCH = "MISMATCH"

#: Node-driven pins per port role (everything else is external stimulus).
_INIT_OUTPUTS = ("gnt", "r_req", "r_opc", "r_data", "r_eop", "r_src",
                 "r_tid")
_TARG_OUTPUTS = ("req", "add", "opc", "data", "be", "eop", "lck", "tid",
                 "src", "pri", "r_gnt")

_RESPONSE_LATENCY = 2


@dataclass
class PortAgreement:
    """Combined functional verdict for one interface port."""

    port: str
    verdict: str = AGREED
    comb_points: int = 0
    comb_skipped: Optional[str] = None
    lockstep_cycles: int = 0
    scenarios: List[str] = field(default_factory=list)
    witness: Optional[Dict[str, object]] = None

    def render(self) -> str:
        # A MISMATCH port's witness names the engine that disagreed, so
        # neither engine claims agreement there.
        outcome = "agreed" if self.verdict == AGREED else "checked"
        bits = [f"{self.port}: {self.verdict}"]
        if self.comb_skipped:
            bits.append(f"comb skipped: {self.comb_skipped}")
        elif self.comb_points:
            bits.append(f"comb {outcome} on {self.comb_points} point(s) "
                        "from reset")
        bits.append(f"lockstep {outcome} over {self.lockstep_cycles} "
                    f"cycle(s), {len(self.scenarios)} scenario(s)")
        if self.witness is not None:
            bits.append(f"witness: {self.witness}")
        return " — ".join(bits)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "port": self.port,
            "verdict": self.verdict,
            "comb_points": self.comb_points,
            "lockstep_cycles": self.lockstep_cycles,
            "scenarios": list(self.scenarios),
        }
        if self.comb_skipped is not None:
            out["comb_skipped"] = self.comb_skipped
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

class _Harness:
    """One bare view: node + port bundles, no environment components."""

    def __init__(self, config: NodeConfig, view: str,
                 bugs: Iterable[str] = ()):
        self.view = view
        self.sim = Simulator()
        self.top = Module(self.sim, "tb")
        width = config.data_width_bits
        self.init_ports = [
            StbusPort(self.top, f"init{i}", width)
            for i in range(config.n_initiators)
        ]
        self.targ_ports = [
            StbusPort(self.top, f"targ{t}", width)
            for t in range(config.n_targets)
        ]
        self.prog_port = (Type1Port(self.top, "prog")
                          if config.has_programming_port else None)
        if view == "rtl":
            self.dut = RtlNode(self.sim, "dut", config, self.init_ports,
                               self.targ_ports, prog_port=self.prog_port,
                               parent=self.top)
        else:
            self.dut = BcaNode(self.sim, "dut", config, self.init_ports,
                               self.targ_ports, prog_port=self.prog_port,
                               parent=self.top, bugs=bugs)
        self.sim.elaborate()
        self.pins: Dict[str, Signal] = {}
        for port in self.init_ports + self.targ_ports:
            for sig in port.signals():
                self.pins[sig.name] = sig
        if self.prog_port is not None:
            for sig in (self.prog_port.req, self.prog_port.ack,
                        self.prog_port.opc, self.prog_port.add,
                        self.prog_port.wdata, self.prog_port.rdata,
                        self.prog_port.be):
                self.pins[sig.name] = sig

    def settle(self) -> None:
        # External drives (writer None) sit in the commit queue; _settle
        # commits them, reports the changes, and runs the delta loop —
        # poke() would commit silently without waking comb sensitivity.
        self.sim._settle()

    def drive(self, name: str, value: int) -> None:
        self.pins[name].drive(value)


def _output_pins(config: NodeConfig) -> List[Tuple[str, str]]:
    """(port, signal-name) for every node-driven interface pin."""
    pins: List[Tuple[str, str]] = []
    for i in range(config.n_initiators):
        for attr in _INIT_OUTPUTS:
            pins.append((f"init{i}", f"tb.init{i}.{attr}"))
    for t in range(config.n_targets):
        for attr in _TARG_OUTPUTS:
            pins.append((f"targ{t}", f"tb.targ{t}.{attr}"))
    if config.has_programming_port:
        pins.append(("prog", "tb.prog.ack"))
        pins.append(("prog", "tb.prog.rdata"))
    return pins


def _port_of(name: str) -> str:
    return name.split(".")[1]


# ---------------------------------------------------------------------------
# comb cone enumeration
# ---------------------------------------------------------------------------

@dataclass
class _Cone:
    """One comb enumeration problem: stimulus axes and watched outputs."""

    name: str
    # Each axis: (signal name, candidate values) — or a joint axis of
    # several signals enumerated together as tuples of (name, value).
    axes: List[List[Tuple[Tuple[str, int], ...]]]
    outputs: List[str]

    @property
    def domain_size(self) -> int:
        size = 1
        for axis in self.axes:
            size *= len(axis)
        return size

    def points(self):
        for combo in itertools.product(*self.axes):
            env: Dict[str, int] = {}
            for group in combo:
                env.update(dict(group))
            yield env


def _request_axis(config: NodeConfig, i: int, addresses: List[int],
                  variants: bool) -> List[Tuple[Tuple[str, int], ...]]:
    """Joint stimulus states for one initiator's request channel."""
    p = f"tb.init{i}"
    opc = Opcode.load(config.bus_bytes).encode()
    states = [(
        (f"{p}.req", 0), (f"{p}.add", 0), (f"{p}.opc", 0),
        (f"{p}.eop", 0), (f"{p}.lck", 0), (f"{p}.pri", 0),
    )]
    for addr in addresses:
        states.append((
            (f"{p}.req", 1), (f"{p}.add", addr), (f"{p}.opc", opc),
            (f"{p}.eop", 1), (f"{p}.lck", 0), (f"{p}.pri", 0),
        ))
    if variants and addresses:
        addr = addresses[0]
        # mid-packet (eop low) and chunk-locked final cells
        states.append((
            (f"{p}.req", 1), (f"{p}.add", addr), (f"{p}.opc", opc),
            (f"{p}.eop", 0), (f"{p}.lck", 0), (f"{p}.pri", 0),
        ))
        states.append((
            (f"{p}.req", 1), (f"{p}.add", addr), (f"{p}.opc", opc),
            (f"{p}.eop", 1), (f"{p}.lck", 1), (f"{p}.pri", 0),
        ))
    return states


def _response_axis(config: NodeConfig, t: int,
                   variants: bool) -> List[Tuple[Tuple[str, int], ...]]:
    p = f"tb.targ{t}"
    states = [((f"{p}.r_req", 0), (f"{p}.r_src", 0), (f"{p}.r_eop", 0))]
    for src in range(config.n_initiators):
        states.append((
            (f"{p}.r_req", 1), (f"{p}.r_src", src), (f"{p}.r_eop", 1),
        ))
    if variants:
        states.append((
            (f"{p}.r_req", 1), (f"{p}.r_src", 0), (f"{p}.r_eop", 0),
        ))
    return states


def _decode_addresses(config: NodeConfig) -> List[int]:
    """One representative per decode class: region bases + first gap."""
    addresses = [r.base for r in config.resolved_map.regions[:4]]
    gaps = coverage_gaps(config.resolved_map)
    if gaps:
        start = gaps[0][0]
        addresses.append(start - (start % config.bus_bytes))
    return addresses


def _build_cones(config: NodeConfig) -> List[_Cone]:
    addresses = _decode_addresses(config)
    cones = []
    gnt_axis = [
        tuple((f"tb.targ{t}.gnt", v) for t in range(config.n_targets))
        for v in (1, 0)
    ]
    cones.append(_Cone(
        name="request-grant",
        axes=[gnt_axis] + [
            _request_axis(config, i, addresses, variants=(i == 0))
            for i in range(config.n_initiators)
        ],
        outputs=[f"tb.init{i}.gnt" for i in range(config.n_initiators)],
    ))
    rgnt_axis = [
        tuple((f"tb.init{i}.r_gnt", v) for i in range(config.n_initiators))
        for v in (1, 0)
    ]
    cones.append(_Cone(
        name="response-grant",
        axes=[rgnt_axis] + [
            _response_axis(config, t, variants=(t == 0))
            for t in range(config.n_targets)
        ],
        outputs=[f"tb.targ{t}.r_gnt" for t in range(config.n_targets)],
    ))
    if config.has_programming_port:
        n_regs = max(1, config.n_initiators)
        addr_axis = [(("tb.prog.add", 4 * i),)
                     for i in range(min(n_regs + 1, 8))]
        cones.append(_Cone(
            name="programming",
            axes=[[(("tb.prog.req", 0),), (("tb.prog.req", 1),)],
                  addr_axis],
            outputs=["tb.prog.ack", "tb.prog.rdata"],
        ))
    return cones


def _run_comb_engine(
    config: NodeConfig,
    rtl: _Harness,
    bca: _Harness,
    ports: Dict[str, PortAgreement],
    findings: List[Finding],
) -> None:
    for cone in _build_cones(config):
        cone_ports = sorted({_port_of(o) for o in cone.outputs})
        if cone.domain_size > DOMAIN_BUDGET:
            reason = (
                f"{cone.name} cone domain has {cone.domain_size} points "
                f"(budget {DOMAIN_BUDGET}); relying on lockstep for these "
                "pins"
            )
            for port in cone_ports:
                ports[port].comb_skipped = reason
            findings.append(Finding(
                rule="agreement-domain-too-large",
                severity=Severity.INFO,
                message=f"{config.name}: {reason}",
                process=f"xview:{cone.name}",
                hint="the lockstep scenarios still compare these pins; "
                     "the comb points of this cone are not enumerated",
            ))
            continue
        for env in cone.points():
            for name, value in env.items():
                rtl.drive(name, value)
                bca.drive(name, value)
            rtl.settle()
            bca.settle()
            values = {
                "rtl": {o: rtl.pins[o].value for o in cone.outputs},
                "bca": {o: bca.pins[o].value for o in cone.outputs},
            }
            for port in cone_ports:
                ports[port].comb_points += 1
            for output in cone.outputs:
                if values["rtl"][output] != values["bca"][output]:
                    port = ports[_port_of(output)]
                    if port.witness is None:
                        port.witness = {
                            "engine": "comb",
                            "cone": cone.name,
                            "signal": output,
                            "rtl": values["rtl"][output],
                            "bca": values["bca"][output],
                            "inputs": {k: env[k] for k in sorted(env)},
                        }
                    port.verdict = MISMATCH
        # Park both harnesses back at all-idle before the next cone.
        for harness in (rtl, bca):
            for port_obj in harness.init_ports:
                port_obj.idle_request()
                port_obj.r_gnt.drive(0)
            for port_obj in harness.targ_ports:
                port_obj.gnt.drive(0)
                port_obj.idle_response()
            if harness.prog_port is not None:
                harness.prog_port.req.drive(0)
            harness.settle()


# ---------------------------------------------------------------------------
# lockstep scenarios
# ---------------------------------------------------------------------------

@dataclass
class _Scenario:
    name: str
    #: initiator -> (start cycle, packet list); each packet is a cell list.
    traffic: Dict[int, Tuple[int, List[list]]] = field(default_factory=dict)
    #: (kind, address, wdata) programming operations, run back-to-back.
    prog_ops: List[Tuple[int, int, int]] = field(default_factory=list)
    max_cycles: int = 150


def _packet(config: NodeConfig, opcode: Opcode, address: int,
            initiator: int, *, lck: int = 0, tid: int = 0) -> List[list]:
    data = b""
    if opcode.kind.carries_request_data:
        data = bytes((address + 11 * k) & 0xFF for k in range(opcode.size))
    txn = Transaction(opcode=opcode, address=address, data=data,
                      tid=tid, lck=lck, initiator=initiator)
    return build_request_cells(txn, config.bus_bytes, config.protocol_type)


def _first_region(config: NodeConfig, initiator: int):
    for region in config.resolved_map.regions:
        if config.path_allowed(initiator, region.target):
            return region
    return None


def _scenarios(config: NodeConfig) -> List[_Scenario]:
    scenarios: List[_Scenario] = []
    bus = config.bus_bytes
    load = Opcode.load(bus)
    store = Opcode.store(bus)
    amap = config.resolved_map

    # 1. Solo sweep: one initiator visits every decode class.
    packets: List[list] = []
    for region in amap.regions:
        if not config.path_allowed(0, region.target):
            continue
        packets.append(_packet(config, load, region.base, 0, tid=1))
        packets.append(_packet(config, store, region.base, 0, tid=2))
    gaps = coverage_gaps(amap)
    if gaps:
        addr = gaps[0][0]
        packets.append(
            _packet(config, load, addr - (addr % bus), 0, tid=3)
        )
    if packets:
        scenarios.append(_Scenario("solo-sweep", traffic={0: (0, packets)}))

    # 2. Sub-word, bus-unaligned store/load (the lane-placement class).
    region = _first_region(config, 0)
    if bus > 1 and region is not None:
        byte_op_s = Opcode.store(1)
        byte_op_l = Opcode.load(1)
        addr = region.base + 1
        scenarios.append(_Scenario("subword-unaligned", traffic={0: (0, [
            _packet(config, byte_op_s, addr, 0, tid=4),
            _packet(config, byte_op_l, addr, 0, tid=5),
        ])}))

    # 3. Contention: every allowed initiator hammers one shared target.
    shared = None
    for t in range(config.n_targets):
        allowed = [i for i in range(config.n_initiators)
                   if config.path_allowed(i, t)]
        if len(allowed) >= 2:
            shared = (t, allowed)
            break
    if shared is not None:
        t, allowed = shared
        base = amap.region_of(t).base
        scenarios.append(_Scenario("contention", traffic={
            i: (0, [_packet(config, load, base, i, tid=1),
                    _packet(config, load, base, i, tid=2)])
            for i in allowed
        }))

        # 4. Chunk lock: the locked pair comes from the initiator every
        # policy's initial-state tie-break would *lose* (the highest
        # index), so ignoring the lock visibly hands the chunk window to
        # the contender; the contender starts a cycle later (the locked
        # packet must win its first grant) and requests continuously.
        lo, hi = allowed[0], allowed[-1]
        scenarios.append(_Scenario("chunk-lock", traffic={
            hi: (0, [_packet(config, load, base, hi, lck=1, tid=1),
                     _packet(config, load, base, hi, tid=2)]),
            lo: (1, [_packet(config, load, base, lo, tid=3),
                     _packet(config, load, base, lo, tid=4),
                     _packet(config, load, base, lo, tid=5)]),
        }))

    # 5. Source sweep: every initiator's tag crosses the node.
    traffic = {}
    for i in range(config.n_initiators):
        region = _first_region(config, i)
        if region is not None:
            traffic[i] = (2 * i, [_packet(config, load, region.base, i,
                                          tid=i & 0xFF)])
    if traffic:
        scenarios.append(_Scenario("src-sweep", traffic=traffic))

    # 6. Reprogram-then-contend: arbitration parameters flip first.
    if config.has_programming_port and shared is not None:
        t, allowed = shared
        base = amap.region_of(t).base
        prog_ops = [(T1_WRITE, 0, 1), (T1_WRITE, 4 * allowed[-1], 9),
                    (T1_READ, 0, 0)]
        scenarios.append(_Scenario("prog-then-contend", prog_ops=prog_ops,
                                   traffic={
            i: (8, [_packet(config, load, base, i, tid=1),
                    _packet(config, load, base, i, tid=2)])
            for i in allowed
        }))

    # 7. Blocked paths: a load and a store to every region the sender
    # has no path to, which both views must answer with an error.
    traffic = {}
    for i in range(config.n_initiators):
        packets = []
        for region in amap.regions:
            if not config.path_allowed(i, region.target):
                packets.append(_packet(config, load, region.base, i, tid=6))
                packets.append(_packet(config, store, region.base, i,
                                       tid=7))
        if packets:
            traffic[i] = (0, packets)
    if traffic:
        scenarios.append(_Scenario("blocked-paths", traffic=traffic))
    return scenarios


class _ViewDriver:
    """Deterministic external world for one view of one scenario.

    All decisions are functions of the scenario and the pins *observed*
    on this view, so both views see byte-identical stimulus up to their
    first behavioural divergence — which is exactly what the per-cycle
    pin comparison reports.
    """

    def __init__(self, harness: _Harness, scenario: _Scenario,
                 config: NodeConfig):
        self.h = harness
        self.config = config
        self.traffic = {
            i: [start, [list(p) for p in packets], 0]
            for i, (start, packets) in scenario.traffic.items()
        }
        self.prog_ops = list(scenario.prog_ops)
        self.responses: Dict[int, List[list]] = {
            t: [] for t in range(config.n_targets)
        }
        self.collect: Dict[int, List] = {
            t: [] for t in range(config.n_targets)
        }

    def apply(self, cycle: int) -> None:
        for i, port in enumerate(self.h.init_ports):
            port.r_gnt.drive(1)
            state = self.traffic.get(i)
            if state and state[1] and cycle >= state[0]:
                port.drive_request(state[1][0][state[2]])
            else:
                port.idle_request()
        for t, port in enumerate(self.h.targ_ports):
            port.gnt.drive(1)
            queue = self.responses[t]
            if queue and queue[0][0] <= cycle:
                port.drive_response(queue[0][1][queue[0][2]])
            else:
                port.idle_response()
        if self.h.prog_port is not None:
            port = self.h.prog_port
            if self.prog_ops:
                kind, addr, wdata = self.prog_ops[0]
                port.req.drive(1)
                port.opc.drive(kind)
                port.add.drive(addr)
                port.wdata.drive(wdata & port.wdata.mask)
                port.be.drive(port.be.mask)
            else:
                port.req.drive(0)

    def _respond(self, t: int, cells: List, cycle: int) -> None:
        first = cells[0]
        opcode = Opcode.decode(first.opc)
        data = b""
        if opcode.kind.carries_response_data:
            data = bytes((first.add + 17 * k) & 0xFF
                         for k in range(opcode.size))
        resp = build_response_cells(
            opcode, self.config.bus_bytes, self.config.protocol_type,
            data=data, src=first.src, tid=first.tid, address=first.add,
        )
        self.responses[t].append([cycle + _RESPONSE_LATENCY, resp, 0])

    def update(self, cycle: int) -> None:
        for i, port in enumerate(self.h.init_ports):
            state = self.traffic.get(i)
            if (state and state[1] and cycle >= state[0]
                    and port.request_fired):
                state[2] += 1
                if state[2] >= len(state[1][0]):
                    state[1].pop(0)
                    state[2] = 0
        for t, port in enumerate(self.h.targ_ports):
            if port.req.value and port.gnt.value:
                cell = port.request_cell()
                self.collect[t].append(cell)
                if cell.eop:
                    self._respond(t, self.collect[t], cycle)
                    self.collect[t] = []
            queue = self.responses[t]
            if (queue and queue[0][0] <= cycle
                    and port.r_req.value and port.r_gnt.value):
                queue[0][2] += 1
                if queue[0][2] >= len(queue[0][1]):
                    queue.pop(0)
        if self.h.prog_port is not None and self.prog_ops:
            port = self.h.prog_port
            if port.req.value and port.ack.value:
                self.prog_ops.pop(0)

    @property
    def quiescent(self) -> bool:
        """Nothing left to send or answer, and no packet awaits a
        response — including the decode and path-blocked errors the
        node answers itself."""
        dut = self.h.dut
        return (not self.prog_ops
                and all(not s[1] for s in self.traffic.values())
                and all(not q for q in self.responses.values())
                and all(not c for c in self.collect.values())
                and not any(dut.outstanding_count(i)
                            for i in range(self.config.n_initiators)))


def _lockstep_cycles(drivers: Sequence[_ViewDriver], max_cycles: int):
    """Run the drivers' views together, yielding each settled cycle;
    stop once every driver has been quiescent for four cycles."""
    drained = 0
    for cycle in range(max_cycles):
        for driver in drivers:
            driver.apply(cycle)
            driver.h.settle()
        yield cycle
        for driver in drivers:
            driver.update(cycle)
            driver.h.sim.step()
        if all(d.quiescent for d in drivers):
            drained += 1
            if drained >= 4:
                return
        else:
            drained = 0


def _run_lockstep_engine(
    config: NodeConfig,
    bca_bugs: Iterable[str],
    ports: Dict[str, PortAgreement],
) -> None:
    outputs = _output_pins(config)
    for scenario in _scenarios(config):
        rtl = _Harness(config, "rtl")
        bca = _Harness(config, "bca", bugs=bca_bugs)
        drivers = (_ViewDriver(rtl, scenario, config),
                   _ViewDriver(bca, scenario, config))
        for port in ports.values():
            port.scenarios.append(scenario.name)
        for cycle in _lockstep_cycles(drivers, scenario.max_cycles):
            mismatch = None
            for port_name, pin in outputs:
                r = rtl.pins[pin].value
                b = bca.pins[pin].value
                if r != b:
                    mismatch = (port_name, pin, r, b)
                    break
            for port in ports.values():
                port.lockstep_cycles += 1
            if mismatch is not None:
                port_name, pin, r, b = mismatch
                port = ports[port_name]
                port.verdict = MISMATCH
                if port.witness is None:
                    port.witness = {
                        "engine": "lockstep",
                        "scenario": scenario.name,
                        "cycle": cycle,
                        "signal": pin,
                        "rtl": r,
                        "bca": b,
                    }
                break


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@dataclass
class AgreementReport:
    """Per-port RTL/BCA agreement for one configuration."""

    config_name: str
    bca_bugs: List[str] = field(default_factory=list)
    ports: List[PortAgreement] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        return all(p.verdict != MISMATCH for p in self.ports)

    @property
    def mismatched_ports(self) -> List[str]:
        return [p.port for p in self.ports if p.verdict == MISMATCH]

    def render(self) -> str:
        lines = [f"{self.config_name}: RTL/BCA agreement"]
        for port in self.ports:
            lines.append(f"  {port.render()}")
        for finding in self.findings:
            lines.append(f"  {finding.render()}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "budget": DOMAIN_BUDGET,
            "agreed": self.agreed,
            "ports": [p.to_dict() for p in self.ports],
            "findings": [f.to_dict() for f in self.findings],
        }
        if self.bca_bugs:
            out["bca_bugs"] = list(self.bca_bugs)
        return out


def check_agreement(
    config: NodeConfig,
    *,
    bca_bugs: Iterable[str] = (),
) -> AgreementReport:
    """Check per-port RTL/BCA agreement (or find a witness).

    ``bca_bugs`` injects registered defects into the BCA harness so the
    detection of the bug registry can itself be checked; an empty tuple
    checks the shipped models.  A MISMATCH port contributes an
    ``xview-function`` ERROR finding with its witness; a skipped comb
    cone contributes the ``agreement-domain-too-large`` INFO diagnostic.
    """
    ports: Dict[str, PortAgreement] = {}
    for i in range(config.n_initiators):
        ports[f"init{i}"] = PortAgreement(port=f"init{i}")
    for t in range(config.n_targets):
        ports[f"targ{t}"] = PortAgreement(port=f"targ{t}")
    if config.has_programming_port:
        ports["prog"] = PortAgreement(port="prog")

    findings: List[Finding] = []
    rtl = _Harness(config, "rtl")
    bca = _Harness(config, "bca", bugs=bca_bugs)
    _run_comb_engine(config, rtl, bca, ports, findings)
    _run_lockstep_engine(config, bca_bugs, ports)

    for port in ports.values():
        if port.verdict == MISMATCH:
            findings.append(Finding(
                rule="xview-function",
                severity=Severity.ERROR,
                message=(
                    f"{config.name}: port {port.port} computes different "
                    f"functions in RTL and BCA — witness {port.witness}"
                ),
                process=f"xview:{port.port}",
                hint="the two views disagree on observable behaviour; "
                     "diff the node models at the witness cycle",
            ))
    return AgreementReport(
        config_name=config.name,
        bca_bugs=sorted(bca_bugs),
        ports=list(ports.values()),
        findings=findings,
    )
