"""RTL/BCA agreement: a bounded per-port check, not a proof.

:func:`check_agreement` runs in every :func:`repro.analysis.analyze_config`
that analyzes both views; its :class:`AgreementReport` hangs off the
configuration report under the ``agreement`` key.  It compares the two
node views pin by pin by **bounded lockstep execution** on a
deterministic, configuration-derived scenario set.

Each scenario is a :class:`~repro.catg.sequence.TestProgram` run on one
:class:`~repro.catg.env.VerificationEnv` per view — the same BFMs,
memory targets, programming master, monitors, checkers and scoreboard
the regression uses — and the two environments are stepped together
until both are drained, plus the program's drain cycles.  Every
node-driven interface pin (request and response grants, datapath
routing, response matching, arbitration state evolution, chunk locks,
programming-port side effects, decode and path-blocked errors) is
compared every settled cycle.  The scenarios are chosen so that each
entry of the injectable BCA bug registry falls inside the compared
behaviour on at least one matrix configuration (sub-word stores,
>4-initiator source tags, chunk-locked contention, LRU recency,
programming-port reprogramming).

Agreement therefore holds over the cycles and scenarios each port
reports, and no further.  A mismatch carries a concrete witness: the
scenario, cycle and pin where the views first differ, with both values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..catg.env import VerificationEnv
from ..catg.sequence import ProgOp, TestProgram
from ..kernel.signal import Signal
from ..stbus import NodeConfig, Opcode, Transaction
from .diagnostics import Finding, Severity
from .unr import coverage_gaps

__all__ = [
    "AgreementReport",
    "PortAgreement",
    "check_agreement",
]

AGREED = "AGREED"
MISMATCH = "MISMATCH"

#: Node-driven pins per port role (everything else is external stimulus).
_INIT_OUTPUTS = ("gnt", "r_req", "r_opc", "r_data", "r_eop", "r_src",
                 "r_tid")
_TARG_OUTPUTS = ("req", "add", "opc", "data", "be", "eop", "lck", "tid",
                 "src", "pri", "r_gnt")


@dataclass
class PortAgreement:
    """Lockstep verdict for one interface port."""

    port: str
    verdict: str = AGREED
    lockstep_cycles: int = 0
    scenarios: List[str] = field(default_factory=list)
    witness: Optional[Dict[str, object]] = None

    def render(self) -> str:
        # A MISMATCH port claims no agreement: its cycles were checked,
        # and the witness shows where the views parted.
        outcome = "agreed" if self.verdict == AGREED else "checked"
        bits = [f"{self.port}: {self.verdict}",
                f"lockstep {outcome} over {self.lockstep_cycles} "
                f"cycle(s), {len(self.scenarios)} scenario(s)"]
        if self.witness is not None:
            bits.append(f"witness: {self.witness}")
        return " — ".join(bits)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "port": self.port,
            "verdict": self.verdict,
            "lockstep_cycles": self.lockstep_cycles,
            "scenarios": list(self.scenarios),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _pins(env: VerificationEnv) -> Dict[str, Signal]:
    """Every interface pin of ``env`` by signal name."""
    pins: Dict[str, Signal] = {}
    for port in env.init_ports + env.targ_ports:
        for sig in port.signals():
            pins[sig.name] = sig
    prog = env.prog_port
    if prog is not None:
        for sig in (prog.req, prog.ack, prog.opc, prog.add, prog.wdata,
                    prog.rdata, prog.be):
            pins[sig.name] = sig
    return pins


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
# lockstep scenarios
# ---------------------------------------------------------------------------

def _txn(opcode: Opcode, address: int, initiator: int, *,
         lck: int = 0) -> Transaction:
    data = b""
    if opcode.kind.carries_request_data:
        data = bytes((address + 11 * k) & 0xFF for k in range(opcode.size))
    return Transaction(opcode, address, data=data, lck=lck,
                       initiator=initiator)


def _test(config: NodeConfig, name: str,
          traffic: Dict[int, Tuple[int, List[Transaction]]],
          prog_ops: Sequence[ProgOp] = ()) -> TestProgram:
    """One scenario as a test program: each initiator sends its
    transactions back to back from its start cycle; every target answers
    after two cycles."""
    programs = []
    for i in range(config.n_initiators):
        start, txns = traffic.get(i, (0, []))
        programs.append([(txn, start if k == 0 else 0)
                         for k, txn in enumerate(txns)])
    return TestProgram(
        name=name, seed=0, programs=programs,
        target_latencies=[2] * config.n_targets,
        prog_ops=list(prog_ops), max_cycles=150, drain_cycles=4,
    )


def _first_region(config: NodeConfig, initiator: int):
    for region in config.resolved_map.regions:
        if config.path_allowed(initiator, region.target):
            return region
    return None


def _scenarios(config: NodeConfig) -> List[TestProgram]:
    scenarios: List[TestProgram] = []
    bus = config.bus_bytes
    load = Opcode.load(bus)
    store = Opcode.store(bus)
    amap = config.resolved_map

    # 1. Solo sweep: one initiator visits every decode class.
    txns: List[Transaction] = []
    for region in amap.regions:
        if not config.path_allowed(0, region.target):
            continue
        txns.append(_txn(load, region.base, 0))
        txns.append(_txn(store, region.base, 0))
    gaps = coverage_gaps(amap)
    if gaps:
        addr = gaps[0][0]
        txns.append(_txn(load, addr - (addr % bus), 0))
    if txns:
        scenarios.append(_test(config, "solo-sweep", {0: (0, txns)}))

    # 2. Sub-word, bus-unaligned store/load (the lane-placement class).
    region = _first_region(config, 0)
    if bus > 1 and region is not None:
        addr = region.base + 1
        scenarios.append(_test(config, "subword-unaligned", {0: (0, [
            _txn(Opcode.store(1), addr, 0),
            _txn(Opcode.load(1), addr, 0),
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
        scenarios.append(_test(config, "contention", {
            i: (0, [_txn(load, base, i), _txn(load, base, i)])
            for i in allowed
        }))

        # 4. Chunk lock: the locked pair comes from the initiator every
        # policy's initial-state tie-break would *lose* (the highest
        # index), so ignoring the lock visibly hands the chunk window to
        # the contender; the contender starts a cycle later (the locked
        # packet must win its first grant) and requests continuously.
        lo, hi = allowed[0], allowed[-1]
        scenarios.append(_test(config, "chunk-lock", {
            hi: (0, [_txn(load, base, hi, lck=1), _txn(load, base, hi)]),
            lo: (1, [_txn(load, base, lo) for _ in range(3)]),
        }))

    # 5. Source sweep: every initiator's tag crosses the node.
    traffic = {}
    for i in range(config.n_initiators):
        region = _first_region(config, i)
        if region is not None:
            traffic[i] = (2 * i, [_txn(load, region.base, i)])
    if traffic:
        scenarios.append(_test(config, "src-sweep", traffic))

    # 6. Reprogram-then-contend: arbitration parameters flip first.
    if config.has_programming_port and shared is not None:
        t, allowed = shared
        base = amap.region_of(t).base
        prog_ops = [ProgOp(0, 0, 1), ProgOp(0, allowed[-1], 9),
                    ProgOp(0, 0, 0, is_write=False)]
        scenarios.append(_test(config, "prog-then-contend", {
            i: (8, [_txn(load, base, i), _txn(load, base, i)])
            for i in allowed
        }, prog_ops))

    # 7. Blocked paths: a load and a store to every region the sender
    # has no path to, which both views must answer with an error.
    traffic = {}
    for i in range(config.n_initiators):
        txns = []
        for region in amap.regions:
            if not config.path_allowed(i, region.target):
                txns.append(_txn(load, region.base, i))
                txns.append(_txn(store, region.base, i))
        if txns:
            traffic[i] = (0, txns)
    if traffic:
        scenarios.append(_test(config, "blocked-paths", traffic))
    return scenarios


def _step_together(envs: Sequence[VerificationEnv], test: TestProgram):
    """Elaborate the envs and step them together, yielding each settled
    cycle, until all are drained (or ``max_cycles``), then for the
    program's ``drain_cycles`` — the end rule of ``VerificationEnv.run``."""
    for env in envs:
        env.sim.elaborate()
    cycle = 0
    while cycle < test.max_cycles:
        for env in envs:
            env.sim.step()
        yield cycle
        cycle += 1
        if all(env.drained for env in envs):
            break
    for cycle in range(cycle, cycle + test.drain_cycles):
        for env in envs:
            env.sim.step()
        yield cycle


def _run_lockstep_engine(
    config: NodeConfig,
    bca_bugs: Iterable[str],
    ports: Dict[str, PortAgreement],
) -> None:
    outputs = _output_pins(config)
    # Each view runs its own copy of every program: the environment
    # annotates the transactions it sends.
    for rtl_test, bca_test in zip(_scenarios(config), _scenarios(config)):
        rtl = VerificationEnv(config, "rtl")
        bca = VerificationEnv(config, "bca", bugs=bca_bugs)
        rtl.load_test(rtl_test)
        bca.load_test(bca_test)
        rtl_pins, bca_pins = _pins(rtl), _pins(bca)
        for port in ports.values():
            port.scenarios.append(rtl_test.name)
        for cycle in _step_together((rtl, bca), rtl_test):
            mismatch = None
            for port_name, pin in outputs:
                r = rtl_pins[pin].value
                b = bca_pins[pin].value
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
                        "scenario": rtl_test.name,
                        "cycle": cycle,
                        "signal": pin,
                        "rtl": r,
                        "bca": b,
                    }
                break
        # Release the designs before the next scenario builds its own.
        rtl.sim.finish()
        bca.sim.finish()


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

    ``bca_bugs`` injects registered defects into the BCA environment so
    the detection of the bug registry can itself be checked; an empty
    tuple checks the shipped models.  A MISMATCH port contributes an
    ``xview-function`` ERROR finding with its witness.
    """
    ports: Dict[str, PortAgreement] = {}
    for i in range(config.n_initiators):
        ports[f"init{i}"] = PortAgreement(port=f"init{i}")
    for t in range(config.n_targets):
        ports[f"targ{t}"] = PortAgreement(port=f"targ{t}")
    if config.has_programming_port:
        ports["prog"] = PortAgreement(port="prog")

    _run_lockstep_engine(config, bca_bugs, ports)
    findings = [
        Finding(
            rule="xview-function",
            severity=Severity.ERROR,
            message=(
                f"{config.name}: port {port.port} computes different "
                f"functions in RTL and BCA — witness {port.witness}"
            ),
            process=f"xview:{port.port}",
            hint="the two views disagree on observable behaviour; "
                 "diff the node models at the witness cycle",
        )
        for port in ports.values() if port.verdict == MISMATCH
    ]
    return AgreementReport(
        config_name=config.name,
        bca_bugs=sorted(bca_bugs),
        ports=list(ports.values()),
        findings=findings,
    )
