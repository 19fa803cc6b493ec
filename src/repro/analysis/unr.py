"""Coverage unreachability (UNR) proofs.

The functional coverage space of :func:`repro.catg.coverage.build_node_coverage`
is already *pruned*: bins a configuration cannot reach (a T2 node cannot
reorder, a node without a programming port cannot take register accesses)
are excluded so that "100% coverage" stays meaningful.  This module is
the independent check of that pruning — and of the bins that remain.

It evaluates the **full, un-pruned bin universe** against the
configuration and the static facts (constant nets, signal widths,
address-map structure) and emits one verdict per bin:

* ``UNREACHABLE`` — a proof exists, recorded as the *blocking constant*
  or structural constraint (e.g. ``tb.prog.req`` is the constant 0, or
  ``be`` is one bit wide so no value below the full mask is a partial
  enable).
* ``REACHABLE`` — a witness exists (an opcode, an address, a topology
  fact) showing some legal stimulus hits the bin.
* ``UNKNOWN`` — neither; the engine refuses to guess.  UNKNOWN is the
  *sound* default for any future rule that cannot decide its bin: a
  wrong UNREACHABLE would let the flow sign off with a coverage hole
  papered over, while a wrong UNKNOWN merely leaves a bin for
  simulation to close.  No shipped rule emits it: every argument below,
  the decode-error one included (an exact interval union over the
  address map), is total.

Cross-checking the verdicts against the pruned model gives the two
interesting sets:

* bins **in the model** proven UNREACHABLE — modeling bugs: coverage can
  never reach 100%, surfaced as ``unr-model-unreachable`` errors;
* bins **excluded from the model** proven UNREACHABLE — the pruning,
  validated independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..catg.coverage import _LEN_BINS, build_node_coverage
from ..lint.diagnostics import Finding, Severity
from ..stbus import NodeConfig, Opcode, ProtocolType, all_opcodes
from .constants import ConstantFacts

REACHABLE = "REACHABLE"
UNREACHABLE = "UNREACHABLE"
UNKNOWN = "UNKNOWN"


@dataclass
class BinVerdict:
    """Static verdict for one (group, bin) of the full universe."""

    group: str
    bin: str
    verdict: str
    reason: str  # witness (REACHABLE) or blocking constant (UNREACHABLE)
    in_model: bool  # present in the pruned per-config coverage model
    #: Structured stimulus vector (initiator, opcode, address, expected
    #: response) that hits the bin; only the decode-error bins carry one,
    #: and only when REACHABLE.  None is left out of the serialized form.
    witness: Optional[Dict[str, object]] = None

    @property
    def key(self) -> str:
        return f"{self.group}:{self.bin}"

    def render(self) -> str:
        where = "model" if self.in_model else "pruned"
        return (f"{self.verdict:<12} {self.key:<28} [{where}] "
                f"{self.reason}")

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "group": self.group,
            "bin": self.bin,
            "verdict": self.verdict,
            "reason": self.reason,
            "in_model": self.in_model,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class UnrReport:
    """All bin verdicts for one configuration."""

    config_name: str
    verdicts: List[BinVerdict] = field(default_factory=list)

    def verdict_for(self, group: str, bin_name: str) -> Optional[BinVerdict]:
        for verdict in self.verdicts:
            if verdict.group == group and verdict.bin == bin_name:
                return verdict
        return None

    def counts(self) -> Dict[str, int]:
        counts = {REACHABLE: 0, UNREACHABLE: 0, UNKNOWN: 0}
        for verdict in self.verdicts:
            counts[verdict.verdict] += 1
        return counts

    def model_unreachable(self) -> List[BinVerdict]:
        """Bins the model *keeps* but the engine proves unreachable.

        Any entry here is a modeling bug: regression coverage can never
        reach 100% on this configuration.
        """
        return [v for v in self.verdicts
                if v.in_model and v.verdict == UNREACHABLE]

    def pruning_validated(self) -> List[BinVerdict]:
        """Excluded bins independently proven unreachable."""
        return [v for v in self.verdicts
                if not v.in_model and v.verdict == UNREACHABLE]

    def findings(self) -> List[Finding]:
        """Model-unreachable bins as gate-able findings."""
        return [
            Finding(
                rule="unr-model-unreachable",
                severity=Severity.ERROR,
                message=(
                    f"coverage bin {v.key} is in the model but statically "
                    f"unreachable: {v.reason} — 100% coverage is "
                    "impossible on this configuration"
                ),
                signal=None,
                process=f"coverage:{v.key}",
                hint="prune the bin in build_node_coverage() or fix the "
                     "configuration constraint blocking it",
            )
            for v in self.model_unreachable()
        ]

    def render(self) -> str:
        counts = self.counts()
        lines = [
            f"{self.config_name}: UNR analysis over "
            f"{len(self.verdicts)} bins — "
            f"{counts[REACHABLE]} reachable, "
            f"{counts[UNREACHABLE]} unreachable, "
            f"{counts[UNKNOWN]} unknown"
        ]
        bad = self.model_unreachable()
        if bad:
            lines.append("  MODEL BUGS (in-model bins proven unreachable):")
            lines.extend(f"    {v.render()}" for v in bad)
        pruned = self.pruning_validated()
        if pruned:
            lines.append(
                f"  pruning validated: {len(pruned)} excluded bin(s) "
                "independently proven unreachable"
            )
            lines.extend(f"    {v.render()}" for v in pruned)
        unknown = [v for v in self.verdicts if v.verdict == UNKNOWN]
        if unknown:
            lines.append("  unknown (left for simulation to close):")
            lines.extend(f"    {v.render()}" for v in unknown)
        return "\n".join(lines) + "\n"

    def to_dict(self) -> Dict[str, object]:
        from . import SCHEMA_VERSION

        counts = self.counts()
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config_name,
            "n_bins": len(self.verdicts),
            "reachable": counts[REACHABLE],
            "unreachable": counts[UNREACHABLE],
            "unknown": counts[UNKNOWN],
            "model_unreachable": [v.key for v in self.model_unreachable()],
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


# ---------------------------------------------------------------------------
# the verdict engine
# ---------------------------------------------------------------------------

def _constant_str(constants: Optional[ConstantFacts], name: str
                  ) -> Optional[Tuple[int, str]]:
    """Look up a proven-constant net by hierarchical name."""
    if constants is None:
        return None
    for sig, value, reason in constants:
        if sig.name == name:
            return value, reason
    return None


_ADDRESS_SPACE = 1 << 32


def coverage_gaps(address_map) -> List[Tuple[int, int]]:
    """Half-open ``[start, end)`` gaps of the map within ``[0, 2^32)``.

    The map's regions are already sorted and non-overlapping (the
    :class:`~repro.stbus.routing.AddressMap` constructor enforces both),
    so a single pass computes the exact complement.
    """
    gaps: List[Tuple[int, int]] = []
    cursor = 0
    for region in address_map.regions:
        base = min(region.base, _ADDRESS_SPACE)
        if base > cursor:
            gaps.append((cursor, base))
        cursor = max(cursor, min(region.end, _ADDRESS_SPACE))
    if cursor < _ADDRESS_SPACE:
        gaps.append((cursor, _ADDRESS_SPACE))
    return gaps


def _witness_vector(config: NodeConfig, address: int,
                    expect: str) -> Dict[str, object]:
    """A concrete input vector exhibiting a decode error.

    The opcode is the aligned bus-wide LOAD (always legal); any
    initiator works because a mis-decoding request never consults the
    connectivity mask on the way to the error engine.
    """
    opcode = Opcode.load(config.bus_bytes)
    aligned = address - (address % config.bus_bytes)
    return {
        "initiator": 0,
        "opcode": str(opcode),
        "address": f"{aligned:#x}",
        "expect": expect,
    }


def exact_decode_verdict(
    config: NodeConfig,
) -> Tuple[str, str, Optional[Dict[str, object]]]:
    """Exact (verdict, reason, witness) for the decode-error bins.

    The resolved address map is an ordered, non-overlapping interval
    set, so its union against ``[0, 2^32)`` is one linear scan.  A gap
    is a concrete decode-error address; failing that, a region whose
    target no initiator may reach still routes to the error engine;
    failing both, no 32-bit address can produce a decode error.  The
    argument is total over the address space, so it never returns
    UNKNOWN.
    """
    address_map = config.resolved_map
    gaps = coverage_gaps(address_map)
    if gaps:
        start, end = gaps[0]
        covered = _ADDRESS_SPACE - sum(e - s for s, e in gaps)
        reason = (
            f"proven: interval union of {len(address_map.regions)} "
            f"region(s) covers {covered:#x} of the 2^32 space, leaving "
            f"{len(gaps)} gap(s); first gap [{start:#x},{end:#x}) "
            "decodes to no region"
        )
        return REACHABLE, reason, _witness_vector(
            config, start, "decode-error response (address in map gap)"
        )
    for region in address_map.regions:
        if not any(config.path_allowed(i, region.target)
                   for i in range(config.n_initiators)):
            reason = (
                f"proven: the map covers [0x0,{_ADDRESS_SPACE:#x}) but "
                f"region [{region.base:#x},{region.end:#x}) maps to "
                f"targ{region.target}, which the connectivity mask "
                "allows to no initiator — the node routes every such "
                "request to the error engine"
            )
            return REACHABLE, reason, _witness_vector(
                config, region.base,
                f"decode-error response (targ{region.target} path-masked "
                "for every initiator)",
            )
    reason = (
        f"interval-coverage proof: {len(address_map.regions)} region(s) "
        f"union to [0x0,{_ADDRESS_SPACE:#x}) with no gap, and every "
        "region's target is reachable by >=1 allowed initiator — no "
        "32-bit address can produce a decode error"
    )
    return UNREACHABLE, reason, None


def analyze_unreachability(
    config: NodeConfig,
    *,
    constants: Optional[ConstantFacts] = None,
) -> UnrReport:
    """Evaluate the full un-pruned coverage universe for one config.

    ``constants`` — proven-constant facts from the elaborated testbench
    (when available they sharpen the programming-port verdicts with the
    actual blocking net; without them the engine falls back to the
    configuration-level argument).
    """
    report = UnrReport(config_name=config.name)
    model = build_node_coverage(config)

    def in_model(group: str, bin_name: str) -> bool:
        cover_group = model.groups.get(group)
        return bool(cover_group) and bin_name in cover_group.bins

    def emit(group: str, bin_name: str, verdict: str, reason: str,
             witness: Optional[Dict[str, object]] = None) -> None:
        report.verdicts.append(BinVerdict(
            group=group, bin=str(bin_name), verdict=verdict, reason=reason,
            in_model=in_model(group, str(bin_name)), witness=witness,
        ))

    bus_bytes = config.bus_bytes
    max_cells = max(1, 64 // bus_bytes)

    # -- opcode: every legal opcode is generatable by the sequence layer.
    for opcode in all_opcodes():
        emit("opcode", str(opcode), REACHABLE,
             f"witness: {opcode.size}-byte {opcode.kind.name} is a legal "
             "operation the sequence layer emits directly")

    # -- request_len: bounded by the 64-byte maximum operation.
    for bin_name in _LEN_BINS:
        cells = int(bin_name)
        if cells <= max_cells:
            emit("request_len", bin_name, REACHABLE,
                 f"witness: a {cells * bus_bytes}-byte STORE packs into "
                 f"{cells} cell(s) on the {bus_bytes}-byte bus")
        else:
            emit("request_len", bin_name, UNREACHABLE,
                 f"blocking constraint: max operation is 64 bytes = "
                 f"{max_cells} cell(s) on the {bus_bytes}-byte bus; "
                 f"no packet reaches {cells} cells")

    # -- path: the connectivity mask is the whole story.
    for i in range(config.n_initiators):
        for t in range(config.n_targets):
            bin_name = f"init{i}->targ{t}"
            if config.path_allowed(i, t):
                emit("path", bin_name, REACHABLE,
                     "witness: path allowed by the connectivity mask; "
                     "any mapped address for the target hits it")
            else:
                emit("path", bin_name, UNREACHABLE,
                     f"blocking constraint: path_allowed({i}, {t}) is "
                     "False — the node routes the request to the error "
                     "engine, never to the target")

    # -- be: a 1-byte bus has no partial enable distinct from the full mask.
    emit("be", "full", REACHABLE,
         "witness: every aligned whole-word access asserts the full mask")
    if bus_bytes == 1:
        emit("be", "partial", UNREACHABLE,
             "blocking constant: be is 1 bit wide, value range [0..1]; "
             "its only non-zero value 1 *is* the full mask, so no cell "
             "can carry a partial enable")
    else:
        emit("be", "partial", REACHABLE,
             f"witness: a sub-word STORE drives be below the full mask "
             f"{(1 << bus_bytes) - 1:#x}")

    # -- chunk: lck is a free request bit.
    emit("chunk", "plain", REACHABLE,
         "witness: ordinary (unlocked) operations")
    emit("chunk", "locked", REACHABLE,
         "witness: the locked-sequence tests assert lck")

    # -- response / decode share the decode-error argument.
    decode_error = exact_decode_verdict(config)
    emit("response", "ok", REACHABLE,
         "witness: any correctly-decoded operation completes with an "
         "ok response")
    emit("response", "error", *decode_error)
    emit("decode", "hit", REACHABLE,
         "witness: region_of() provides a mapped address per target")
    emit("decode", "error", *decode_error)

    # -- outstanding: the collector clamps depth at max_outstanding.
    for depth in range(1, config.max_outstanding + 1):
        if depth == 1:
            emit("outstanding", "1", REACHABLE,
                 "witness: any solitary request reaches depth 1")
        else:
            emit("outstanding", str(depth), REACHABLE,
                 f"witness: back-to-back requests with credit "
                 f"{config.max_outstanding} stack to depth {depth}")

    # -- conflict: contention needs two initiators allowed at one target.
    emit("conflict", "solo", REACHABLE,
         "witness: any single request is a solo grant cycle")
    contended_targets = [
        t for t in range(config.n_targets)
        if sum(1 for i in range(config.n_initiators)
               if config.path_allowed(i, t)) >= 2
    ]
    if config.n_initiators < 2:
        emit("conflict", "contended", UNREACHABLE,
             "blocking constraint: a single-initiator node never has "
             "two requesters in one cycle")
    elif not contended_targets:
        emit("conflict", "contended", UNREACHABLE,
             "blocking constraint: the connectivity mask gives no "
             "target two allowed initiators")
    else:
        emit("conflict", "contended", REACHABLE,
             f"witness: targ{contended_targets[0]} is reachable by "
             ">=2 initiators issuing in the same cycle")

    # -- ordering: reordering needs T3, credit > 1 and multiple targets.
    emit("ordering", "in_order", REACHABLE,
         "witness: a solitary request's response always matches the "
         "order head")
    if config.protocol_type is not ProtocolType.T3:
        emit("ordering", "out_of_order", UNREACHABLE,
             "blocking constraint: protocol_type=T2 — the node enforces "
             "same-initiator response ordering, so responses return in "
             "request order")
    elif config.max_outstanding <= 1:
        emit("ordering", "out_of_order", UNREACHABLE,
             "blocking constraint: max_outstanding=1 — at most one "
             "response in flight, nothing to reorder")
    elif config.n_targets <= 1:
        emit("ordering", "out_of_order", UNREACHABLE,
             "blocking constraint: a single target serves responses in "
             "arrival order")
    else:
        emit("ordering", "out_of_order", REACHABLE,
             "witness: two T3 requests to targets with different "
             "latencies return reordered")

    # -- programming: the register port must exist and toggle.
    if not config.has_programming_port:
        for bin_name in ("write", "read"):
            emit("programming", bin_name, UNREACHABLE,
                 "blocking constant: tb.prog.req = 0 (port absent, "
                 "modeled tied to 0) — the sampling condition req & ack "
                 "can never fire")
    else:
        blocked = None
        for net in ("tb.prog.req", "tb.prog.ack"):
            fact = _constant_str(constants, net)
            if fact is not None and fact[0] == 0:
                blocked = (net, fact[0])
                break
        for bin_name in ("write", "read"):
            if blocked is not None:
                emit("programming", bin_name, UNREACHABLE,
                     f"blocking constant: {blocked[0]} = {blocked[1]} "
                     "(proven by the constant engine) — the sampling "
                     "condition req & ack can never fire")
            else:
                emit("programming", bin_name, REACHABLE,
                     "witness: the programming master drives req and the "
                     "node's register decode acks it")

    return report
