"""Registry of the five seeded BCA model bugs.

Section 5: "The verification environment permitted to find five bugs on
BCA models, not found using old environment of the past flow."  The
original bugs are not documented in the paper, so this reproduction seeds
five *representative* BCA-only bugs, chosen so that each is

1. invisible to the past flow (single-initiator directed write-then-read
   traffic with visual checks), and
2. caught by a specific mechanism of the common environment (protocol
   checker, scoreboard, arbitration reference checker, or the bus
   analyzer's alignment rate).

Enable them by passing ``bugs={...}`` to :class:`repro.bca.node.BcaNode`;
the hooks live in its engine, :class:`repro.bca.core.BcaCore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

#: LRU recency is never refreshed when a packet completes (the model
#: forgot the update hook), so the same port keeps winning and can
#: monopolize a contended target.  Caught by the arbitration reference
#: checker (and by the alignment rate).  The past flow never has two
#: initiators, so arbitration is never observed.
BUG_LRU_STUCK = "lru-recency-stuck"

#: Sub-bus-width request cells are forwarded with their data and byte
#: enables shifted down to lane 0 instead of the address-aligned lane.
#: Caught by the scoreboard (request content differs between the initiator
#: and target ports) and the byte-enable protocol rule.  The past flow
#: only issues full-width transfers.
BUG_SUBWORD_LANES = "subword-lane-misplacement"

#: The source tag is truncated to 2 bits when a request is forwarded, so
#: with more than four initiators responses are routed back to an aliased
#: port.  Caught by the scoreboard and the response-matching protocol
#: rule.  The past flow has a single initiator (src 0 aliases to 0).
BUG_SRC_TRUNCATION = "src-tag-truncation"

#: ``lck`` on the last cell of a packet is ignored: the node re-arbitrates
#: instead of holding the slave for the chunk's next packet.  Caught by
#: the chunk-atomicity protocol rule at the target port.  The past flow
#: never contends, so no interleaving can occur.
BUG_CHUNK_IGNORED = "chunk-lock-ignored"

#: Programming-port writes are applied only after the next packet ends,
#: so arbitration keeps using stale priorities / latency budgets for a
#: while.  Caught by the arbitration reference checker.  The past flow
#: never touches the programming port.
BUG_PROG_STALE = "prog-update-stale"

ALL_BUGS: Tuple[str, ...] = (
    BUG_LRU_STUCK,
    BUG_SUBWORD_LANES,
    BUG_SRC_TRUNCATION,
    BUG_CHUNK_IGNORED,
    BUG_PROG_STALE,
)


@dataclass(frozen=True)
class BugInfo:
    """Catalog entry used by reports and the bug-detection benchmark."""

    name: str
    description: str
    caught_by: str  # the primary mechanism of the common environment
    why_old_flow_misses: str
    #: Hierarchical name of the process that runs the mutation (the
    #: core's edge runs inside the node's ``_on_clock``) — the triage
    #: suspect set must contain it for localization to count.
    mutated_process: str = ""


BUG_CATALOG = {
    BUG_LRU_STUCK: BugInfo(
        BUG_LRU_STUCK,
        "LRU recency never refreshed at end of packet",
        "arbitration reference checker",
        "past flow drives a single initiator: arbitration never observed",
        mutated_process="tb.dut._on_clock",
    ),
    BUG_SUBWORD_LANES: BugInfo(
        BUG_SUBWORD_LANES,
        "sub-word cells forwarded on lane 0 instead of the address lane",
        "scoreboard (request content mismatch across the node)",
        "past flow issues only full-width, word-aligned transfers",
        mutated_process="tb.dut._on_clock",
    ),
    BUG_SRC_TRUNCATION: BugInfo(
        BUG_SRC_TRUNCATION,
        "source tag truncated to 2 bits when forwarding requests",
        "scoreboard / response matching",
        "past flow has one initiator, whose tag 0 truncates to itself",
        mutated_process="tb.dut._on_clock",
    ),
    BUG_CHUNK_IGNORED: BugInfo(
        BUG_CHUNK_IGNORED,
        "chunk lock (lck) ignored: slave re-arbitrated inside a chunk",
        "chunk-atomicity protocol rule",
        "past flow has no contention, chunks can never be interleaved",
        mutated_process="tb.dut._on_clock",
    ),
    BUG_PROG_STALE: BugInfo(
        BUG_PROG_STALE,
        "programming-port writes applied one packet late",
        "arbitration reference checker",
        "past flow never programs the arbiter",
        mutated_process="tb.dut._on_clock",
    ),
}


def validate_bugs(bugs) -> FrozenSet[str]:
    """Normalize and validate a bug-name collection."""
    bug_set = frozenset(bugs or ())
    unknown = bug_set - set(ALL_BUGS)
    if unknown:
        raise ValueError(f"unknown bug names: {sorted(unknown)}")
    return bug_set
