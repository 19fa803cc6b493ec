"""STBus protocol types.

The STBus defines three protocol types (Section 3 of the paper):

- **Type I** — simple synchronous handshake, limited command set; used for
  register access and slow peripherals (and for the node's programming
  port in this reproduction).
- **Type II** — adds split transactions and pipelining; read/write up to 64
  bytes, operations groupable into *chunks* (the ``lck`` signal) to keep a
  slave allocated.  Traffic must stay ordered.
- **Type III** — adds out-of-order transactions and asymmetric request/
  response packet lengths on top of Type II.
"""

from __future__ import annotations

import enum


class ProtocolType(enum.Enum):
    """The three STBus protocol types."""

    T1 = 1
    T2 = 2
    T3 = 3

    @property
    def supports_out_of_order(self) -> bool:
        """May responses return in a different order than requests?"""
        return self is ProtocolType.T3

    @property
    def symmetric_packets(self) -> bool:
        """Type II keeps request and response packets the same length;
        Type III allows asymmetric lengths (single-cell load requests,
        single-cell store responses)."""
        return self is ProtocolType.T2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"T{self.value}"


#: Field widths shared by every Type II/III interface in this reproduction.
ADDR_WIDTH = 32
OPC_WIDTH = 8
TID_WIDTH = 8
SRC_WIDTH = 6  # up to 32 initiator ports plus margin
PRI_WIDTH = 4
R_OPC_WIDTH = 8

#: Response opcode error flag (bit 0 of ``r_opc``).
R_OPC_ERROR = 0x01

#: Legal data bus widths in bits (Section 5: "from 8 to 256 bits").
LEGAL_DATA_WIDTHS = (8, 16, 32, 64, 128, 256)

#: Largest single operation, in bytes ("up to 64 bytes").
MAX_OPERATION_BYTES = 64
