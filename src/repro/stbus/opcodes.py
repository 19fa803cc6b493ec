"""STBus operation encodings.

The encoding is a simplified but self-consistent rendition of the STBus
Type II/III command set: loads and stores of 1..64 bytes, plus the
"specific operations" the spec names (read-modify-write, swap, flush,
purge, read-exclusive).  The 8-bit ``opc`` field encodes the kind in the
high nibble and log2(size) in the low nibble.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from .types import MAX_OPERATION_BYTES, ProtocolType


class OpcodeError(ValueError):
    """Illegal operation kind/size combination or encoding."""


class OpKind(enum.Enum):
    """Operation kinds of the Type II/III command set."""

    LOAD = 0x1
    STORE = 0x2
    RMW = 0x3
    SWAP = 0x4
    FLUSH = 0x5
    PURGE = 0x6
    READEX = 0x7

    @property
    def carries_request_data(self) -> bool:
        """Does the request packet carry write data?"""
        return self in (OpKind.STORE, OpKind.RMW, OpKind.SWAP)

    @property
    def carries_response_data(self) -> bool:
        """Does the response packet carry read data?"""
        return self in (OpKind.LOAD, OpKind.RMW, OpKind.SWAP, OpKind.READEX)


#: Sizes each kind accepts, in bytes.
_LEGAL_SIZES = {
    OpKind.LOAD: (1, 2, 4, 8, 16, 32, 64),
    OpKind.STORE: (1, 2, 4, 8, 16, 32, 64),
    OpKind.RMW: (1, 2, 4, 8),
    OpKind.SWAP: (1, 2, 4, 8),
    OpKind.FLUSH: (1,),
    OpKind.PURGE: (1,),
    OpKind.READEX: (1, 2, 4, 8),
}


@dataclass(frozen=True)
class Opcode:
    """One operation: a kind and a size in bytes.

    ``Opcode.load(4)`` is a 4-byte read; ``Opcode.store(64)`` a 64-byte
    write.  Instances are hashable and usable as coverage bin keys.
    """

    kind: OpKind
    size: int

    def __post_init__(self) -> None:
        legal = _LEGAL_SIZES[self.kind]
        if self.size not in legal:
            raise OpcodeError(
                f"{self.kind.name} does not support size {self.size} "
                f"(legal: {legal})"
            )
        if self.size > MAX_OPERATION_BYTES:
            raise OpcodeError(f"operation size {self.size} exceeds 64 bytes")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def load(size: int) -> "Opcode":
        return Opcode(OpKind.LOAD, size)

    @staticmethod
    def store(size: int) -> "Opcode":
        return Opcode(OpKind.STORE, size)

    @staticmethod
    def rmw(size: int) -> "Opcode":
        return Opcode(OpKind.RMW, size)

    @staticmethod
    def swap(size: int) -> "Opcode":
        return Opcode(OpKind.SWAP, size)

    @staticmethod
    def flush() -> "Opcode":
        return Opcode(OpKind.FLUSH, 1)

    @staticmethod
    def purge() -> "Opcode":
        return Opcode(OpKind.PURGE, 1)

    @staticmethod
    def readex(size: int) -> "Opcode":
        return Opcode(OpKind.READEX, size)

    # -- encoding ------------------------------------------------------------

    def encode(self) -> int:
        """The 8-bit ``opc`` field value."""
        return (self.kind.value << 4) | self.size.bit_length() - 1

    @staticmethod
    def decode(opc: int) -> "Opcode":
        """Inverse of :meth:`encode`; raises :class:`OpcodeError` if illegal.

        Legal encodings are memoized (an :class:`Opcode` is immutable);
        an illegal one is not cached and raises on every call.
        """
        # Only the low byte takes part in decoding, so it bounds the memo.
        opcode = _DECODED.get(opc & 0xFF)
        if opcode is not None:
            return opcode
        kind_bits = (opc >> 4) & 0xF
        size = 1 << (opc & 0xF)
        try:
            kind = OpKind(kind_bits)
        except ValueError:
            raise OpcodeError(f"opc 0x{opc:02x}: unknown kind {kind_bits:#x}")
        opcode = _DECODED[opc & 0xFF] = Opcode(kind, size)
        return opcode

    @staticmethod
    def is_valid_encoding(opc: int) -> bool:
        try:
            Opcode.decode(opc)
            return True
        except OpcodeError:
            return False

    # -- packet geometry -------------------------------------------------------

    def data_cells(self, bus_bytes: int) -> int:
        """Cells needed to carry ``size`` bytes on a ``bus_bytes``-wide bus."""
        return max(1, (self.size + bus_bytes - 1) // bus_bytes)

    def request_cells(self, bus_bytes: int, protocol: ProtocolType) -> int:
        """Length of the request packet in cells.

        Type II packets are symmetric: the request occupies the data-cell
        count whether or not it carries data.  Type III shrinks dataless
        requests (loads) to a single cell.
        """
        if protocol is ProtocolType.T1:
            return 1
        if self.kind.carries_request_data or protocol.symmetric_packets:
            return self.data_cells(bus_bytes)
        return 1

    def response_cells(self, bus_bytes: int, protocol: ProtocolType) -> int:
        """Length of the response packet in cells (mirrors request_cells)."""
        if protocol is ProtocolType.T1:
            return 1
        if self.kind.carries_response_data or protocol.symmetric_packets:
            return self.data_cells(bus_bytes)
        return 1

    def check_alignment(self, address: int) -> None:
        """STBus requires natural alignment of the address to the size."""
        if address % self.size:
            raise OpcodeError(
                f"address {address:#x} not aligned to {self.size}-byte "
                f"{self.kind.name}"
            )

    def __str__(self) -> str:
        return f"{self.kind.name}{self.size}"


#: ``Opcode.decode`` results by ``opc & 0xFF``, legal encodings only.
_DECODED: Dict[int, Opcode] = {}


def all_opcodes() -> Tuple[Opcode, ...]:
    """Every legal opcode (used to define the functional coverage space)."""
    result = []
    for kind, sizes in _LEGAL_SIZES.items():
        for size in sizes:
            result.append(Opcode(kind, size))
    return tuple(result)
