"""STBus protocol layer: types, opcodes, packets, interfaces, configuration.

This package is the *functional specification* both design views implement
and the verification environment checks against — the paper's "the
functional specifications must be the only reference of verification
implementation".
"""

from .types import (
    ADDR_WIDTH,
    LEGAL_DATA_WIDTHS,
    MAX_OPERATION_BYTES,
    OPC_WIDTH,
    PRI_WIDTH,
    R_OPC_ERROR,
    R_OPC_WIDTH,
    SRC_WIDTH,
    TID_WIDTH,
    ProtocolType,
)
from .opcodes import OpKind, Opcode, OpcodeError, all_opcodes
from .packet import (
    Cell,
    PacketError,
    RespCell,
    Transaction,
    build_request_cells,
    build_response_cells,
    bytes_to_int,
    int_to_bytes,
    request_data_from_cells,
    response_data_from_cells,
)
from .routing import AddressMap, Region, RoutingError
from .arbitration import (
    Arbiter,
    ArbitrationPolicy,
    BandwidthArbiter,
    FixedPriorityArbiter,
    LatencyArbiter,
    LruArbiter,
    PROGRAMMABLE_POLICIES,
    ProgrammablePriorityArbiter,
    RoundRobinArbiter,
    make_arbiter,
)
from .config import ERROR_TARGET, Architecture, ConfigError, NodeConfig
from .interface import (
    REQUEST_FIELDS,
    RESPONSE_FIELDS,
    StbusPort,
    T1_IDLE,
    T1_READ,
    T1_WRITE,
    Type1Port,
)

__all__ = [
    "ProtocolType",
    "ADDR_WIDTH", "OPC_WIDTH", "TID_WIDTH", "SRC_WIDTH", "PRI_WIDTH",
    "R_OPC_WIDTH", "R_OPC_ERROR", "LEGAL_DATA_WIDTHS", "MAX_OPERATION_BYTES",
    "OpKind", "Opcode", "OpcodeError", "all_opcodes",
    "Cell", "RespCell", "Transaction", "PacketError",
    "build_request_cells", "build_response_cells",
    "request_data_from_cells", "response_data_from_cells",
    "bytes_to_int", "int_to_bytes",
    "AddressMap", "Region", "RoutingError",
    "Arbiter", "ArbitrationPolicy", "make_arbiter",
    "FixedPriorityArbiter", "ProgrammablePriorityArbiter", "LruArbiter",
    "RoundRobinArbiter", "LatencyArbiter", "BandwidthArbiter",
    "PROGRAMMABLE_POLICIES",
    "Architecture", "NodeConfig", "ConfigError", "ERROR_TARGET",
    "StbusPort", "Type1Port", "REQUEST_FIELDS", "RESPONSE_FIELDS",
    "T1_IDLE", "T1_READ", "T1_WRITE",
]
