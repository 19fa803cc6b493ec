"""Opcode encoding, geometry and legality tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stbus import OpKind, Opcode, OpcodeError, ProtocolType, all_opcodes


def test_encode_decode_roundtrip_all():
    for opcode in all_opcodes():
        assert Opcode.decode(opcode.encode()) == opcode


def test_load_constructor():
    opcode = Opcode.load(8)
    assert opcode.kind is OpKind.LOAD
    assert opcode.size == 8
    assert not opcode.kind.carries_request_data
    assert opcode.kind.carries_response_data


def test_store_constructor():
    opcode = Opcode.store(4)
    assert opcode.kind.carries_request_data
    assert not opcode.kind.carries_response_data


def test_rmw_carries_both():
    opcode = Opcode.rmw(4)
    assert opcode.kind.carries_request_data
    assert opcode.kind.carries_response_data


def test_illegal_size_rejected():
    with pytest.raises(OpcodeError):
        Opcode.load(3)
    with pytest.raises(OpcodeError):
        Opcode.rmw(16)
    with pytest.raises(OpcodeError):
        Opcode.store(128)


def test_decode_unknown_kind_rejected():
    with pytest.raises(OpcodeError):
        Opcode.decode(0xF0)
    assert not Opcode.is_valid_encoding(0xF0)
    assert Opcode.is_valid_encoding(Opcode.load(1).encode())


def test_decode_memoizes_legal_encodings_only():
    opc = Opcode.store(8).encode()
    assert Opcode.decode(opc) is Opcode.decode(opc)
    # Illegal encodings, unknown kind or illegal size, raise every time.
    for bad in (0xF0, Opcode.load(1).encode() | 0xF):
        for _ in range(2):
            with pytest.raises(OpcodeError):
                Opcode.decode(bad)


def test_data_cells_geometry():
    assert Opcode.load(4).data_cells(bus_bytes=4) == 1
    assert Opcode.load(1).data_cells(bus_bytes=4) == 1
    assert Opcode.load(64).data_cells(bus_bytes=4) == 16
    assert Opcode.store(8).data_cells(bus_bytes=4) == 2


def test_type2_symmetric_packets():
    load = Opcode.load(16)
    assert load.request_cells(4, ProtocolType.T2) == 4
    assert load.response_cells(4, ProtocolType.T2) == 4
    store = Opcode.store(16)
    assert store.request_cells(4, ProtocolType.T2) == 4
    assert store.response_cells(4, ProtocolType.T2) == 4


def test_type3_asymmetric_packets():
    load = Opcode.load(16)
    assert load.request_cells(4, ProtocolType.T3) == 1
    assert load.response_cells(4, ProtocolType.T3) == 4
    store = Opcode.store(16)
    assert store.request_cells(4, ProtocolType.T3) == 4
    assert store.response_cells(4, ProtocolType.T3) == 1


def test_alignment_check():
    Opcode.load(4).check_alignment(0x100)
    with pytest.raises(OpcodeError):
        Opcode.load(4).check_alignment(0x102)
    Opcode.load(1).check_alignment(0x103)


def test_str_form():
    assert str(Opcode.store(32)) == "STORE32"


def test_all_opcodes_unique_encodings():
    encodings = [op.encode() for op in all_opcodes()]
    assert len(set(encodings)) == len(encodings)


@given(st.sampled_from(all_opcodes()), st.sampled_from([1, 2, 4, 8, 16, 32]))
def test_response_never_shorter_than_one_cell(opcode, bus_bytes):
    for protocol in (ProtocolType.T2, ProtocolType.T3):
        assert opcode.request_cells(bus_bytes, protocol) >= 1
        assert opcode.response_cells(bus_bytes, protocol) >= 1


@given(st.sampled_from(all_opcodes()), st.sampled_from([1, 2, 4, 8, 16, 32]))
def test_type3_never_longer_than_type2(opcode, bus_bytes):
    """Type III only ever *removes* cells relative to Type II."""
    assert opcode.request_cells(bus_bytes, ProtocolType.T3) <= \
        opcode.request_cells(bus_bytes, ProtocolType.T2)
    assert opcode.response_cells(bus_bytes, ProtocolType.T3) <= \
        opcode.response_cells(bus_bytes, ProtocolType.T2)
