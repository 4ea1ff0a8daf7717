"""Unit and property tests for the binary log layouts."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.encoding import (
    U16,
    U32,
    U64,
    UPDATE_PREFIX,
    absolute_header,
    decode_bytes,
    encode_bytes,
    relative_header,
)


class TestFixedWidth:
    def test_u16_round_trip(self):
        raw = U16.pack(0xBEEF)
        assert U16.unpack_from(raw, 0) == (0xBEEF,)
        assert len(raw) == U16.size == 2

    def test_u32_round_trip(self):
        raw = U32.pack(0xDEADBEEF)
        assert U32.unpack_from(raw, 0) == (0xDEADBEEF,)
        assert len(raw) == U32.size == 4

    def test_u64_round_trip(self):
        raw = U64.pack(2**63 + 17)
        assert U64.unpack_from(raw, 0) == (2**63 + 17,)
        assert len(raw) == U64.size == 8

    def test_sequential_fields_advance_offset(self):
        # A record prefix is its fields back to back, little-endian, with
        # no padding: one unpack reads what three per-field reads would.
        raw = UPDATE_PREFIX.pack(1, 2, 3)
        assert raw == U32.pack(1) + U64.pack(2) + U16.pack(3)
        assert UPDATE_PREFIX.unpack_from(raw, 0) == (1, 2, 3)
        assert UPDATE_PREFIX.size == len(raw) == 14

    def test_u16_overflow_rejected(self):
        with pytest.raises(struct.error):
            U16.pack(0x10000)

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_u16_property(self, value):
        assert U16.unpack_from(U16.pack(value), 0) == (value,)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFFFFFFFFFF))
    def test_u64_property(self, value):
        assert U64.unpack_from(U64.pack(value), 0) == (value,)


class TestHeaderLayouts:
    @pytest.mark.parametrize("k", [1, 4, 8, 16])
    def test_sizes(self, k):
        assert relative_header(k).size == 4 + 2 * k
        assert absolute_header(k).size == 4 + 8 * max(1, k // 4)

    def test_one_layout_per_k(self):
        assert relative_header(8) is relative_header(8)
        assert absolute_header(8) is absolute_header(8)
        assert relative_header(4) is not relative_header(8)


class TestVariableLength:
    def test_bytes_round_trip(self):
        buf = bytearray()
        encode_bytes(buf, b"hello world")
        data, off = decode_bytes(bytes(buf), 0)
        assert data == b"hello world"
        assert off == len(buf)

    def test_empty_bytes(self):
        buf = bytearray()
        encode_bytes(buf, b"")
        data, off = decode_bytes(bytes(buf), 0)
        assert data == b""
        assert off == 4

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_decode_returns_bytes_for_any_buffer(self, kind):
        buf = bytearray()
        encode_bytes(buf, b"abc")
        data, _ = decode_bytes(kind(bytes(buf)), 0)
        assert type(data) is bytes and data == b"abc"

    @given(st.binary(max_size=4096))
    def test_bytes_property(self, data):
        buf = bytearray()
        encode_bytes(buf, data)
        decoded, off = decode_bytes(bytes(buf), 0)
        assert decoded == data
        assert off == len(buf)

    @given(st.lists(st.binary(max_size=64), max_size=10))
    def test_concatenated_fields(self, chunks):
        buf = bytearray()
        for chunk in chunks:
            encode_bytes(buf, chunk)
        off = 0
        out = []
        for _ in chunks:
            chunk, off = decode_bytes(bytes(buf), off)
            out.append(chunk)
        assert out == chunks
