"""The object op codec: tagged values, op tables and decode_op."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects import TangoIndexedMap, TangoMap, TangoRegister
from repro.tango.object import TangoObject
from repro.util.encoding import (
    OP_TAG_BASE,
    OpTable,
    decode_values,
    encode_values,
)

I64_MIN, I64_MAX = -(2**63), 2**63 - 1

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=I64_MIN - 2, max_value=I64_MIN + 2)
    | st.integers(min_value=I64_MAX - 2, max_value=I64_MAX + 2)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    | st.text()
    | st.text(min_size=250, max_size=260)
    | st.sampled_from(["\ud800", "a\udfffb", "é→世界🎉"])
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=6) | st.integers(), children, max_size=4),
    max_leaves=12,
)


def same(a, b) -> bool:
    """Equal, with NaN equal to NaN and -0.0 told apart from 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a):
            return math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def round_trip(values):
    parts = []
    encode_values(parts, values)
    return decode_values(b"".join(parts), 0)


class TestValueCodec:
    @given(_values)
    @settings(max_examples=300)
    def test_decodes_to_what_a_json_round_trip_gives(self, value):
        (decoded,) = round_trip([value])
        assert same(decoded, json.loads(json.dumps(value)))

    @given(st.lists(_values, max_size=6))
    def test_a_run_of_values_decodes_in_order(self, values):
        decoded = round_trip(values)
        assert len(decoded) == len(values)
        for got, value in zip(decoded, values):
            assert same(got, json.loads(json.dumps(value)))

    @pytest.mark.parametrize(
        "value, size",
        [
            (I64_MAX, 9),
            (I64_MIN, 9),
            (I64_MAX + 1, 5 + len(str(I64_MAX + 1))),
            (I64_MIN - 1, 5 + len(str(I64_MIN - 1))),
            ("x" * 255, 2 + 255),
            ("x" * 256, 5 + 256),
            (None, 1),
            (True, 1),
            (-0.0, 9),
        ],
    )
    def test_scalars_are_packed_and_the_rest_is_json(self, value, size):
        parts = []
        encode_values(parts, [value])
        assert len(b"".join(parts)) == size
        assert same(round_trip([value])[0], value)

    def test_int_keys_and_tuples_come_back_as_json_gives_them(self):
        assert round_trip([{1: (2, 3)}]) == [{"1": [2, 3]}]

    def test_a_value_json_cannot_carry_is_refused(self):
        with pytest.raises(TypeError):
            encode_values([], [b"raw"])

    def test_an_unknown_value_tag_is_refused(self):
        with pytest.raises(ValueError):
            decode_values(b"\x7f", 0)


class TestOpTable:
    table = OpTable("put k v", "remove k", "clear")

    def test_tags_are_positions_above_every_json_start_byte(self):
        assert [self.table.tag(n) for n in ("put", "remove", "clear")] == [
            OP_TAG_BASE,
            OP_TAG_BASE + 1,
            OP_TAG_BASE + 2,
        ]
        assert self.table.fields("put") == ("k", "v")
        assert self.table.encode("clear", ()) == bytes([OP_TAG_BASE + 2])

    @given(_values)
    def test_no_json_text_starts_like_an_op(self, value):
        assert json.dumps(value).encode("utf-8")[0] < OP_TAG_BASE

    @given(st.text(), _values)
    def test_an_op_decodes_to_its_name_and_fields(self, key, value):
        name, fields = self.table.decode(self.table.encode("put", (key, value)))
        assert name == "put"
        assert fields[0] == key
        assert same(fields[1], json.loads(json.dumps(value)))

    def test_unknown_ops_tags_and_arities_are_refused(self):
        with pytest.raises(ValueError):
            self.table.encode("frobnicate", ())
        with pytest.raises(TypeError):
            self.table.encode("put", ("k",))
        with pytest.raises(ValueError):
            self.table.decode(bytes([OP_TAG_BASE + 3]))


class TestDecodeOp:
    def test_binary_and_legacy_json_ops_decode_alike(self):
        binary = TangoMap.OPS.encode("put", ("k", [1, 2]))
        legacy = b'{"op": "put", "k": "k", "v": [1, 2]}'
        assert TangoMap.decode_op(binary) == ("put", ["k", [1, 2]])
        assert TangoMap.decode_op(legacy) == ("put", ["k", [1, 2]])
        assert TangoMap.decode_op(b'{"op": "clear"}') == ("clear", [])

    def test_a_legacy_op_missing_a_field_decodes_it_as_none(self):
        assert TangoMap.decode_op(b'{"op": "put", "k": "k"}') == ("put", ["k", None])

    def test_a_legacy_register_write_is_the_bare_value(self):
        assert TangoRegister.decode_op(b'{"op": "put"}') == ("write", [{"op": "put"}])
        assert TangoRegister.decode_op(b"7") == ("write", [7])

    def test_objects_sharing_a_stream_share_a_table(self):
        assert TangoIndexedMap.OPS is TangoMap.OPS

    def test_an_object_without_ops_implements_apply_itself(self):
        class Bare(TangoObject):
            pass

        bare = Bare(runtime=None, oid=1, host_view=False)
        with pytest.raises(NotImplementedError):
            bare.apply(b'{"op": "put"}', 0)

    def test_a_table_needs_a_handler_per_op(self):
        with pytest.raises(AttributeError):

            class Incomplete(TangoObject):  # raises on creation
                OPS = OpTable("put k v", "drop k")

                def _apply_put(self, k, v, offset):
                    pass
