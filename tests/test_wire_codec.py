"""Wire serialization: every RPC payload round-trips frames exactly.

Satellite of the socket-transport work: loopback and socket transports
must be observationally identical, which reduces to one property — for
every op the lint rule (TL009) recognizes as an RPC, the op's argument
and result shapes survive ``encode_value``/``decode_value`` with types
intact (tuples stay tuples, bytes stay bytes, int dict keys stay ints),
and every typed protocol error survives the error envelope with its
constructor attributes intact (a client retry loop dispatches on
``SealedError.epoch`` and ``UnwrittenError.offset``, not on strings).
"""

import base64
import json
import socket
import threading
from collections import OrderedDict, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corfu.entry import NO_BACKPOINTER
from repro.errors import (
    NodeDownError,
    RemoteCallError,
    RemoteReadError,
    RetriesExhaustedError,
    RpcTimeout,
    SealedError,
    StaleGrantError,
    TooManyStreamsError,
    TransactionAborted,
    TrimmedError,
    UnknownStreamError,
    UnwrittenError,
    WrittenError,
    WrongEpochError,
)
from repro.net.wire import (
    MAX_FRAME_BYTES,
    RPC_OPS,
    SEQUENCER_OPS,
    FramedSocket,
    decode_error,
    decode_value,
    encode_error,
    encode_frame,
    encode_value,
    recv_frame,
    send_frame,
)
from repro.tools.lint.rules.net import _RPC_OPS as LINT_RPC_OPS

#: Representative (args, kwargs, result) shapes per RPC op, using the
#: exact types the real servers consume and produce.
SAMPLES = {
    "write": ((7, b"\x00\xffpage", 3), {}, None),
    "write_many": (
        ([(1, b"\x00\xffpage"), (2, b""), (3, b"late")], 3),
        {},
        {1: "ok", 2: "written", 3: "trimmed"},
    ),
    "read": ((7, 3), {}, b"\x00\xffpage"),
    "read_many": (
        ([1, 2, 3], 3),
        {},
        {1: ("ok", b"data"), 2: ("unwritten", None), 3: ("trimmed", None)},
    ),
    "is_written": ((7, 3), {}, True),
    "trim": ((7, 3), {}, None),
    "trim_prefix": ((7, 3), {}, None),
    "seal": ((4,), {}, 12),
    "local_tail": ((), {}, 12),
    "written_addresses": ((), {}, [0, 1, 5]),
    "store_status": (
        (),
        {},
        {
            "kind": "segmented",
            "name": "flash-0-0",
            "epoch": 3,
            "trimmed_prefix": 40,
            "pages": 12,
            "resident_bytes": 8192,
            "segments": 3,
            "sealed_segments": 2,
            "disk_bytes": 16384,
            "data_bytes": 15000,
            "dead_bytes": 600,
            "live_bytes": 14400,
            "garbage_ratio": 0.04,
            "compaction": {"runs": 2, "bytes_reclaimed": 4096},
        },
    ),
    "compact": (
        (),
        {},
        {
            "segments_compacted": 2,
            "segments_written": 1,
            "frames_dropped": 64,
            "bytes_reclaimed": 4096,
        },
    ),
    "increment": (
        ((1, 2),),
        {"epoch": 3, "count": 2},
        (9, {1: (8, 5, 2), 2: (NO_BACKPOINTER,) * 4}),
    ),
    "query": (((1,),), {"epoch": 3}, (11, {1: (10, 8, 5)})),
    "bootstrap": ((11, {1: [10, 8], 2: [9]}, 4), {}, None),
    # Vector-grant phases (sharded sequencer): a reservation returns
    # one striped offset; a commit returns per-stream backpointers.
    "reserve_group": ((10,), {"epoch": 3}, 13),
    "commit_group": (
        ((1, 5), 13),
        {"epoch": 3},
        {1: (9, 5, 1), 5: (NO_BACKPOINTER,) * 4},
    ),
    "ping": ((), {}, {"name": "flash-0-0", "kind": "FlashUnit", "pid": 4242}),
    "shutdown": ((), {}, True),
    # Client-side chain wrapper: delivered to storage as a junk write.
    "fill": ((7, b"junk", 3), {}, None),
}

#: Typed errors and the attributes that must survive the envelope.
ERROR_SAMPLES = [
    (WrittenError(3), {"offset": 3}),
    (UnwrittenError(4), {"offset": 4}),
    (TrimmedError(5), {"offset": 5}),
    (SealedError(2), {"epoch": 2}),
    (WrongEpochError(2, 1), {"expected": 2, "got": 1}),
    (StaleGrantError(13), {"offset": 13}),
    (NodeDownError("flash-0-1"), {"node": "flash-0-1"}),
    (RpcTimeout("seq-0", "increment"), {"node": "seq-0", "op": "increment"}),
    (
        RetriesExhaustedError("append", 32, "rpc read to flash-0-0 timed out"),
        {"op": "append", "attempts": 32},
    ),
    (TooManyStreamsError(17, 16), {"requested": 17, "limit": 16}),
    (UnknownStreamError(9), {"stream_id": 9}),
    (TransactionAborted("stale read of oid 1", 12), {"commit_offset": 12}),
    (RemoteReadError(7), {"oid": 7}),
]


def wire_round_trip(value):
    """encode → JSON text (what actually crosses TCP) → decode."""
    return decode_value(json.loads(json.dumps(encode_value(value))))


def assert_identical(a, b):
    """Deep equality *including* container and leaf types."""
    assert type(a) is type(b), f"{type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        assert sorted(map(repr, a)) == sorted(map(repr, b))
        for key in a:
            assert_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    else:
        assert a == b


class TestValueCodec:
    def test_lint_rpc_surface_is_covered(self):
        # The regression contract: every op tangolint treats as an RPC
        # has a round-trip sample here, and the wire registry is a
        # subset of the lint surface (lint additionally knows 'fill').
        assert LINT_RPC_OPS == RPC_OPS | {"fill"}
        assert set(SAMPLES) >= LINT_RPC_OPS

    @pytest.mark.parametrize("op", sorted(SAMPLES))
    def test_op_payloads_round_trip(self, op):
        args, kwargs, result = SAMPLES[op]
        assert_identical(wire_round_trip(list(args)), list(args))
        assert_identical(wire_round_trip(dict(kwargs)), dict(kwargs))
        assert_identical(wire_round_trip(result), result)

    def test_scalars_and_none(self):
        for value in (None, True, False, 0, -7, 3.5, "text", ""):
            got = wire_round_trip(value)
            assert got == value and type(got) is type(value)

    def test_bytes_stay_bytes(self):
        blob = bytes(range(256))
        assert wire_round_trip(blob) == blob
        assert isinstance(wire_round_trip(blob), bytes)

    def test_nested_structures(self):
        value = {"outer": [(1, b"\x00"), {2: ("ok", None)}], "n": 3}
        assert_identical(wire_round_trip(value), value)

    def test_string_dicts_colliding_with_tags_round_trip(self):
        # A payload that *looks* like a codec tag must not be decoded
        # as one.
        value = {"__bytes__": "not-base64!", "other": 1}
        assert_identical(wire_round_trip(value), value)
        tricky = {"__tuple__": [1, 2]}
        assert_identical(wire_round_trip(tricky), tricky)

    def test_unencodable_types_are_rejected(self):
        with pytest.raises(TypeError, match="not wire-encodable"):
            encode_value(object())

    def test_embedded_error_instances(self):
        # CorfuClient.read_many returns error *instances* as values;
        # they must survive as typed instances, not strings.
        outcome = {1: UnwrittenError(1), 2: TrimmedError(2)}
        got = wire_round_trip(outcome)
        assert isinstance(got[1], UnwrittenError) and got[1].offset == 1
        assert isinstance(got[2], TrimmedError) and got[2].offset == 2


class TestShardedSequencerOps:
    """Live shapes: every sequencer op, served by a striped shard,
    round-trips the value codec exactly (args and results)."""

    def test_vector_grant_ops_are_registered(self):
        assert {"reserve_group", "commit_group"} <= SEQUENCER_OPS
        assert SEQUENCER_OPS <= RPC_OPS
        # tangolint's derived surface picked the new ops up too.
        assert {"reserve_group", "commit_group"} <= LINT_RPC_OPS

    def _call(self, obj, op, *args, **kwargs):
        """Invoke *op* through the codec, exactly as a NodeServer does."""
        wire_args = decode_value(json.loads(json.dumps(encode_value(list(args)))))
        wire_kwargs = decode_value(
            json.loads(json.dumps(encode_value(dict(kwargs))))
        )
        result = getattr(obj, op)(*wire_args, **wire_kwargs)
        round_tripped = wire_round_trip(result)
        assert_identical(round_tripped, result)
        return round_tripped

    def test_per_shard_ops_round_trip_live(self):
        from repro.corfu.sequencer import Sequencer

        shard = Sequencer("seq-0.1", shard_index=1, num_shards=4)
        # bootstrap / increment / query on the striped shard.
        self._call(shard, "bootstrap", 6, {1: [5, 1], 5: [1]}, 2)
        first, bps = self._call(
            shard, "increment", (1, 5), epoch=2, count=2
        )
        assert first % 4 == 1
        assert isinstance(bps[1], tuple)
        tail, tails = self._call(shard, "query", (1, 5), epoch=2)
        assert tail > first
        # Vector grant: reserve above a floor, then commit the maximum.
        reserved = self._call(shard, "reserve_group", 20, epoch=2)
        assert reserved >= 20 and reserved % 4 == 1
        committed = self._call(shard, "commit_group", (1, 5), reserved, epoch=2)
        assert set(committed) == {1, 5}
        # Per-shard seal fences the old epoch, over the wire shape too.
        assert self._call(shard, "seal", 5) is None
        with pytest.raises(SealedError):
            shard.increment((1,), epoch=2)

    def test_stale_grant_error_crosses_the_wire(self):
        from repro.corfu.sequencer import Sequencer

        shard = Sequencer("seq-0.0", shard_index=0, num_shards=2)
        shard.increment((2,))  # stream 2's newest is now offset 0
        shard.increment((2,))  # ... then offset 2
        with pytest.raises(StaleGrantError) as exc_info:
            shard.commit_group((2,), 0)
        got = decode_error(json.loads(json.dumps(encode_error(exc_info.value))))
        assert isinstance(got, StaleGrantError)
        assert got.offset == 0


class TestErrorEnvelope:
    @pytest.mark.parametrize(
        "exc,attrs", ERROR_SAMPLES, ids=lambda v: type(v).__name__
        if isinstance(v, BaseException) else None,
    )
    def test_typed_errors_round_trip(self, exc, attrs):
        envelope = json.loads(json.dumps(encode_error(exc)))
        got = decode_error(envelope)
        assert type(got) is type(exc)
        for attr, expected in attrs.items():
            assert getattr(got, attr) == expected
        assert str(got) == str(exc)

    def test_builtin_errors_round_trip(self):
        got = decode_error(encode_error(ValueError("count must be >= 1")))
        assert isinstance(got, ValueError)
        assert "count must be >= 1" in str(got)

    def test_unknown_code_becomes_remote_call_error(self):
        got = decode_error({"code": "SomeServerBug", "message": "boom"})
        assert isinstance(got, RemoteCallError)
        assert got.code == "SomeServerBug"
        assert "boom" in str(got)

    def test_malformed_params_degrade_gracefully(self):
        got = decode_error({"code": "SealedError", "message": "x", "params": {}})
        assert isinstance(got, RemoteCallError)


def _frozen_encode_value(value):
    """``encode_value`` as it stood before exact-type dispatch — the
    ``isinstance`` chain and ``base64.b64encode`` — kept verbatim as the
    reference the current codec must match byte for byte."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        return {"__bytes__": base64.b64encode(raw).decode("ascii")}
    if isinstance(value, tuple):
        return {"__tuple__": [_frozen_encode_value(v) for v in value]}
    if isinstance(value, list):
        return [_frozen_encode_value(v) for v in value]
    if isinstance(value, dict):
        tags = {"__bytes__", "__tuple__", "__map__", "__error__"}
        if all(isinstance(k, str) for k in value) and not (tags & value.keys()):
            return {k: _frozen_encode_value(v) for k, v in value.items()}
        return {
            "__map__": [
                [_frozen_encode_value(k), _frozen_encode_value(v)]
                for k, v in value.items()
            ]
        }
    if isinstance(value, BaseException):
        return {"__error__": _frozen_encode_error(value)}
    raise TypeError("not wire-encodable")


def _frozen_encode_error(exc):
    from repro.net.wire import _ERROR_PARAMS

    code = type(exc).__name__
    envelope = {"code": code, "message": str(exc)}
    params = _ERROR_PARAMS.get(code)
    if params is not None and all(hasattr(exc, p) for p in params):
        envelope["params"] = {
            p: _frozen_encode_value(getattr(exc, p)) for p in params
        }
    return envelope


def _frozen_encode_frame(payload):
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return len(body).to_bytes(4, "little") + body


_Grant = namedtuple("_Grant", "offset backpointers")

_TAG_KEYS = st.sampled_from(["__bytes__", "__tuple__", "__map__", "__error__"])
#: Everything ``encode_value`` lowers: scalars (ints past 64 bits,
#: NaN and the infinities, non-ASCII and control characters), bytes,
#: and containers whose dicts have str, int or tag-colliding keys.
_WIRE_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.binary(max_size=32),
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | _TAG_KEYS, inner, max_size=4)
    | st.dictionaries(st.integers() | st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_PADDING = st.text(alphabet=" \t\r\n", max_size=2)

#: Bodies at the edge of what a frame may hold: whitespace around the
#: object is accepted (``json.loads`` skips it); trailing data, a
#: non-object top level, an empty body and bad UTF-8 are rejected.
_EDGE_BODIES = [
    b'{"id":"c#1","ok":null}',
    b' {"id":"c#1"}',
    b'{"id":"c#1"}\n',
    b'\t\r\n {"id":"c#1"} \n',
    b'{"id":"c#1"}{"id":"c#2"}',
    b'{"id":"c#1"} x',
    b'{"id":"c#1"',
    b'{"id":}',
    b'[{"id":"c#1"}]',
    b'"id"',
    b"17",
    b"null",
    b"",
    b"   ",
    b'{"id":"\xff"}',
    b"\xef\xbb\xbf{}",
    b'{"a":NaN,"b":-Infinity,"c":1e400}',
    b'{"a":1,"a":2}',
    b'{"k":"\\u00e9\\ud83d\\ude00\\u0000"}',
]


class _Body:
    """A connection whose next frame is *body*."""

    def __init__(self, body):
        self.body = body

    def read_frame(self):
        return self.body


def _frozen_recv_body(body):
    """``recv_frame``'s parse before the built-once scanner, verbatim."""
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("frame body must be a JSON object")
    return payload


def _assert_parses_as_before(body):
    try:
        want = _frozen_recv_body(body)
    except ValueError:
        with pytest.raises(ValueError):
            recv_frame(_Body(body))
        return
    got = recv_frame(_Body(body))
    assert type(got) is dict
    # Through json.dumps so NaN compares equal to itself.
    assert json.dumps(got) == json.dumps(want)


class TestFrozenCodecEquivalence:
    """The codec got faster, not different: same bytes on the wire."""

    @pytest.mark.parametrize("op", sorted(SAMPLES))
    def test_every_op_frames_byte_identically(self, op):
        args, kwargs, result = SAMPLES[op]
        request = {"id": "c#7", "source": "c", "target": "n", "op": op}
        assert encode_frame(
            {**request, "args": encode_value(list(args)), "kwargs": encode_value(dict(kwargs))}
        ) == _frozen_encode_frame(
            {
                **request,
                "args": _frozen_encode_value(list(args)),
                "kwargs": _frozen_encode_value(dict(kwargs)),
            }
        )
        assert encode_frame(
            {"id": "c#7", "ok": encode_value(result)}
        ) == _frozen_encode_frame({"id": "c#7", "ok": _frozen_encode_value(result)})

    @pytest.mark.parametrize(
        "exc", [e for e, _ in ERROR_SAMPLES] + [ValueError("bad count")],
        ids=lambda e: type(e).__name__,
    )
    def test_every_typed_error_frames_byte_identically(self, exc):
        assert encode_frame(
            {"id": "c#7", "err": encode_error(exc)}
        ) == _frozen_encode_frame({"id": "c#7", "err": _frozen_encode_error(exc)})
        # ... and embedded as a value (read_many's per-offset outcomes).
        assert encode_value({3: exc}) == _frozen_encode_value({3: exc})

    def test_subclasses_and_buffers_take_the_general_path(self):
        blob = bytes(range(256)) * 3
        for value in (
            bytearray(blob),
            memoryview(blob),
            _Grant(9, {1: (8, 5)}),
            OrderedDict([("b", (1,)), ("a", [b"x"])]),
            OrderedDict([(2, b"x"), (1, None)]),
            [True, 1, 1.5, None, "s", b"", (), [], {}],
            {"unicode": "\u00e9\u4e2d", "nested": {"k": (b"\x00",)}},
        ):
            assert encode_value(value) == _frozen_encode_value(value)
            assert json.dumps(encode_value(value)) == json.dumps(
                _frozen_encode_value(value)
            )
        assert decode_value(encode_value(blob)) == blob

    @settings(max_examples=300, deadline=None)
    @given(_WIRE_VALUES)
    def test_frames_of_any_value_are_byte_identical(self, value):
        frame = {"id": "c#7", "ok": encode_value(value)}
        assert encode_frame(frame) == _frozen_encode_frame(
            {"id": "c#7", "ok": _frozen_encode_value(value)}
        )

    @pytest.mark.parametrize("body", _EDGE_BODIES, ids=repr)
    def test_bodies_accepted_and_rejected_as_before(self, body):
        _assert_parses_as_before(body)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.builds(
                lambda head, value, tail: (
                    head + json.dumps(value) + tail
                ).encode("utf-8"),
                _PADDING,
                _JSON_VALUES,
                st.one_of(_PADDING, st.sampled_from(["x", "{}", "1", ",", "]"])),
            ),
            st.binary(max_size=40),
        )
    )
    def test_any_body_parses_as_before(self, body):
        _assert_parses_as_before(body)


class TestFrames:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, FramedSocket(b)

    def test_send_recv_round_trip(self):
        a, b = self._pair()
        try:
            payload = {"id": "c#1", "op": "read", "args": encode_value([7, b"x"])}
            send_frame(a, payload)
            assert recv_frame(b) == json.loads(json.dumps(payload))
        finally:
            a.close()
            b.close()

    def test_partial_delivery_reassembles(self):
        # TCP is a byte stream: frames arriving one byte at a time must
        # still parse.
        a, b = self._pair()
        try:
            raw = encode_frame({"id": "c#2", "ok": encode_value((1, b"\xff"))})
            done = threading.Event()

            def dribble():
                for i in range(len(raw)):
                    a.sendall(raw[i : i + 1])
                done.set()

            t = threading.Thread(target=dribble, daemon=True)
            t.start()
            frame = recv_frame(b)
            assert decode_value(frame["ok"]) == (1, b"\xff")
            assert done.wait(5.0)
            t.join(5.0)
        finally:
            a.close()
            b.close()

    def test_two_frames_on_one_stream(self):
        a, b = self._pair()
        try:
            send_frame(a, {"id": "c#1"})
            send_frame(a, {"id": "c#2"})
            assert recv_frame(b)["id"] == "c#1"
            assert recv_frame(b)["id"] == "c#2"
        finally:
            a.close()
            b.close()

    def test_two_frames_in_one_segment_cost_one_recv(self):
        # Both frames (and the first bytes of a third) arrive together:
        # one recv serves the first, the buffer serves the second, and
        # the partial third waits for its remainder.
        a, raw_b = socket.socketpair()
        raw_b.settimeout(5.0)
        recvs = []

        class Counting:
            def recv(self, n):
                recvs.append(n)
                return raw_b.recv(n)

            def close(self):
                raw_b.close()

        b = FramedSocket(Counting())
        try:
            third = encode_frame({"id": "c#3", "ok": encode_value(b"tail" * 50)})
            a.sendall(
                encode_frame({"id": "c#1"}) + encode_frame({"id": "c#2"}) + third[:9]
            )
            assert recv_frame(b)["id"] == "c#1"
            assert recv_frame(b)["id"] == "c#2"
            assert len(recvs) == 1
            a.sendall(third[9:])
            assert decode_value(recv_frame(b)["ok"]) == b"tail" * 50
            assert len(recvs) == 2
            a.close()
            assert recv_frame(b) is None
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = self._pair()
        try:
            raw = encode_frame({"id": "c#1", "ok": encode_value(b"payload")})
            a.sendall(raw[: len(raw) // 2])
            a.close()
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_eof_inside_the_length_prefix_raises(self):
        a, b = self._pair()
        try:
            a.sendall(b"\x10\x00")
            a.close()
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_prefix_rejected(self):
        # Rejected on the prefix alone: no body follows, and the reader
        # must not wait for one.
        a, b = self._pair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "little"))
            with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_large_frame_spanning_many_recvs(self):
        a, b = self._pair()
        try:
            blob = bytes(range(256)) * 2048  # 512 KiB, ~700 KiB framed
            raw = encode_frame({"id": "c#1", "ok": encode_value(blob)})
            t = threading.Thread(target=a.sendall, args=(raw,), daemon=True)
            t.start()
            assert decode_value(recv_frame(b)["ok"]) == blob
            t.join(5.0)
            assert not t.is_alive()
        finally:
            a.close()
            b.close()

    def test_oversized_payload_rejected_at_send(self):
        with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})
