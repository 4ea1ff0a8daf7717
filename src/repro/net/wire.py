"""Wire format: value codec, error envelope, frames, op registries.

Everything a socket transport puts on a TCP stream is defined here so
loopback and wire deployments stay behaviorally identical:

- **Value codec** (:func:`encode_value` / :func:`decode_value`): JSON
  with explicit tags for the Python shapes JSON cannot express but the
  RPC surface uses — ``bytes`` (pages, payloads), ``tuple`` (sequencer
  grants, backpointer vectors), non-string-keyed dicts (per-offset and
  per-stream maps), and embedded exception instances. Round-tripping
  preserves types exactly: ``decode_value(encode_value(x)) == x`` with
  matching types, which the regression suite asserts for every op in
  the RPC registry.
- **Error envelope** (:func:`encode_error` / :func:`decode_error`):
  ``{"code", "message", "params"}`` where *code* names the exception
  class. Known library errors are reconstructed with their typed
  attributes (``SealedError.epoch``, ``UnwrittenError.offset``, ...) so
  client retry logic is transport-agnostic; unknown codes surface as
  :class:`~repro.errors.RemoteCallError`.
- **Frames** (:func:`send_frame` / :func:`recv_frame`): a little-endian
  u32 length prefix followed by that many bytes of compact JSON. Both
  ends read through a :class:`FramedSocket` — the connection plus the
  bytes received past the last frame — so a frame normally costs one
  ``recv``, and a second frame that arrived in the same segment is
  served from the buffer.
- **Op registries**: the canonical sets of method names each node kind
  serves. tangolint's TL009 rule derives its RPC surface from these,
  so adding an op here automatically extends the lint contract.

No pickle anywhere (TL007): a malicious or corrupt peer can produce at
worst a ``ValueError``, never code execution.
"""

from __future__ import annotations

import builtins
import json
import socket
from _json import encode_basestring_ascii, make_encoder, make_scanner
from binascii import a2b_base64, b2a_base64
from typing import Any, Dict, Optional, Tuple, cast

from repro import errors as _errors
from repro.errors import RemoteCallError

#: Hard upper bound on a single frame (64 MiB). A length prefix past
#: this is treated as stream corruption, not an allocation request.
MAX_FRAME_BYTES = 1 << 26

# -- op registries -----------------------------------------------------------

#: RPC methods a storage node (FlashUnit) serves.
STORAGE_OPS = frozenset(
    {
        "write",
        "write_many",
        "read",
        "read_many",
        "is_written",
        "trim",
        "trim_prefix",
        "seal",
        "local_tail",
        "written_addresses",
        # Storage-admin plane: segment/compaction introspection and a
        # manual compaction trigger (no-ops on in-memory units).
        "store_status",
        "compact",
    }
)

#: RPC methods a sequencer serves. ``reserve_group``/``commit_group``
#: are the two phases of a cross-shard vector grant; every op is served
#: by a classic single sequencer and by each shard of a group alike.
SEQUENCER_OPS = frozenset(
    {
        "increment",
        "query",
        "seal",
        "bootstrap",
        "reserve_group",
        "commit_group",
    }
)

#: Supervision-plane methods every hosted node answers.
ADMIN_OPS = frozenset({"ping", "shutdown"})

#: The full wire-callable surface.
RPC_OPS = STORAGE_OPS | SEQUENCER_OPS | ADMIN_OPS


# -- value codec -------------------------------------------------------------

_TAG_BYTES = "__bytes__"
_TAG_TUPLE = "__tuple__"
_TAG_MAP = "__map__"
_TAG_ERROR = "__error__"
_TAGS = frozenset({_TAG_BYTES, _TAG_TUPLE, _TAG_MAP, _TAG_ERROR})


#: Exact types that are their own wire form. Dispatch below is on
#: ``type(value)``: almost every value on the RPC surface is one of a
#: handful of exact builtin types, and a scalar inside a container is
#: passed through without a call.
_SCALARS = frozenset({type(None), bool, int, float, str})


def encode_value(value: Any) -> Any:
    """Lower a Python RPC value to a JSON-safe shape, preserving types."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is bytes:
        return {_TAG_BYTES: b2a_base64(value, newline=False).decode("ascii")}
    if kind is tuple:
        return {
            _TAG_TUPLE: [
                v if type(v) in _SCALARS else encode_value(v) for v in value
            ]
        }
    if kind is list:
        return [v if type(v) in _SCALARS else encode_value(v) for v in value]
    if kind is dict:
        if all(isinstance(k, str) for k in value) and not (
            _TAGS & value.keys()
        ):
            return {
                k: v if type(v) in _SCALARS else encode_value(v)
                for k, v in value.items()
            }
        # Non-string keys (offset->page maps, stream-id->backpointer
        # maps) ride as ordered [key, value] pairs.
        return {
            _TAG_MAP: [
                [encode_value(k), encode_value(v)] for k, v in value.items()
            ]
        }
    return _encode_subclass(value)


def _encode_subclass(value: Any) -> Any:
    """Everything that is not an exact builtin: subclasses, buffers, errors."""
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return encode_value(bytes(value))
    if isinstance(value, tuple):
        return encode_value(tuple(value))
    if isinstance(value, list):
        return encode_value(list(value))
    if isinstance(value, dict):
        return encode_value(dict(value))
    if isinstance(value, BaseException):
        return {_TAG_ERROR: encode_error(value)}
    raise TypeError(
        f"value of type {type(value).__name__} is not wire-encodable; "
        f"RPC payloads are limited to JSON scalars, bytes, tuples, "
        f"lists, dicts, and library errors"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, list):
        return [v if type(v) in _SCALARS else decode_value(v) for v in value]
    if isinstance(value, dict):
        if len(value) == 1:
            ((tag, body),) = value.items()
            if tag == _TAG_BYTES:
                return a2b_base64(body)
            if tag == _TAG_TUPLE:
                return tuple(
                    v if type(v) in _SCALARS else decode_value(v) for v in body
                )
            if tag == _TAG_MAP:
                return {decode_value(k): decode_value(v) for k, v in body}
            if tag == _TAG_ERROR:
                return decode_error(body)
        return {
            k: v if type(v) in _SCALARS else decode_value(v)
            for k, v in value.items()
        }
    return value


# -- error envelope ----------------------------------------------------------

#: Constructor signatures of the typed library errors, by class name.
#: Each entry lists the attribute names whose values are both the
#: positional constructor args and the instance attributes — so an
#: envelope can be built from a live error and replayed into an equal
#: one on the far side.
_ERROR_PARAMS: Dict[str, Tuple[str, ...]] = {
    "WrittenError": ("offset",),
    "UnwrittenError": ("offset",),
    "TrimmedError": ("offset",),
    "SealedError": ("epoch",),
    "WrongEpochError": ("expected", "got"),
    "StaleGrantError": ("offset",),
    "NodeDownError": ("node",),
    "RpcTimeout": ("node", "op"),
    "RetriesExhaustedError": ("op", "attempts", "last"),
    "TooManyStreamsError": ("requested", "limit"),
    "UnknownStreamError": ("stream_id",),
    "TransactionAborted": ("reason", "commit_offset"),
    "RemoteReadError": ("oid",),
}

#: Builtin exceptions a server may legitimately raise at the RPC
#: boundary (bad arguments, contract violations). Reconstructed with
#: their message only.
_BUILTIN_ERRORS = frozenset(
    {
        "ValueError",
        "TypeError",
        "KeyError",
        "AssertionError",
        "NotImplementedError",
    }
)


def encode_error(exc: BaseException) -> Dict[str, Any]:
    """Build the ``{code, message, params?}`` envelope for *exc*."""
    code = type(exc).__name__
    envelope: Dict[str, Any] = {"code": code, "message": str(exc)}
    params = _ERROR_PARAMS.get(code)
    if params is not None and all(hasattr(exc, p) for p in params):
        envelope["params"] = {p: encode_value(getattr(exc, p)) for p in params}
    return envelope


def decode_error(envelope: Dict[str, Any]) -> BaseException:
    """Reconstruct the typed exception an envelope describes.

    Returns the exception instance (callers raise it); unknown codes
    become :class:`~repro.errors.RemoteCallError`.
    """
    code = envelope.get("code", "UnknownError")
    message = envelope.get("message", "")
    params = envelope.get("params")
    ctor_args = _ERROR_PARAMS.get(code)
    if ctor_args is not None and isinstance(params, dict):
        cls = getattr(_errors, code, None)
        if cls is not None:
            try:
                return cls(*(decode_value(params[p]) for p in ctor_args))
            except (KeyError, TypeError):
                return RemoteCallError(code, message)
    cls = getattr(_errors, code, None)
    if cls is not None and ctor_args is None:
        try:
            return cls(message)
        except TypeError:
            return RemoteCallError(code, message)
    if code in _BUILTIN_ERRORS:
        return getattr(builtins, code)(message)
    return RemoteCallError(code, message)


# -- frames ------------------------------------------------------------------


# The C encoder and scanner behind ``json.dumps`` / ``json.loads``, built
# once (``JSONEncoder.encode`` builds an encoder per call). The encoder
# keeps the frame settings: sorted keys, compact separators, ASCII
# escaping, NaN allowed; no circular-reference markers, since
# ``encode_value`` builds fresh trees.
_encode_json = make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii,
    None, ":", ",", True, False, True,
)
_scan_json = make_scanner(cast(Any, json.JSONDecoder()))  # duck-typed context

#: Bytes asked of the kernel per ``recv``: several small frames' worth,
#: so whatever has arrived comes back in one call.
_RECV_BYTES = 65536


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialize one message: u32 length prefix + compact JSON body."""
    body = "".join(_encode_json(payload, 0)).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return len(body).to_bytes(4, "little") + body


class FramedSocket:
    """A connected socket read a frame at a time through one buffer.

    Each ``recv`` asks for whatever has arrived, so a frame that came
    in one segment costs one system call (reading the length and the
    body separately cost two), and bytes past the end of a frame stay
    buffered for the next :meth:`read_frame`. Writes go straight to
    the socket. Not thread-safe: like the socket it wraps, one
    connection serves one exchange at a time.

    After any exception out of :meth:`read_frame` the position in the
    stream is unknown; the only safe move is :meth:`close`.
    """

    __slots__ = ("_sock", "_buf")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = b""

    def settimeout(self, timeout: Optional[float]) -> None:
        self._sock.settimeout(timeout)

    def sendall(self, data: bytes) -> None:
        self._sock.sendall(data)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "FramedSocket":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def read_frame(self) -> Optional[bytes]:
        """The next frame's body; None on clean EOF at a frame boundary.

        Raises ``ConnectionError`` on EOF inside a frame and
        ``ValueError`` on a length prefix past :data:`MAX_FRAME_BYTES`
        — checked as soon as the prefix is in, before any of the body
        is awaited.
        """
        buf = self._buf
        while True:
            have = len(buf)
            end = 4
            if have >= 4:
                length = int.from_bytes(buf[:4], "little")
                if length > MAX_FRAME_BYTES:
                    raise ValueError(
                        f"frame length {length} exceeds MAX_FRAME_BYTES"
                    )
                end += length
                if have >= end:
                    self._buf = buf[end:]
                    return buf[4:end]
            # Short: gather until the prefix (then the whole frame) is
            # in, joining once so a large frame is not copied per chunk.
            chunks = [buf] if buf else []
            while have < end:
                chunk = self._sock.recv(max(_RECV_BYTES, end - have))
                if not chunk:
                    if have == 0:
                        return None
                    raise ConnectionError(
                        f"connection closed mid-frame ({have}/{end} bytes)"
                    )
                chunks.append(chunk)
                have += len(chunk)
            buf = b"".join(chunks)


def send_frame(conn: Any, payload: Dict[str, Any]) -> None:
    """Write one framed message to *conn* (a socket or a :class:`FramedSocket`)."""
    conn.sendall(encode_frame(payload))


def recv_frame(conn: FramedSocket) -> Optional[Dict[str, Any]]:
    """Read one framed message; None on clean EOF at a frame boundary.

    Raises ``ConnectionError`` on mid-frame EOF and ``ValueError`` on a
    corrupt length prefix or non-object body. A body that is not one
    JSON object spanning it all is left to ``json.loads``, so every body
    is accepted or rejected exactly as ``json.loads`` would.
    """
    body = conn.read_frame()
    if body is None:
        return None
    text = body.decode("utf-8")
    try:
        payload, end = _scan_json(text, 0)
        if end == len(text) and type(payload) is dict:
            return payload
    except (StopIteration, ValueError):
        pass
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("frame body must be a JSON object")
    return payload
