"""Harness-side tracing: spans around calls into each layer.

Nothing under ``src/`` knows about this. For the traced segment the
harness wraps the transport handed to the cluster and the public
methods of each layer's classes, and restores them afterwards. A span
is (name, start, end, parent, operation id); its layer is its module.
A layer's self time within one operation is the time its spans cover
minus what their child spans cover, so per operation the self times of
all layers add up exactly to the operation's duration.

Only the driver thread's spans carry self time: the chain replicator's
stage threads overlap the driver, so their spans are counted (RPCs per
flight) and timed (hop latency) but not attributed.
"""

from __future__ import annotations

import json
import threading
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from tb.clock import percentile

#: Raw spans kept for the trace file: the first operations only, so the
#: file stays a readable sample whatever the run length.
RAW_OPS = 400


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        #: every span's duration, per name (driver and stage threads).
        self.durs: List[array] = []
        # Accumulators for the operation in progress.
        self._self: List[float] = []
        self._calls: List[int] = []
        self._touched: List[int] = []
        self._stack: List[list] = []
        self._main = threading.get_ident()
        self._tls = threading.local()
        self._next_span = 0
        self.active = False
        self.counting = False
        self.kind = ""
        self._op_id = -1
        # Results per operation kind.
        self.op_total: Dict[str, array] = {}
        self.op_layer_self: Dict[str, Dict[str, array]] = {}
        self.op_counts: Dict[str, Dict[int, int]] = {}
        self.ops_counted: Dict[str, int] = {}
        self.raw: List[Tuple] = []

    # -- span names ----------------------------------------------------------

    def name_id(self, layer: str, name: str) -> int:
        full = f"{layer}:{name}"
        nid = self._ids.get(full)
        if nid is None:
            nid = len(self.names)
            self._ids[full] = nid
            self.names.append(full)
            self.layers.append(layer)
            self.durs.append(array("d"))
            self._self.append(0.0)
            self._calls.append(0)
        return nid

    # -- recording -----------------------------------------------------------

    def begin(self, nid: int) -> list:
        if threading.get_ident() == self._main:
            stack = self._stack
        else:
            stack = getattr(self._tls, "stack", None)
            if stack is None:
                stack = self._tls.stack = []
        self._next_span += 1
        parent = stack[-1][3] if stack else 0
        frame = [nid, 0.0, 0.0, self._next_span, parent]
        stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def end(self, frame: list) -> None:
        now = perf_counter()
        nid = frame[0]
        dur = now - frame[2]
        main = threading.get_ident() == self._main
        stack = self._stack if main else self._tls.stack
        stack.pop()
        self.durs[nid].append(dur)
        if not self._calls[nid]:
            self._touched.append(nid)
        self._calls[nid] += 1
        if main:
            if stack:
                stack[-1][1] += dur
            self._self[nid] += dur - frame[1]
        if self._op_id < RAW_OPS:
            self.raw.append(
                (self._op_id, self.kind, frame[3], frame[4], nid, frame[2], now, main)
            )

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        nid = self.name_id(layer, name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(frame)

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- operations (root spans) ---------------------------------------------

    def begin_op(self, kind: str) -> list:
        self.active = True
        self.kind = kind
        self._op_id += 1
        return self.begin(self.name_id("bench", kind))

    def end_op(self, frame: list) -> None:
        self.end(frame)
        self.active = False
        kind = self.kind
        total = self.durs[frame[0]][-1]
        self.op_total.setdefault(kind, array("d")).append(total)
        by_layer: Dict[str, float] = {}
        counts = self.op_counts.setdefault(kind, {}) if self.counting else None
        for nid in self._touched:
            layer = self.layers[nid]
            by_layer[layer] = by_layer.get(layer, 0.0) + self._self[nid]
            if counts is not None:
                counts[nid] = counts.get(nid, 0) + self._calls[nid]
            self._self[nid] = 0.0
            self._calls[nid] = 0
        self._touched.clear()
        if counts is not None:
            self.ops_counted[kind] = self.ops_counted.get(kind, 0) + 1
        layers = self.op_layer_self.setdefault(kind, {})
        done = len(self.op_total[kind]) - 1
        for layer in by_layer:
            if layer not in layers:
                layers[layer] = array("d", bytes(8 * done))  # zeros so far
        for layer, series in layers.items():
            series.append(by_layer.get(layer, 0.0))

    # -- queries --------------------------------------------------------------

    def dur_p50_us(self, layer: str, name: str) -> float:
        nid = self._ids.get(f"{layer}:{name}")
        if nid is None or not self.durs[nid]:
            return 0.0
        return percentile(sorted(self.durs[nid]), 0.5) * 1e6

    def dur_total(self, layer: str, name: str) -> Tuple[float, int]:
        nid = self._ids.get(f"{layer}:{name}")
        if nid is None:
            return 0.0, 0
        return sum(self.durs[nid]), len(self.durs[nid])

    def op_p50_us(self, kind: str) -> float:
        return percentile(sorted(self.op_total.get(kind, ())), 0.5) * 1e6

    def layer_self_p50_us(self, kind: str, layer: str) -> float:
        series = self.op_layer_self.get(kind, {}).get(layer)
        return percentile(sorted(series), 0.5) * 1e6 if series else 0.0

    def count(self, kind: str, prefix: str) -> int:
        """Spans counted in *kind* operations whose name starts with *prefix*."""
        return sum(
            n
            for nid, n in self.op_counts.get(kind, {}).items()
            if self.names[nid].startswith(prefix)
        )

    def budget(self, kind: str) -> List[Tuple[str, float, float]]:
        """(layer, p50 self us, share) rows, largest first."""
        rows = [
            (layer, self.layer_self_p50_us(kind, layer))
            for layer in self.op_layer_self.get(kind, {})
        ]
        whole = sum(us for _, us in rows) or 1.0
        return sorted(
            ((layer, us, us / whole) for layer, us in rows), key=lambda r: -r[1]
        )

    def coverage(self, kind: str) -> float:
        """Sum of the layers' p50 self times over the operation's p50."""
        total = self.op_p50_us(kind)
        if not total:
            return 0.0
        return sum(us for _, us, _ in self.budget(kind)) / total

    def write_raw(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for op, kind, span, parent, nid, start, end, main in self.raw:
                out.write(
                    json.dumps(
                        {
                            "op": op,
                            "kind": kind,
                            "span": span,
                            "parent": parent,
                            "name": self.names[nid],
                            "layer": self.layers[nid],
                            "start_us": round(start * 1e6, 3),
                            "end_us": round(end * 1e6, 3),
                            "driver_thread": main,
                        }
                    )
                    + "\n"
                )


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, owner, name: str, value) -> None:
        """Replace ``owner.name`` (class, module or instance attribute)."""
        own = getattr(owner, "__dict__", {})
        if name in own:
            old = own[name]
            self._undo.append(lambda: setattr(owner, name, old))
        else:  # instance shadowing a class attribute
            self._undo.append(lambda: delattr(owner, name))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


#: layer -> (module path, class name, public methods to span).
#: ``StreamClient.peek_offset`` is left out on purpose: playback calls it
#: ~2x per hosted stream per entry, and a span there would cost more than
#: the call; its time shows as ``tango.runtime`` self time.
_CLASS_SPANS = [
    ("corfu.client", "repro.corfu.client", "CorfuClient",
     ("append", "append_async", "append_batch", "read", "read_many", "check",
      "query_streams", "fill", "trim_prefix", "compact")),
    ("corfu.client", "repro.corfu.client", "AppendFuture", ("result",)),
    ("corfu.replication", "repro.corfu.replication", "ChainReplicator",
     ("write", "write_pipelined", "read", "read_many", "trim_prefix")),
    ("corfu.sequencer", "repro.corfu.sequencer", "Sequencer", ("increment", "query")),
    ("corfu.storage", "repro.corfu.storage", "FlashUnit",
     ("write", "read", "read_many", "trim_prefix", "compact")),
    ("store", "repro.store.flash", "SegmentedFlashUnit",
     ("write", "trim_prefix", "compact")),
    ("streams", "repro.streams.stream", "StreamClient",
     ("append", "append_async", "sync", "sync_many", "readnext", "fetch",
      "fetch_many", "check_tail")),
    ("tango.runtime", "repro.tango.runtime", "TangoRuntime",
     ("register_object", "update_helper", "query_helper", "begin_tx", "end_tx")),
    ("objects.map", "repro.objects.map", "TangoMap", ("apply", "put", "get")),
]


def node_kind(target: str) -> Tuple[str, str]:
    """('storage', 'hop<j>') or ('sequencer', '') from a node name."""
    if target.startswith("flash-"):
        return "storage", "hop" + target.rsplit("-", 1)[1]
    return "sequencer", ""


def install(tracer: Tracer, transport, frames: Optional[List] = None) -> Patches:
    """Wrap *transport* and every layer's public methods with spans.

    With *frames* (wire only), the first request/response payloads that
    cross ``repro.net.socket`` are captured for the codec replay.
    """
    import importlib

    from repro.net.socket import SocketTransport

    patches = Patches()
    for layer, module_name, class_name, methods in _CLASS_SPANS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            patches.set(cls, method, tracer.wrap(cls.__dict__[method], layer, method))

    net_layer = "net.socket" if isinstance(transport, SocketTransport) else "net.transport"
    call = transport.call
    span_ids: Dict[Tuple[str, str], int] = {}

    def traced_call(source, target, op, resolve, args, kwargs):
        if not tracer.active:
            return call(source, target, op, resolve, args, kwargs)
        nid = span_ids.get((target, op))
        if nid is None:
            kind, hop = node_kind(target)
            name = f"{kind}.{op}" + (f".{hop}" if hop else "")
            nid = span_ids[(target, op)] = tracer.name_id(net_layer, name)
        frame = tracer.begin(nid)
        try:
            return call(source, target, op, resolve, args, kwargs)
        finally:
            tracer.end(frame)

    patches.set(transport, "call", traced_call)

    if frames is not None:
        import repro.net.socket as socket_module

        send, recv = socket_module.send_frame, socket_module.recv_frame

        def capturing_send(sock, payload):
            if tracer.counting and tracer.active:
                frames.append(("request", tracer.kind, payload))
            return send(sock, payload)

        def capturing_recv(sock):
            payload = recv(sock)
            if tracer.counting and tracer.active and payload is not None:
                frames.append(("response", tracer.kind, payload))
            return payload

        patches.set(socket_module, "send_frame", capturing_send)
        patches.set(socket_module, "recv_frame", capturing_recv)
    return patches
