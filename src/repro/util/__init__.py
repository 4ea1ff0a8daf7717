"""Shared utilities: binary log layouts, the object op codec and workload
distributions."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the typed surface
    from repro.util.encoding import OpTable, decode_bytes, encode_bytes
    from repro.util.zipf import ZipfGenerator

__all__ = ["encode_bytes", "decode_bytes", "OpTable", "ZipfGenerator"]
__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.util.encoding": ("OpTable", "decode_bytes", "encode_bytes"),
    "repro.util.zipf": ("ZipfGenerator",),
})
