"""Shared utilities: binary log layouts, the object op codec and workload
distributions."""

from repro.util.encoding import OpTable, decode_bytes, encode_bytes
from repro.util.zipf import ZipfGenerator

__all__ = [
    "encode_bytes",
    "decode_bytes",
    "OpTable",
    "ZipfGenerator",
]
