"""Shared utilities: binary log layouts and workload distributions."""

from repro.util.encoding import decode_bytes, encode_bytes
from repro.util.zipf import ZipfGenerator

__all__ = [
    "encode_bytes",
    "decode_bytes",
    "ZipfGenerator",
]
