"""Binary framing shared by ``.v4d`` volumes and ``.ckpt`` checkpoints.

Layout: 8-byte magic, u32-LE header length, a compact UTF-8 JSON object
header, then the payload as little-endian float32.  Each format checks its
own header keys and payload size on top of this framing.
"""
from __future__ import annotations

import json
import struct
import sys

import numpy as np

from .errors import FormatError


def write_container(path, magic: bytes, header, arrays):
    """Write the framing, then each array as little-endian float32."""
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f4"))


def read_container(path, magic: bytes):
    """Check the framing; returns (header dict, file bytes, payload offset)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != magic:
        raise FormatError(f"{path}: bad magic at offset 0, expected {magic!r}")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header length at offset 8")
    (hlen,) = struct.unpack("<I", data[8:12])
    if len(data) < 12 + hlen:
        raise FormatError(f"{path}: truncated header at offset 12")
    try:
        header = json.loads(data[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    return header, data, 12 + hlen


def is_number(v) -> bool:
    """A finite JSON number (bools excluded)."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def is_count(v) -> bool:
    """A positive JSON integer (bools excluded)."""
    return type(v) is int and v > 0


def list_of(kind, length=None):
    """Predicate for a JSON list whose items all pass ``kind``."""
    return lambda v: (isinstance(v, list) and (length is None or len(v) == length)
                      and all(map(kind, v)))


def check_header(path, header: dict, checks: dict):
    """Each key of ``checks`` must be in the header and pass its predicate."""
    for key, ok in checks.items():
        if key not in header:
            raise FormatError(f"{path}: header missing {key!r}")
        if not ok(header[key]):
            raise FormatError(f"{path}: bad header value {key}={header[key]!r}")
