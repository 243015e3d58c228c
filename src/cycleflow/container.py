"""Binary framing shared by ``.v4d`` volumes and ``.ckpt`` checkpoints.

Layout: 8-byte magic, u32-LE header length, a compact UTF-8 JSON object
header, then the payload as little-endian float32 (float64 for a float64
checkpoint).  Each format checks its header keys and the sizes they describe,
then sizes its payload with check_payload before reading it with read_into.
"""
from __future__ import annotations

import json
import os
import struct
import sys
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, ValidationError


def write_container(path, magic: bytes, header, arrays, dtype="<f4"):
    """Write the framing, then each array as ``dtype`` (little-endian)."""
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype=dtype))


@contextmanager
def read_container(path, magic: bytes):
    """Check the framing; yields (header dict, file positioned at the payload).

    The header length is checked against the file size before it is read,
    and the payload is left for the format to read straight into its arrays.
    A ValidationError of the values read, raised in the with block, gets the path.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(8) != magic:
            raise FormatError(f"{path}: bad magic at offset 0, expected {magic!r}")
        if size < 12:
            raise FormatError(f"{path}: truncated header length at offset 8")
        (hlen,) = struct.unpack("<I", fh.read(4))
        if size < 12 + hlen:
            raise FormatError(f"{path}: truncated header at offset 12")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: unreadable header: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header is not a JSON object")
        try:
            yield header, fh
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def check_payload(path, fh, expected: int):
    """FormatError unless the bytes after fh's position are exactly
    ``expected``; the size comes from fstat, so nothing is read."""
    offset = fh.tell()
    size = os.fstat(fh.fileno()).st_size - offset
    if size != expected:
        raise FormatError(f"{path}: payload at offset {offset} is " + (
            f"truncated to {size} of {expected} bytes" if size < expected else
            f"{expected} bytes and {size - expected} trailing bytes"))


def read_into(path, fh, array):
    """array, filled from fh (whose payload check_payload sized)."""
    if fh.readinto(array) != array.nbytes:  # a file that shrank
        raise FormatError(f"{path}: payload shrank while being read")
    return array


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
