"""The container that every artifact file is: a magic line, a
length-prefixed JSON header, raw C-order array blocks, then a length +
CRC32 trailer. What the header holds for each artifact kind is the
caller's; this module reads and writes the bytes.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .errors import ConfigError, IntegrityError

_MAGIC = b"SQTX1\n"
_DTYPES = {"f8": np.float64, "i4": np.int32}


def write_container(path, header: dict, arrays: list) -> None:
    """Deterministic single-file artifact: magic, length-prefixed JSON
    header, raw C-order blocks, then a length + CRC32 trailer.

    ``arrays`` is an ordered list of (name, ndarray); only float64 and
    int32 blocks are stored. Each block is written from its own memory
    as the length and CRC run on, so no copy of the file is held. No
    timestamps enter the file, so identical inputs give identical bytes.
    """
    manifest = []
    blocks = []
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        if arr.dtype == np.float64:
            code = "f8"
        elif arr.dtype == np.int32:
            code = "i4"
        else:
            raise ConfigError(f"block {name!r} has unsupported dtype {arr.dtype}")
        manifest.append({"name": name, "dtype": code, "shape": list(arr.shape)})
        # a byte view; memoryview.cast refuses a block with a zero dim
        blocks.append(arr.reshape(-1).view(np.uint8))
    head = dict(header)
    head["blocks"] = manifest
    hb = json.dumps(head, sort_keys=True, separators=(",", ":")).encode("utf-8")
    size = crc = 0
    with open(path, "wb") as fh:
        for part in [_MAGIC + struct.pack("<Q", len(hb)) + hb] + blocks:
            fh.write(part)
            size += len(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<QI", size, crc))


def read_container(path) -> tuple[dict, dict]:
    """Validated read of write_container output.

    Any truncation, padding, or corruption fails the length or CRC check
    and raises IntegrityError before any array is returned. So does a
    block manifest that is not a list of distinct names, each with a
    known dtype and a list of non-negative int dims.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 8 + 12:
        raise IntegrityError(f"{path}: file is too short to be a container")
    if not data.startswith(_MAGIC):
        raise IntegrityError(f"{path}: bad magic; not a recognized artifact file")
    # a view: slicing bytes would hold a second copy of the file
    body, trailer = memoryview(data)[:-12], data[-12:]
    stated_len, crc = struct.unpack("<QI", trailer)
    if stated_len != len(body):
        raise IntegrityError(
            f"{path}: length mismatch (expected {stated_len} bytes, found {len(body)}); "
            "the file is truncated or padded")
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise IntegrityError(f"{path}: checksum mismatch; the file is corrupt")
    (hlen,) = struct.unpack("<Q", body[6:14])
    hstart = 14
    if hstart + hlen > len(body):
        raise IntegrityError(f"{path}: header overruns the file")
    try:
        head = json.loads(bytes(body[hstart:hstart + hlen]).decode("utf-8"))
    except ValueError as e:
        raise IntegrityError(f"{path}: unreadable header: {e}") from None
    manifest = head.get("blocks") if isinstance(head, dict) else None
    if not isinstance(manifest, list):
        raise IntegrityError(f"{path}: the header has no block manifest")
    arrays = {}
    offset = hstart + hlen
    for block in manifest:
        entry = block if isinstance(block, dict) else {}
        name, code, shape = entry.get("name"), entry.get("dtype"), entry.get("shape")
        if not (isinstance(name, str) and isinstance(code, str) and code in _DTYPES
                and isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise IntegrityError(f"{path}: malformed block manifest entry {block!r}")
        if name in arrays:
            raise IntegrityError(f"{path}: block {name!r} is listed twice")
        count, dt = math.prod(shape), _DTYPES[code]
        nbytes = count * np.dtype(dt).itemsize
        if offset + nbytes > len(body):
            raise IntegrityError(f"{path}: block {name!r} overruns the file")
        arrays[name] = np.frombuffer(body, dt, count, offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise IntegrityError(f"{path}: {len(body) - offset} unexpected trailing bytes")
    return head, arrays
