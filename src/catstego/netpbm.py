"""Lossless binary Netpbm I/O: P5 (grayscale) and P4 (bitmap).

Lossless storage is mandatory here; one flipped bit destroys an embedded
plane. Readers accept header comments, writers never emit them. Writes go
through a temp file + rename so a failed run leaves no partial output.

P4 bit value 1 renders black per the format; the rest of the toolkit treats
bits abstractly, so polarity only matters when viewing files.
"""

from __future__ import annotations

import contextlib
import os
import re

import numpy as np

from .arnold import _SEPARATORS, _decimal, check_side
from .bitplane import as_binary, as_gray, check_rows, rows_to_bits

# The header is read in one piece of at most this many bytes.
_HEADER_MAX = 1 << 16
# One header token after any whitespace and comments; a comment runs from "#"
# to the next CR or LF, so it can be parsed only one way.
_TOKEN = re.compile(f"(?:[{_SEPARATORS}]|#[^\r\n]*(?![^\r\n]))*([^{_SEPARATORS}#]+)".encode())


class NetpbmError(ValueError):
    """Malformed or unsupported Netpbm content."""


def atomic_write_bytes(path, data, mode: int = 0o666, head: bytes = b"") -> None:
    """Write ``head`` and then ``data``, both bytes-like, to ``path`` atomically
    (temp file in same dir + rename), with ``mode`` less the umask as its
    permissions; key files pass 0o600. Neither is copied to join them."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp.{os.urandom(8).hex()}.part")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, mode)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(head)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _header(fh, magics: tuple[bytes, ...], path) -> tuple[bytes, int, bytes]:
    """Read and check a square image's header from ``fh`` in one read of at
    most ``_HEADER_MAX`` bytes. Returns the magic, one of ``magics``, the side,
    and the raster bytes read along with the header."""
    head = fh.read(_HEADER_MAX)
    if head[:2] not in magics:
        expected = " or ".join(m.decode() for m in magics)
        raise NetpbmError(f"{path}: bad magic number {head[:2]!r}, expected {expected}")
    count = 3 if head[:2] == b"P5" else 2  # width, height and P5's maxval
    toks, pos = [], 2
    while len(toks) < count and (m := _TOKEN.match(head, pos)):
        toks.append(m[1])
        pos = m.end()
    if len(head) == _HEADER_MAX and (len(toks) < count or pos == len(head)):
        raise NetpbmError(f"{path}: header exceeds {_HEADER_MAX} bytes")
    if len(toks) < count:
        raise NetpbmError(f"{path}: truncated header")
    if not head[pos:pos + 1].isspace():
        raise NetpbmError(f"{path}: missing whitespace before raster")
    try:
        w, h = _decimal(toks[0], "width"), _decimal(toks[1], "height")
        if w < 1 or h < 1 or w != h:
            what = "dimensions must be positive" if min(w, h) < 1 else "must be square"
            raise ValueError(f"image {what}, got {w!s:.32}x{h!s:.32}")
        check_side(w)
        if count == 3 and (maxval := _decimal(toks[2], "maxval")) != 255:
            raise ValueError(f"maxval must be 255 (8-bit), got {maxval!s:.32}")
    except ValueError as exc:
        raise NetpbmError(f"{path}: {exc}") from None
    return head[:2], w, head[pos + 1:]


def _raster(fh, start: bytes, shape: tuple[int, int], path) -> np.ndarray:
    """The raster: the bytes of ``start`` it needs, then the rest from ``fh``."""
    raster = np.empty(shape, np.uint8)
    buf = memoryview(raster).cast("B")
    got = min(len(start), len(buf))
    buf[:got] = start[:got]
    got += fh.readinto(buf[got:])
    if got < raster.size:
        raise NetpbmError(f"{path}: truncated raster, expected {raster.size} bytes, got {got}")
    return raster


def _read(path, magics: tuple[bytes, ...]) -> tuple[bytes, np.ndarray]:
    """Open ``path`` once and read an image whose magic is one of ``magics``:
    the magic and the raster, an (n, n) image for P5 and P4 rows for P4."""
    with open(path, "rb") as fh:
        magic, n, start = _header(fh, magics, path)
        return magic, _raster(fh, start, (n, n if magic == b"P5" else (n + 7) // 8), path)


def read_gray(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) square image as uint8."""
    return _read(path, (b"P5",))[1]


def write_gray(path, img: np.ndarray) -> None:
    """Write a square uint8 image as binary PGM (P5)."""
    img = as_gray(img)
    n = img.shape[0]
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    atomic_write_bytes(path, np.ascontiguousarray(img).ravel(), head=header)


def read_rows(path) -> np.ndarray:
    """Read a binary PBM (P4) square image as its P4 rows, padding as stored."""
    return _read(path, (b"P4",))[1]


def read_binary(path) -> np.ndarray:
    """Read a binary PBM (P4) square image as a 0/1 uint8 array."""
    return rows_to_bits(read_rows(path))


def write_rows(path, rows: np.ndarray) -> None:
    """Write the P4 rows of a square plane, shape (n, ceil(n/8)), as binary PBM (P4)."""
    rows = check_rows(rows)
    n = len(rows)
    atomic_write_bytes(path, np.ascontiguousarray(rows).ravel(), head=f"P4\n{n} {n}\n".encode("ascii"))


def write_binary(path, img: np.ndarray) -> None:
    """Write a square 0/1 image as binary PBM (P4), rows padded per the format."""
    write_rows(path, np.packbits(as_binary(img), axis=1))


def read_auto(path) -> tuple[str, np.ndarray]:
    """Read either supported format; returns ("gray", img) or ("binary", img)."""
    magic, raster = _read(path, (b"P4", b"P5"))
    return ("gray", raster) if magic == b"P5" else ("binary", rows_to_bits(raster))
