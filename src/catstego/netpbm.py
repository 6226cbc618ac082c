"""Lossless binary Netpbm I/O: P5 (grayscale) and P4 (bitmap).

Lossless storage is mandatory here; one flipped bit destroys an embedded
plane. Readers accept header comments, writers never emit them. Writes go
through a temp file + rename so a failed run leaves no partial output.

P4 bit value 1 renders black per the format; the rest of the toolkit treats
bits abstractly, so polarity only matters when viewing files.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .arnold import _decimal, check_side
from .bitplane import as_binary, as_gray

# The header is read in one piece of at most this many bytes.
_HEADER_MAX = 1 << 16
# One header token after any whitespace and comments; a comment runs from "#"
# to the next CR or LF, so it can be parsed only one way.
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\r\n]*(?![^\r\n]))*([^ \t\n\r\x0b\x0c#]+)")


class NetpbmError(ValueError):
    """Malformed or unsupported Netpbm content."""


def atomic_write_bytes(path, data: bytes, mode: int = 0o666) -> None:
    """Write ``data`` to ``path`` atomically (temp file in same dir + rename),
    with ``mode`` less the umask as its permissions; key files pass 0o600."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp.{os.urandom(8).hex()}.part")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, mode)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _header(fh, magic: bytes, names: tuple[str, ...], path) -> tuple[int, list[int], bytes]:
    """Read and check a square image's header from ``fh`` in one read of at
    most ``_HEADER_MAX`` bytes. Returns the side, the integers named after
    width and height, and the raster bytes read along with the header."""
    head = fh.read(_HEADER_MAX)
    if head[:2] != magic:
        raise NetpbmError(f"{path}: bad magic number {head[:2]!r}, expected {magic.decode()}")
    toks, pos = [], 2
    while len(toks) < len(names) and (m := _TOKEN.match(head, pos)):
        toks.append(m[1])
        pos = m.end()
    if len(head) == _HEADER_MAX and (len(toks) < len(names) or pos == len(head)):
        raise NetpbmError(f"{path}: header exceeds {_HEADER_MAX} bytes")
    if len(toks) < len(names):
        raise NetpbmError(f"{path}: truncated header")
    if not head[pos:pos + 1].isspace():
        raise NetpbmError(f"{path}: missing whitespace before raster")
    try:
        w, h = _decimal(toks[0], names[0]), _decimal(toks[1], names[1])
        if w < 1 or h < 1:
            raise ValueError(f"image dimensions must be positive, got {w}x{h}")
        if w != h:
            raise ValueError(f"image must be square, got {w}x{h}")
        check_side(w)
        rest = [_decimal(tok, what) for tok, what in zip(toks[2:], names[2:])]
    except ValueError as exc:
        raise NetpbmError(f"{path}: {exc}") from None
    return w, rest, head[pos + 1:]


def _raster(fh, start: bytes, shape: tuple[int, int], path) -> np.ndarray:
    """The raster: the bytes of ``start`` it needs, then the rest from ``fh``."""
    raster = np.empty(shape, np.uint8)
    buf = memoryview(raster).cast("B")
    got = min(len(start), len(buf))
    buf[:got] = start[:got]
    got += fh.readinto(buf[got:])
    if got < raster.size:
        raise NetpbmError(
            f"{path}: truncated raster, expected {raster.size} bytes, got {got}"
        )
    return raster


def read_gray(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) square image as uint8."""
    with open(path, "rb") as fh:
        n, (maxval,), start = _header(fh, b"P5", ("width", "height", "maxval"), path)
        if maxval != 255:
            raise NetpbmError(f"{path}: maxval must be 255 (8-bit), got {maxval}")
        return _raster(fh, start, (n, n), path)


def write_gray(path, img: np.ndarray) -> None:
    """Write a square uint8 image as binary PGM (P5)."""
    img = as_gray(img)
    n = img.shape[0]
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + np.ascontiguousarray(img).data)


def read_binary(path) -> np.ndarray:
    """Read a binary PBM (P4) square image as a 0/1 uint8 array."""
    with open(path, "rb") as fh:
        n, _, start = _header(fh, b"P4", ("width", "height"), path)
        rows = _raster(fh, start, (n, (n + 7) // 8), path)
    # rows are padded to byte boundaries, bits packed MSB-first
    return np.unpackbits(rows, axis=1, count=n)


def write_binary(path, img: np.ndarray) -> None:
    """Write a square 0/1 image as binary PBM (P4), rows padded per the format."""
    img = as_binary(img)
    n = img.shape[0]
    packed = np.packbits(img, axis=1)
    atomic_write_bytes(path, f"P4\n{n} {n}\n".encode("ascii") + packed.tobytes())


def read_auto(path) -> tuple[str, np.ndarray]:
    """Read either supported format; returns ("gray", img) or ("binary", img)."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"P5":
        return "gray", read_gray(path)
    if magic == b"P4":
        return "binary", read_binary(path)
    raise NetpbmError(f"{path}: bad magic number {magic!r}, expected P4 or P5")
