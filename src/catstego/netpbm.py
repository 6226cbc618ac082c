"""Lossless binary Netpbm I/O: P5 (grayscale) and P4 (bitmap).

Lossless storage is mandatory here; one flipped bit destroys an embedded
plane. Readers accept header comments, writers never emit them. Writes go
through a temp file + rename so a failed run leaves no partial output.

P4 bit value 1 renders black per the format; the rest of the toolkit treats
bits abstractly, so polarity only matters when viewing files.
"""

from __future__ import annotations

import os

import numpy as np

from .arnold import check_side
from .bitplane import as_binary, as_gray

_WS = b" \t\n\r\x0b\x0c"


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


def _header(data: bytes, n_tokens: int, path) -> tuple[list[bytes], int]:
    # returns header tokens and the offset of the raster (one whitespace
    # byte after the last token, comments allowed between tokens)
    toks: list[bytes] = []
    i = 0
    while len(toks) < n_tokens:
        if i >= len(data):
            raise NetpbmError(f"{path}: truncated header")
        ch = data[i]
        if ch in _WS:
            i += 1
            continue
        if ch == 0x23:  # '#' comment runs to end of line
            while i < len(data) and data[i] not in b"\r\n":
                i += 1
            continue
        j = i
        while j < len(data) and data[j] not in _WS and data[j] != 0x23:
            j += 1
        toks.append(data[i:j])
        i = j
    if i >= len(data) or data[i] not in _WS:
        raise NetpbmError(f"{path}: missing whitespace before raster")
    return toks, i + 1


def _int_token(tok: bytes, what: str, path) -> int:
    try:
        return int(tok)
    except ValueError:
        raise NetpbmError(f"{path}: {what} is not an integer: {tok!r}") from None


def _read(path, magic: bytes, n_tokens: int) -> tuple[bytes, int, int, list[bytes]]:
    """The file's bytes, raster offset and side, and its header tokens after
    width and height."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != magic:
        raise NetpbmError(f"{path}: bad magic number {data[:2]!r}, expected {magic.decode()}")
    toks, offset = _header(data[2:], n_tokens, path)
    w = _int_token(toks[0], "width", path)
    h = _int_token(toks[1], "height", path)
    if w < 1 or h < 1:
        raise NetpbmError(f"{path}: image dimensions must be positive, got {w}x{h}")
    if w != h:
        raise NetpbmError(f"{path}: image must be square, got {w}x{h}")
    try:
        check_side(w)
    except ValueError as exc:
        raise NetpbmError(f"{path}: {exc}") from None
    return data, offset + 2, w, toks[2:]


def _raster(data: bytes, offset: int, size: int, path) -> np.ndarray:
    if len(data) - offset < size:
        raise NetpbmError(
            f"{path}: truncated raster, expected {size} bytes, got {len(data) - offset}"
        )
    return np.frombuffer(data, np.uint8, count=size, offset=offset)


def read_gray(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) square image as uint8."""
    data, offset, n, (maxval,) = _read(path, b"P5", 3)
    maxval = _int_token(maxval, "maxval", path)
    if maxval != 255:
        raise NetpbmError(f"{path}: maxval must be 255 (8-bit), got {maxval}")
    return _raster(data, offset, n * n, path).reshape(n, n).copy()


def write_gray(path, img: np.ndarray) -> None:
    """Write a square uint8 image as binary PGM (P5)."""
    img = as_gray(img)
    n = img.shape[0]
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + np.ascontiguousarray(img).data)


def read_binary(path) -> np.ndarray:
    """Read a binary PBM (P4) square image as a 0/1 uint8 array."""
    data, offset, n, _ = _read(path, b"P4", 2)
    row_bytes = (n + 7) // 8
    rows = _raster(data, offset, n * row_bytes, path).reshape(n, row_bytes)
    # rows are padded to byte boundaries, bits packed MSB-first
    return np.unpackbits(rows, axis=1)[:, :n].copy()


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
