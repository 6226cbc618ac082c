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


def _tokens(fh, n_tokens: int, path) -> list[bytes]:
    """The next ``n_tokens`` header tokens, leaving ``fh`` at the raster: one
    whitespace byte after the last token (comments allowed between tokens)."""
    toks: list[bytes] = []
    ch = fh.read(1)
    while len(toks) < n_tokens:
        if not ch:
            raise NetpbmError(f"{path}: truncated header")
        if ch in _WS:
            ch = fh.read(1)
        elif ch == b"#":  # comment runs to end of line
            while ch and ch not in b"\r\n":
                ch = fh.read(1)
        else:
            tok = bytearray()
            while ch and ch not in _WS and ch != b"#":
                tok += ch
                ch = fh.read(1)
            toks.append(bytes(tok))
    if not ch or ch not in _WS:
        raise NetpbmError(f"{path}: missing whitespace before raster")
    return toks


def _int_token(tok: bytes, what: str, path) -> int:
    try:
        return int(tok)
    except ValueError:
        raise NetpbmError(f"{path}: {what} is not an integer: {tok!r}") from None


def _header(fh, magic: bytes, n_tokens: int, path) -> tuple[int, list[bytes]]:
    """Read and check a square image's header from ``fh``; returns the side
    and the header tokens after width and height. No raster byte is read."""
    got = fh.read(2)
    if got != magic:
        raise NetpbmError(f"{path}: bad magic number {got!r}, expected {magic.decode()}")
    toks = _tokens(fh, n_tokens, path)
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
    return w, toks[2:]


def _raster(fh, shape: tuple[int, int], path) -> np.ndarray:
    raster = np.empty(shape, np.uint8)
    got = fh.readinto(raster)
    if got < raster.size:
        raise NetpbmError(
            f"{path}: truncated raster, expected {raster.size} bytes, got {got}"
        )
    return raster


def read_gray(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) square image as uint8."""
    with open(path, "rb") as fh:
        n, (maxval,) = _header(fh, b"P5", 3, path)
        maxval = _int_token(maxval, "maxval", path)
        if maxval != 255:
            raise NetpbmError(f"{path}: maxval must be 255 (8-bit), got {maxval}")
        return _raster(fh, (n, n), path)


def write_gray(path, img: np.ndarray) -> None:
    """Write a square uint8 image as binary PGM (P5)."""
    img = as_gray(img)
    n = img.shape[0]
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + np.ascontiguousarray(img).data)


def read_binary(path) -> np.ndarray:
    """Read a binary PBM (P4) square image as a 0/1 uint8 array."""
    with open(path, "rb") as fh:
        n, _ = _header(fh, b"P4", 2, path)
        rows = _raster(fh, (n, (n + 7) // 8), path)
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
