"""Bit-plane decomposition of grayscale images and message embedding.

Plane indices are 0-based from the least significant bit, so plane p carries
weight 2**p. Embedding replaces whole planes with scrambled message bits and
leaves every other plane untouched, which is what makes extraction exact.

A plane travels as P4 rows, the (n, ceil(n/8)) uint8 raster of a P4 file:
each row's bits MSB first, padded to a byte. Every plane here is in that
layout: ``np.packbits(bits, axis=1)`` packs a 0/1 image, ``rows_to_bits`` unpacks.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .arnold import _ROWS, check_side, grid_side
from .schedule import ScrambleSchedule, check_planes, schedule_scramble, schedule_unscramble


def as_gray(img: np.ndarray) -> np.ndarray:
    """Validate an 8-bit square grayscale image, returning it as uint8."""
    a = np.asarray(img)
    grid_side(a)
    if a.dtype != np.uint8:
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"grayscale image must be integer-valued, got {a.dtype}")
        if a.min() < 0 or a.max() > 255:
            raise ValueError("grayscale image values must be in [0, 255]")
        a = a.astype(np.uint8)
    return a


def as_binary(img: np.ndarray) -> np.ndarray:
    """Validate a square 1-bit image (values 0/1), returning it as uint8."""
    a = np.asarray(img)
    grid_side(a)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"binary image must be integer-valued, got {a.dtype}")
    # only a signed dtype can hold a value below 0
    if a.max() > 1 or (a.dtype.kind == "i" and a.min() < 0):
        raise ValueError("binary image values must be 0 or 1")
    return a.astype(np.uint8, copy=False)


def check_rows(rows: np.ndarray) -> np.ndarray:
    """Validate P4 rows, a uint8 array of shape (n, ceil(n/8)) with n >= 1."""
    a = np.asarray(rows)
    if a.dtype != np.uint8 or a.ndim != 2 or len(a) < 1 or a.shape[1] != (len(a) + 7) // 8:
        raise ValueError(f"P4 rows must be uint8 of shape (n, ceil(n/8)) with n >= 1, "
                         f"got {a.dtype} of shape {a.shape!s:.32}")
    return a


def rows_to_bits(rows: np.ndarray) -> np.ndarray:
    """P4 rows as a 0/1 image; the padding bits are dropped."""
    rows = check_rows(rows)
    return np.unpackbits(rows, axis=1, count=len(rows))


def split_rows(img: np.ndarray, planes) -> list[np.ndarray]:
    """Bit p of every pixel as P4 rows, for each p in ``planes``, in one pass."""
    img, planes = as_gray(img), check_planes(planes)
    n = img.shape[0]
    out = [np.empty((n, (n + 7) // 8), np.uint8) for _ in planes]
    scratch = np.empty((min(n, _ROWS), n), np.uint8)
    for i in range(0, n, _ROWS):
        block = img[i : i + _ROWS]
        bits = scratch[: len(block)]
        for rows, p in zip(out, planes):
            # packbits packs any nonzero byte as a 1, so the bit needs no shift
            rows[i : i + _ROWS] = np.packbits(np.bitwise_and(block, np.uint8(1 << p), out=bits), axis=1)
    return out


def _fold(n: int, messages: Iterable[np.ndarray], planes: list[int]) -> np.ndarray:
    """The P4 rows of message k for planes[k], folded into one byte per pixel
    a block of rows at a time. They are held only until this returns."""
    held, count = [], 0
    for count, rows in enumerate(messages, 1):
        if count <= len(planes):
            if len(rows := check_rows(rows)) != n:
                raise ValueError(f"message side {len(rows)} does not match cover side {n}")
            held.append(rows)
    if count != len(planes):
        raise ValueError(f"{count} messages but {len(planes)} planes; counts must match")
    # the first plane sets every byte, so only a fold of no planes needs zeros
    packed = (np.empty if held else np.zeros)((n, n), dtype=np.uint8)
    for i in range(0, n, _ROWS):
        block = packed[i : i + _ROWS]
        for k, (rows, p) in enumerate(zip(held, planes)):
            bits = np.unpackbits(rows[i : i + _ROWS], axis=1, count=n)
            # a multiply by 2**p, not a shift: numpy does not vectorise uint8 shifts
            if k:
                block |= np.multiply(bits, np.uint8(1 << p), out=bits)
            else:
                np.multiply(bits, np.uint8(1 << p), out=block)
    return packed


def embed(cover: np.ndarray, messages: Iterable[np.ndarray], sched: ScrambleSchedule,
          planes: list[int]) -> np.ndarray:
    """Scramble each message with ``sched`` and write it into its bit plane.

    Message k, as P4 rows, goes to planes[k]; planes must be distinct and
    every message must match the cover side. Planes not listed stay
    bit-identical. All planes share one permutation, so the messages are
    folded into one byte per pixel and scrambled together. ``messages`` may
    be any iterable; it is read once, and its rows are dropped before the scatter.
    """
    cover, planes = as_gray(cover), check_planes(planes)
    # scatter first, then merge the cover into its output a block at a time
    stego = schedule_scramble(_fold(len(cover), messages, planes), sched)
    keep = ~np.uint8(sum(1 << p for p in planes))
    for i in range(0, len(stego), _ROWS):
        stego[i : i + _ROWS] |= cover[i : i + _ROWS] & keep
    return stego


def extract(stego: np.ndarray, sched: ScrambleSchedule, planes: list[int]) -> list[np.ndarray]:
    """Read each listed plane and unscramble it back into a message, as P4 rows."""
    stego, planes = as_gray(stego), check_planes(planes)
    # the gather moves whole bytes, so the other planes need no mask first
    return split_rows(schedule_unscramble(stego, sched), planes)


# -- byte payload packing ------------------------------------------------------


def capacity_bytes(side: int) -> int:
    """Largest payload (in bytes) that fits one side x side plane; below side 6
    the 32-bit length header does not fit, so no payload, not even b"", does."""
    side = check_side(side)
    return max(0, (side * side - 32) // 8)


def pack_payload(data: bytes, side: int) -> np.ndarray:
    """Lay bytes out as the P4 rows of a plane: 32-bit big-endian length
    header, then payload bytes MSB-first, zero padding, all row-major."""
    side = check_side(side)
    data = bytes(data)
    if 32 + 8 * len(data) > side * side:
        limit = (f"has {side * side} of the 32 bits the length header needs" if side * side < 32
                 else f"holds at most {capacity_bytes(side)} bytes")
        raise ValueError(f"payload of {len(data)} bytes exceeds capacity: a {side}x{side} plane {limit}")
    stream = np.zeros(-(-side * side // 8), dtype=np.uint8)
    stream[: 4 + len(data)] = np.frombuffer(len(data).to_bytes(4, "big") + data, np.uint8)
    if side % 8:  # each row is padded to a byte, so the bits are laid out again
        return np.packbits(np.unpackbits(stream, count=side * side).reshape(side, side), axis=1)
    return stream.reshape(side, side // 8)


def unpack_payload(rows: np.ndarray) -> bytes:
    """Recover the bytes packed by pack_payload."""
    rows = check_rows(rows)
    n = len(rows)
    if n * n < 32:
        raise ValueError("plane too small to hold a payload header")
    stream = np.packbits(rows_to_bits(rows)) if n % 8 else rows.reshape(-1)
    length = int.from_bytes(stream[:4].tobytes(), "big")
    if 32 + 8 * length > n * n:
        raise ValueError(f"corrupt payload header: {length} bytes claimed, "
                         f"plane holds at most {(n * n - 32) // 8}")
    return stream[4 : 4 + length].tobytes()
