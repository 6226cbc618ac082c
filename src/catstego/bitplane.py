"""Bit-plane decomposition of grayscale images and message embedding.

Plane indices are 0-based from the least significant bit, so plane p carries
weight 2**p. Embedding replaces whole planes with scrambled message bits and
leaves every other plane untouched, which is what makes extraction exact.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .arnold import _as_int, check_side, grid_side
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


def get_plane(img: np.ndarray, p: int) -> np.ndarray:
    """Bit p of every pixel, as a binary image."""
    img = as_gray(img)
    (p,) = check_planes([p])
    return (img >> p) & np.uint8(1)


def embed(
    cover: np.ndarray,
    messages: Iterable[np.ndarray],
    sched: ScrambleSchedule,
    planes: list[int],
) -> np.ndarray:
    """Scramble each message with ``sched`` and write it into its bit plane.

    Message k goes to planes[k]; planes must be distinct and every message
    must match the cover side. Planes not listed stay bit-identical. All
    planes share one permutation, so the messages are packed into one byte
    per pixel and scrambled together. ``messages`` may be any iterable: each
    message is folded into the packed byte as it arrives and then released,
    so a generator that reads them one by one holds one at a time.
    """
    cover = as_gray(cover)
    planes = check_planes(planes)
    packed = np.zeros(cover.shape, dtype=np.uint8)
    count = 0
    for msg in messages:
        if count < len(planes):
            msg = as_binary(msg)
            if msg.shape != cover.shape:
                raise ValueError(
                    f"message side {msg.shape[0]} does not match cover side {cover.shape[0]}"
                )
            # a multiply by 2**p, not a shift: numpy does not vectorise uint8 shifts
            packed |= msg * np.uint8(1 << planes[count])
        count += 1
        del msg  # not kept alive through the next read or the scatter
    if count != len(planes):
        raise ValueError(f"{count} messages but {len(planes)} planes; counts must match")
    # scatter first, so the masked cover is not held through the scatter
    return schedule_scramble(packed, sched) | (cover & ~np.uint8(sum(1 << p for p in planes)))


def extract(
    stego: np.ndarray, sched: ScrambleSchedule, planes: list[int]
) -> list[np.ndarray]:
    """Read each listed plane and unscramble it back into a message."""
    stego = as_gray(stego)
    planes = check_planes(planes)
    # the gather moves whole bytes, so the other planes need no mask first
    scrambled = schedule_unscramble(stego, sched)
    bits = [scrambled >> np.uint8(p) for p in planes]  # masked in place: one array a plane
    return [np.bitwise_and(b, np.uint8(1), out=b) for b in bits]


# -- byte payload packing ------------------------------------------------------


def capacity_bytes(side: int) -> int:
    """Largest payload (in bytes) that fits one side x side plane."""
    side = _as_int(side, "side")
    return max(0, (side * side - 32) // 8)


def pack_payload(data: bytes, side: int) -> np.ndarray:
    """Lay bytes out as a binary image: 32-bit big-endian length header, then
    payload bytes MSB-first, zero padding, all row-major."""
    side = check_side(side)
    data = bytes(data)
    if 32 + 8 * len(data) > side * side:
        raise ValueError(
            f"payload of {len(data)} bytes exceeds capacity: "
            f"a {side}x{side} plane holds at most {capacity_bytes(side)} bytes"
        )
    framed = len(data).to_bytes(4, "big") + data
    bits = np.unpackbits(np.frombuffer(framed, dtype=np.uint8))
    out = np.zeros(side * side, dtype=np.uint8)
    out[: bits.size] = bits
    return out.reshape(side, side)


def unpack_payload(bits: np.ndarray) -> bytes:
    """Recover the bytes packed by pack_payload."""
    flat = as_binary(bits).ravel()
    if flat.size < 32:
        raise ValueError("plane too small to hold a payload header")
    length = int.from_bytes(np.packbits(flat[:32]).tobytes(), "big")
    if 32 + 8 * length > flat.size:
        raise ValueError(
            f"corrupt payload header: {length} bytes claimed, "
            f"plane holds at most {(flat.size - 32) // 8}"
        )
    return np.packbits(flat[32 : 32 + 8 * length]).tobytes()
