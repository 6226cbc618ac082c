"""Distortion and bit-preservation metrics between images.

MSE is in squared intensity units; PSNR uses the 8-bit peak of 255.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arnold import grid_side
from .bitplane import as_gray

PEAK = 255
_ROWS = 64  # rows per block in mse


def _pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    grid_side(a)
    return a, b


def _db(m: float) -> float:
    return 10.0 * math.log10(PEAK * PEAK / m)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared intensity difference."""
    a, b = map(as_gray, _pair(a, b))
    # the integer sum is exact, so one rounding (the division) gives the
    # mean; blocks of rows keep the int16/int32 temporaries cache-sized
    total = 0
    for r in range(0, a.shape[0], _ROWS):
        d = np.subtract(a[r : r + _ROWS], b[r : r + _ROWS], dtype=np.int16)
        total += int(np.square(d, dtype=np.int32).sum(dtype=np.int64))
    return total / a.size


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB. Identical images have no finite
    PSNR, so that case raises rather than returning a number."""
    m = mse(a, b)
    if m == 0:
        raise ValueError("images are identical: PSNR is infinite")
    return _db(m)


def bit_preservation_ratio(cover: np.ndarray, stego: np.ndarray) -> float:
    """Fraction of all 8 * N * N cover bits left unchanged."""
    cover, stego = map(as_gray, _pair(cover, stego))
    diff = np.bitwise_xor(cover, stego, order="C").reshape(-1)
    # popcount 8 pixels per uint64 word, then the < 8 bytes left over
    whole = diff.size - diff.size % 8
    changed = int(np.bitwise_count(diff[:whole].view(np.uint64)).sum(dtype=np.int64))
    changed += int(np.bitwise_count(diff[whole:]).sum(dtype=np.int64))
    return 1.0 - changed / (8 * diff.size)


@dataclass(frozen=True)
class MetricsReport:
    """PSNR/MSE/bit-preservation comparison; psnr is None when infinite."""

    mse: float
    psnr: float | None
    bit_preservation: float

    def csv(self) -> str:
        psnr_text = "inf" if self.psnr is None else f"{self.psnr:.6g}"
        return (
            f"mse,{self.mse:.6g}\n"
            f"psnr,{psnr_text}\n"
            f"bit_preservation,{self.bit_preservation:.6g}\n"
        )


def compare(cover: np.ndarray, stego: np.ndarray) -> MetricsReport:
    m = mse(cover, stego)
    return MetricsReport(
        mse=m,
        psnr=None if m == 0 else _db(m),
        bit_preservation=bit_preservation_ratio(cover, stego),
    )
