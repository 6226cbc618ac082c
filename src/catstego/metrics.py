"""Distortion and agreement metrics between images.

MSE is in squared intensity units; PSNR uses the 8-bit peak of 255.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arnold import grid_side

PEAK = 255


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
    a, b = _pair(a, b)
    # the integer sum is exact, so one rounding (the division) gives the mean
    diff = np.subtract(a, b, dtype=np.int64, casting="unsafe").ravel()
    return int(np.dot(diff, diff)) / diff.size


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB. Identical images have no finite
    PSNR, so that case raises rather than returning a number."""
    m = mse(a, b)
    if m == 0:
        raise ValueError("images are identical: PSNR is infinite")
    return _db(m)


def bit_preservation_ratio(cover: np.ndarray, stego: np.ndarray) -> float:
    """Fraction of all 8 * N * N cover bits left unchanged."""
    cover, stego = _pair(cover, stego)
    changed = np.bitwise_count(cover.astype(np.uint8) ^ stego.astype(np.uint8))
    return 1.0 - int(changed.sum(dtype=np.int64)) / (8 * changed.size)


def bit_agreement(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of equal cells between two binary images."""
    a, b = _pair(a, b)
    return float(np.mean(a == b))


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
