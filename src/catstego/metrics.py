"""Distortion and bit-preservation metrics between images.

MSE is in squared intensity units; PSNR uses the 8-bit peak of 255.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .bitplane import as_gray

PEAK = 255
_ROWS = 64  # rows per block in compare


class MetricsReport(namedtuple("MetricsReport", "mse psnr bit_preservation")):
    """PSNR/MSE/bit-preservation comparison; psnr is None when infinite."""

    __slots__ = ()

    def csv(self) -> str:
        psnr_text = "inf" if self.psnr is None else f"{self.psnr:.6g}"
        return (
            f"mse,{self.mse:.6g}\n"
            f"psnr,{psnr_text}\n"
            f"bit_preservation,{self.bit_preservation:.6g}\n"
        )


def compare(cover: np.ndarray, stego: np.ndarray) -> MetricsReport:
    """The mean squared intensity difference, the PSNR in dB (None for
    identical images, whose PSNR is infinite) and the fraction of all
    8 * N * N cover bits left unchanged, from one pass over both images."""
    cover, stego = np.asarray(cover), np.asarray(stego)
    if cover.shape != stego.shape:
        raise ValueError(f"image shapes differ: {cover.shape} vs {stego.shape}")
    cover, stego = as_gray(cover), as_gray(stego)
    # both sums are exact integers, so each ratio is rounded once (the
    # division); blocks of rows keep the temporaries cache-sized
    squares = changed = 0
    for r in range(0, cover.shape[0], _ROWS):
        a, b = cover[r : r + _ROWS], stego[r : r + _ROWS]
        d = np.subtract(a, b, dtype=np.int16)
        squares += int(np.square(d, dtype=np.int32).sum(dtype=np.int64))
        diff = np.bitwise_xor(a, b, order="C").reshape(-1)
        # popcount 8 pixels per uint64 word, then the < 8 bytes left over
        whole = diff.size - diff.size % 8
        changed += int(np.bitwise_count(diff[:whole].view(np.uint64)).sum(dtype=np.int64))
        changed += int(np.bitwise_count(diff[whole:]).sum(dtype=np.int64))
    m = squares / cover.size
    psnr = None if m == 0 else 10.0 * math.log10(PEAK * PEAK / m)
    return MetricsReport(m, psnr, 1.0 - changed / (8 * cover.size))
