"""Deterministic synthetic imagery with natural-image statistics.

Covers are drawn from a 1/f power spectrum (random phases, seeded), which
gives the smooth large-scale structure plus fine texture that real
photographs show. Binary messages threshold the same field at its median,
so their bit density is essentially 0.5.
"""

from __future__ import annotations

import numpy as np


def _field(side: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    fx = np.fft.fftfreq(side).reshape(-1, 1)
    fy = np.fft.fftfreq(side).reshape(1, -1)
    f = np.hypot(fx, fy)
    f[0, 0] = 1.0  # keep the DC term finite
    spectrum = (
        rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    ) / f**1.5
    return np.fft.ifft2(spectrum).real


def natural_gray(side: int, seed: int = 0) -> np.ndarray:
    """A side x side uint8 image with natural (1/f) spatial statistics."""
    field = _field(side, seed)
    lo, hi = field.min(), field.max()
    if hi == lo:
        return np.full((side, side), 128, dtype=np.uint8)
    return np.round((field - lo) / (hi - lo) * 255).astype(np.uint8)


def natural_binary(side: int, seed: int = 0) -> np.ndarray:
    """A side x side 0/1 image: the median threshold of a natural field."""
    field = _field(side, seed)
    return (field > np.median(field)).astype(np.uint8)
