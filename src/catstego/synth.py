"""Deterministic synthetic imagery with natural-image statistics.

Covers are drawn from a 1/f power spectrum (random phases, seeded), which
gives the smooth large-scale structure plus fine texture that real
photographs show. Binary messages threshold the same field at its median,
so their bit density is essentially 0.5.

The field is built in place in one complex128 array plus one float64
scratch array, 24 bytes per pixel at the peak, and its bytes equal those of
the plain formula ``ifft2((normal + 1j * normal) / f**1.5).real``.
"""

from __future__ import annotations

import numpy as np

from .arnold import check_side


def _field(side: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    spectrum = np.empty((side, side), dtype=np.complex128)
    scratch = np.empty((side, side))  # the normals, then the 1/f**1.5 scale
    spectrum.real = rng.standard_normal(out=scratch)
    spectrum.imag = rng.standard_normal(out=scratch)
    fx = np.fft.fftfreq(side).reshape(-1, 1)
    fy = np.fft.fftfreq(side).reshape(1, -1)
    scale = np.hypot(fx, fy, out=scratch)
    scale[0, 0] = 1.0  # keep the DC term finite
    np.power(scale, 1.5, out=scale)
    # numpy divides a complex by a real c as a multiply by 1 / c, so these
    # multiplies give the bits of the division
    np.divide(1.0, scale, out=scale)
    spectrum.real *= scale
    spectrum.imag *= scale
    # ifft2's own two passes, last axis first; ifft2(out=) rounds differently
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    return spectrum.real


def natural_gray(side: int, seed: int = 0) -> np.ndarray:
    """A side x side uint8 image with natural (1/f) spatial statistics."""
    side = check_side(side)
    field = _field(side, seed)
    lo, hi = field.min(), field.max()
    if hi == lo:
        return np.full((side, side), 128, dtype=np.uint8)
    field -= lo
    field /= hi - lo
    field *= 255
    return np.round(field, out=field).astype(np.uint8)


def natural_binary(side: int, seed: int = 0) -> np.ndarray:
    """A side x side 0/1 image: the median threshold of a natural field."""
    side = check_side(side)
    field = _field(side, seed)
    return (field > np.median(field)).astype(np.uint8)
