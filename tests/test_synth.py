"""Synthetic covers and messages: the in-place build against the plain
formula in oracles.py, its memory, and its refusal of bad sides."""

import numpy as np
import pytest

import oracles
from conftest import traced_peak
from catstego.arnold import MAX_SIDE
from catstego.synth import natural_binary, natural_gray

SIDES = [*range(1, 41), 127, 128, 255, 256, 257, 512, 1000]


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("fn", [natural_gray, natural_binary])
def test_byte_identical_to_the_plain_formula(fn, side):
    reference = getattr(oracles, fn.__name__)
    for seed in (0, side, 2**40 + 7 * side):
        out = fn(side, seed)
        expected = reference(side, seed)
        assert out.dtype == expected.dtype == np.uint8
        assert out.shape == (side, side)
        assert out.tobytes() == expected.tobytes()


def test_default_seed_matches_the_plain_formula():
    assert np.array_equal(natural_gray(33), oracles.natural_gray(33))
    assert np.array_equal(natural_binary(33), oracles.natural_binary(33))


@pytest.mark.parametrize("fn", [natural_gray, natural_binary])
def test_peak_memory_stays_below_26_bytes_per_pixel(fn):
    # the plain formula peaks near 57; one complex128 spectrum and one
    # float64 scratch array are 24
    fn(8, 0)  # first use imports numpy.random and numpy.fft: not counted
    n = 1024
    assert traced_peak(fn, n, 3) <= 26 * n * n


@pytest.mark.parametrize("side, message", [
    (0, "side must be >= 1, got 0"),
    (-3, "side must be >= 1, got -3"),
    (2.5, "side must be an integer, got 2.5"),
    (MAX_SIDE + 1, f"side {MAX_SIDE + 1} exceeds the limit of {MAX_SIDE}"),
])
@pytest.mark.parametrize("fn", [natural_gray, natural_binary])
def test_bad_side_refused_before_any_allocation(fn, side, message):
    def refused():
        with pytest.raises(ValueError) as err:
            fn(side, 1)
        assert str(err.value) == message

    assert traced_peak(refused) < 1 << 16
