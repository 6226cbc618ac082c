"""The shear factorization behind ``arnold.scatter`` and ``arnold.gather``,
checked against the index-based scatter and gather in oracles.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import traced_peak
from catstego.arnold import _shears, gather, scatter

# 1 and 2 are degenerate rings; 6, 30 and 210 have several prime factors, so
# there a and b can both be non-units and the search for k takes k >= 1
SIDES = [1, 2, 3, 4, 5, 6, 7, 8, 16, 30, 31, 97, 127, 128, 210, 211, 255, 256, 300]
sides = st.one_of(st.sampled_from(SIDES), st.integers(1, 300))

SWAP = (0, 1, 1, 0)
COLUMN_FLIP = (1, 0, 0, -1)
ROW_FLIP = (-1, 0, 0, 1)


def lower(k):
    return (1, 0, k, 1)


def upper(k):
    return (1, k, 0, 1)


def mul(p, q):
    """Integer 2x2 product, unreduced."""
    return (
        p[0] * q[0] + p[1] * q[2],
        p[0] * q[1] + p[1] * q[3],
        p[2] * q[0] + p[3] * q[2],
        p[2] * q[1] + p[3] * q[3],
    )


@st.composite
def words(draw):
    """A det +-1 matrix as a random word of shears and flips, unreduced and
    possibly negative."""
    m = (1, 0, 0, 1)
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(-600, 600))
        m = mul(draw(st.sampled_from([lower(k), upper(k), SWAP, COLUMN_FLIP, ROW_FLIP])), m)
    return m


def reduced(m, n):
    return tuple(v % n for v in m)


def grid(n, seed, dtype=np.uint8):
    return np.random.default_rng(seed).integers(0, 256, (n, n)).astype(dtype)


def factor_product(steps, n):
    """The matrix the factor steps apply, built from the steps alone."""
    acc = (1, 0, 0, 1)
    for step in steps:
        acc = oracles.mat_mul(SWAP if step is None else (step[0], 0, step[1], 1), acc, n)
    return reduced(acc, n)


# -- against the oracle --------------------------------------------------------


@given(sides, words(), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=300)
def test_scatter_and_gather_match_oracle(n, m, seed):
    g = grid(n, seed)
    assert np.array_equal(scatter(g, m), oracles.scatter(g, reduced(m, n)))
    assert np.array_equal(gather(g, m), oracles.gather(g, reduced(m, n)))


@given(sides, words())
@settings(deadline=None, max_examples=300)
def test_factors_multiply_back_to_the_matrix(n, m):
    steps = _shears(m, n)
    assert factor_product(steps, n) == reduced(m, n)
    assert (1 % n, 0) not in steps
    assert all((a is None) != (b is None) for a, b in zip(steps, steps[1:]))
    assert steps.count(None) <= 2


# -- each branch of the factorization ---------------------------------------------


@pytest.mark.parametrize(
    "m, n, expected",
    [
        ((1, 0, 0, 1), 128, []),  # identity: every step is the identity
        (ROW_FLIP, 7, [(6, 0)]),  # det -1: row x moves to row -x, nothing else
        (lower(5), 7, [(1, 5)]),  # one row shear
        (upper(3), 7, [(2, 5), None, (3, 1)]),  # b a unit: step, T, step
        ((2, 1, 1, 1), 128, [(127, 2), None, (1, 1)]),  # classic
        (SWAP, 5, [None]),  # det -1 and both steps the identity
        (COLUMN_FLIP, 5, [None, (4, 0), None]),  # det -1 and b = 0, a unit (k = 0)
        ((3, 4, 1, 1), 2048, [None, (1365, 684), None, (3, 1)]),  # b even, a odd
        ((3, 2, 2, 3), 6, [(1, 5), None, (1, 4), None, (5, 5)]),  # no unit entry: k = 1
        ((2, 3, 1, 1), 30, [(1, 27), None, (19, 3), None, (11, 4)]),  # 2 + 3k: k = 3
        ((2, 3, 1, 1), 210, [(1, 207), None, (19, 153), None, (11, 4)]),
        (COLUMN_FLIP, 2, []),  # -1 = 1 mod 2
    ],
)
def test_factor_branches(m, n, expected):
    steps = _shears(m, n)
    assert steps == expected
    assert factor_product(steps, n) == reduced(m, n)
    g = grid(n, 3)
    assert np.array_equal(scatter(g, m), oracles.scatter(g, reduced(m, n)))
    assert np.array_equal(gather(g, m), oracles.gather(g, reduced(m, n)))


@pytest.mark.parametrize("m, n", [((2, 0, 0, 2), 4), ((2, 0, 0, 1), 7), ((0, 0, 0, 0), 3)])
def test_non_unimodular_matrix_rejected(m, n):
    g = grid(n, 0)
    with pytest.raises(ValueError, match="det"):
        scatter(g, m)
    with pytest.raises(ValueError, match="det"):
        gather(g, m)


# -- dtypes, memory layouts and ownership -----------------------------------------

MATRICES = [(1, 0, 0, 1), SWAP, (1, 6, 0, 1), (2, 1, 1, 1), (3, 4, 1, 1), mul(lower(7), upper(12))]


def layouts(dtype):
    n = 30
    base = grid(2 * n, 11, dtype)
    yield base[:n, :n].copy()
    yield np.asfortranarray(base[:n, :n])
    yield base[::2, 1::2]  # a strided view
    yield base[:n, n:].T  # a transposed view


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int16, np.int64])
def test_dtypes_and_layouts(dtype):
    for g in layouts(dtype):
        before = g.copy()
        for m in MATRICES:
            r = reduced(m, g.shape[0])
            for fast, ref in ((scatter, oracles.scatter), (gather, oracles.gather)):
                out = fast(g, m)
                assert out.dtype == g.dtype
                assert out.flags.c_contiguous
                assert not np.shares_memory(out, g)
                assert np.array_equal(out, ref(g, r))
        assert np.array_equal(g, before)


# -- memory ------------------------------------------------------------------------


@pytest.mark.parametrize("m", [(2, 1, 1, 1), (3, 4, 1, 1)])
@pytest.mark.parametrize("fn", [scatter, gather])
def test_peak_memory_stays_below_five_bytes_per_pixel(fn, m):
    # (3, 4, 1, 1) has det -1 and an even b, so it takes two transposes
    n = 1024
    g = grid(n, 5)
    assert traced_peak(fn, g, m) <= 5 * n * n
