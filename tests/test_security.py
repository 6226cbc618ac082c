"""What the key protects, measured against the oracles.

The paper applies Arnold's transform "twice in two different phases to ensure
security". Every key composes to one matrix with determinant +-1 mod N, so a
second phase under a second key is one more such matrix: it moves the pixels
exactly as a single key would, and the key space stays the set of those
matrices. The attack-side code lives here, not in the package.
"""

import math
import random

import numpy as np
import pytest

from catstego.arnold import FAMILIES, matrix_for
from catstego.bitplane import embed
from catstego.schedule import random_schedule, schedule_scramble
from catstego.synth import natural_binary, natural_gray
from oracles import composite_matrix, mat_mul, scatter

# the number of det +-1 matrices mod N, counted by brute force
DET_PM1_COUNTS = {3: 48, 4: 96, 6: 288, 8: 768, 9: 1296, 12: 2304}


def _prime_factors(n):
    p, found = 2, set()
    while p * p <= n:
        while n % p == 0:
            found.add(p)
            n //= p
        p += 1
    if n > 1:
        found.add(n)
    return found


def _key_space_size(n):
    """2 * N^3 * prod(1 - p^-2) over the primes p dividing N, for N > 2."""
    size = 2 * n**3
    for p in _prime_factors(n):
        size = size * (p * p - 1) // (p * p)
    return size


def _det_pm1_matrices(n):
    a, b, c, d = np.indices((n, n, n, n)).reshape(4, -1)
    det = (a * d - b * c) % n
    keep = (det == 1) | (det == n - 1)
    return set(zip(*(v[keep].tolist() for v in (a, b, c, d))))


def _closure(generators, n):
    """Every product of generators mod N (a finite semigroup of units is a group)."""
    found = set(generators)
    frontier = list(found)
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = mat_mul(m, g, n)
                if prod not in found:
                    found.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return found


@pytest.mark.parametrize("side", [3, 4, 6, 8, 12, 16, 30, 64, 128])
def test_two_phases_collapse_to_one_scatter(side):
    rng = random.Random(side)
    grid = np.arange(side * side, dtype=np.int64).reshape(side, side)
    for _ in range(5):
        k1 = random_schedule(side, rng.randint(1, 4), rng)
        k2 = random_schedule(side, rng.randint(1, 4), rng)
        twice = schedule_scramble(schedule_scramble(grid, k1), k2)
        c1, c2 = composite_matrix(k1, side), composite_matrix(k2, side)
        assert np.array_equal(twice, scatter(grid, mat_mul(c2, c1, side)))


@pytest.mark.parametrize("side", sorted(DET_PM1_COUNTS))
def test_key_space_is_every_det_pm1_matrix(side):
    generators = {
        tuple(v % side for v in matrix_for(family, i))
        for family in FAMILIES
        for i in range(1, 21)
    }
    reachable = _closure(generators, side)
    assert reachable == _det_pm1_matrices(side)
    assert len(reachable) == _key_space_size(side) == DET_PM1_COUNTS[side]


# -- known plaintext -------------------------------------------------------------
#
# Li, Li, Chen, Bourbakis & Lo ("A general quantitative cryptanalysis of
# permutation-only multimedia ciphers against plaintext attacks", Signal
# Processing: Image Communication 23(3), 2008) break any permutation-only
# cipher with known plaintext. Here one message and its stego image suffice:
# cell (x, 0) moves to (a*x, c*x) and cell (0, y) to (b*y, d*y), so column 0
# of the message pins (a, c) and row 0 pins (b, d).


def _candidates(plane, known):
    """Every (p, q) mod n with plane[p*x % n, q*x % n] == known[x] for all x."""
    n = plane.shape[0]
    p, q = np.divmod(np.arange(n * n), n)
    for x in range(n):
        keep = plane[p * x % n, q * x % n] == known[x]
        p, q = p[keep], q[keep]
    return list(zip(p.tolist(), q.tolist()))


@pytest.mark.parametrize("side", [128, 512])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_known_message_reveals_the_composite(side, seed):
    # random bits: a smooth message with a constant first row or column
    # leaves more than one candidate
    rng = np.random.default_rng(seed)
    cover = rng.integers(0, 256, (side, side), dtype=np.uint8)
    msg = rng.integers(0, 2, (side, side), dtype=np.uint8)
    key = random_schedule(side, 3, random.Random(seed))
    plane = embed(cover, [msg], key, [0]) & np.uint8(1)
    [(a, c)] = _candidates(plane, msg[:, 0])
    [(b, d)] = _candidates(plane, msg[0, :])
    assert (a, b, c, d) == composite_matrix(key, side)


# -- detectability -------------------------------------------------------------
#
# Westfeld & Pfitzmann's chi-square pairs-of-values test ("Attacks on
# steganographic systems", IH 1999) is not used here: a 1/f cover's histogram
# already has near-equal counts for each value pair (2k, 2k + 1), so the test
# reads p = 0.82 to 0.998 on the covers below before anything is embedded and
# cannot tell a cover from a stego image.


def _sample_pair_rate(img):
    """Sample pair analysis (Dumitrescu, Wu & Wang, IEEE Trans. Signal
    Processing 51(7), 2003): the fraction p of pixels whose LSB carries a
    message, estimated from horizontally adjacent pairs (u, v) with no key.
    X holds the pairs with v even and u < v or v odd and u > v, Y the other
    unequal pairs; a cover has |X| = |Y|. p is the smaller root of
    (W + Z)/2 p^2 + (2|X| - |P|) p + |Y| - |X| = 0, where W + Z are the pairs
    equal but for their LSB and P all pairs."""
    u = img[:, :-1].astype(np.int16)
    v = img[:, 1:].astype(np.int16)
    odd = (v & 1).astype(bool)
    x = np.count_nonzero(np.where(odd, u > v, u < v))
    y = np.count_nonzero(np.where(odd, u < v, u > v))
    a, b, c = np.count_nonzero(u >> 1 == v >> 1) / 2, 2 * x - u.size, y - x
    # near p = 1 the roots meet, and noise can make them complex: keep the real part
    return (-b - math.sqrt(max(b * b - 4 * a * c, 0))) / (2 * a)


@pytest.fixture(scope="module")
def covers():
    return [natural_gray(512, 900 + s) for s in range(4)]


def _keys(s):
    return [random_schedule(512, 3, random.Random(10 * s + k)) for k in range(3)]


def test_sample_pair_analysis_reads_the_embedding_rate(covers):
    for s, cover in enumerate(covers):
        bits = np.random.default_rng(s).integers(0, 2, cover.shape, dtype=np.uint8)
        stego = embed(cover, [bits], _keys(s)[0], [0])
        half = np.concatenate((stego[:256], cover[256:]))
        assert abs(_sample_pair_rate(cover)) <= 0.05
        assert 0.85 <= _sample_pair_rate(stego) <= 1.1
        assert 0.4 <= _sample_pair_rate(half) <= 0.6


def test_scrambling_leaves_the_estimate_unchanged(covers):
    # random payload bits stay independent random bits under any permutation,
    # so every key reads what the bits read unscrambled, within the estimate's
    # own spread (0.91 to 1.00 over these covers)
    for s, cover in enumerate(covers):
        bits = np.random.default_rng(s).integers(0, 2, cover.shape, dtype=np.uint8)
        plain = _sample_pair_rate((cover & np.uint8(0xFE)) | bits)
        for key in _keys(s):
            assert abs(_sample_pair_rate(embed(cover, [bits], key, [0])) - plain) <= 0.15


def test_a_smooth_message_shows_once_scrambled(covers):
    # a natural_binary message is smooth: written as it is, almost every pair
    # of neighbours gets equal LSBs, which keeps |X| = |Y|, and the estimate
    # reads -0.11 to 0.12. Scrambled, it reads 0.39 to 1.03 by key (a key
    # whose inverse moves a horizontal neighbour a short way keeps some of the
    # smoothness), so the scrambling is what makes the embedding visible
    for s, cover in enumerate(covers):
        msg = natural_binary(512, 950 + s)
        assert abs(_sample_pair_rate((cover & np.uint8(0xFE)) | msg)) <= 0.2
        for key in _keys(s):
            assert _sample_pair_rate(embed(cover, [msg], key, [0])) >= 0.3
