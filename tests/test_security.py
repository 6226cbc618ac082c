"""What the key protects, measured against the oracles.

The paper applies Arnold's transform "twice in two different phases to ensure
security". Every key composes to one matrix with determinant +-1 mod N, so a
second phase under a second key is one more such matrix: it moves the pixels
exactly as a single key would, and the key space stays the set of those
matrices. The attack-side code lives here, not in the package.
"""

import random

import numpy as np
import pytest

from catstego.arnold import Family, TransformSpec, matrix_for
from catstego.schedule import random_schedule, schedule_scramble
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
        tuple(v % side for v in matrix_for(TransformSpec(family, i)))
        for family in Family
        for i in range(1, 21)
    }
    reachable = _closure(generators, side)
    assert reachable == _det_pm1_matrices(side)
    assert len(reachable) == _key_space_size(side) == DET_PM1_COUNTS[side]
