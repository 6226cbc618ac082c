"""Cat-map pixel scrambling on square grids.

The transform family is a set of integer 2x2 matrices with |det| = 1 applied
to pixel coordinates mod N. Because the determinant is a unit, every member
is a bijection of the N*N positions and therefore has a finite period.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np


def _as_int(value, what: str) -> int:
    try:
        return int(operator.index(value))
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


class Family(Enum):
    """The three supported matrix shapes."""

    CLASSIC = "CLASSIC"
    ROWFIRST = "ROWFIRST"
    COLFIRST = "COLFIRST"


@dataclass(frozen=True)
class TransformSpec:
    """One member of the transform family: a shape tag plus its parameter i.

    CLASSIC ignores i (it is normalized to 1 so equality behaves).
    """

    family: Family
    i: int = 1

    def __post_init__(self):
        i = _as_int(self.i, "parameter i")
        if self.family is Family.CLASSIC:
            i = 1
        elif i < 1:
            raise ValueError(f"parameter i must be >= 1, got {i}")
        object.__setattr__(self, "i", i)


@dataclass(frozen=True)
class ArnoldMatrix:
    """Integer matrix [a b; c d] applied as x' = a*x + b*y, y' = c*x + d*y (mod N)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if abs(self.a * self.d - self.b * self.c) != 1:
            raise ValueError(
                f"matrix [{self.a} {self.b}; {self.c} {self.d}] must have |det| = 1"
            )


def matrix_for(spec: TransformSpec) -> ArnoldMatrix:
    """Derive the 2x2 matrix for a family member.

    CLASSIC -> [2 1; 1 1], ROWFIRST(i) -> [i i+1; 1 1], COLFIRST(i) -> [i+1 i; 1 1].
    """
    if spec.family is Family.CLASSIC:
        return ArnoldMatrix(2, 1, 1, 1)
    if spec.family is Family.ROWFIRST:
        return ArnoldMatrix(spec.i, spec.i + 1, 1, 1)
    return ArnoldMatrix(spec.i + 1, spec.i, 1, 1)


def grid_side(grid: np.ndarray) -> int:
    """Validate that ``grid`` is a non-empty square 2-D array and return its side."""
    a = np.asarray(grid)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"grid must be square and non-empty, got shape {a.shape}")
    return a.shape[0]


# -- modular 2x2 arithmetic (entries kept reduced mod n) ----------------------

_IDENT = (1, 0, 0, 1)


def _reduce(m: tuple[int, int, int, int], n: int) -> tuple[int, int, int, int]:
    return (m[0] % n, m[1] % n, m[2] % n, m[3] % n)


def _mul(p: tuple, q: tuple, n: int) -> tuple[int, int, int, int]:
    return (
        (p[0] * q[0] + p[1] * q[2]) % n,
        (p[0] * q[1] + p[1] * q[3]) % n,
        (p[2] * q[0] + p[3] * q[2]) % n,
        (p[2] * q[1] + p[3] * q[3]) % n,
    )


def _pow(m: tuple, t: int, n: int) -> tuple[int, int, int, int]:
    # square-and-multiply; handles arbitrarily large t without period lookups
    acc = _reduce(_IDENT, n)
    base = _reduce(m, n)
    while t:
        if t & 1:
            acc = _mul(acc, base, n)
        base = _mul(base, base, n)
        t >>= 1
    return acc


def _stage_power(spec: TransformSpec, t: int, n: int) -> tuple[int, int, int, int]:
    """M^t mod n for one transform; t must be >= 0."""
    if t < 0:
        raise ValueError(f"iteration count must be >= 0, got {t}")
    m = matrix_for(spec)
    return _pow((m.a, m.b, m.c, m.d), t, n)


def _destinations(m: tuple, n: int) -> np.ndarray:
    """Flat row-major index that the value at (x, y) moves to: the cell
    ((a*x + b*y) % n, (c*x + d*y) % n), with x the row and y the column, both
    0-based. The golden orbit fixtures pin this convention.

    a*x, b*y, c*x and d*y are reduced as length-n vectors; a sum s of two
    residues is below 2n, and in unsigned arithmetic min(s, s - n) = s mod n.
    """
    dt = np.uint32 if n <= 1 << 16 else np.uint64  # n*n must fit the index type
    r = np.arange(n, dtype=dt)
    ax, by, cx, dy = (r * dt(k) % dt(n) for k in _reduce(m, n))

    def wrap(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        s = u[:, None] + v
        return np.minimum(s, s - dt(n), out=s)

    flat = wrap(ax, by)
    flat *= dt(n)
    flat += wrap(cx, dy)
    return flat.ravel()


def scatter(grid: np.ndarray, m: tuple) -> np.ndarray:
    """Move every cell of a square grid to its destination under matrix m."""
    grid = np.asarray(grid)
    out = np.empty(grid.shape, dtype=grid.dtype)
    out.ravel()[_destinations(m, grid.shape[0])] = grid.ravel()
    return out


def gather(grid: np.ndarray, m: tuple) -> np.ndarray:
    """Inverse of ``scatter(grid, m)``: read every cell back from its destination."""
    grid = np.asarray(grid)
    return np.take(grid, _destinations(m, grid.shape[0])).reshape(grid.shape)


# -- public operations --------------------------------------------------------


def apply_once(grid: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Apply one iteration of the transform to every cell of ``grid``."""
    return scatter(grid, _stage_power(spec, 1, grid_side(grid)))


def scramble(grid: np.ndarray, spec: TransformSpec, t: int) -> np.ndarray:
    """Apply the transform ``t`` times (t = 0 is the identity).

    Implemented as a single scatter with the matrix power M^t mod N, which is
    exactly the t-fold composition of apply_once.
    """
    return scatter(grid, _stage_power(spec, t, grid_side(grid)))


def unscramble(grid: np.ndarray, spec: TransformSpec, t: int) -> np.ndarray:
    """Exact inverse of ``scramble(grid, spec, t)``.

    Gathers through the same forward index that scramble scatters through,
    so neither the inverse matrix nor the period is ever computed.
    """
    return gather(grid, _stage_power(spec, t, grid_side(grid)))


def matrix_period(m: ArnoldMatrix, n: int) -> int:
    """Smallest p >= 1 with M^p = identity mod n, by iterated multiplication."""
    if n < 1:
        raise ValueError(f"side must be >= 1, got {n}")
    start = _reduce((m.a, m.b, m.c, m.d), n)
    ident = _reduce(_IDENT, n)
    cur = start
    p = 1
    while cur != ident:
        cur = _mul(cur, start, n)
        p += 1
    return p


def period(spec: TransformSpec, n: int) -> int:
    """Period of a family member on an n x n grid."""
    return matrix_period(matrix_for(spec), n)


def period_sweep(
    family: Family, i_lo: int, i_hi: int, n: int
) -> list[tuple[int, int]]:
    """Period for each parameter i in [i_lo, i_hi], as (i, period) pairs."""
    if not 1 <= i_lo <= i_hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{i_lo}, {i_hi}]")
    return [(i, period(TransformSpec(family, i), n)) for i in range(i_lo, i_hi + 1)]
