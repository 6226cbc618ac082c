"""Cat-map pixel scrambling on square grids.

The transform family is a set of integer 2x2 matrices with |det| = 1 applied
to pixel coordinates mod N. Because the determinant is a unit, every member
is a bijection of the N*N positions and therefore has a finite period.
A matrix is a plain tuple (a, b, c, d), read as [a b; c d].

Any run of stages is one matrix mod N (``schedule.composite_matrix``), so
pixels move only through ``scatter`` and ``gather`` by a matrix.

A permutation is applied by factoring its matrix into row steps, which move
and rotate each row as one contiguous copy, and tiled transposes; no
N*N-sized index is built. From side 1280 on, each step runs in row bands on
every available core. Every side is an integer in [1, MAX_SIDE], checked by
``check_side``.
"""

from __future__ import annotations

import math
import operator
import os
import re
import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _as_int(value, what: str) -> int:
    try:
        return int(operator.index(value))
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r:.32}") from None


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(token, what: str) -> int:
    """A str or bytes token of ASCII decimal digits, optionally after one "-",
    as an int; anything else is a ValueError echoing at most 32 characters."""
    text = token.decode("latin-1") if isinstance(token, bytes) else token
    if _DECIMAL.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"{what} is not an integer: {token[:32]!r}")


FAMILIES = ("CLASSIC", "ROWFIRST", "COLFIRST")


def _family(tag):
    """``tag`` if it names a family; a ValueError otherwise."""
    if tag not in FAMILIES:
        raise ValueError(f"unknown family tag {tag[:32] if isinstance(tag, str) else tag!r}")
    return tag


def check_stage(family, i, t) -> tuple[str, int, int]:
    """Validate one stage and return it as the tuple (family, i, t): family is
    one of ``FAMILIES``, i >= 1 and t >= 0 are integers, and CLASSIC's i is
    stored as 1, so that equal stages compare and hash equal."""
    family = _family(family)
    i, t = _as_int(i, "parameter i"), _as_int(t, "iteration count t")
    if family == "CLASSIC":
        i = 1
    elif i < 1:
        raise ValueError(f"parameter i must be >= 1, got {i!s:.32}")
    if t < 0:
        raise ValueError(f"iteration count t must be >= 0, got {t!s:.32}")
    return family, i, t


def matrix_for(family: str, i: int) -> tuple[int, int, int, int]:
    """The 2x2 matrix (a, b, c, d) = [a b; c d] of a family member: ROWFIRST(i)
    -> [i i+1; 1 1], COLFIRST(i) -> [i+1 i; 1 1], and CLASSIC, whose i is
    stored as 1, -> COLFIRST(1) = [2 1; 1 1]."""
    family, i, _ = check_stage(family, i, 0)
    return (i, i + 1, 1, 1) if family == "ROWFIRST" else (i + 1, i, 1, 1)


def grid_side(grid: np.ndarray) -> int:
    """Validate that ``grid`` is a non-empty square 2-D array and return its side."""
    a = np.asarray(grid)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"grid must be square and non-empty, got shape {a.shape}")
    return a.shape[0]


# a period is an O(period) loop and a grid holds side**2 cells, so both stay
# bounded; at side 131071 the slowest family period (i <= 20) is 262144 steps
MAX_SIDE = 1 << 17


def check_side(n) -> int:
    """Validate a grid side, an integer in [1, MAX_SIDE], and return it."""
    n = _as_int(n, "side")
    # a parsed integer is echoed as at most 32 characters, as _decimal does
    if n < 1:
        raise ValueError(f"side must be >= 1, got {n!s:.32}")
    if n > MAX_SIDE:
        raise ValueError(f"side {n!s:.32} exceeds the limit of {MAX_SIDE}")
    return n


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


# -- the permutation as shears -------------------------------------------------
#
# A lower-triangular step [u 0; k 1] (u a unit) moves row x to row u*x and
# rotates it by k*x, so it is one contiguous copy per row. Every matrix with
# det +-1 mod n is such a step, a transpose T, another step, and, when b is
# not a unit, one more T and step. No N*N-sized index is ever built.

_TILE = 512  # columns of a transposed tile: _ROWS x 512 was fastest at side 2048
_ROWS = 128  # rows a band gathers or copies at a time, so its temporaries stay small


def _det(m, n: int) -> tuple[tuple[int, int, int, int], int]:
    """The one reader of a matrix: m's four integer entries reduced mod n, and
    det m mod n, which must be 1 or n - 1 for m to permute the grid."""
    try:
        m = tuple(_as_int(x, "matrix entry") for x in m)
        a, b, c, d = m
    except (TypeError, ValueError):  # not iterable, not four entries, or not integers
        raise ValueError(f"matrix must be four integers (a, b, c, d), got {m!r:.32}") from None
    det = (a * d - b * c) % n
    if det not in (1 % n, n - 1):
        raise ValueError(f"matrix {m} must have det +-1 mod {n}, got {det}")
    return _reduce(m, n), det


def _shears(m: tuple, n: int) -> list[tuple[int, int] | None]:
    """Factor the scatter by m mod n into steps, in application order: a pair
    (u, k) is the step [u 0; k 1] and None is a transpose. Identity steps are
    dropped, adjacent steps compose and adjacent transposes cancel."""
    (a, b, c, d), det = _det(m, n)
    steps: list[tuple[int, int] | None] = []
    if math.gcd(b, n) != 1:
        # (a, b) is a unimodular row, so some a + k*b is a unit (Z/n has
        # stable rank 1); m = m' T L(-k), and m' = m L(k) T has it as its b
        k = next(k for k in range(n) if math.gcd(a + k * b, n) == 1)
        steps += [(1, -k % n), None]
        a, b, c, d, det = b, (a + k * b) % n, d, (c + k * d) % n, -det
    # b is a unit: [a b; c d] = [b 0; d 1] T [-det/b 0; a/b 1]
    inv = pow(b, -1, n)
    steps += [(-det * inv % n, a * inv % n), None, (b, d)]
    kept: list[tuple[int, int] | None] = []
    for step in steps:
        if kept and (step is None) == (kept[-1] is None):
            top = kept.pop()
            if step is None:
                continue
            step = (step[0] * top[0] % n, (step[1] * top[0] + top[1]) % n)
        if step != (1 % n, 0):
            kept.append(step)
    return kept


# -- row bands: from side 2 * _BAND_ROWS on, each full-raster step writes its
# rows in bands, one per available core, while numpy copies with no GIL held

_BAND_ROWS = 640  # two bands beat one on two cores at side 1280, not always at 1024


def _available_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _bands(n: int, fn) -> None:
    """Run fn(lo, hi) over chunks of at most ``_ROWS`` rows that cover [0, n),
    in row bands: band 0 on the caller and each other one on a thread joined
    before return. An exception raised in any band re-raises here."""
    count = min(n // _BAND_ROWS, _available_cpus()) if n >= 2 * _BAND_ROWS else 1
    edges = [n * i // count for i in range(count + 1)]
    errors, threads = [], []

    def band(lo, hi):
        try:
            for i in range(lo, hi, _ROWS):
                fn(i, min(i + _ROWS, hi))
        except BaseException as exc:
            errors.append(exc)

    try:
        for span in zip(edges[1:-1], edges[2:]):
            thread = threading.Thread(target=band, args=span, name="catstego-band")
            thread.start()
            threads.append(thread)
        band(0, edges[1])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        raise exc


def _copy(g: np.ndarray, transposed: bool, doubled: bool) -> np.ndarray:
    """g, or g.T tile by tile when ``transposed``, as a fresh C-ordered array
    h; [h h] when ``doubled``, ready for a row step."""
    n = g.shape[0]
    out = np.empty((n, 1 + doubled, n), dtype=g.dtype)  # out[x] is h[x], twice if doubled

    def rows(i, e):
        if not transposed:
            out[i:e] = g[i:e, None]
            return
        for j in range(0, n, _TILE):
            out[i:e, 0, j : j + _TILE] = g[j : j + _TILE, i:e].T
        # the halves share rows, so numpy copies one to the other via a temporary
        out[i:e, 1:] = out[i:e, :1]

    _bands(n, rows)
    return out.reshape(n, -1)


def _lower(gg: np.ndarray, u: int, k: int) -> np.ndarray:
    """Scatter g by [u 0; k 1], given gg = [g g]: row x of the result is row
    x/u of g rotated right by k*x/u, one window of gg per row."""
    n = gg.shape[0]
    src = np.arange(n) * pow(u, -1, n) % n
    shift = -k * src % n
    # windows[x, s] is gg[x, s : s + n], without sliding_window_view's checks
    row, col = gg.strides
    windows = as_strided(gg, (n, n + 1, n), (row, col, col), writeable=False)
    out = np.empty((n, n), dtype=gg.dtype)

    def rows(i, j):  # a chunk's gather stays in cache
        out[i:j] = windows[src[i:j], shift[i:j]]

    _bands(n, rows)
    return out


def scatter(grid: np.ndarray, m: tuple) -> np.ndarray:
    """Move every cell of a square grid to its destination under matrix m:
    the value at (x, y) goes to ((a*x + b*y) % n, (c*x + d*y) % n), with x the
    row and y the column, both 0-based. The golden orbit fixtures pin this
    convention. m must have det +-1 mod n; the result is a fresh C-ordered
    array and the grid is left as it is."""
    grid = np.asarray(grid)
    g = grid
    steps = _shears(m, grid_side(grid))
    for i, step in enumerate(steps):
        # steps alternate, so a row step follows every transpose but a last
        # one and reads the [g g] it made; rebinding g frees each intermediate
        if step is None:
            g = _copy(g, transposed=True, doubled=i + 1 < len(steps))
        else:
            g = _lower(g if i else _copy(g, transposed=False, doubled=True), *step)
    return grid.copy(order="C") if g is grid else g


def gather(grid: np.ndarray, m: tuple) -> np.ndarray:
    """Inverse of ``scatter(grid, m)``: a scatter by m^-1 = det [d -b; -c a]."""
    (a, b, c, d), det = _det(m, grid_side(grid))
    return scatter(grid, (det * d, -det * b, -det * c, det * a))


def matrix_period(m: tuple, n: int) -> int:
    """Smallest p >= 1 with M^p = identity mod n, by iterated multiplication.
    m must have det +-1 mod n; any other matrix never returns to the identity."""
    n = check_side(n)
    start, _ = _det(m, n)
    ident = _reduce(_IDENT, n)
    cur = start
    p = 1
    while cur != ident:
        cur = _mul(cur, start, n)
        p += 1
    return p


def period(family: str, i: int, n: int) -> int:
    """Period of a family member on an n x n grid."""
    return matrix_period(matrix_for(family, i), n)
