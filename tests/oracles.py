"""Independent oracles and frozen golden fixtures shared across the suite.

The orbit-period oracle iterates the raw position permutation and never
touches the package's matrix-order computation, so the two routes check
each other. The 3x3 orbit tables are frozen reference data; every entry was
verified by hand against the scatter convention before being trusted here.
The stage-by-stage references below rebuild every permutation with their own
matrix arithmetic and scatter; nothing in this file imports catstego.
"""

import numpy as np

I3 = np.arange(1, 10).reshape(3, 3)

# Classic [2,1;1,1] orbit of I3, iterations 1..4 (period 4)
AI = [
    [[1, 9, 5], [6, 2, 7], [8, 4, 3]],
    [[1, 3, 2], [7, 9, 8], [4, 6, 5]],
    [[1, 5, 9], [8, 3, 4], [6, 7, 2]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
]

# [3,4;1,1] orbit of I3, iterations 1..8 (period 8)
BI = [
    [[1, 4, 7], [8, 2, 5], [6, 9, 3]],
    [[1, 8, 6], [9, 4, 2], [5, 3, 7]],
    [[1, 9, 5], [3, 8, 4], [2, 7, 6]],
    [[1, 3, 2], [7, 9, 8], [4, 6, 5]],
    [[1, 7, 4], [6, 3, 9], [8, 5, 2]],
    [[1, 6, 8], [5, 7, 3], [9, 2, 4]],
    [[1, 5, 9], [2, 6, 7], [3, 4, 8]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
]

# Classic orbit of BI[1] (the 2nd entry above), iterations 1..4
CI = [
    [[1, 7, 4], [2, 8, 5], [3, 9, 6]],
    [[1, 6, 8], [5, 7, 3], [9, 2, 4]],
    [[1, 4, 7], [3, 6, 9], [2, 5, 8]],
    [[1, 8, 6], [9, 4, 2], [5, 3, 7]],
]


def orbit_period(a: int, b: int, c: int, d: int, n: int) -> int:
    """Brute-force period: iterate the position permutation until identity.

    Positions are flattened row-major; (x, y) moves to
    ((a*x + b*y) % n, (c*x + d*y) % n). Independent of the package's
    matrix-order route by construction.
    """
    pos = np.arange(n * n)
    x, y = np.divmod(pos, n)
    dest = ((a * x + b * y) % n) * n + ((c * x + d * y) % n)
    cur = dest.copy()
    p = 1
    while not np.array_equal(cur, pos):
        cur = dest[cur]
        p += 1
    return p


def mat_mul(p, q, n):
    return (
        (p[0] * q[0] + p[1] * q[2]) % n,
        (p[0] * q[1] + p[1] * q[3]) % n,
        (p[2] * q[0] + p[3] * q[2]) % n,
        (p[2] * q[1] + p[3] * q[3]) % n,
    )


def mat_pow(m, t, n):
    acc = (1 % n, 0, 0, 1 % n)
    base = tuple(v % n for v in m)
    while t:
        if t & 1:
            acc = mat_mul(acc, base, n)
        base = mat_mul(base, base, n)
        t >>= 1
    return acc


def stage_matrix(spec):
    """Position matrix of one transform (family, i), from the family table in
    the README."""
    family, i = spec
    return {
        "CLASSIC": (2, 1, 1, 1),
        "ROWFIRST": (i, i + 1, 1, 1),
        "COLFIRST": (i + 1, i, 1, 1),
    }[family]


def composite_matrix(sched, n):
    """Overall position matrix of a schedule, built with local arithmetic."""
    acc = (1 % n, 0, 0, 1 % n)
    for j in sched.order:
        family, i, t = sched.stages[j]
        acc = mat_mul(mat_pow(stage_matrix((family, i)), t, n), acc, n)
    return acc


def scatter(grid, m):
    """Move the value at row x, column y to ((a*x + b*y) % n, (c*x + d*y) % n)."""
    grid = np.asarray(grid)
    n = grid.shape[0]
    a, b, c, d = m
    x, y = np.indices((n, n))
    out = np.empty_like(grid)
    out[(a * x + b * y) % n, (c * x + d * y) % n] = grid
    return out


def gather(grid, m):
    """Read the value at row x, column y back from ((a*x + b*y) % n, (c*x + d*y) % n)."""
    grid = np.asarray(grid)
    n = grid.shape[0]
    a, b, c, d = m
    x, y = np.indices((n, n))
    return grid[(a * x + b * y) % n, (c * x + d * y) % n]


def apply_once(grid, spec, t=1):
    """``t`` iterations of one transform, each a scatter by the stage matrix itself."""
    for _ in range(t):
        grid = scatter(grid, stage_matrix(spec))
    return grid


def reference_scramble(grid, sched):
    """Stage by stage, in application order: one scatter with M^t per stage."""
    for j in sched.order:
        family, i, t = sched.stages[j]
        grid = scatter(grid, mat_pow(stage_matrix((family, i)), t, sched.side))
    return grid


def reference_unscramble(grid, sched):
    """Stage by stage, in reverse order: one scatter with (M^-1)^t per stage."""
    for j in reversed(sched.order):
        family, i, t = sched.stages[j]
        a, b, c, d = stage_matrix((family, i))
        det = a * d - b * c
        inverse = (det * d, -det * b, -det * c, det * a)
        grid = scatter(grid, mat_pow(inverse, t, sched.side))
    return grid


def reference_embed(cover, messages, sched, planes):
    """Write each scrambled message into its plane, one plane at a time."""
    stego = np.asarray(cover, dtype=np.uint8).copy()
    for msg, p in zip(messages, planes):
        bits = reference_scramble(np.asarray(msg, dtype=np.uint8), sched)
        stego = (stego & np.uint8(0xFF ^ (1 << p))) | (bits << np.uint8(p))
    return stego


def reference_extract(stego, sched, planes):
    """Read each plane and unscramble it on its own."""
    return [reference_unscramble((stego >> np.uint8(p)) & np.uint8(1), sched) for p in planes]


def reference_pack(data, side):
    """A side x side 0/1 image: 32-bit big-endian byte count, then the bytes
    MSB-first, then zeros, all row-major, from one flat bit list."""
    framed = len(data).to_bytes(4, "big") + bytes(data)
    bits = [(byte >> (7 - j)) & 1 for byte in framed for j in range(8)]
    assert len(bits) <= side * side, "payload exceeds the plane"
    bits += [0] * (side * side - len(bits))
    return np.array(bits, dtype=np.uint8).reshape(side, side)


def reference_unpack(plane):
    """The bytes framed by ``reference_pack``, read back bit by bit."""
    bits = np.asarray(plane).ravel().tolist()
    values = [int("".join(map(str, bits[k : k + 8])), 2) for k in range(0, len(bits) - 7, 8)]
    return bytes(values[4 : 4 + int.from_bytes(bytes(values[:4]), "big")])


# -- synthetic imagery ---------------------------------------------------------


def _natural_field(side, seed):
    """The 1/f field in its plain form, one fresh array per operation."""
    rng = np.random.default_rng(seed)
    fx = np.fft.fftfreq(side).reshape(-1, 1)
    fy = np.fft.fftfreq(side).reshape(1, -1)
    f = np.hypot(fx, fy)
    f[0, 0] = 1.0  # keep the DC term finite
    spectrum = (
        rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    ) / f**1.5
    return np.fft.ifft2(spectrum).real


def natural_gray(side, seed=0):
    """A 1/f field scaled to [0, 255] and rounded, or all 128 when flat."""
    field = _natural_field(side, seed)
    lo, hi = field.min(), field.max()
    if hi == lo:
        return np.full((side, side), 128, dtype=np.uint8)
    return np.round((field - lo) / (hi - lo) * 255).astype(np.uint8)


def natural_binary(side, seed=0):
    """A 1/f field thresholded at its median."""
    field = _natural_field(side, seed)
    return (field > np.median(field)).astype(np.uint8)
