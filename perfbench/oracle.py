"""Reference implementations the benchmark checks outputs against.

Nothing here imports catstego, so a fault in the package's fast path cannot
hide itself from the checks. The definitions follow the README: a stage
``(family, i, t)`` moves the value at row x, column y to
``M^t (x, y) mod N``; a key applies its stages in ORDER, so the whole key is
one composite matrix; a packed plane is a 32-bit big-endian length, the
payload bytes MSB-first, then zero padding, all row-major.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

FAMILIES = ("CLASSIC", "ROWFIRST", "COLFIRST")
IDENTITY = (1, 0, 0, 1)


def family_matrix(family: str, i: int) -> tuple[int, int, int, int]:
    if family == "CLASSIC":
        return (2, 1, 1, 1)
    if family == "ROWFIRST":
        return (i, i + 1, 1, 1)
    if family == "COLFIRST":
        return (i + 1, i, 1, 1)
    raise ValueError(f"unknown family {family!r}")


def mat_mul(p, q, n: int) -> tuple[int, int, int, int]:
    return (
        (p[0] * q[0] + p[1] * q[2]) % n,
        (p[0] * q[1] + p[1] * q[3]) % n,
        (p[2] * q[0] + p[3] * q[2]) % n,
        (p[2] * q[1] + p[3] * q[3]) % n,
    )


def mat_pow(m, t: int, n: int) -> tuple[int, int, int, int]:
    acc = tuple(v % n for v in IDENTITY)
    base = tuple(v % n for v in m)
    while t:
        if t & 1:
            acc = mat_mul(acc, base, n)
        base = mat_mul(base, base, n)
        t >>= 1
    return acc


def is_identity(m, n: int) -> bool:
    return tuple(v % n for v in m) == tuple(v % n for v in IDENTITY)


def matrix_period(m, n: int) -> int:
    """Smallest p >= 1 with M^p = I (mod n), by repeated multiplication."""
    cur, p = tuple(v % n for v in m), 1
    while not is_identity(cur, n):
        cur, p = mat_mul(cur, m, n), p + 1
    return p


# -- key files ------------------------------------------------------------------


@dataclass(frozen=True)
class Key:
    side: int
    stages: tuple[tuple[str, int, int], ...]  # (family, i, t)
    order: tuple[int, ...]
    planes: tuple[int, ...]

    def text(self) -> str:
        lines = [f"N {self.side}", f"M {len(self.stages)}"]
        lines += [f"STAGE {f} {i} {t}" for f, i, t in self.stages]
        lines.append("ORDER " + " ".join(map(str, self.order)))
        lines.append("PLANES " + " ".join(map(str, self.planes)))
        return "\n".join(lines) + "\n"

    def composite(self) -> tuple[int, int, int, int]:
        """The one matrix that the whole schedule applies."""
        acc = tuple(v % self.side for v in IDENTITY)
        for j in self.order:
            family, i, t = self.stages[j]
            acc = mat_mul(mat_pow(family_matrix(family, i), t, self.side), acc, self.side)
        return acc


def parse_key(text: str) -> Key:
    """Strict parse of the key format; raises ValueError on anything else."""
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    if len(rows) < 4 or rows[0][0] != "N" or rows[1][0] != "M":
        raise ValueError("key must start with N and M lines")
    side, m = int(rows[0][1]), int(rows[1][1])
    if side < 1 or m < 1 or len(rows) != m + 4:
        raise ValueError(f"key has {len(rows)} lines for N={side}, M={m}")
    stages = []
    for row in rows[2 : 2 + m]:
        if len(row) != 4 or row[0] != "STAGE" or row[1] not in FAMILIES:
            raise ValueError(f"bad STAGE line {' '.join(row)!r}")
        stages.append((row[1], int(row[2]), int(row[3])))
    order_row, planes_row = rows[2 + m], rows[3 + m]
    if order_row[0] != "ORDER" or planes_row[0] != "PLANES":
        raise ValueError("key must end with ORDER and PLANES lines")
    order = tuple(int(v) for v in order_row[1:])
    planes = tuple(int(v) for v in planes_row[1:])
    if sorted(order) != list(range(m)):
        raise ValueError(f"ORDER {order} is not a permutation of 0..{m - 1}")
    if len(set(planes)) != len(planes) or not all(0 <= p <= 7 for p in planes):
        raise ValueError(f"bad PLANES {planes}")
    return Key(side, tuple(stages), order, planes)


# -- images ---------------------------------------------------------------------


def scatter(grid: np.ndarray, m) -> np.ndarray:
    """Move the value at (x, y) to ((a*x + b*y) % n, (c*x + d*y) % n)."""
    n = grid.shape[0]
    a, b, c, d = (int(v) % n for v in m)
    x = np.arange(n, dtype=np.int64).reshape(-1, 1)
    y = np.arange(n, dtype=np.int64).reshape(1, -1)
    out = np.empty_like(grid)
    out[(a * x + b * y) % n, (c * x + d * y) % n] = grid
    return out


def pack_payload(data: bytes, side: int) -> np.ndarray:
    framed = len(data).to_bytes(4, "big") + data
    bits = np.unpackbits(np.frombuffer(framed, dtype=np.uint8))
    out = np.zeros(side * side, dtype=np.uint8)
    out[: bits.size] = bits
    return out.reshape(side, side)


def embed(cover: np.ndarray, messages, key: Key) -> np.ndarray:
    """The stego image a correct embed must produce."""
    comp = key.composite()
    stego = cover.copy()
    for msg, p in zip(messages, key.planes):
        stego &= np.uint8(0xFF ^ (1 << p))
        stego |= scatter(msg, comp) << np.uint8(p)
    return stego


def pgm_bytes(img: np.ndarray) -> bytes:
    n = img.shape[0]
    return b"P5\n%d %d\n255\n" % (n, n) + img.astype(np.uint8).tobytes()


def pbm_bytes(bits: np.ndarray) -> bytes:
    n = bits.shape[0]
    return b"P4\n%d %d\n" % (n, n) + np.packbits(bits.astype(np.uint8), axis=1).tobytes()


_P5 = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")
_P4 = re.compile(rb"P4\s+(\d+)\s+(\d+)\s")


def read_netpbm(data: bytes) -> np.ndarray:
    """Parse a comment-free square P5 (maxval 255) or P4 image."""
    m = _P5.match(data) or _P4.match(data)
    if m is None:
        raise ValueError(f"not a comment-free P5/P4 header: {data[:16]!r}")
    w, h = int(m.group(1)), int(m.group(2))
    if w != h:
        raise ValueError(f"image is {w}x{h}, not square")
    raster = data[m.end() :]
    row = w if m.re is _P5 else (w + 7) // 8
    if len(raster) != w * row:
        raise ValueError(f"raster has {len(raster)} bytes, expected {w * row}")
    rows = np.frombuffer(raster, dtype=np.uint8).reshape(w, row)
    return rows if m.re is _P5 else np.unpackbits(rows, axis=1)[:, :w]
