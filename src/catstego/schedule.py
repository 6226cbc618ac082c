"""Multi-stage scramble schedules and the text key-file format.

A schedule is the whole secret key: a list of stages, each the tuple
(family, i, t) of a transform and its iteration count, plus the permutation
giving the order they are applied in.
Unscrambling inverts the stages in reverse application order.

Key file format (UTF-8; lines end at LF, ``#`` runs to it, Netpbm separators split tokens):

    N <side>
    M <stage count>
    STAGE <CLASSIC|ROWFIRST|COLFIRST> <i> <t>     (M of these)
    ORDER <space-separated permutation of 0..M-1>
    PLANES <space-separated bit-plane indices, 0 = LSB>
"""

from __future__ import annotations

import random
from collections import namedtuple

import numpy as np

from .arnold import (_IDENT, _WORD, FAMILIES, _as_int, _decimal, _family, _mul, _pow, _reduce,
                     check_side, check_stage, grid_side, matrix_for, period)

# called through these module names, so a tracer can rebind them (perfbench/spans.py)
from .arnold import gather as unscramble, scatter as scramble


class KeyFormatError(ValueError):
    """Raised when key text cannot be parsed; message names the offending line."""


# A key file is read in one piece of at most MAX_KEY_BYTES. A keygen key of
# MAX_STAGES stages is at most 43,935 bytes: STAGE lines of at most 40 bytes
# (i <= 20, t < period < side**4 < 10**21) and an ORDER line of 3,896.
MAX_KEY_BYTES = 1 << 16
MAX_STAGES = 1000


def _stage_count(m: int) -> int:
    if m < 1:
        raise ValueError(f"stage count must be >= 1, got {m!s:.32}")
    if m > MAX_STAGES:
        raise ValueError(f"stage count {m!s:.32} exceeds the limit of {MAX_STAGES}")
    return m


class ScrambleSchedule(namedtuple("ScrambleSchedule", "side stages order")):
    """The key as the named tuple (side, stages, order), each stage (family, i, t);
    it is checked and normalized however it is made, ``_replace`` and ``_make`` too."""

    __slots__ = ()

    def __new__(cls, side, stages, order):
        side = check_side(side)
        stages = tuple(check_stage(*stage) for stage in stages)
        _stage_count(len(stages))
        order = tuple(_as_int(j, "order entry") for j in order)
        if sorted(order) != list(range(len(stages))):
            raise ValueError(
                f"order {order!s:.32} is not a permutation of 0..{len(stages) - 1}"
            )
        return super().__new__(cls, side, stages, order)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def _check_side(grid: np.ndarray, sched: ScrambleSchedule) -> None:
    n = grid_side(grid)
    if n != sched.side:
        raise ValueError(f"grid side {n} does not match schedule side {sched.side}")


def composite_matrix(sched: ScrambleSchedule) -> tuple[int, int, int, int]:
    """The whole schedule as one position matrix mod N: the product of the
    stage powers M^t, each multiplied on the left in application order."""
    acc = _reduce(_IDENT, sched.side)
    for j in sched.order:
        family, i, t = sched.stages[j]
        acc = _mul(_pow(matrix_for(family, i), t, sched.side), acc, sched.side)
    return acc


def schedule_scramble(msg: np.ndarray, sched: ScrambleSchedule) -> np.ndarray:
    """Apply every stage in application order, as one scatter."""
    _check_side(msg, sched)
    return scramble(msg, composite_matrix(sched))


def schedule_unscramble(scrambled: np.ndarray, sched: ScrambleSchedule) -> np.ndarray:
    """Invert every stage in reverse application order, as one gather."""
    _check_side(scrambled, sched)
    return unscramble(scrambled, composite_matrix(sched))


# -- key file ------------------------------------------------------------------

def check_planes(planes) -> list[int]:
    """Validate distinct bit-plane indices in [0, 7]; return them as ints."""
    planes = [_as_int(p, "plane index") for p in planes]
    for p in planes:
        if not 0 <= p <= 7:
            raise ValueError(f"plane index must be in [0, 7], got {p!s:.32}")
    if len(set(planes)) != len(planes):
        raise ValueError(f"duplicate plane index in {planes!s:.32}")
    return planes


def serialize_key(sched: ScrambleSchedule, planes: list[int]) -> str:
    """Render a schedule plus its target bit planes as key text."""
    planes = check_planes(planes)
    lines = [f"N {sched.side}", f"M {len(sched.stages)}"]
    lines += ["STAGE {} {} {}".format(*stage) for stage in sched.stages]
    lines.append("ORDER " + " ".join(str(j) for j in sched.order))
    lines.append(("PLANES " + " ".join(str(p) for p in planes)).rstrip())
    return "\n".join(lines) + "\n"


def parse_key(text: str) -> tuple[ScrambleSchedule, list[int]]:
    """Parse key text back into (schedule, planes). Inverse of serialize_key."""
    lines = ((n, _WORD.findall(raw.split("#", 1)[0])) for n, raw in enumerate(text.split("\n"), 1))
    entries = ((n, toks) for n, toks in lines if toks)
    lineno = None

    def take(expected: str, width: int = 0, needs: str = "exactly one value"):
        """Tokens of the next entry, an ``expected`` line of ``width`` tokens; sets ``lineno``."""
        nonlocal lineno
        lineno, toks = next(entries, (None, None))
        if lineno is None:
            raise KeyFormatError(f"unexpected end of key: expected {expected} line")
        if toks[0] != expected:
            raise KeyFormatError(f"line {lineno}: expected {expected} line, got {toks[0][:32]!r}")
        if width and len(toks) != width:
            raise KeyFormatError(f"line {lineno}: {expected} line needs {needs}")
        return toks

    # each line is checked as it is read, so a ValueError names the line taken last
    try:
        side = check_side(_decimal(take("N", 2)[1], "side"))
        m = _stage_count(_decimal(take("M", 2)[1], "stage count"))
        stages = []
        for _ in range(m):
            _, family, i, t = take("STAGE", 4, "<family> <i> <t>")
            # arguments run left to right: the tag is checked before i and t parse
            stages.append(check_stage(_family(family), _decimal(i, "parameter i"),
                                      _decimal(t, "iteration count t")))
        order = tuple(_decimal(tok, "order entry") for tok in take("ORDER")[1:])
        sched = ScrambleSchedule(side, tuple(stages), order)
        planes = check_planes([_decimal(tok, "plane index") for tok in take("PLANES")[1:]])
    except KeyFormatError:
        raise
    except ValueError as exc:
        raise KeyFormatError(f"line {lineno}: {exc}") from None

    lineno, _ = next(entries, (None, None))
    if lineno is not None:
        raise KeyFormatError(f"line {lineno}: trailing content after PLANES line")
    return sched, planes


def random_schedule(side: int, m: int, rng: random.Random) -> ScrambleSchedule:
    """Draw a valid schedule: random families, i in [1, 20], 0 < t < period.

    A draw that composes to the identity would scramble nothing, so it is
    drawn again, except at side 1, where every matrix is the identity.
    """
    m = _stage_count(_as_int(m, "stage count"))
    periods: dict[tuple[str, int], int] = {}  # i <= 20, so at most 41 transforms
    while True:
        stages = []
        for _ in range(m):
            spec = check_stage(rng.choice(FAMILIES), rng.randint(1, 20), 0)[:2]
            if spec not in periods:
                periods[spec] = period(*spec, side)
            stages.append((*spec, rng.randint(1, max(1, periods[spec] - 1))))
        order = list(range(m))
        rng.shuffle(order)
        sched = ScrambleSchedule(side, tuple(stages), tuple(order))
        if side == 1 or composite_matrix(sched) != _IDENT:
            return sched
