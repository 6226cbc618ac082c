"""The shear factorization behind ``arnold.scatter`` and ``arnold.gather``,
checked against the index-based scatter and gather in oracles.py."""

import os
import subprocess
import sys
import textwrap
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import traced_peak
from catstego import arnold
from catstego.arnold import _shears, gather, matrix_period, scatter

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
    check_against_oracle(n, m, seed)


def check_against_oracle(n, m, seed):
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


# not four integers: too few or too many entries, a float entry, a string
MALFORMED = [(2, 1, 1), (2, 1, 1, 1, 7), (2.0, 1, 1, 1), "2111"]


@pytest.mark.parametrize(
    "m, n", [((2, 0, 0, 2), 4), ((2, 0, 0, 1), 7), ((0, 0, 0, 0), 3)] + [(m, 5) for m in MALFORMED]
)
def test_non_unimodular_matrix_rejected(m, n):
    g = grid(n, 0)
    fragment = "four integers" if m in MALFORMED else "det"
    with pytest.raises(ValueError, match=fragment):
        scatter(g, m)
    with pytest.raises(ValueError, match=fragment):
        gather(g, m)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
@pytest.mark.parametrize("m, n", [((2, 1, 1, 1), 7), ((3, 4, 1, 1), 30), ((3, 2, 2, 3), 6)])
def test_numpy_integer_matrix_equals_tuple(m, n, dtype):
    g = grid(n, 4)
    array = np.array(m, dtype=dtype)
    assert np.array_equal(scatter(g, array), scatter(g, m))
    assert np.array_equal(gather(g, array), gather(g, m))
    assert matrix_period(array, n) == matrix_period(m, n)


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
    check_layouts(dtype)


def check_layouts(dtype):
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


# -- row bands -------------------------------------------------------------------
#
# Sides below 1280 run in one band, so these tests lower the threshold to one
# row and claim 3 cores: every side from 2 up runs in 2 or 3 bands, most of
# which do not divide the side evenly.


@contextmanager
def banded(tile=arnold._TILE, rows=arnold._ROWS, band_rows=1, cpus=3):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arnold, "_BAND_ROWS", band_rows)
        mp.setattr(arnold, "_available_cpus", lambda: cpus)
        mp.setattr(arnold, "_TILE", tile)
        mp.setattr(arnold, "_ROWS", rows)
        yield


def chunks_of(n):
    seen = []
    arnold._bands(n, lambda lo, hi: seen.append((lo, hi)))
    return sorted(seen)


def bands_of(n):
    # with chunks as long as the grid, each band is one chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arnold, "_ROWS", max(n, 1))
        return chunks_of(n)


def test_bands_cover_every_row_once():
    with banded():
        assert bands_of(1) == [(0, 1)]
        assert bands_of(2) == [(0, 1), (1, 2)]
        assert bands_of(100) == [(0, 33), (33, 66), (66, 100)]
        for n in range(2, 301):
            edges = bands_of(n)
            assert len(edges) == min(n, 3)
            assert [lo for lo, _ in edges] == [0] + [hi for _, hi in edges[:-1]]
            assert edges[-1][1] == n and all(lo < hi for lo, hi in edges)
    with banded(rows=7):
        # chunks of at most 7 rows cover each band [0, 33), [33, 66), [66, 100)
        chunks = chunks_of(100)
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
        assert chunks[-1][1] == 100 and all(0 < hi - lo <= 7 for lo, hi in chunks)
        assert {33, 66} <= {lo for lo, _ in chunks}


def test_bands_start_at_twice_the_band_rows():
    with banded(band_rows=arnold._BAND_ROWS, cpus=8):
        assert bands_of(2 * arnold._BAND_ROWS - 1) == [(0, 2 * arnold._BAND_ROWS - 1)]
        assert len(bands_of(2 * arnold._BAND_ROWS)) == 2
        assert len(bands_of(5 * arnold._BAND_ROWS)) == 5
    with banded(band_rows=arnold._BAND_ROWS, cpus=1):
        assert bands_of(8 * arnold._BAND_ROWS) == [(0, 8 * arnold._BAND_ROWS)]


# tiles of 32 columns and chunks of 5 rows put several of each in a band,
# the last one partial
tilings = st.sampled_from([(arnold._TILE, arnold._ROWS), (32, 5)])


@given(sides, words(), st.integers(0, 2**32 - 1), tilings)
@settings(deadline=None, max_examples=300)
def test_banded_scatter_and_gather_match_oracle(n, m, seed, tiling):
    with banded(*tiling):
        check_against_oracle(n, m, seed)


@pytest.mark.parametrize("tiling", [(arnold._TILE, arnold._ROWS), (32, 5)])
@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int16, np.int64])
def test_banded_dtypes_and_layouts(dtype, tiling):
    with banded(*tiling):
        check_layouts(dtype)


@pytest.mark.parametrize("m", [(2, 1, 1, 1), (3, 4, 1, 1)])
@pytest.mark.parametrize("fn", [scatter, gather])
def test_banded_peak_memory_stays_below_five_bytes_per_pixel(fn, m):
    n = 2048
    g = grid(n, 5)
    with banded(band_rows=512, cpus=4):
        assert len(bands_of(n)) == 4
        assert traced_peak(fn, g, m) <= 5 * n * n


def band_threads():
    return sum(t.name == "catstego-band" for t in threading.enumerate())


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_band_exception_reaches_the_caller(failing):
    # band 0 runs on the calling thread, bands 1 and 2 on threads of their own
    def step(lo, hi):
        if (lo, hi) == bands[failing]:
            raise RuntimeError(f"band {failing} failed")

    with banded():
        bands = bands_of(100)
        with pytest.raises(RuntimeError, match=f"^band {failing} failed$"):
            arnold._bands(100, step)
        assert band_threads() == 0
        check_against_oracle(100, (2, 1, 1, 1), 7)


def test_thread_that_cannot_start_fails_only_its_call():
    # as in a process out of threads: the band already started ends, the
    # error reaches the caller, and the next call starts its threads afresh
    n, m = 2048, (3, 4, 1, 1)
    g = grid(n, 4)
    with banded(band_rows=n, cpus=1):
        expected = scatter(g, m)
    start, started = threading.Thread.start, []

    def start_once(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    with banded(band_rows=arnold._BAND_ROWS, cpus=3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(threading.Thread, "start", start_once)
            with pytest.raises(RuntimeError, match="^can't start new thread$"):
                scatter(g, m)
        assert len(started) == 1 and not started[0].is_alive()
        assert np.array_equal(scatter(g, m), expected)
    assert band_threads() == 0


def test_concurrent_callers_get_their_own_bands():
    # more callers than cores, switching often: every caller starts and
    # joins its own band threads and gets its own result back
    g = grid(64, 3)
    expected = oracles.scatter(g, reduced((3, 4, 1, 1), 64))
    results = []
    start = threading.Barrier(6)

    def caller():
        start.wait(timeout=60)
        for _ in range(20):
            results.append(np.array_equal(scatter(g, (3, 4, 1, 1)), expected))

    interval = sys.getswitchinterval()
    with banded():
        callers = [threading.Thread(target=caller) for _ in range(6)]
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [True] * 120
    assert band_threads() == 0  # no band thread outlives its call


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(sys.platform != "linux", reason="fork is the Linux default")
def test_forked_child_scatters_with_bands():
    # a child forked after a banded scatter starts threads of its own for
    # its bands; it must neither hang nor differ from the parent
    result = run_python("""
        import os, sys, threading, time
        import numpy as np
        from catstego import arnold

        arnold._available_cpus = lambda: 2
        n, m = 2048, (732, 1405, 689, 1149)
        g = np.arange(n * n, dtype=np.uint32).reshape(n, n).astype(np.uint8)
        first = arnold.scatter(g, m)
        assert threading.active_count() == 1
        pid = os.fork()
        if pid == 0:
            ok = np.array_equal(arnold.scatter(g, m), first)
            os._exit(0 if ok else 3)
        deadline = time.monotonic() + 60
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                sys.exit("the forked child hung")
            time.sleep(0.01)
        sys.exit(os.waitstatus_to_exitcode(done[1]))
    """)
    assert result.returncode == 0, result.stderr
