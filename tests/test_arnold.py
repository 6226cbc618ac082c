import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catstego.arnold import (
    FAMILIES,
    MAX_SIDE,
    check_stage,
    grid_side,
    matrix_for,
    matrix_period,
    period,
)
from catstego.schedule import (
    ScrambleSchedule,
    parse_key,
    schedule_scramble,
    schedule_unscramble,
    serialize_key,
)
from oracles import AI, BI, CI, I3, apply_once, orbit_period

CLASSIC = ("CLASSIC", 1)
ROW3 = ("ROWFIRST", 3)


def _one_stage(grid, spec, t):
    """A single stage is a one-stage schedule, so these tests run the CLI's path."""
    return ScrambleSchedule(len(grid), ((*spec, t),), (0,))


def scramble(grid, spec, t):
    return schedule_scramble(grid, _one_stage(grid, spec, t))


def unscramble(grid, spec, t):
    return schedule_unscramble(grid, _one_stage(grid, spec, t))


families = st.sampled_from(FAMILIES)
specs = st.tuples(families, st.integers(1, 10))


@st.composite
def grids(draw, max_side=64):
    n = draw(st.integers(1, max_side))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(0, 256, (n, n), dtype=np.uint8)


# -- matrices ------------------------------------------------------------------


def test_matrix_for_classic():
    assert matrix_for("CLASSIC", 1) == (2, 1, 1, 1)


def test_matrix_for_rowfirst():
    assert matrix_for("ROWFIRST", 3) == (3, 4, 1, 1)


def test_colfirst1_matrix_equals_classic():
    assert matrix_for("COLFIRST", 1) == matrix_for("CLASSIC", 1)


@given(st.integers(1, 50))
def test_matrix_determinants(i):
    assert _det(matrix_for("CLASSIC", i)) == 1
    assert _det(matrix_for("ROWFIRST", i)) == -1
    assert _det(matrix_for("COLFIRST", i)) == 1


def _det(m):
    a, b, c, d = m
    return a * d - b * c


@pytest.mark.parametrize("family, i, message", [
    *((family, i, f"parameter i must be >= 1, got {i}")
      for family in ("ROWFIRST", "COLFIRST") for i in (0, -1, -7)),
    ("SPIRAL", 1, "unknown family tag 'SPIRAL'"),
    ("classic", 1, "unknown family tag 'classic'"),
    (None, 1, "unknown family tag None"),
    # a tag that is not a str echoes at most 32 characters of its repr
    pytest.param(b"x" * 100_000, 1, "unknown family tag b'" + "x" * 30, id="long-bytes-tag"),
    pytest.param([0] * 100_000, 1, "unknown family tag [" + "0, " * 10 + "0", id="long-list-tag"),
    ("ROWFIRST", 2.0, "parameter i must be an integer, got 2.0"),
    ("COLFIRST", "3", "parameter i must be an integer, got '3'"),
])
def test_bad_transform_rejected(family, i, message):
    # matrix_for, period and the stage check refuse the same (family, i) alike
    for refuse in (matrix_for, lambda f, i: period(f, i, 8), lambda f, i: check_stage(f, i, 1)):
        with pytest.raises(ValueError) as err:
            refuse(family, i)
        assert str(err.value) == message


def test_classic_ignores_i():
    for i in (7, 0, -5):
        assert check_stage("CLASSIC", i, 3) == ("CLASSIC", 1, 3)
        assert hash(check_stage("CLASSIC", i, 3)) == hash(("CLASSIC", 1, 3))
        assert matrix_for("CLASSIC", i) == matrix_for("CLASSIC", 1)
        assert period("CLASSIC", i, 128) == period("CLASSIC", 1, 128)
        sched = ScrambleSchedule(8, (("CLASSIC", i, 3),), (0,))
        assert sched == ScrambleSchedule(8, (("CLASSIC", 1, 3),), (0,))
        assert len({sched, ScrambleSchedule(8, (["CLASSIC", 1, 3],), (0,))}) == 1
        assert "STAGE CLASSIC 1 3" in serialize_key(sched, [0])
        assert parse_key(f"N 8\nM 1\nSTAGE CLASSIC {i} 3\nORDER 0\nPLANES 0\n")[0] == sched
    # numpy integers and other index-likes are stored as plain ints
    assert check_stage("ROWFIRST", np.int64(4), np.uint8(9)) == ("ROWFIRST", 4, 9)
    assert type(check_stage("ROWFIRST", np.int64(4), 9)[1]) is int


def test_non_unimodular_matrix_rejected():
    # det 4 is not +-1 mod 7, so the powers never return to the identity
    with pytest.raises(ValueError) as err:
        matrix_period((2, 0, 0, 2), 7)
    assert str(err.value) == "matrix (2, 0, 0, 2) must have det +-1 mod 7, got 4"
    # the det message echoes at most 32 characters of the matrix
    with pytest.raises(ValueError) as err:
        matrix_period((10**4000, 0, 0, 1), 5)
    assert str(err.value) == f"matrix {'(1' + '0' * 30} must have det +-1 mod 5, got 0"
    # a matrix is exactly four integers
    for m in [(2, 1, 1), (2, 1, 1, 1, 7), (2.0, 1, 1, 1), "2111"]:
        with pytest.raises(ValueError, match="four integers"):
            matrix_period(m, 5)


# -- golden orbits -------------------------------------------------------------


def test_classic_orbit_step_by_step():
    g = I3
    for expected in AI:
        g = apply_once(g, CLASSIC)
        assert g.tolist() == expected


def test_rowfirst3_orbit_step_by_step():
    g = I3
    for expected in BI:
        g = apply_once(g, ROW3)
        assert g.tolist() == expected


def test_classic_orbit_of_bi2():
    g = scramble(I3, ROW3, 2)
    for expected in CI:
        g = apply_once(g, CLASSIC)
        assert g.tolist() == expected


def test_scramble_equals_iterated_apply_once_on_goldens():
    for t, expected in enumerate(AI, start=1):
        assert scramble(I3, CLASSIC, t).tolist() == expected
    for t, expected in enumerate(BI, start=1):
        assert scramble(I3, ROW3, t).tolist() == expected


@given(grids(max_side=16), specs, st.integers(0, 12))
@settings(deadline=None)
def test_scramble_is_iterated_apply_once(g, spec, t):
    assert np.array_equal(scramble(g, spec, t), apply_once(g, spec, t))


# -- identity and validation edges ---------------------------------------------


def test_single_cell_grid_unchanged():
    g = np.array([[42]])
    assert apply_once(g, ROW3).tolist() == [[42]]
    assert scramble(g, CLASSIC, 9).tolist() == [[42]]


@given(grids(), specs)
def test_t_zero_is_identity(g, spec):
    assert np.array_equal(scramble(g, spec, 0), g)
    assert np.array_equal(unscramble(g, spec, 0), g)


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        scramble(I3, CLASSIC, -1)
    with pytest.raises(ValueError):
        unscramble(I3, CLASSIC, -1)


@pytest.mark.parametrize("shape", [(3, 4), (0, 0), (3,), (2, 2, 2)])
def test_non_square_grids_rejected(shape):
    with pytest.raises(ValueError):
        grid_side(np.zeros(shape, dtype=np.uint8))


# -- inverses ------------------------------------------------------------------


def test_unscramble_golden_examples():
    assert unscramble(np.array(AI[1]), CLASSIC, 2).tolist() == I3.tolist()
    assert unscramble(np.array(BI[4]), ROW3, 5).tolist() == I3.tolist()


@given(grids(max_side=32), specs, st.integers(0, 400))
@settings(deadline=None)
def test_unscramble_inverts_scramble(g, spec, t):
    assert np.array_equal(unscramble(scramble(g, spec, t), spec, t), g)


@given(grids(max_side=24), specs, st.data())
@settings(deadline=None)
def test_unscramble_equals_forward_period_minus_t(g, spec, data):
    p = period(*spec, g.shape[0])
    t = data.draw(st.integers(0, p))
    assert np.array_equal(unscramble(g, spec, t), scramble(g, spec, p - t))


def test_huge_t_round_trip():
    g = np.random.default_rng(5).integers(0, 256, (17, 17), dtype=np.uint8)
    t = 10**12 + 7
    assert np.array_equal(unscramble(scramble(g, ROW3, t), ROW3, t), g)


# -- permutation properties ------------------------------------------------------


@given(grids(), specs, st.integers(0, 50))
@settings(deadline=None)
def test_scramble_preserves_value_multiset(g, spec, t):
    out = scramble(g, spec, t)
    assert np.array_equal(np.bincount(out.ravel(), minlength=256),
                          np.bincount(g.ravel(), minlength=256))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 32, 64])
def test_position_map_is_bijective(family, n):
    for i in (1, 2, 3, 7, 10):
        a, b, c, d = matrix_for(family, i)
        x, y = np.divmod(np.arange(n * n), n)
        dest = ((a * x + b * y) % n) * n + ((c * x + d * y) % n)
        assert len(np.unique(dest)) == n * n


@given(grids(max_side=32), st.integers(0, 60))
def test_colfirst1_scrambles_identically_to_classic(g, t):
    col1 = ("COLFIRST", 1)
    assert np.array_equal(scramble(g, col1, t), scramble(g, CLASSIC, t))


def test_classic_cannot_unscramble_rowfirst_output():
    # the Classic orbit of BI2 has length 4 and never reaches the original
    bi2 = np.array(BI[1])
    g = bi2
    seen_original = False
    for _ in range(3 * period("CLASSIC", 1, 3)):
        g = apply_once(g, CLASSIC)
        seen_original = seen_original or np.array_equal(g, I3)
    assert not seen_original
    assert scramble(bi2, CLASSIC, 4).tolist() == bi2.tolist()


# -- periods -------------------------------------------------------------------


def test_period_classic_n3():
    assert period("CLASSIC", 1, 3) == 4


def test_period_rowfirst3_n3():
    assert period("ROWFIRST", 3, 3) == 8


def test_period_classic_n128():
    # frozen from the brute-force orbit oracle, computed before the build
    assert period("CLASSIC", 1, 128) == 96


def test_period_classic_dyson_falk_bound():
    # Dyson & Falk, "Period of a discrete cat mapping" (Amer. Math. Monthly 99,
    # 1992): the classic map's period is at most 3N, with equality exactly
    # when N = 2 * 5**k
    periods = {n: period("CLASSIC", 1, n) for n in range(2, 601)}
    assert all(p <= 3 * n for n, p in periods.items())
    assert [n for n, p in periods.items() if p == 3 * n] == [10, 50, 250]


def test_period_n1_is_1():
    assert period("CLASSIC", 1, 1) == 1
    assert period("ROWFIRST", 3, 1) == 1


def test_period_rejects_bad_side():
    with pytest.raises(ValueError):
        period("CLASSIC", 1, 0)
    with pytest.raises(ValueError, match="exceeds the limit"):
        period("CLASSIC", 1, MAX_SIDE + 1)
    with pytest.raises(ValueError, match="integer"):
        period("CLASSIC", 1, 8.0)


@given(families, st.integers(1, 10), st.integers(2, 32))
@settings(deadline=None, max_examples=60)
def test_period_matches_orbit_oracle(family, i, n):
    assert period(family, i, n) == orbit_period(*matrix_for(family, i), n)


def test_matrix_period_on_raw_matrix():
    assert matrix_period((3, 4, 1, 1), 3) == 8

