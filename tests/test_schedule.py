import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catstego.arnold import FAMILIES, MAX_SIDE, check_stage, period
from catstego.schedule import (
    MAX_KEY_BYTES,
    MAX_STAGES,
    KeyFormatError,
    ScrambleSchedule,
    composite_matrix,
    parse_key,
    random_schedule,
    schedule_scramble,
    schedule_unscramble,
    serialize_key,
)
import oracles
from oracles import AI, BI, CI, I3, reference_scramble, reference_unscramble

specs = st.tuples(st.sampled_from(FAMILIES), st.integers(1, 10))


@st.composite
def schedules(draw, side=None, max_side=32, max_stages=4, max_t=60):
    n = side if side is not None else draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_stages))
    stages = tuple((*draw(specs), draw(st.integers(0, max_t))) for _ in range(m))
    order = tuple(draw(st.permutations(range(m))))
    return ScrambleSchedule(n, stages, order)


def _msg(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2, (n, n), dtype=np.uint8)


# -- scrambling ----------------------------------------------------------------


def test_single_stage_matches_golden():
    sched = ScrambleSchedule(3, (("CLASSIC", 1, 1),), (0,))
    assert schedule_scramble(I3, sched).tolist() == AI[0]


def test_two_stage_composition_matches_golden():
    # rowfirst(3) twice then classic twice lands on the classic orbit of BI2
    sched = ScrambleSchedule(3, (("ROWFIRST", 3, 2), ("CLASSIC", 1, 2)), (0, 1))
    assert schedule_scramble(I3, sched).tolist() == CI[1]
    assert schedule_unscramble(np.array(CI[1]), sched).tolist() == I3.tolist()


def test_all_zero_iterations_is_identity():
    sched = ScrambleSchedule(3, (("CLASSIC", 1, 0), ("ROWFIRST", 3, 0)), (1, 0))
    assert np.array_equal(schedule_scramble(I3, sched), I3)


def test_single_stage_unscramble_is_forward_remainder():
    # classic on N=3 has period 4, so undoing t=2 equals 2 more forward steps
    sched = ScrambleSchedule(3, (("CLASSIC", 1, 2),), (0,))
    g = schedule_scramble(I3, sched)
    assert schedule_unscramble(g, sched).tolist() == (
        schedule_scramble(g, sched).tolist()
    )
    assert schedule_unscramble(g, sched).tolist() == I3.tolist()


@given(schedules(), st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_schedule_round_trip(sched, seed):
    msg = _msg(sched.side, seed)
    assert np.array_equal(
        schedule_unscramble(schedule_scramble(msg, sched), sched), msg
    )


@given(schedules(max_t=10**9), st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_schedule_matches_stage_by_stage_reference(sched, seed):
    grid = np.random.default_rng(seed).integers(0, 256, (sched.side,) * 2, dtype=np.uint8)
    assert np.array_equal(schedule_scramble(grid, sched), reference_scramble(grid, sched))
    assert np.array_equal(schedule_unscramble(grid, sched), reference_unscramble(grid, sched))


@given(schedules(max_t=10**9))
def test_composite_matrix_matches_oracle(sched):
    assert composite_matrix(sched) == oracles.composite_matrix(sched, sched.side)


def test_order_changes_output():
    stages = (("CLASSIC", 1, 1), ("ROWFIRST", 3, 1))
    a = schedule_scramble(I3, ScrambleSchedule(3, stages, (0, 1)))
    b = schedule_scramble(I3, ScrambleSchedule(3, stages, (1, 0)))
    assert a.tolist() != b.tolist()


def test_omitting_a_stage_does_not_recover():
    msg = _msg(16, seed=9)
    full = ScrambleSchedule(16, (("ROWFIRST", 3, 3), ("CLASSIC", 1, 2)), (0, 1))
    scrambled = schedule_scramble(msg, full)
    for kept in (0, 1):
        partial = ScrambleSchedule(16, (full.stages[kept],), (0,))
        assert not np.array_equal(schedule_unscramble(scrambled, partial), msg)


def test_side_mismatch_rejected():
    sched = ScrambleSchedule(4, (("CLASSIC", 1, 1),), (0,))
    with pytest.raises(ValueError):
        schedule_scramble(I3, sched)
    with pytest.raises(ValueError):
        schedule_unscramble(I3, sched)


# -- construction validation -----------------------------------------------------


def test_empty_stage_list_rejected():
    with pytest.raises(ValueError):
        ScrambleSchedule(3, (), ())


def test_bad_order_rejected():
    stages = (("CLASSIC", 1, 1), ("ROWFIRST", 3, 1))
    with pytest.raises(ValueError):
        ScrambleSchedule(3, stages, (0, 0))
    with pytest.raises(ValueError):
        ScrambleSchedule(3, stages, (0,))
    with pytest.raises(ValueError):
        ScrambleSchedule(3, stages, (1, 2))


def test_bad_side_rejected():
    with pytest.raises(ValueError):
        ScrambleSchedule(0, (("CLASSIC", 1, 1),), (0,))
    # a value that is not an integer is echoed as at most 32 characters
    with pytest.raises(ValueError) as err:
        ScrambleSchedule("9" * 100_000, (("CLASSIC", 1, 1),), (0,))
    assert str(err.value) == f"side must be an integer, got {repr('9' * 100_000)[:32]}"


def test_negative_stage_t_rejected():
    with pytest.raises(ValueError, match="iteration count t must be >= 0, got -1"):
        check_stage("CLASSIC", 1, -1)
    with pytest.raises(ValueError, match="iteration count t must be >= 0, got -1"):
        ScrambleSchedule(3, (("ROWFIRST", 3, 2), ("CLASSIC", 1, -1)), (0, 1))
    with pytest.raises(ValueError, match="iteration count t must be an integer"):
        ScrambleSchedule(3, (("CLASSIC", 1, 1.5),), (0,))
    # the family is checked first, then i, then t
    with pytest.raises(ValueError, match="unknown family tag 'FOO'"):
        ScrambleSchedule(3, (("FOO", 0, -1),), (0,))
    with pytest.raises(ValueError, match="parameter i must be >= 1"):
        check_stage("COLFIRST", 0, -1)


# -- the schedule as a named tuple ---------------------------------------------

SCHED = ScrambleSchedule(8, (("ROWFIRST", 3, 2), ("CLASSIC", 5, 2)), [1, 0])


def test_schedule_is_a_normalized_named_tuple():
    assert SCHED == (8, (("ROWFIRST", 3, 2), ("CLASSIC", 1, 2)), (1, 0))
    assert SCHED._fields == ("side", "stages", "order")
    assert repr(SCHED) == ("ScrambleSchedule(side=8, stages=(('ROWFIRST', 3, 2), "
                           "('CLASSIC', 1, 2)), order=(1, 0))")


@pytest.mark.parametrize("fields, message", [
    (dict(side=0), "side must be >= 1, got 0"),
    (dict(order=(0, 0)), "order (0, 0) is not a permutation of 0..1"),
    (dict(stages=(("ROWFIRST", 3, 2), ("SPIRAL", 1, 2))), "unknown family tag 'SPIRAL'"),
])
def test_replace_and_make_check_as_the_constructor_does(fields, message):
    made = {**SCHED._asdict(), **fields}
    for build in (lambda: ScrambleSchedule(**made), lambda: SCHED._replace(**fields),
                  lambda: ScrambleSchedule._make(made.values())):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_replace_and_make_normalize():
    assert SCHED._replace(order=[0, 1]).order == (0, 1)
    assert SCHED._replace(stages=(("CLASSIC", 7, 1), ("COLFIRST", 2, 0))).stages == (
        ("CLASSIC", 1, 1), ("COLFIRST", 2, 0))
    assert ScrambleSchedule._make(tuple(SCHED)) == SCHED


def test_schedule_pickles_and_copies_equal():
    for back in (pickle.loads(pickle.dumps(SCHED)), copy.deepcopy(SCHED), copy.copy(SCHED)):
        assert type(back) is ScrambleSchedule
        assert back == SCHED


def test_schedule_attributes_cannot_be_assigned():
    with pytest.raises(AttributeError):
        SCHED.side = 16
    with pytest.raises(AttributeError):
        SCHED.extra = 1


# -- key file ------------------------------------------------------------------

# The key text grammar is the Netpbm header's: a line ends only at LF, a "#"
# comment runs to that LF, and tokens split only at space, TAB, CR, VT and FF.
KEY = "N 8\nM 2\nSTAGE ROWFIRST 3 5\nSTAGE CLASSIC 1 2\nORDER 1 0\nPLANES 0 2\n"
# str.splitlines breaks lines at all of these, and str.split splits at them too
LINE_BREAKS = ["\r", "\x85", "\u2028", "\u2029", "\x1c", "\x1d", "\x1e"]


def test_key_round_trip_concrete():
    sched = ScrambleSchedule(
        128,
        (("ROWFIRST", 1, 28),
         ("ROWFIRST", 2, 57)),
        (0, 1),
    )
    text = serialize_key(sched, [0, 1, 2])
    back, planes = parse_key(text)
    assert back == sched
    assert planes == [0, 1, 2]
    assert text.endswith("\n") and "\r" not in text


def test_key_serialization_shape():
    sched = ScrambleSchedule(3, (("ROWFIRST", 3, 2), ("CLASSIC", 1, 2)), (1, 0))
    assert serialize_key(sched, [0]).splitlines() == [
        "N 3",
        "M 2",
        "STAGE ROWFIRST 3 2",
        "STAGE CLASSIC 1 2",
        "ORDER 1 0",
        "PLANES 0",
    ]


@given(schedules(max_t=500), st.lists(st.integers(0, 7), unique=True, max_size=8))
@settings(deadline=None)
def test_key_round_trip_property(sched, planes):
    back, planes_back = parse_key(serialize_key(sched, planes))
    assert back == sched
    assert planes_back == planes


def test_key_comments_and_blank_lines_ignored():
    text = (
        "# scramble key\n"
        "\n"
        "N 8   # side\n"
        "M 1\n"
        "STAGE COLFIRST 2 5\n"
        "ORDER 0\n"
        "PLANES 0 3\n"
    )
    sched, planes = parse_key(text)
    assert sched.side == 8
    assert sched.stages == (("COLFIRST", 2, 5),)
    assert planes == [0, 3]


def test_empty_planes_line_allowed():
    sched = ScrambleSchedule(8, (("CLASSIC", 1, 1),), (0,))
    back, planes = parse_key(serialize_key(sched, []))
    assert planes == []


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("N 8\nM 0\nORDER\nPLANES\n", "line 2"),
        ("N 8\nM 2\nSTAGE CLASSIC 1 1\nSTAGE CLASSIC 1 1\nORDER 0 0\nPLANES 0\n", "line 5"),
        ("N 8\nM 1\nSTAGE SPIRAL 1 1\nORDER 0\nPLANES 0\n", "unknown family"),
        ("N 8\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 9\n", "plane index"),
        ("N 8\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0 0\n", "duplicate"),
        ("N 8\nM 1\nSTAGE CLASSIC 1\nORDER 0\nPLANES 0\n", "STAGE"),
        ("N x\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n", "line 1"),
        ("N 8\nM 1\nSTAGE ROWFIRST 0 1\nORDER 0\nPLANES 0\n", "line 3"),
        ("N 8\nM 1\nSTAGE CLASSIC 1 -2\nORDER 0\nPLANES 0\n", "line 3"),
        ("N 8\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\nEXTRA\n", "trailing"),
        ("N 8\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\n", "unexpected end"),
        ("M 1\nN 8\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n", "expected N"),
        # integers are ASCII decimal; an echoed token is cut to 32 characters
        ("N +8\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n", "line 1: side is not an integer: '+8'"),
        ("N 0_8\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n", "line 1: side is not an integer: '0_8'"),
        ("N ٨\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n", "line 1: side is not an integer: '٨'"),
        ("N 8\nM 1\nSTAGE CLASSIC 1 ²\nORDER 0\nPLANES 0\n",
         "line 3: iteration count t is not an integer: '²'"),
        ("N 8\nM 1\nSTAGE CLASSIC 1 " + "x" * 40 + "\nORDER 0\nPLANES 0\n",
         f"line 3: iteration count t is not an integer: {'x' * 32!r}"),
        # negative values still reach the range checks
        ("N -8\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n", "line 1: side must be >= 1, got -8"),
        ("N 8\nM 1\nSTAGE CLASSIC 1 -3\nORDER 0\nPLANES 0\n",
         "line 3: iteration count t must be >= 0, got -3"),
        # a range message echoes at most 32 characters of a huge integer
        (f"N {'9' * 4300}\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n",
         f"line 1: side {'9' * 32} exceeds the limit of {MAX_SIDE}"),
        (f"N -{'9' * 4300}\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n",
         f"line 1: side must be >= 1, got -{'9' * 31}"),
        (f"N 8\nM -{'9' * 4300}\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n",
         f"line 2: stage count must be >= 1, got -{'9' * 31}"),
        (f"N 8\nM 1\nSTAGE ROWFIRST -{'9' * 4300} 1\nORDER 0\nPLANES 0\n",
         f"line 3: parameter i must be >= 1, got -{'9' * 31}"),
        (f"N 8\nM 1\nSTAGE CLASSIC 1 -{'9' * 4300}\nORDER 0\nPLANES 0\n",
         f"line 3: iteration count t must be >= 0, got -{'9' * 31}"),
        (f"N 8\nM 1\nSTAGE CLASSIC 1 1\nORDER {'9' * 4300}\nPLANES 0\n",
         f"line 4: order ({'9' * 31} is not a permutation of 0..0"),
        (f"N 8\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES {'9' * 4300}\n",
         f"line 5: plane index must be in [0, 7], got {'9' * 32}"),
        # a STAGE line is checked tag first, then the integers, then their ranges
        ("N 8\nM 1\nSTAGE FOO x 2\nORDER 0\nPLANES 0\n", "line 3: unknown family tag 'FOO'"),
        ("N 8\nM 1\nSTAGE classic 1 1\nORDER 0\nPLANES 0\n", "line 3: unknown family tag 'classic'"),
        ("N 8\nM 1\nSTAGE CLASSIC x 2\nORDER 0\nPLANES 0\n", "line 3: parameter i is not an integer: 'x'"),
        ("N 8\nM 1\nSTAGE ROWFIRST 0 x\nORDER 0\nPLANES 0\n",
         "line 3: iteration count t is not an integer: 'x'"),
        ("N 8\nM 1\nSTAGE COLFIRST 0 -1\nORDER 0\nPLANES 0\n", "line 3: parameter i must be >= 1, got 0"),
        # a 65,000-character token is echoed as its first 32 characters
        pytest.param("x" * 65000 + " 8\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n",
                     f"line 1: expected N line, got {'x' * 32!r}", id="long-line-tag"),
        pytest.param("N 8\nM 1\nSTAGE " + "X" * 65000 + " 1 1\nORDER 0\nPLANES 0\n",
                     f"line 3: unknown family tag {'X' * 32!r}", id="long-family-tag"),
        pytest.param("N 8\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES" + " 0" * 30000 + "\n",
                     f"line 5: duplicate plane index in {str([0] * 11)[:32]}",
                     id="long-duplicate-planes"),
        # the stage count is bounded on its own line, before any STAGE line is read
        ("N 8\nM 1001\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n",
         "line 2: stage count 1001 exceeds the limit of 1000"),
        (f"N 8\nM {'9' * 4300}\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n",
         f"line 2: stage count {'9' * 32} exceeds the limit of 1000"),
        # a non-ASCII space is part of a token, not a separator
        *(pytest.param(KEY.replace("ROWFIRST 3 5", f"ROWFIRST 3{sep}5"),
                       "line 3: STAGE line needs <family> <i> <t>", id=f"sep-U+{ord(sep):04X}-stage")
          for sep in ("\xa0", "\u2009", "\u3000")),
        *(pytest.param(KEY.replace("N 8", f"N{sep}8"),
                       f"line 1: expected N line, got {'N' + sep + '8'!r}", id=f"sep-U+{ord(sep):04X}-tag")
          for sep in ("\xa0", "\u2009", "\u3000")),
        # only LF ends a line, and error line numbers count LF lines
        *(pytest.param(KEY.replace("N 8\n", f"N 8{brk}", 1), "line 1: N line needs exactly one value",
                       id=f"break-U+{ord(brk):04X}") for brk in LINE_BREAKS),
        *(pytest.param(f"# a{brk}b\n" + KEY.replace("PLANES 0 2", "PLANES 9"),
                       "line 7: plane index must be in [0, 7], got 9",
                       id=f"break-U+{ord(brk):04X}-in-comment-line-count") for brk in LINE_BREAKS),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(KeyFormatError) as err:
        parse_key(text)
    assert fragment in str(err.value)
    assert len(str(err.value)) < 120


def test_key_side_limit():
    key = "N {}\nM 1\nSTAGE CLASSIC 1 1\nORDER 0\nPLANES 0\n"
    sched, _ = parse_key(key.format(MAX_SIDE))
    assert sched.side == MAX_SIDE
    with pytest.raises(KeyFormatError, match=f"line 1: side {MAX_SIDE + 1} exceeds the limit"):
        parse_key(key.format(MAX_SIDE + 1))
    with pytest.raises(ValueError, match="exceeds the limit"):
        ScrambleSchedule(MAX_SIDE + 1, (("CLASSIC", 1, 1),), (0,))


def test_parse_errors_name_line_numbers():
    bad = "N 8\nM 1\nSTAGE CLASSIC 1 one\nORDER 0\nPLANES 0\n"
    with pytest.raises(KeyFormatError, match="line 3"):
        parse_key(bad)


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_a_comment_runs_to_the_lf(brk):
    assert parse_key(KEY.replace("N 8\n", f"N 8 # x{brk}M 9\n", 1)) == parse_key(KEY)


@pytest.mark.parametrize("spell", [
    pytest.param(lambda text: text.replace("\n", "\r\n"), id="crlf"),
    pytest.param(lambda text: text.replace(" ", "\t"), id="tab"),
    pytest.param(lambda text: text.replace(" ", "\x0b"), id="vt"),
    pytest.param(lambda text: text.replace(" ", "\x0c"), id="ff"),
    pytest.param(lambda text: text.replace(" ", " \t\x0b\x0c\r ").replace("\n", " \r\n\t"),
                 id="mixed"),
])
def test_netpbm_separators_split_tokens(spell):
    assert parse_key(spell(KEY)) == parse_key(KEY)


# -- random schedule generation ---------------------------------------------------


def test_random_schedule_deterministic():
    a = random_schedule(64, 3, random.Random(7))
    b = random_schedule(64, 3, random.Random(7))
    assert a == b


def test_random_schedule_valid_and_nontrivial():
    for seed in range(20):
        sched = random_schedule(32, 2, random.Random(seed))
        assert sched.side == 32
        assert len(sched.stages) == 2
        for family, i, t in sched.stages:
            assert 1 <= t < max(2, period(family, i, 32))
        msg = _msg(32, seed)
        assert np.array_equal(
            schedule_unscramble(schedule_scramble(msg, sched), sched), msg
        )


@pytest.mark.parametrize("seed", [2424, 2503, 2521])
def test_random_schedule_redraws_identity_composites(seed):
    # the first draw for each of these seeds composes to the identity at
    # N = 128 (e.g. CLASSIC t = 57 + 64 + 71 = 192, its period)
    r = random.Random(seed)
    sched = random_schedule(128, r.randint(1, 4), r)
    assert composite_matrix(sched) != (1, 0, 0, 1)
    msg = _msg(128, seed)
    assert not np.array_equal(schedule_scramble(msg, sched), msg)


def test_random_schedule_terminates_at_side_1():
    sched = random_schedule(1, 3, random.Random(0))
    assert composite_matrix(sched) == (0, 0, 0, 0)


def test_random_schedule_computes_each_period_once(monkeypatch):
    # i is drawn from 1..20, so one call meets at most 41 distinct specs:
    # CLASSIC plus 20 each of ROWFIRST and COLFIRST
    calls = []

    def counted(family, i, n):
        calls.append((family, i))
        return period(family, i, n)

    monkeypatch.setattr("catstego.schedule.period", counted)
    random_schedule(64, 500, random.Random(0))
    assert len(calls) == len(set(calls)) <= 41


def test_random_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        random_schedule(0, 1, random.Random(0))
    with pytest.raises(ValueError):
        random_schedule(8, 0, random.Random(0))
    # refused before the first draw, so a huge count costs nothing: no rng is needed
    with pytest.raises(ValueError, match=f"stage count {MAX_STAGES + 1} exceeds the limit"):
        random_schedule(8, MAX_STAGES + 1, None)


def test_widest_keygen_key_fits_the_key_file_bound():
    # keygen draws i <= 20 and 0 < t < period, and a period is below side**4,
    # the order of the matrix group mod side
    stages = (("ROWFIRST", 20, MAX_SIDE**4),) * MAX_STAGES
    sched = ScrambleSchedule(MAX_SIDE, stages, tuple(range(MAX_STAGES)))
    text = serialize_key(sched, list(range(8)))
    assert len(text.encode()) <= MAX_KEY_BYTES
    assert parse_key(text) == (sched, list(range(8)))
    with pytest.raises(ValueError, match=f"stage count {MAX_STAGES + 1} exceeds the limit"):
        ScrambleSchedule(MAX_SIDE, stages + stages[:1], tuple(range(MAX_STAGES + 1)))


def test_zero_padded_key_integers_parse():
    sched, _ = parse_key("N 008\nM 1\nSTAGE CLASSIC 1 -0\nORDER 0\nPLANES 0\n")
    assert sched.side == 8 and sched.stages == (("CLASSIC", 1, 0),)
