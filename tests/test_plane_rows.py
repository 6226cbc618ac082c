"""The P4 row path: planes stay packed rows from file to scatter and back.

The command-line runs are judged against ``tests/oracles.py``, which embeds
and extracts one 0/1 plane at a time and frames payloads bit by bit, and
never against the package itself.
"""

import random

import numpy as np
import pytest

from catstego.bitplane import embed, extract, pack_payload, rows_to_bits, split_rows, unpack_payload
from catstego.cli import main
from catstego.netpbm import read_binary, read_rows, write_binary, write_rows
from catstego.schedule import ScrambleSchedule, serialize_key
from oracles import (composite_matrix, reference_embed, reference_extract, reference_pack,
                     reference_unpack)


def _pgm(img):
    n = img.shape[0]
    return f"P5\n{n} {n}\n255\n".encode() + img.tobytes()


def _pbm(rows):
    n = rows.shape[0]
    return f"P4\n{n} {n}\n".encode() + rows.tobytes()


def _padding(n):
    """The padding bits of a row's last byte, all set; 0 when rows fill whole bytes."""
    return np.uint8((1 << (-n % 8)) - 1)


# -- padding bits --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 13, 127])
def test_padding_bits_are_ignored_on_read_and_zero_on_write(n, tmp_path, capsys):
    rng = np.random.default_rng(n)
    (tmp_path / "cover.pgm").write_bytes(_pgm(rng.integers(0, 256, (n, n), dtype=np.uint8)))
    planes = [0, 7, 3]
    sched = ScrambleSchedule(n, (("ROWFIRST", 3, 5), ("CLASSIC", 1, 2)), (1, 0))
    (tmp_path / "key.txt").write_text(serialize_key(sched, planes))
    msgs = [rng.integers(0, 2, (n, n), dtype=np.uint8) for _ in planes]
    for k, msg in enumerate(msgs):
        rows = np.packbits(msg, axis=1)
        (tmp_path / f"zero{k}.pbm").write_bytes(_pbm(rows))
        rows[:, -1] |= _padding(n)
        (tmp_path / f"ones{k}.pbm").write_bytes(_pbm(rows))
        assert (tmp_path / f"ones{k}.pbm").read_bytes() != (tmp_path / f"zero{k}.pbm").read_bytes()
        assert np.array_equal(read_binary(tmp_path / f"ones{k}.pbm"), msg)
    for name in ("zero", "ones"):
        assert main(["embed", str(tmp_path / "cover.pgm"), str(tmp_path / "key.txt"),
                     str(tmp_path / f"{name}.pgm"),
                     *(str(tmp_path / f"{name}{k}.pbm") for k in range(3))]) == 0
    assert (tmp_path / "ones.pgm").read_bytes() == (tmp_path / "zero.pgm").read_bytes()
    assert main(["extract", str(tmp_path / "ones.pgm"), str(tmp_path / "key.txt"),
                 *(str(tmp_path / f"out{k}.pbm") for k in range(3))]) == 0
    for k, msg in enumerate(msgs):
        write_binary(tmp_path / f"ref{k}.pbm", msg)
        assert (tmp_path / f"out{k}.pbm").read_bytes() == (tmp_path / f"ref{k}.pbm").read_bytes()
    assert capsys.readouterr().err == ""


# -- the command line against the referee --------------------------------------


def _planes(rng: random.Random, n: int) -> list[int]:
    """All 8 planes for every fourth side; otherwise a set that includes plane 7."""
    if n % 4 == 0:
        planes = list(range(8))
    else:
        planes = [7, *rng.sample(range(7), rng.randint(0, 6))]
    rng.shuffle(planes)
    return planes


def _schedule(rng: random.Random, n: int) -> ScrambleSchedule:
    m = rng.randint(1, 4)
    stages = tuple((rng.choice(["CLASSIC", "ROWFIRST", "COLFIRST"]), rng.randint(1, 20),
                    rng.randint(0, 10**6)) for _ in range(m))
    order = list(range(m))
    rng.shuffle(order)
    return ScrambleSchedule(n, stages, tuple(order))


@pytest.mark.parametrize("n", [*range(1, 41), 127, 128, 129])
def test_cli_matches_the_referee(n, tmp_path, capsys):
    rng = random.Random(n)
    nrng = np.random.default_rng(n)
    planes = _planes(rng, n)
    sched = _schedule(rng, n)
    w = tmp_path
    (w / "key.txt").write_text(serialize_key(sched, planes))
    cover = nrng.integers(0, 256, (n, n), dtype=np.uint8)
    (w / "cover.pgm").write_bytes(_pgm(cover))
    msgs = [nrng.integers(0, 2, (n, n), dtype=np.uint8) for _ in planes]
    for k, msg in enumerate(msgs):
        (w / f"m{k}.pbm").write_bytes(_pbm(np.packbits(msg, axis=1)))
    key, count = str(w / "key.txt"), range(len(planes))

    status = main(["embed", str(w / "cover.pgm"), key, str(w / "stego.pgm"),
                   *(str(w / f"m{k}.pbm") for k in count)])
    if n > 1 and composite_matrix(sched, n) == (1, 0, 0, 1):  # it would embed in the clear
        assert status == 1
        assert f"{key}: key composes to the identity" in capsys.readouterr().err
        assert not (w / "stego.pgm").exists()
        return
    assert status == 0
    stego = reference_embed(cover, msgs, sched, planes)
    assert (w / "stego.pgm").read_bytes() == _pgm(stego)
    assert main(["extract", str(w / "stego.pgm"), key, *(str(w / f"o{k}.pbm") for k in count)]) == 0
    for k, want in enumerate(reference_extract(stego, sched, planes)):
        assert np.array_equal(want, msgs[k])
        assert (w / f"o{k}.pbm").read_bytes() == _pbm(np.packbits(want, axis=1))

    capsys.readouterr()
    capacity = max(0, (n * n - 32) // 8)
    payloads = [rng.randbytes((0, min(1, capacity), capacity)[k % 3]) for k in count]
    for k, data in enumerate(payloads):
        (w / f"p{k}.bin").write_bytes(data)
    status = main(["embed", "--pack", str(w / "cover.pgm"), key, str(w / "packed.pgm"),
                   *(str(w / f"p{k}.bin") for k in count)])
    if n * n < 32:  # not even the 4-byte header fits
        assert status == 1
        assert "exceeds capacity" in capsys.readouterr().err
        return
    assert status == 0
    packed = reference_embed(cover, [reference_pack(d, n) for d in payloads], sched, planes)
    assert (w / "packed.pgm").read_bytes() == _pgm(packed)
    assert main(["extract", "--unpack", str(w / "packed.pgm"), key,
                 *(str(w / f"u{k}.bin") for k in count)]) == 0
    for k, plane in enumerate(reference_extract(packed, sched, planes)):
        assert (w / f"u{k}.bin").read_bytes() == reference_unpack(plane) == payloads[k]


# -- the row functions ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 13, 128, 129, 300])
def test_split_rows_packs_every_plane_with_zero_padding(n):
    img = np.random.default_rng(n).integers(0, 256, (n, n), dtype=np.uint8)
    rows = split_rows(img, range(8))
    for p in range(8):
        bits = (img >> p) & 1
        assert np.array_equal(rows[p], np.packbits(bits, axis=1))
        assert np.array_equal(rows_to_bits(rows[p]), bits)
    assert np.array_equal(split_rows(img, [5, 0])[0], rows[5])


@pytest.mark.parametrize("n, size", [(6, 0), (7, 2), (13, 0), (13, 17), (16, 28), (129, 2076)])
def test_payload_rows_match_the_referee(n, size):
    data = random.Random(size).randbytes(size)
    rows = pack_payload(data, n)
    assert rows.shape == (n, (n + 7) // 8)
    assert np.array_equal(rows, np.packbits(reference_pack(data, n), axis=1))
    assert unpack_payload(rows) == data
    rows[:, -1] |= _padding(n)  # padding bits are not payload bits
    assert unpack_payload(rows) == data


def test_payload_rows_keep_the_payload_messages():
    with pytest.raises(ValueError, match="^payload of 3 bytes exceeds capacity: "
                                         "a 7x7 plane holds at most 2 bytes$"):
        pack_payload(b"abc", 7)
    with pytest.raises(ValueError, match="^payload of 0 bytes exceeds capacity: a 5x5 plane "
                                         "has 25 of the 32 bits the length header needs$"):
        pack_payload(b"", 5)
    with pytest.raises(ValueError, match="^plane too small to hold a payload header$"):
        unpack_payload(np.zeros((5, 1), np.uint8))
    with pytest.raises(ValueError, match="^corrupt payload header: 4294967295 bytes claimed, "
                                         "plane holds at most 2$"):
        unpack_payload(np.full((7, 1), 255, np.uint8))


def test_row_path_round_trip_and_messages(tmp_path):
    n = 13
    rng = np.random.default_rng(3)
    cover = rng.integers(0, 256, (n, n), dtype=np.uint8)
    sched = ScrambleSchedule(n, (("COLFIRST", 2, 9),), (0,))
    msgs = [np.packbits(rng.integers(0, 2, (n, n), dtype=np.uint8), axis=1) for _ in range(2)]
    stego = embed(cover, iter(msgs), sched, [6, 1])
    assert np.array_equal(stego, reference_embed(cover, [rows_to_bits(m) for m in msgs], sched, [6, 1]))
    for got, want in zip(extract(stego, sched, [6, 1]), msgs):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="^message side 12 does not match cover side 13$"):
        embed(cover, [np.zeros((12, 2), np.uint8)], sched, [0])
    with pytest.raises(ValueError, match="^1 messages but 2 planes; counts must match$"):
        embed(cover, msgs[:1], sched, [0, 1])
    (tmp_path / "m.pbm").write_bytes(_pbm(msgs[0]))
    assert np.array_equal(read_rows(tmp_path / "m.pbm"), msgs[0])


# -- malformed rows --------------------------------------------------------------

# Each is refused wherever rows come in from a caller. A 0/1 image of side
# n >= 2 has n columns where P4 rows have ceil(n/8), so it is refused too.
MALFORMED = {
    "0/1 image 16": np.zeros((16, 16), np.uint8),
    "0/1 image 4": np.eye(4, dtype=np.uint8),
    "a byte short": np.zeros((16, 1), np.uint8),
    "a byte long": np.zeros((16, 3), np.uint8),
    "1-D": np.zeros(2, np.uint8),
    "3-D": np.zeros((16, 2, 1), np.uint8),
    "int64": np.zeros((16, 2), np.int64),
    "bool": np.zeros((16, 2), bool),
    "no rows": np.zeros((0, 0), np.uint8),
}
REFUSED = "^P4 rows must be uint8 of shape \\(n, ceil\\(n/8\\)\\) with n >= 1, got "


@pytest.fixture(params=MALFORMED.values(), ids=MALFORMED.keys())
def malformed(request):
    return request.param


def test_embed_refuses_malformed_rows(malformed):
    sched = ScrambleSchedule(16, (("CLASSIC", 1, 3),), (0,))
    with pytest.raises(ValueError, match=REFUSED):
        embed(np.zeros((16, 16), np.uint8), [malformed], sched, [0])


def test_unpack_payload_refuses_malformed_rows(malformed):
    with pytest.raises(ValueError, match=REFUSED):
        unpack_payload(malformed)


def test_rows_to_bits_refuses_malformed_rows(malformed):
    with pytest.raises(ValueError, match=REFUSED):
        rows_to_bits(malformed)


def test_write_rows_refuses_malformed_rows(malformed, tmp_path):
    with pytest.raises(ValueError, match=REFUSED):
        write_rows(tmp_path / "m.pbm", malformed)
    assert list(tmp_path.iterdir()) == []


def test_the_message_names_what_came_in():
    with pytest.raises(ValueError, match=REFUSED + "int64 of shape \\(16, 2\\)$"):
        rows_to_bits(np.zeros((16, 2), np.int64))


def test_side_1_image_is_read_as_rows():
    # the one side where a 0/1 image has the shape of P4 rows: a 1 sets only
    # a padding bit, so it reads as 0; the pixel is the byte's top bit
    assert rows_to_bits(np.ones((1, 1), np.uint8)).tolist() == [[0]]
    assert rows_to_bits(np.packbits(np.ones((1, 1), np.uint8), axis=1)).tolist() == [[1]]
