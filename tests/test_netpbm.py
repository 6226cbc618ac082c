import os
import re
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from catstego.arnold import MAX_SIDE
from catstego.cli import main
from catstego.netpbm import (
    NetpbmError,
    atomic_write_bytes,
    read_auto,
    read_binary,
    read_gray,
    write_binary,
    write_gray,
)
from catstego.schedule import ScrambleSchedule, schedule_scramble, serialize_key


def _gray(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (n, n), dtype=np.uint8)


def _bits(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2, (n, n), dtype=np.uint8)


def test_gray_round_trip_128(tmp_path):
    img = _gray(128, seed=1)
    path = tmp_path / "img.pgm"
    write_gray(path, img)
    assert np.array_equal(read_gray(path), img)


def test_gray_round_trip_of_views(tmp_path):
    base = _gray(64, seed=2)
    path = tmp_path / "img.pgm"
    for view in (base.T, base[::2, 1::2], base[::-3, ::-3]):
        write_gray(path, view)
        assert np.array_equal(read_gray(path), view)


def test_read_gray_result_is_writable(tmp_path):
    path = tmp_path / "img.pgm"
    write_gray(path, _gray(8))
    img = read_gray(path)
    img[0, 0] ^= 1
    assert img.flags.writeable


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_gray_round_trip_property(n, seed):
    img = _gray(n, seed)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "img.pgm")
        write_gray(path, img)
        assert np.array_equal(read_gray(path), img)


@pytest.mark.parametrize("n", [1, 5, 8, 12, 17, 64])
def test_binary_round_trip_padding_sides(n, tmp_path):
    img = _bits(n, seed=n)
    path = tmp_path / "img.pbm"
    write_binary(path, img)
    assert np.array_equal(read_binary(path), img)


def test_p4_row_packing_layout(tmp_path):
    # 12 wide: each row packs to 2 bytes, MSB first, zero padded
    img = np.zeros((12, 12), dtype=np.uint8)
    img[0] = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1]
    path = tmp_path / "img.pbm"
    write_binary(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P4\n12 12\n")
    raster = data[len(b"P4\n12 12\n"):]
    assert len(raster) == 12 * 2
    assert raster[0] == 0b10110010
    assert raster[1] == 0b11110000


def test_p5_header_layout(tmp_path):
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    path = tmp_path / "img.pgm"
    write_gray(path, img)
    assert path.read_bytes() == b"P5\n4 4\n255\n" + img.tobytes()


def test_reader_accepts_comments(tmp_path):
    img = _gray(4, seed=2)
    path = tmp_path / "img.pgm"
    body = b"P5 # magic\n# a comment line\n4 # width\n 4\n# another\n255\n" + img.tobytes()
    path.write_bytes(body)
    assert np.array_equal(read_gray(path), img)
    # a comment ends at CR or LF and may follow a token directly
    path.write_bytes(b"P5#x\n#x\r4#x 5\n4\n#\n255\n" + img.tobytes())
    assert np.array_equal(read_gray(path), img)


def test_writer_never_emits_comments(tmp_path):
    path = tmp_path / "img.pgm"
    write_gray(path, _gray(8, seed=3))
    header = path.read_bytes().split(b"255\n")[0]
    assert b"#" not in header
    path2 = tmp_path / "img.pbm"
    write_binary(path2, _bits(8, seed=3))
    assert b"#" not in path2.read_bytes()[:16]


def test_maxval_other_than_255_rejected(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(NetpbmError, match="maxval"):
        read_gray(path)
    path.write_bytes(b"P5\n2 2\n" + b"7" * 4300 + b"\n" + bytes(4))
    with pytest.raises(NetpbmError) as err:
        read_gray(path)
    assert str(err.value) == f"{path}: maxval must be 255 (8-bit), got {'7' * 32}"


def test_non_square_rejected_on_read(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n100 128\n255\n" + bytes(100 * 128))
    with pytest.raises(NetpbmError, match="square"):
        read_gray(path)
    # a huge parsed integer is echoed as at most 32 characters
    path.write_bytes(b"P5 " + b"1" * 4300 + b" 4 255\n" + bytes(16))
    with pytest.raises(NetpbmError) as err:
        read_gray(path)
    assert str(err.value) == f"{path}: image must be square, got {'1' * 32}x4"


def test_non_square_rejected_on_write(tmp_path):
    with pytest.raises(ValueError):
        write_gray(tmp_path / "img.pgm", np.zeros((2, 3), dtype=np.uint8))


def test_truncated_raster_rejected(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(NetpbmError, match="truncated"):
        read_gray(path)
    path2 = tmp_path / "img.pbm"
    path2.write_bytes(b"P4\n16 16\n" + bytes(3))
    with pytest.raises(NetpbmError, match="truncated"):
        read_binary(path2)
    # a raster larger than the first read still reports the exact count
    path.write_bytes(b"P5\n300 300\n255\n" + bytes(70_000))
    with pytest.raises(NetpbmError) as err:
        read_gray(path)
    assert str(err.value) == f"{path}: truncated raster, expected 90000 bytes, got 70000"
    # a pipe has no size to check first: its raster is read until the pipe ends
    with pytest.raises(NetpbmError) as err:
        _from_pipe([b"P5\n300 300\n255\n", bytes(70_000)], read_gray)
    assert str(err.value).endswith(": truncated raster, expected 90000 bytes, got 70000")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(NetpbmError, match="magic"):
        read_gray(path)
    with pytest.raises(NetpbmError, match="magic"):
        read_binary(path)
    with pytest.raises(NetpbmError, match="magic"):
        read_auto(path)


def test_zero_dimension_rejected(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n0 0\n255\n")
    with pytest.raises(NetpbmError, match="positive"):
        read_gray(path)
    path.write_bytes(b"P5 -4 -4 255\n" + bytes(16))
    with pytest.raises(NetpbmError, match="image dimensions must be positive, got -4x-4"):
        read_gray(path)
    path.write_bytes(b"P4 0 " + b"1" * 4300 + b"\n")
    with pytest.raises(NetpbmError) as err:
        read_binary(path)
    assert str(err.value) == f"{path}: image dimensions must be positive, got 0x{'1' * 32}"


def test_side_above_limit_rejected_before_the_raster(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(f"P5\n{MAX_SIDE + 1} {MAX_SIDE + 1}\n255\n".encode())
    with pytest.raises(NetpbmError, match="exceeds the limit"):
        read_gray(path)
    path.write_bytes(f"P4\n{MAX_SIDE + 1} {MAX_SIDE + 1}\n".encode())
    with pytest.raises(NetpbmError, match="exceeds the limit"):
        read_binary(path)
    side = b"1" * 4300
    path.write_bytes(b"P5 " + side + b" " + side + b" 255\n")
    with pytest.raises(NetpbmError) as err:
        read_gray(path)
    assert str(err.value) == f"{path}: side {'1' * 32} exceeds the limit of {MAX_SIDE}"


def test_oversized_header_refused_without_reading_the_raster(tmp_path):
    path = tmp_path / "big.pgm"
    with open(path, "wb") as fh:
        fh.write(f"P5\n{MAX_SIDE + 1} {MAX_SIDE + 1}\n255\n".encode())
        fh.truncate(fh.tell() + (64 << 20))  # sparse 64 MiB "raster"

    def refused():
        with pytest.raises(NetpbmError, match="exceeds the limit"):
            read_gray(path)

    assert traced_peak(refused) < 1 << 20


def test_long_header_comment_parses(tmp_path):
    img = _gray(5, seed=6)
    path = tmp_path / "img.pgm"
    for length in (10_000, 60_000):
        path.write_bytes(b"P5\n#" + b"x" * length + b"\n5 5\n255\n" + img.tobytes())
        assert np.array_equal(read_gray(path), img)


def test_read_auto_dispatch(tmp_path):
    g = _gray(6, seed=4)
    b = _bits(6, seed=5)
    write_gray(tmp_path / "g.pgm", g)
    write_binary(tmp_path / "b.pbm", b)
    kind, img = read_auto(tmp_path / "g.pgm")
    assert kind == "gray" and np.array_equal(img, g)
    kind, img = read_auto(tmp_path / "b.pbm")
    assert kind == "binary" and np.array_equal(img, b)


def test_failed_write_leaves_no_file(tmp_path):
    target = tmp_path / "out.pgm"
    with pytest.raises(ValueError):
        write_gray(target, np.zeros((2, 3), dtype=np.uint8))
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "f.bin"
    atomic_write_bytes(target, b"one")
    atomic_write_bytes(target, b"two")
    assert target.read_bytes() == b"two"
    assert list(tmp_path.iterdir()) == [target]


# -- the bounded header --------------------------------------------------------


def _refusal(path):
    """Time one refused read, then measure its traced peak in a second read."""

    def refused():
        with pytest.raises(NetpbmError) as err:
            read_gray(path)
        return str(err.value)

    start = time.perf_counter()
    msg = refused()
    elapsed = time.perf_counter() - start
    return msg, elapsed, traced_peak(refused)


@pytest.mark.parametrize("header", [
    b"P5\n#" + b"x" * (4 << 20) + b"\n4 4\n255\n",
    b"P5\n" + b"1" * (4 << 20) + b" 4\n255\n",
], ids=["comment", "width"])
def test_huge_header_refused_quickly_and_briefly(tmp_path, header):
    path = tmp_path / "img.pgm"
    path.write_bytes(header + bytes(16))
    msg, elapsed, peak = _refusal(path)
    assert msg == f"{path}: header exceeds 65536 bytes"
    assert elapsed < 0.1
    assert peak < 1 << 20


@pytest.mark.parametrize("header, message", [
    (b"P5" + b"#" * 65_534, "header exceeds"),
    (b"P5" + b" " * 65_534, "header exceeds"),
    # each "#x" is a comment to its LF, so "x" is never read as the maxval
    (b"P5 4 4" + b"#x\n" * 21_842, "truncated header"),
    (b"P5" + b"#\r" * 30_000, "truncated header"),
], ids=["hashes", "spaces", "hash-x-lines", "hash-cr"])
def test_pathological_headers_refused_in_linear_time(tmp_path, header, message):
    path = tmp_path / "img.pgm"
    path.write_bytes(header)
    msg, elapsed, _ = _refusal(path)
    assert message in msg
    assert elapsed < 0.5


def test_long_width_token_echo_is_truncated(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n" + b"x" * 10_000 + b" 4\n255\n" + bytes(16))
    with pytest.raises(NetpbmError) as err:
        read_gray(path)
    assert str(err.value) == f"{path}: width is not an integer: {b'x' * 32!r}"


def _from_pipe(parts, read):
    """``read`` a /dev/fd path whose writer sends ``parts`` in separate writes."""
    r, w = os.pipe()

    def writer():
        with os.fdopen(w, "wb", buffering=0) as fh:
            for part in parts:
                fh.write(part)
                time.sleep(0.02)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        thread.join()
        os.close(r)


def test_header_split_across_pipe_writes():
    img = _gray(9, seed=9)
    parts = [b"P5\n# a comm", b"ent\n9", b" 9\n25", b"5\n" + img.tobytes()]
    assert np.array_equal(_from_pipe(parts, read_gray), img)


def test_read_auto_opens_a_pipe_once():
    img = _gray(9, seed=12)
    kind, got = _from_pipe([b"P5\n9 9\n255\n", img.tobytes()], read_auto)
    assert kind == "gray" and np.array_equal(got, img)
    bits = _bits(9, seed=12)
    kind, got = _from_pipe([b"P4\n9 9\n", np.packbits(bits, axis=1).tobytes()], read_auto)
    assert kind == "binary" and np.array_equal(got, bits)


def test_cli_scramble_reads_a_pipe(tmp_path):
    img = _gray(9, seed=13)
    sched = ScrambleSchedule(9, (("ROWFIRST", 2, 5),), (0,))
    key = tmp_path / "key.txt"
    key.write_text(serialize_key(sched, [0]))
    out = tmp_path / "s.pgm"
    parts = [b"P5\n9 9\n255\n", img.tobytes()]
    assert _from_pipe(parts, lambda path: main(["scramble", path, str(key), str(out)])) == 0
    assert np.array_equal(read_gray(out), schedule_scramble(img, sched))


def test_raster_larger_than_the_first_read(tmp_path):
    img = _gray(300, seed=10)
    path = tmp_path / "img.pgm"
    write_gray(path, img)
    assert np.array_equal(read_gray(path), img)
    bits = _bits(900, seed=10)
    write_binary(tmp_path / "img.pbm", bits)
    assert np.array_equal(read_binary(tmp_path / "img.pbm"), bits)


_ws = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_comment = st.builds(
    lambda body, end: b"#" + body + end,
    st.binary(max_size=20).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b"")),
    st.sampled_from([b"\n", b"\r"]),
)
_separator = st.lists(st.one_of(_ws, _comment), min_size=1, max_size=4).map(b"".join)


@given(st.integers(1, 12), st.lists(_separator, min_size=3, max_size=3), _ws,
       st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_any_whitespace_and_comments_between_tokens(n, seps, last, seed):
    img = _gray(n, seed)
    header = b"P5" + b"".join(s + t for s, t in zip(seps, [b"%d" % n, b"%d" % n, b"255"]))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "img.pgm")
        with open(path, "wb") as fh:
            fh.write(header + last + img.tobytes())
        assert np.array_equal(read_gray(path), img)


@pytest.mark.parametrize("token", [b"+4", b"0_4", b"4_", b"\xd9\xa4", b"0x4", b"4.0", b"--4"],
                         ids=["plus", "underscore", "trailing-underscore", "arabic-indic", "hex",
                              "float", "double-minus"])
def test_header_integers_are_ascii_decimal(tmp_path, token):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5 " + token + b" 4 255\n" + bytes(16))
    with pytest.raises(NetpbmError, match=f"{re.escape(str(path))}: width is not an integer"):
        read_gray(path)


def test_zero_padded_header_integers_parse(tmp_path):
    path = tmp_path / "img.pgm"
    img = _gray(4, seed=11)
    path.write_bytes(b"P5 004 4 0255\n" + img.tobytes())
    assert np.array_equal(read_gray(path), img)


def test_writes_do_not_copy_the_raster(tmp_path):
    # the header and the raster go to the file one after the other, so a
    # P5 write allocates nothing image-sized and a P4 write only its packed rows
    n = 1024
    gray, bits = _gray(n, seed=8), _bits(n, seed=9)
    assert traced_peak(write_gray, tmp_path / "img.pgm", gray) < 0.01 * n * n
    assert traced_peak(write_binary, tmp_path / "img.pbm", bits) < 0.135 * n * n
    assert (tmp_path / "img.pgm").read_bytes() == f"P5\n{n} {n}\n255\n".encode() + gray.tobytes()
    packed = np.packbits(bits, axis=1).tobytes()
    assert (tmp_path / "img.pbm").read_bytes() == f"P4\n{n} {n}\n".encode() + packed
