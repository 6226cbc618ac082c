import os
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

import catstego.bitplane
import catstego.netpbm
import catstego.schedule
from catstego.bitplane import capacity_bytes
from catstego.cli import main
from catstego.netpbm import read_binary, read_gray, write_binary, write_gray
from catstego.schedule import (
    MAX_KEY_BYTES,
    MAX_STAGES,
    ScrambleSchedule,
    parse_key,
    schedule_scramble,
    serialize_key,
)
from catstego.arnold import MAX_SIDE
from catstego.synth import natural_binary, natural_gray
from conftest import traced_peak


@pytest.fixture
def workspace(tmp_path):
    cover = natural_gray(32, seed=21)
    write_gray(tmp_path / "cover.pgm", cover)
    sched = ScrambleSchedule(
        32,
        (("ROWFIRST", 2, 5),
         ("CLASSIC", 1, 3)),
        (1, 0),
    )
    (tmp_path / "key.txt").write_text(serialize_key(sched, [0, 1]))
    for k in range(2):
        write_binary(tmp_path / f"msg{k}.pbm", natural_binary(32, seed=30 + k))
    return tmp_path


def test_embed_extract_round_trip(workspace, capsys):
    ws = workspace
    rc = main(["embed", str(ws / "cover.pgm"), str(ws / "key.txt"),
               str(ws / "stego.pgm"), str(ws / "msg0.pbm"), str(ws / "msg1.pbm")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("mse,")
    assert "bit_preservation," in out
    psnr_db = float(out.splitlines()[1].split(",")[1])
    assert 35.0 < psnr_db < 55.0  # 2-plane embedding sits near 44 dB
    rc = main(["extract", str(ws / "stego.pgm"), str(ws / "key.txt"),
               str(ws / "out0.pbm"), str(ws / "out1.pbm")])
    assert rc == 0
    for k in range(2):
        assert np.array_equal(
            read_binary(ws / f"out{k}.pbm"), read_binary(ws / f"msg{k}.pbm")
        )


def test_embed_side_mismatch_fails_cleanly(workspace, capsys):
    ws = workspace
    write_binary(ws / "small.pbm", natural_binary(16, seed=1))
    rc = main(["embed", str(ws / "cover.pgm"), str(ws / "key.txt"),
               str(ws / "stego.pgm"), str(ws / "small.pbm"), str(ws / "msg1.pbm")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (ws / "stego.pgm").exists()


def test_embed_count_mismatch_fails(workspace, capsys):
    ws = workspace
    rc = main(["embed", str(ws / "cover.pgm"), str(ws / "key.txt"),
               str(ws / "stego.pgm"), str(ws / "msg0.pbm")])
    assert rc == 1
    assert "planes" in capsys.readouterr().err


def test_bad_key_fails_with_line_number(workspace, capsys):
    ws = workspace
    (ws / "bad.txt").write_text("N 32\nM 1\nSTAGE WIBBLE 1 2\nORDER 0\nPLANES 0\n")
    rc = main(["extract", str(ws / "cover.pgm"), str(ws / "bad.txt"), str(ws / "o.pbm")])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err
    # bytes that are not UTF-8 get a line number too, counted in LF lines
    (ws / "bad.txt").write_bytes(b"N 32\r\nM 1\n# caf\xe9\nSTAGE CLASSIC 1 2\n")
    rc = main(["extract", str(ws / "cover.pgm"), str(ws / "bad.txt"), str(ws / "o.pbm")])
    assert rc == 1
    assert capsys.readouterr().err == "error: line 3: not UTF-8 text (invalid continuation byte)\n"
    (ws / "bad.txt").write_bytes(b"\xff")
    assert main(["extract", str(ws / "cover.pgm"), str(ws / "bad.txt"), str(ws / "o.pbm")]) == 1
    assert capsys.readouterr().err == "error: line 1: not UTF-8 text (invalid start byte)\n"


def test_extract_raw_gives_scrambled_planes(workspace):
    ws = workspace
    main(["embed", str(ws / "cover.pgm"), str(ws / "key.txt"),
          str(ws / "stego.pgm"), str(ws / "msg0.pbm"), str(ws / "msg1.pbm")])
    rc = main(["planes", str(ws / "stego.pgm"), str(ws / "raw")])
    assert rc == 0
    stego = read_gray(ws / "stego.pgm")
    sched, planes = parse_key((ws / "key.txt").read_text())
    for k, p in enumerate(planes):
        raw = read_binary(ws / "raw" / f"plane_{p}.pbm")
        assert np.array_equal(raw, (stego >> p) & 1)
        msg = read_binary(ws / f"msg{k}.pbm")
        assert np.array_equal(raw, schedule_scramble(msg, sched))
        assert not np.array_equal(raw, msg)


@pytest.mark.parametrize("again", ["o.pbm", "./o.pbm", "here/o.pbm"])
@pytest.mark.parametrize("mode", [[], ["--unpack"]], ids=["rows", "unpack"])
def test_extract_refuses_a_repeated_output(workspace, monkeypatch, capsys, again, mode):
    # the second plane would overwrite the first: refused before any file is written
    monkeypatch.chdir(workspace)
    (workspace / "here").symlink_to(".")  # the same directory under another name
    assert main(["embed", "cover.pgm", "key.txt", "stego.pgm", "msg0.pbm", "msg1.pbm"]) == 0
    capsys.readouterr()
    assert main(["extract", *mode, "stego.pgm", "key.txt", "o.pbm", again]) == 1
    assert capsys.readouterr().err == (
        f"error: output path {again} is given twice; each key plane needs its own file\n")
    assert not (workspace / "o.pbm").exists()


def test_pack_unpack_payload_flow(tmp_path):
    cover = natural_gray(64, seed=40)
    write_gray(tmp_path / "cover.pgm", cover)
    sched = ScrambleSchedule(64, (("COLFIRST", 3, 7),), (0,))
    (tmp_path / "key.txt").write_text(serialize_key(sched, [0]))
    secret = bytes(range(200))
    (tmp_path / "secret.bin").write_bytes(secret)
    rc = main(["embed", "--pack", str(tmp_path / "cover.pgm"), str(tmp_path / "key.txt"),
               str(tmp_path / "stego.pgm"), str(tmp_path / "secret.bin")])
    assert rc == 0
    rc = main(["extract", "--unpack", str(tmp_path / "stego.pgm"),
               str(tmp_path / "key.txt"), str(tmp_path / "recovered.bin")])
    assert rc == 0
    assert (tmp_path / "recovered.bin").read_bytes() == secret


def test_raw_packed_plane_shows_the_payload_weight(tmp_path):
    # the key hides where the bits are, not how many there are: a permutation
    # keeps the number of ones, and the padding is zeros
    write_gray(tmp_path / "cover.pgm", natural_gray(64, seed=41))
    sched = ScrambleSchedule(64, (("ROWFIRST", 4, 9),), (0,))
    (tmp_path / "key.txt").write_text(serialize_key(sched, [0]))
    secret = b"attack at dawn" * 9
    (tmp_path / "secret.bin").write_bytes(secret)
    assert main(["embed", "--pack", str(tmp_path / "cover.pgm"), str(tmp_path / "key.txt"),
                 str(tmp_path / "stego.pgm"), str(tmp_path / "secret.bin")]) == 0
    assert main(["planes", str(tmp_path / "stego.pgm"), str(tmp_path / "raw")]) == 0
    framed = len(secret).to_bytes(4, "big") + secret
    ones = int(read_binary(tmp_path / "raw" / "plane_0.pbm").sum())
    assert ones == sum(bin(b).count("1") for b in framed)


def test_scramble_unscramble_files(workspace):
    ws = workspace
    for name in ("cover.pgm", "msg0.pbm"):
        rc = main(["scramble", str(ws / name), str(ws / "key.txt"), str(ws / f"s_{name}")])
        assert rc == 0
        rc = main(["unscramble", str(ws / f"s_{name}"), str(ws / "key.txt"),
                   str(ws / f"u_{name}")])
        assert rc == 0
    assert np.array_equal(read_gray(ws / "u_cover.pgm"), read_gray(ws / "cover.pgm"))
    assert not np.array_equal(read_gray(ws / "s_cover.pgm"), read_gray(ws / "cover.pgm"))
    assert np.array_equal(read_binary(ws / "u_msg0.pbm"), read_binary(ws / "msg0.pbm"))


# -- memory per command ------------------------------------------------------------

LARGE = 1024
COMMANDS = {
    "embed": "embed cover.pgm key.txt stego.pgm msg0.pbm msg1.pbm msg2.pbm",
    "embed --pack": "embed --pack cover.pgm key.txt packed.pgm a.bin b.bin c.bin",
    "extract": "extract stego.pgm key.txt out0.pbm out1.pbm out2.pbm",
    "scramble": "scramble cover.pgm key.txt scrambled.pgm",
    "unscramble": "unscramble scrambled.pgm key.txt back.pgm",
    "metrics": "metrics cover.pgm stego.pgm",
    "planes": "planes stego.pgm planes.d",
}


@pytest.fixture(scope="module")
def large(tmp_path_factory):
    """A 1024^2 cover, three messages and payloads, a 4-stage key, and every
    command run once, so each traced run finds its inputs."""
    ws = tmp_path_factory.mktemp("large")
    write_gray(ws / "cover.pgm", natural_gray(LARGE, seed=70))
    for k, name in enumerate("abc"):
        write_binary(ws / f"msg{k}.pbm", natural_binary(LARGE, seed=71 + k))
        (ws / f"{name}.bin").write_bytes(np.random.default_rng(k).bytes(LARGE * LARGE // 8 - 4))
    assert main(["keygen", str(LARGE), "4", str(ws / "key.txt"), "--seed", "72"]) == 0
    for command in COMMANDS:
        assert main(_argv(ws, command)) == 0
    return ws


def _argv(ws, command):
    """COMMANDS[command] with each file name (a word with a dot) under ws."""
    return [str(ws / w) if "." in w else w for w in COMMANDS[command].split()]


@pytest.mark.parametrize("command, bound", [
    ("embed", 6), ("embed --pack", 6), ("extract", 5), ("scramble", 5), ("unscramble", 5),
    ("metrics", 4), ("planes", 3),
])
def test_command_peak_memory_per_pixel(large, command, bound, capsys):
    argv = _argv(large, command)

    def run():
        assert main(argv) == 0

    assert traced_peak(run) <= bound * LARGE * LARGE
    assert capsys.readouterr().err == ""


def test_large_commands_round_trip(large):
    for k in range(3):
        assert np.array_equal(read_binary(large / f"out{k}.pbm"), read_binary(large / f"msg{k}.pbm"))
    assert np.array_equal(read_gray(large / "back.pgm"), read_gray(large / "cover.pgm"))


def test_usage_error_exits_2(capsys):
    # argparse refuses a malformed command line itself, with status 2
    with pytest.raises(SystemExit) as exc:
        main(["period", "classic"])
    assert exc.value.code == 2
    assert "the following arguments are required: side" in capsys.readouterr().err


# each integer argument, in a command line that is fine apart from it
INTEGER_ARGS = {
    "period side": (["period", "classic", "{}"], "side"),
    "period --i": (["period", "rowfirst", "16", "--i", "{}"], "parameter i"),
    "keygen side": (["keygen", "{}", "2", "key.txt", "--seed", "1"], "side"),
    "keygen stages": (["keygen", "16", "{}", "key.txt", "--seed", "1"], "stage count"),
    "keygen --seed": (["keygen", "16", "2", "key.txt", "--seed", "{}"], "seed"),
    "keygen --planes": (["keygen", "16", "2", "key.txt", "--planes", "0", "{}"], "plane index"),
}


@pytest.mark.parametrize("token", ["abc", "1_28", "+128", " 128 ", "\u0661\u0662\u0668", "1" * 100_000],
                         ids=["abc", "underscore", "plus", "spaces", "arabic-indic", "100000-digits"])
@pytest.mark.parametrize("arg", INTEGER_ARGS)
def test_bad_number_is_a_validation_error(arg, token, tmp_path, monkeypatch, capsys):
    # a number on the command line is read as a key file's line reads it
    monkeypatch.chdir(tmp_path)
    argv, what = INTEGER_ARGS[arg]
    assert main([a.format(token) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {what} is not an integer: {token[:32]!r}\n"
    assert len(err.encode()) < 120
    assert not (tmp_path / "key.txt").exists()


def test_keygen_refuses_bad_planes_before_the_periods(tmp_path, monkeypatch, capsys):
    # at this side the periods alone take seconds, so the planes are read first
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(["keygen", "131071", "1000", "key.txt", "--planes", "9", "--seed", "1"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: plane index must be in [0, 7], got 9\n"
    assert not (tmp_path / "key.txt").exists()


def test_unknown_family_is_a_validation_error(capsys):
    # the tag is checked as a key file's STAGE tag is, with the same bounded echo
    assert main(["period", "spiral", "5"]) == 1
    assert capsys.readouterr().err == "error: unknown family tag 'SPIRAL'\n"
    assert main(["period", "x" * 100_000, "5"]) == 1
    assert len(capsys.readouterr().err.encode()) < 120
    # only ASCII case is folded: str.upper would turn these into CLASSIC and ROWFIRST
    for tag in ("claſſic", "rowﬁrst"):
        assert main(["period", tag, "5"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unknown family tag {tag!r}\n"
        assert len(err.encode()) < 120


def test_period_command(capsys):
    assert main(["period", "classic", "3"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["period", "rowfirst", "3", "--i", "3"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["period", "colfirst", "3", "--i", "1"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    main(["period", "colfirst", "5", "--i", "1"])
    col = capsys.readouterr().out.strip()
    main(["period", "classic", "5"])
    assert col == capsys.readouterr().out.strip()
    for tag in ("Classic", "CLASSIC"):
        assert main(["period", tag, "5"]) == 0
        assert capsys.readouterr().out == "10\n"


@pytest.mark.parametrize("argv", [
    ["period", "classic", "1000000007"],
    ["period", "rowfirst", str(MAX_SIDE + 1), "--i", "20"],
    ["period", "colfirst", str(MAX_SIDE + 1), "--i", "1"],
    ["keygen", str(MAX_SIDE + 1), "2", "key.txt", "--seed", "1"],
])
def test_side_above_limit_fails_fast(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert f"exceeds the limit of {MAX_SIDE}" in capsys.readouterr().err
    assert not (tmp_path / "key.txt").exists()


def test_planes_command(tmp_path):
    img = natural_gray(16, seed=52)
    write_gray(tmp_path / "img.pgm", img)
    rc = main(["planes", str(tmp_path / "img.pgm"), str(tmp_path / "planes")])
    assert rc == 0
    total = np.zeros_like(img, dtype=int)
    for p in range(8):
        plane = read_binary(tmp_path / "planes" / f"plane_{p}.pbm")
        assert np.array_equal(plane, (img >> p) & 1)
        total += plane.astype(int) << p
    assert np.array_equal(total, img)


def test_metrics_command(tmp_path, capsys):
    a = natural_gray(16, seed=60)
    b = a.copy()
    b[0, 0] ^= 1
    write_gray(tmp_path / "a.pgm", a)
    write_gray(tmp_path / "b.pgm", b)
    assert main(["metrics", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"mse,{1 / 256:.6g}"
    assert main(["metrics", str(tmp_path / "a.pgm"), str(tmp_path / "a.pgm")]) == 0
    assert "psnr,inf" in capsys.readouterr().out


def test_keygen_deterministic_and_valid(tmp_path):
    k1, k2 = tmp_path / "k1.txt", tmp_path / "k2.txt"
    assert main(["keygen", "64", "3", str(k1), "--seed", "9"]) == 0
    assert main(["keygen", "64", "3", str(k2), "--seed", "9"]) == 0
    assert k1.read_text() == k2.read_text()
    sched, planes = parse_key(k1.read_text())
    assert sched.side == 64
    assert len(sched.stages) == 3
    assert planes == [0, 1, 2]


def test_keygen_custom_planes(tmp_path):
    key = tmp_path / "k.txt"
    assert main(["keygen", "16", "1", str(key), "--seed", "1",
                 "--planes", "4", "6"]) == 0
    _, planes = parse_key(key.read_text())
    assert planes == [4, 6]


def test_keygen_rejects_zero_stages(tmp_path, capsys):
    rc = main(["keygen", "16", "0", str(tmp_path / "k.txt"), "--seed", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_keygen_stage_count_limit(tmp_path, capsys):
    key = tmp_path / "k.txt"
    assert main(["keygen", "16", str(MAX_STAGES + 1), str(key), "--seed", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: stage count {MAX_STAGES + 1} exceeds the limit of {MAX_STAGES}\n"
    )
    assert not key.exists()
    assert main(["keygen", "16", str(MAX_STAGES), str(key), "--seed", "1"]) == 0
    assert len(parse_key(key.read_text())[0].stages) == MAX_STAGES


def _padded_key(size):
    """A valid 32-side key file of exactly ``size`` bytes: a long last comment."""
    text = serialize_key(ScrambleSchedule(32, (("CLASSIC", 1, 3),), (0,)), [0]) + "#"
    return (text + "x" * (size - len(text) - 1) + "\n").encode()


@pytest.mark.parametrize("size, status", [(MAX_KEY_BYTES, 0), (MAX_KEY_BYTES + 1, 1)])
def test_key_file_size_limit(workspace, capsys, size, status):
    key = workspace / "long.txt"
    key.write_bytes(_padded_key(size))
    argv = ["scramble", str(workspace / "cover.pgm"), str(key), str(workspace / "out.pgm")]
    assert main(argv) == status
    err = "" if status == 0 else f"error: {key}: key file exceeds {MAX_KEY_BYTES} bytes\n"
    assert capsys.readouterr().err == err
    assert (workspace / "out.pgm").exists() == (status == 0)


def test_oversized_key_refused_without_reading_it(workspace, capsys):
    key = workspace / "big.txt"
    with open(key, "wb") as fh:
        fh.write(b"N 32\n")
        fh.truncate(128 << 20)  # sparse 128 MiB NUL tail

    def refused():
        argv = ["scramble", str(workspace / "cover.pgm"), str(key), str(workspace / "out.pgm")]
        assert main(argv) == 1

    assert traced_peak(refused) < 1 << 20
    assert capsys.readouterr().err == f"error: {key}: key file exceeds {MAX_KEY_BYTES} bytes\n"


def test_key_from_a_pipe_is_read_with_a_bound(workspace):
    # the child stops reading after MAX_KEY_BYTES + 1 bytes of a 1 MiB stream
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, "-m", "catstego.cli", "scramble",
            str(workspace / "cover.pgm"), "/dev/stdin", str(workspace / "out.pgm")]
    for key, status, err in (
        (_padded_key(MAX_KEY_BYTES), 0, ""),
        (_padded_key(1 << 20), 1, f"error: /dev/stdin: key file exceeds {MAX_KEY_BYTES} bytes\n"),
    ):
        done = subprocess.run(argv, input=key, capture_output=True, env=env, timeout=60)
        assert (done.returncode, done.stderr.decode()) == (status, err)


@pytest.mark.parametrize("side, extra, status", [
    (128, 0, 0), (128, 1, 1),
    # below side 6 not even the header fits: an empty and a 1-byte payload get one message
    (5, 0, 1), (5, 1, 1),
    (6, 0, 0), (6, 1, 1),
], ids=["0-0", "1-1", "side5-0-1", "side5-1-1", "side6-0-0", "side6-1-1"])
def test_pack_payload_size_limit(tmp_path, capsys, side, extra, status):
    # a 128x128 plane holds 2044 bytes; one more is refused, and no size is guessed
    write_gray(tmp_path / "cover.pgm", natural_gray(side, seed=42))
    (tmp_path / "key.txt").write_text(serialize_key(ScrambleSchedule(side, (("CLASSIC", 1, 5),), (0,)), [0]))
    secret = bytes(range(256)) * 8
    (tmp_path / "secret.bin").write_bytes(secret[: capacity_bytes(side) + extra])
    argv = ["embed", "--pack", str(tmp_path / "cover.pgm"), str(tmp_path / "key.txt"),
            str(tmp_path / "stego.pgm"), str(tmp_path / "secret.bin")]
    assert main(argv) == status
    if status:
        assert capsys.readouterr().err == (
            f"error: payload of 0 bytes exceeds capacity: a {side}x{side} plane "
            f"has {side * side} of the 32 bits the length header needs\n" if side < 6 else
            f"error: {tmp_path / 'secret.bin'}: payload for one {side}x{side} plane "
            f"exceeds {capacity_bytes(side)} bytes\n"
        )
        return
    assert main(["extract", "--unpack", str(tmp_path / "stego.pgm"),
                 str(tmp_path / "key.txt"), str(tmp_path / "out.bin")]) == 0
    assert (tmp_path / "out.bin").read_bytes() == secret[: capacity_bytes(side)]


def test_oversized_payload_refused_without_reading_it(tmp_path, capsys):
    write_gray(tmp_path / "cover.pgm", natural_gray(128, seed=43))
    (tmp_path / "key.txt").write_text(serialize_key(ScrambleSchedule(128, (("CLASSIC", 1, 5),), (0,)), [0]))
    payload = tmp_path / "secret.bin"
    with open(payload, "wb") as fh:
        fh.truncate(256 << 20)  # sparse 256 MiB

    def refused():
        assert main(["embed", "--pack", str(tmp_path / "cover.pgm"), str(tmp_path / "key.txt"),
                     str(tmp_path / "stego.pgm"), str(payload)]) == 1

    assert traced_peak(refused) < 1 << 20
    assert capsys.readouterr().err == (
        f"error: {payload}: payload for one 128x128 plane exceeds 2044 bytes\n"
    )
    assert not (tmp_path / "stego.pgm").exists()


def test_missing_file_fails_cleanly(tmp_path, capsys):
    rc = main(["metrics", str(tmp_path / "nope.pgm"), str(tmp_path / "nope.pgm")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("magic, argv", [
    ("P5", "scramble h.img key.txt out.img"),
    ("P5", "metrics h.img cover.pgm"),
    ("P5", "embed h.img key.txt out.img msg0.pbm msg1.pbm"),
    ("P5", "planes h.img planes.d"),
    ("P4", "scramble h.img key.txt out.img"),
    ("P4", "embed cover.pgm key.txt out.img h.img msg1.pbm"),
], ids=["P5-scramble", "P5-metrics", "P5-embed", "P5-planes", "P4-scramble", "P4-embed"])
def test_header_only_file_refused_before_the_raster_is_allocated(workspace, magic, argv, capsys):
    # the header promises a 131072² raster; the file holds none of it
    ws = workspace
    (ws / "h.img").write_bytes(f"{magic}\n{MAX_SIDE} {MAX_SIDE}\n".encode() + b"255\n" * (magic == "P5"))
    statuses = []
    peak = traced_peak(lambda: statuses.append(main([str(ws / w) if "." in w else w
                                                     for w in argv.split()])))
    size = MAX_SIDE * (MAX_SIDE if magic == "P5" else MAX_SIDE // 8)
    assert statuses == [1]
    assert capsys.readouterr().err == (
        f"error: {ws / 'h.img'}: truncated raster, expected {size} bytes, got 0\n")
    assert peak < 1 << 20
    assert not (ws / "out.img").exists() and not (ws / "planes.d").exists()


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 16.0 GiB for an array"), "Unable to allocate 16.0 GiB for an array"),
    (MemoryError(), "MemoryError"),
])
def test_memory_error_is_reported(workspace, monkeypatch, capsys, exc, message):
    def refuse(path):
        raise exc

    monkeypatch.setattr(catstego.netpbm, "read_gray", refuse)
    ws = workspace
    assert main(["metrics", str(ws / "cover.pgm"), str(ws / "cover.pgm")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _parts(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(".tmp."))


@pytest.mark.parametrize("command", ["scramble", "keygen"])
def test_write_errors_name_the_output(workspace, command, monkeypatch, capsys):
    ws = workspace
    monkeypatch.chdir(ws)
    (ws / "adir").mkdir()
    for out, reason in (("nodir/x.out", "No such file or directory"), ("adir", "Is a directory")):
        argv = (["scramble", "cover.pgm", "key.txt", out] if command == "scramble"
                else ["keygen", "32", "2", out, "--seed", "1"])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"{reason}: {out!r}\n"), err
        assert ".tmp." not in err
        assert _parts(ws) == [] and list((ws / "adir").iterdir()) == []


def test_embed_refuses_an_identity_key(workspace, capsys):
    ws = workspace
    cover, msgs = str(ws / "cover.pgm"), [str(ws / "msg0.pbm"), str(ws / "msg1.pbm")]
    # t = 0, and stages whose powers compose to I: CLASSIC has period 24 at side 32
    for stages in ("STAGE CLASSIC 1 0\n", "STAGE CLASSIC 1 24\n",
                   "STAGE CLASSIC 1 5\nSTAGE COLFIRST 1 19\n"):
        m = stages.count("\n")
        (ws / "weak.txt").write_text(f"N 32\nM {m}\n{stages}ORDER {' '.join(map(str, range(m)))}\n"
                                     "PLANES 0 1\n")
        for extra in ([], ["--pack"]):
            assert main(["embed", *extra, cover, str(ws / "weak.txt"), str(ws / "stego.pgm"), *msgs]) == 1
            assert capsys.readouterr() == ("", f"error: {ws / 'weak.txt'}: key composes to the identity, "
                                               "so it would embed the messages unscrambled\n")
            assert not (ws / "stego.pgm").exists()
    # the key still scrambles, unscrambles and extracts, and side 1 still embeds
    for command in ("scramble", "unscramble"):
        assert main([command, cover, str(ws / "weak.txt"), str(ws / f"{command}.pgm")]) == 0
        assert (ws / f"{command}.pgm").read_bytes() == (ws / "cover.pgm").read_bytes()
    assert main(["extract", cover, str(ws / "weak.txt"), str(ws / "o0.pbm"), str(ws / "o1.pbm")]) == 0
    write_gray(ws / "one.pgm", np.array([[7]], dtype=np.uint8))
    write_binary(ws / "one.pbm", np.array([[1]], dtype=np.uint8))
    (ws / "one.txt").write_text("N 1\nM 1\nSTAGE CLASSIC 1 0\nORDER 0\nPLANES 3\n")
    assert main(["embed", str(ws / "one.pgm"), str(ws / "one.txt"), str(ws / "s1.pgm"),
                 str(ws / "one.pbm")]) == 0
    assert read_gray(ws / "s1.pgm")[0, 0] == 15


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    yield
    os.umask(old)


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_outputs_get_umask_default_permissions(workspace, umask_027):
    ws = workspace
    key, cover = str(ws / "key.txt"), str(ws / "cover.pgm")
    msgs = [str(ws / "msg0.pbm"), str(ws / "msg1.pbm")]
    (ws / "secret.bin").write_bytes(b"payload")
    secrets = [str(ws / "secret.bin")] * 2
    runs = {
        "stego.pgm": ["embed", cover, key, str(ws / "stego.pgm"), *msgs],
        "out0.pbm": ["extract", str(ws / "stego.pgm"), key, str(ws / "out0.pbm"),
                     str(ws / "out1.pbm")],
        "packed.pgm": ["embed", "--pack", cover, key, str(ws / "packed.pgm"), *secrets],
        "payload0.bin": ["extract", "--unpack", str(ws / "packed.pgm"), key,
                         str(ws / "payload0.bin"), str(ws / "payload1.bin")],
        "scrambled.pgm": ["scramble", cover, key, str(ws / "scrambled.pgm")],
        "planes/plane_0.pbm": ["planes", cover, str(ws / "planes")],
    }
    for name, argv in runs.items():
        assert main(argv) == 0
        assert _mode(ws / name) == 0o640, name


def test_key_file_stays_private(tmp_path, umask_027):
    key = tmp_path / "k.txt"
    assert main(["keygen", "16", "2", str(key), "--seed", "3"]) == 0
    assert _mode(key) == 0o600


def test_scramble_direction_resolved_at_call_time(workspace, monkeypatch):
    # the parser is built at import; rebinding the schedule functions after
    # that (as a tracer does) must still reach the scramble commands
    calls = []
    for name in ("schedule_scramble", "schedule_unscramble"):
        orig = getattr(catstego.schedule, name)

        def counted(*args, _name=name, _orig=orig):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(catstego.schedule, name, counted)
    ws = workspace
    assert main(["scramble", str(ws / "cover.pgm"), str(ws / "key.txt"),
                 str(ws / "s.pgm")]) == 0
    assert calls == ["schedule_scramble"]
    assert main(["unscramble", str(ws / "s.pgm"), str(ws / "key.txt"),
                 str(ws / "u.pgm")]) == 0
    assert calls == ["schedule_scramble", "schedule_unscramble"]


def test_commands_run_through_the_traced_bitplane_names(workspace, monkeypatch):
    # a tracer rebinds these names after import; the commands must look them
    # up at call time, or the traced layers read 0
    calls = []
    for name in ("embed", "extract", "pack_payload", "unpack_payload"):
        orig = getattr(catstego.bitplane, name)

        def counted(*args, _name=name, _orig=orig):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(catstego.bitplane, name, counted)
    ws = workspace
    sched, _ = parse_key((ws / "key.txt").read_text())
    (ws / "one.txt").write_text(serialize_key(sched, [3]))
    (ws / "secret.bin").write_bytes(b"payload")
    key, cover = str(ws / "one.txt"), str(ws / "cover.pgm")
    runs = [
        (["embed", cover, key, str(ws / "stego.pgm"), str(ws / "msg0.pbm")], ["embed"]),
        (["embed", "--pack", cover, key, str(ws / "packed.pgm"), str(ws / "secret.bin")],
         ["embed", "pack_payload"]),
        (["extract", str(ws / "stego.pgm"), key, str(ws / "o.pbm")], ["extract"]),
        (["extract", "--unpack", str(ws / "packed.pgm"), key, str(ws / "o.bin")],
         ["extract", "unpack_payload"]),
    ]
    for argv, want in runs:
        calls.clear()
        assert main(argv) == 0
        assert calls == want, argv[:2]
    assert (ws / "o.pbm").read_bytes() == (ws / "msg0.pbm").read_bytes()
    assert (ws / "o.bin").read_bytes() == b"payload"


def test_each_command_scatters_once(workspace, monkeypatch):
    # every stage and plane of a key shares one permutation, so each command
    # moves the pixels through exactly one scatter or gather
    calls = []
    for name in ("scramble", "unscramble"):
        orig = getattr(catstego.schedule, name)

        def counted(*args, _name=name, _orig=orig):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(catstego.schedule, name, counted)
    ws = workspace
    key, msgs = str(ws / "key.txt"), [str(ws / "msg0.pbm"), str(ws / "msg1.pbm")]
    runs = [
        (["embed", str(ws / "cover.pgm"), key, str(ws / "stego.pgm"), *msgs], "scramble"),
        (["extract", str(ws / "stego.pgm"), key, str(ws / "o0.pbm"), str(ws / "o1.pbm")],
         "unscramble"),
        (["scramble", str(ws / "cover.pgm"), key, str(ws / "s.pgm")], "scramble"),
        (["unscramble", str(ws / "s.pgm"), key, str(ws / "u.pgm")], "unscramble"),
    ]
    for argv, direction in runs:
        calls.clear()
        assert main(argv) == 0
        assert calls == [direction], argv[0]


def test_calls_leak_no_state_into_later_calls(workspace):
    ws = workspace
    key = str(ws / "key.txt")
    (ws / "secret.bin").write_bytes(b"payload")
    main(["embed", "--pack", str(ws / "cover.pgm"), key, str(ws / "packed.pgm"),
          str(ws / "secret.bin"), str(ws / "secret.bin")])
    main(["embed", str(ws / "cover.pgm"), key,
          str(ws / "stego.pgm"), str(ws / "msg0.pbm"), str(ws / "msg1.pbm")])
    outs = [str(ws / "out0.pbm"), str(ws / "out1.pbm")]
    assert main(["extract", "--unpack", str(ws / "packed.pgm"), key, *outs]) == 0
    assert main(["extract", str(ws / "stego.pgm"), key, *outs]) == 0
    for k in range(2):
        assert np.array_equal(read_binary(outs[k]), read_binary(ws / f"msg{k}.pbm"))
    key = ws / "k.txt"
    assert main(["keygen", "16", "1", str(key), "--seed", "1", "--planes", "3", "5"]) == 0
    assert main(["keygen", "16", "1", str(key), "--seed", "1"]) == 0
    assert key.read_text().splitlines()[-1] == "PLANES 0 1 2"


def test_module_entry_point():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "catstego.cli", "period", "classic", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "10\n"


def test_small_images_start_no_threads(tmp_path):
    # below the band threshold nothing imports a pool or starts a thread, so
    # a fresh process pays nothing for the bands of large grids; the key and
    # the metrics report are named tuples, so nothing imports dataclasses
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = """if True:
        import sys, threading
        from catstego.cli import main
        from catstego.netpbm import write_binary, write_gray
        from catstego.synth import natural_binary, natural_gray

        write_gray("cover.pgm", natural_gray(128, seed=1))
        write_binary("msg.pbm", natural_binary(128, seed=2))
        steps = (["keygen", "128", "4", "key.txt", "--seed", "3", "--planes", "0"],
                 ["embed", "cover.pgm", "key.txt", "stego.pgm", "msg.pbm"],
                 ["extract", "stego.pgm", "key.txt", "out.pbm"])
        assert all(main(argv) == 0 for argv in steps)
        assert "concurrent.futures" not in sys.modules
        assert "queue" not in sys.modules
        assert "dataclasses" not in sys.modules
        assert threading.active_count() == 1
    """
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out.pbm").read_bytes() == (tmp_path / "msg.pbm").read_bytes()
