"""Command-line surface tying scrambling, embedding, and metrics together.

Exit status is 0 on success, 1 on any bad value, numbers included, or I/O
failure (with a diagnostic on stderr) and 2 only on a malformed command
line. Output files are written atomically, so a failed run never leaves a
partial stego image, key, or report behind.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import bitplane, metrics, netpbm, schedule
from .arnold import _decimal, period


def _read_at_most(path, limit: int, what: str) -> bytes:
    """The bytes of ``path`` from one bounded read; a file over ``limit`` bytes is refused."""
    with open(path, "rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise ValueError(f"{path}: {what} exceeds {limit} bytes")
    return data


def _load_key(path) -> tuple[schedule.ScrambleSchedule, list[int]]:
    text = _read_at_most(path, schedule.MAX_KEY_BYTES, "key file").decode("utf-8")
    return schedule.parse_key(text)


def cmd_embed(args) -> int:
    cover = netpbm.read_gray(args.cover)
    sched, planes = _load_key(args.key)
    if len(args.messages) != len(planes):
        raise ValueError(f"{len(args.messages)} message files but key lists {len(planes)} planes")
    # each message stays P4 rows, 1/8 byte per pixel, from its file to the fold
    n = cover.shape[0]
    limit, what = bitplane.capacity_bytes(n), f"payload for one {n}x{n} plane"
    if args.pack and n * n < 32:  # not even the length header fits: refuse as b"" is, reading no file
        bitplane.pack_payload(b"", n)
    messages = (bitplane.pack_payload(_read_at_most(path, limit, what), n) if args.pack
                else netpbm.read_rows(path) for path in args.messages)
    stego = bitplane.embed(cover, messages, sched, planes)
    netpbm.write_gray(args.out, stego)
    print(metrics.compare(cover, stego).csv(), end="")
    return 0


def cmd_extract(args) -> int:
    stego = netpbm.read_gray(args.stego)
    sched, planes = _load_key(args.key)
    if len(args.outputs) != len(planes):
        raise ValueError(f"{len(args.outputs)} output files but key lists {len(planes)} planes")
    for path, rows in zip(args.outputs, bitplane.extract(stego, sched, planes)):
        if args.unpack:
            netpbm.atomic_write_bytes(path, bitplane.unpack_payload(rows))
        else:
            netpbm.write_rows(path, rows)
    return 0


def cmd_scramble(args) -> int:
    """``scramble`` and ``unscramble``: ``args.command`` picks the direction."""
    kind, img = netpbm.read_auto(args.image)
    sched, _ = _load_key(args.key)
    # looked up per call, not stored on the parser: the parser outlives any
    # rebinding of these names (tracing wraps them)
    out = getattr(schedule, f"schedule_{args.command}")(img, sched)
    (netpbm.write_gray if kind == "gray" else netpbm.write_binary)(args.out, out)
    return 0


def cmd_period(args) -> int:
    family = args.family.upper() if args.family.isascii() else args.family  # Unicode maps U+017F to S
    print(period(family, _decimal(args.i, "parameter i"), _decimal(args.side, "side")))
    return 0


def cmd_planes(args) -> int:
    img = netpbm.read_gray(args.image)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for p, rows in enumerate(bitplane.split_rows(img, range(8))):
        netpbm.write_rows(outdir / f"plane_{p}.pbm", rows)
    return 0


def cmd_metrics(args) -> int:
    a = netpbm.read_gray(args.a)
    b = netpbm.read_gray(args.b)
    print(metrics.compare(a, b).csv(), end="")
    return 0


def cmd_keygen(args) -> int:
    planes = schedule.check_planes([_decimal(p, "plane index") for p in args.planes])
    rng = random.Random(None if args.seed is None else _decimal(args.seed, "seed"))
    side, stages = _decimal(args.side, "side"), _decimal(args.stages, "stage count")
    sched = schedule.random_schedule(side, stages, rng)
    text = schedule.serialize_key(sched, planes)
    netpbm.atomic_write_bytes(args.out, text.encode("ascii"), mode=0o600)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catstego",
        description="Keyed cat-map scrambling and bit-plane LSB steganography "
        "for square grayscale images (binary Netpbm P5/P4 files).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="scramble messages and embed them into a cover")
    p.add_argument("cover", help="cover image (P5 .pgm)")
    p.add_argument("key", help="key file")
    p.add_argument("out", help="stego image to write (P5 .pgm)")
    p.add_argument("messages", nargs="+", help="secret images (P4 .pbm), one per key plane")
    p.add_argument("--pack", action="store_true",
                   help="treat each message file as raw bytes and pack it into a plane")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover messages from a stego image")
    p.add_argument("stego", help="stego image (P5 .pgm)")
    p.add_argument("key", help="key file")
    p.add_argument("outputs", nargs="+", help="output paths, one per key plane")
    p.add_argument("--unpack", action="store_true",
                   help="unpack each recovered plane back into raw bytes")
    p.set_defaults(func=cmd_extract)

    for name, what in (
        ("scramble", "scramble a whole image with a key's schedule"),
        ("unscramble", "invert a key's schedule on a whole image"),
    ):
        p = sub.add_parser(name, help=what)
        p.add_argument("image", help="P5 or P4 image")
        p.add_argument("key", help="key file")
        p.add_argument("out", help="output image (same format as input)")
        p.set_defaults(func=cmd_scramble)

    p = sub.add_parser("period", help="print the period of one transform")
    p.add_argument("family", help="classic, rowfirst, or colfirst")
    p.add_argument("side", help="grid side N")
    p.add_argument("--i", default="1", help="family parameter i (default 1)")
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("planes", help="slice an image into its 8 bit planes")
    p.add_argument("image", help="grayscale image (P5 .pgm)")
    p.add_argument("outdir", help="directory for plane_0.pbm .. plane_7.pbm")
    p.set_defaults(func=cmd_planes)

    p = sub.add_parser("metrics", help="print mse/psnr/bit-preservation between two images")
    p.add_argument("a", help="first image (P5 .pgm)")
    p.add_argument("b", help="second image (P5 .pgm)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("keygen", help="write a random valid key file")
    p.add_argument("side", help="image side N the key is for")
    p.add_argument("stages", help="number of scramble stages m")
    p.add_argument("out", help="key file to write")
    p.add_argument("--seed", default=None,
                   help="RNG seed; same seed reproduces the same key")
    p.add_argument("--planes", nargs="+", default=("0", "1", "2"),
                   help="target bit planes (default: 0 1 2)")
    p.set_defaults(func=cmd_keygen)

    return parser


# built once per process; every call only parses with it, so nothing may
# change it after this line and its defaults must be immutable
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
