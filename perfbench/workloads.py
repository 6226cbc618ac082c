"""The three benchmark workloads: their inputs, CLI calls and output checks.

A workload writes its inputs from the seed (``generate``, run before any
timing), then yields the CLI calls of cycle ``i`` (``ops``). Every call
comes with a check that judges its output against ``oracle``, never against
catstego itself. Cycle ``i`` draws its parameters from ``(seed, i)`` alone,
so a run that completes more cycles does not change what earlier cycles did.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import numpy as np

import oracle


class CheckFailed(Exception):
    """An output that does not match the reference."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rng(seed: int, tag) -> random.Random:
    return random.Random(f"{seed}:{tag}")


def _synth_seed(seed: int, j: int) -> int:
    return seed * 1000 + j


def _read(path: Path) -> np.ndarray:
    return oracle.read_netpbm(path.read_bytes())


def _same_bytes(path: Path, expected: bytes) -> None:
    if path.read_bytes() != expected:
        raise CheckFailed(f"{path.name} differs from its input")


def _same_image(path: Path, expected: np.ndarray) -> None:
    if not np.array_equal(_read(path), expected):
        raise CheckFailed(f"{path.name} differs from the reference image")


def check_embed(stdout: str, path: Path, cover: np.ndarray, planes, expected: np.ndarray) -> None:
    """The metrics CSV parses with mse > 0, only ``planes`` changed, and the
    image is ``expected`` (the reference embed)."""
    try:
        report = {k: float(v) for k, v in (ln.split(",") for ln in stdout.splitlines())}
    except ValueError:
        raise CheckFailed(f"embed printed no metrics CSV: {stdout[:80]!r}") from None
    if set(report) != {"mse", "psnr", "bit_preservation"} or not report["mse"] > 0:
        raise CheckFailed(f"embed metrics CSV is wrong: {report}")
    stego = _read(path)
    mask = np.uint8(sum(1 << p for p in planes))
    if stego.shape != cover.shape or ((stego ^ cover) & ~mask).any():
        raise CheckFailed("embed changed bits outside the key's PLANES")
    if not np.array_equal(stego, expected):
        raise CheckFailed("embedded planes differ from the composite-matrix reference")


class Keys:
    """Checks keygen output and keeps the key counters the report shows."""

    def __init__(self):
        self.count = 0
        self.identity = 0
        self._first = hashlib.sha256()

    def check(self, path: Path, side: int, stages: int, planes, rerun) -> oracle.Key:
        """The key parses, matches the request, and no stage is M^t = I.
        ``rerun`` (or None) repeats the keygen call into a path it returns."""
        text = path.read_bytes()
        try:
            key = oracle.parse_key(text.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise CheckFailed(f"keygen wrote an unparsable key: {exc}") from None
        if (key.side, len(key.stages), key.planes) != (side, stages, tuple(planes)):
            raise CheckFailed(f"key {key.side}/{len(key.stages)}/{key.planes} does not match the request")
        for family, i, t in key.stages:
            if oracle.is_identity(oracle.mat_pow(oracle.family_matrix(family, i), t, side), side):
                raise CheckFailed(f"stage {family} {i} {t} is the identity mod {side}")
        if rerun is not None and rerun().read_bytes() != text:
            raise CheckFailed("keygen with the same seed wrote different bytes")
        if self.count < 16:
            self._first.update(text)
        self.count += 1
        self.identity += oracle.is_identity(key.composite(), side)
        return key

    def summary(self) -> dict:
        return {"count": self.count, "identity": self.identity,
                "first16_sha256": self._first.hexdigest()}


class Workload:
    name = ""
    why = ""

    def __init__(self, work: Path, seed: int, main):
        self.work = work
        self.seed = seed
        self.main = main  # catstego.cli.main, unwrapped
        self.keys = Keys()
        self.key = None  # the key the current cycle's keygen wrote

    @classmethod
    def generate(cls, work: Path, seed: int) -> dict[str, str]:
        """Write the inputs; return file name -> SHA-256 of each."""
        return {}

    def ops(self, i: int):
        """Yield (command, argv, check) for cycle i; check(stdout) raises
        CheckFailed. Later calls may rely on what earlier checks stored."""
        raise NotImplementedError

    def keygen(self, side: int, stages: int, planes, key_seed: int, recheck: bool):
        """A keygen call; with ``recheck``, its check runs it again and
        compares the bytes."""
        argv = ["keygen", str(side), str(stages), str(self.work / "key.txt"),
                "--seed", str(key_seed), "--planes", *map(str, planes)]

        def rerun() -> Path:
            again = self.work / "key-again.txt"
            self.main([*argv[:3], str(again), *argv[4:]])
            return again

        def check(stdout):
            self.key = self.keys.check(self.work / "key.txt", side, stages, planes,
                                       rerun if recheck else None)

        return "keygen", argv, check


class LargeRoundtrip(Workload):
    name = "large-roundtrip"
    why = ("2048x2048 cover, 4-stage key, planes 0 1 2: embed, extract, scramble, "
           "unscramble; the cat-map scatter dominates")
    side = 2048

    @classmethod
    def generate(cls, work, seed):
        from catstego import synth

        rng = _rng(seed, "key")
        while True:
            stages = []
            for _ in range(4):
                family, i = rng.choice(oracle.FAMILIES), rng.randint(1, 20)
                p = oracle.matrix_period(oracle.family_matrix(family, i), cls.side)
                stages.append((family, 1 if family == "CLASSIC" else i, rng.randint(1, p - 1)))
            order = list(range(4))
            rng.shuffle(order)
            key = oracle.Key(cls.side, tuple(stages), tuple(order), (0, 1, 2))
            if not oracle.is_identity(key.composite(), cls.side):
                break
        cover = synth.natural_gray(cls.side, _synth_seed(seed, 0))
        secrets = [synth.natural_binary(cls.side, _synth_seed(seed, 1 + k)) for k in range(3)]
        (work / "key.txt").write_text(key.text())
        (work / "cover.pgm").write_bytes(oracle.pgm_bytes(cover))
        for k, s in enumerate(secrets):
            (work / f"secret{k}.pbm").write_bytes(oracle.pbm_bytes(s))
        digests = {p.name: sha256(p) for p in sorted(work.iterdir())}
        # references for the checks, computed here so that set-up does not pay for them
        stego = oracle.embed(cover, secrets, key)
        (work / "expect-stego.pgm").write_bytes(oracle.pgm_bytes(stego))
        (work / "expect-scrambled.pgm").write_bytes(
            oracle.pgm_bytes(oracle.scatter(stego, key.composite())))
        return digests

    def __init__(self, work, seed, main):
        super().__init__(work, seed, main)
        self.key = oracle.parse_key((work / "key.txt").read_text())
        self.cover = _read(work / "cover.pgm")
        self.secrets = [(work / f"secret{k}.pbm").read_bytes() for k in range(3)]
        self.stego = _read(work / "expect-stego.pgm")
        self.scrambled = _read(work / "expect-scrambled.pgm")

    def ops(self, i):
        w = self.work
        key, stego, mixed, back = (str(w / n) for n in ("key.txt", "stego.pgm", "mixed.pgm", "back.pgm"))
        outs = [w / f"out{k}.pbm" for k in range(3)]
        yield ("embed", ["embed", str(w / "cover.pgm"), key, stego,
                         *(str(w / f"secret{k}.pbm") for k in range(3))],
               lambda out: check_embed(out, w / "stego.pgm", self.cover, self.key.planes, self.stego))

        def check_extract(stdout):
            for out, secret in zip(outs, self.secrets):
                _same_bytes(out, secret)

        yield "extract", ["extract", stego, key, *map(str, outs)], check_extract
        yield ("scramble", ["scramble", stego, key, mixed],
               lambda _: _same_image(w / "mixed.pgm", self.scrambled))
        yield ("unscramble", ["unscramble", mixed, key, back],
               lambda _: _same_image(w / "back.pgm", self.stego))


class SmallKeyedBatch(Workload):
    name = "small-keyed-batch"
    why = ("128x128 images, a fresh 1-4 stage key per cycle: keygen, embed, extract, "
           "half packed; per-call fixed costs dominate")
    side = 128
    pool = 12  # cover, secret and payload files each cycle draws from

    @classmethod
    def generate(cls, work, seed):
        from catstego import synth

        rng = _rng(seed, "payloads")
        cap = (cls.side * cls.side - 32) // 8
        for j in range(cls.pool):
            (work / f"cover{j}.pgm").write_bytes(
                oracle.pgm_bytes(synth.natural_gray(cls.side, _synth_seed(seed, j))))
            (work / f"secret{j}.pbm").write_bytes(
                oracle.pbm_bytes(synth.natural_binary(cls.side, _synth_seed(seed, 100 + j))))
            (work / f"payload{j}.bin").write_bytes(rng.randbytes(rng.randint(1, cap)))
        return {p.name: sha256(p) for p in sorted(work.iterdir())}

    def __init__(self, work, seed, main):
        super().__init__(work, seed, main)
        self.covers = [_read(work / f"cover{j}.pgm") for j in range(self.pool)]

    def ops(self, i):
        w, rng = self.work, _rng(self.seed, i)
        stages, k = rng.randint(1, 4), rng.randint(1, 3)
        planes = rng.sample(range(8), k)
        key_seed = rng.randrange(2**31)
        c = rng.randrange(self.pool)
        picks = rng.sample(range(self.pool), k)
        pack = rng.random() < 0.5
        if pack:
            inputs = [w / f"payload{j}.bin" for j in picks]
            outs = [w / f"out{n}.bin" for n in range(k)]
        else:
            inputs = [w / f"secret{j}.pbm" for j in picks]
            outs = [w / f"out{n}.pbm" for n in range(k)]
        key, stego = str(w / "key.txt"), str(w / "stego.pgm")
        yield self.keygen(self.side, stages, planes, key_seed, recheck=i % 4 == 0)

        def check(stdout):
            if pack:
                messages = [oracle.pack_payload(p.read_bytes(), self.side) for p in inputs]
            else:
                messages = [_read(p) for p in inputs]
            expected = oracle.embed(self.covers[c], messages, self.key)
            check_embed(stdout, w / "stego.pgm", self.covers[c], planes, expected)

        flag = ["--pack"] if pack else []
        yield "embed", ["embed", *flag, str(w / f"cover{c}.pgm"), key, stego, *map(str, inputs)], check

        def check_extract(stdout):
            for out, src in zip(outs, inputs):
                _same_bytes(out, src.read_bytes())

        flag = ["--unpack"] if pack else []
        yield "extract", ["extract", *flag, stego, key, *map(str, outs)], check_extract


def _primes_above(n: int, count: int) -> list[int]:
    found = []
    while len(found) < count:
        n += 1
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            found.append(n)
    return found


class KeygenPrimeSides(Workload):
    name = "keygen-prime-sides"
    why = ("keygen alone, 4-stage keys for each of the 16 primes above 1e5 per cycle, "
           "no images; the O(period) loop in arnold.period dominates")
    primes = _primes_above(100_000, 16)

    def ops(self, i):
        # every cycle covers every prime once, so cycles differ only in the
        # keys drawn, not in which sides they were drawn for
        rng = _rng(self.seed, i)
        for n, side in enumerate(rng.sample(self.primes, len(self.primes))):
            yield self.keygen(side, 4, [0, 1, 2], rng.randrange(2**31), recheck=n == 0)


WORKLOADS = {w.name: w for w in (LargeRoundtrip, SmallKeyedBatch, KeygenPrimeSides)}
