"""Acceptance suite: one test per shipping criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live) and fails if it blows its runtime budget. Expected values are either
frozen golden fixtures, closed forms computed independently, or reference
measurements; nothing here is tuned to the implementation under test.
"""

import io
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

from catstego.arnold import FAMILIES, matrix_for, period
from catstego.bitplane import embed, extract, rows_to_bits
from catstego.cli import main
from catstego.metrics import compare
from catstego.netpbm import read_binary, write_binary, write_gray
from catstego.schedule import (
    ScrambleSchedule,
    random_schedule,
    schedule_scramble,
    serialize_key,
)
from catstego.synth import natural_binary, natural_gray
from oracles import AI, BI, CI, I3, composite_matrix, orbit_period

ROOT = Path(__file__).resolve().parents[1]
CLASSIC = ("CLASSIC", 1)
ROW3 = ("ROWFIRST", 3)


def scramble(grid, spec, t):
    """``t`` steps of one transform, run as a one-stage schedule."""
    return schedule_scramble(grid, ScrambleSchedule(len(grid), ((*spec, t),), (0,)))


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget_s:g}s budget"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(
            f"criterion {num} ({name}): {status} "
            f"[{elapsed:.2f}s, budget {budget_s:g}s]"
        )


def test_criterion_1_golden_orbit_tables():
    with criterion(1, "golden orbit tables", 1.0):
        for t, expected in enumerate(AI, start=1):
            assert scramble(I3, CLASSIC, t).tolist() == expected
        for t, expected in enumerate(BI, start=1):
            assert scramble(I3, ROW3, t).tolist() == expected
        bi2 = scramble(I3, ROW3, 2)
        for t, expected in enumerate(CI, start=1):
            assert scramble(bi2, CLASSIC, t).tolist() == expected
        # cycle closures
        assert AI[3] == I3.tolist()
        assert BI[7] == I3.tolist()
        assert CI[3] == bi2.tolist()


def test_criterion_2_periods_match_brute_force():
    with criterion(2, "matrix-order periods vs orbit oracle", 30.0):
        assert period("CLASSIC", 1, 3) == 4
        assert period("ROWFIRST", 3, 3) == 8
        for family in FAMILIES:
            for i in range(1, 11):
                m = matrix_for(family, i)
                for n in range(2, 33):
                    assert period(family, i, n) == orbit_period(*m, n), (
                        family, i, n,
                    )


# reference PSNR measurements (dB) for text payloads embedded into the
# 1..4 lowest planes of standard 128x128 grayscale covers
REFERENCE_PSNR_DB = {
    "baboon": (51.3797, 43.6852, 37.0031, 30.8176),
    "lena": (51.0937, 43.4550, 36.9229, 30.4837),
    "miera": (51.1843, 43.4743, 36.9133, 30.5001),
}


def test_criterion_3_psnr_closed_form_bands():
    with criterion(3, "PSNR bands for 1..4 plane embedding", 5.0):
        cover = natural_gray(128, seed=77)
        sched = ScrambleSchedule(
            128,
            (("ROWFIRST", 2, 11),
             ("COLFIRST", 5, 23)),
            (0, 1),
        )
        rng = np.random.default_rng(2024)
        for k in (1, 2, 3, 4):
            planes = list(range(k))
            msgs = [
                rng.integers(0, 2, cover.shape, dtype=np.uint8) for _ in planes
            ]
            stego = embed(cover, [np.packbits(m, axis=1) for m in msgs], sched, planes)
            expected_mse = 0.5 * sum(4**p for p in planes)
            closed_form = 10 * math.log10(255**2 / expected_mse)
            measured = compare(cover, stego).psnr
            assert abs(measured - closed_form) <= 0.5, (k, measured, closed_form)
            for name, row in REFERENCE_PSNR_DB.items():
                assert abs(closed_form - row[k - 1]) <= 1.5, (k, name)


def test_criterion_4_file_round_trips(tmp_path):
    with criterion(4, "100 seeded embed/extract file round-trips", 60.0):
        sides = (8, 16, 64, 128)
        for trial in range(100):
            n = sides[trial % len(sides)]
            r = random.Random(7000 + trial)
            rng = np.random.default_rng(9000 + trial)
            sched = random_schedule(n, r.randint(1, 4), r)
            planes = sorted(r.sample(range(8), r.randint(1, 4)))
            workdir = tmp_path / f"trial_{trial}"
            workdir.mkdir()
            cover = rng.integers(0, 256, (n, n), dtype=np.uint8)
            write_gray(workdir / "cover.pgm", cover)
            (workdir / "key.txt").write_text(serialize_key(sched, planes))
            messages = []
            for k in range(len(planes)):
                msg = rng.integers(0, 2, (n, n), dtype=np.uint8)
                messages.append(msg)
                write_binary(workdir / f"msg{k}.pbm", msg)
            with redirect_stdout(io.StringIO()):  # quiet the per-embed reports
                rc = main(
                    ["embed", str(workdir / "cover.pgm"), str(workdir / "key.txt"),
                     str(workdir / "stego.pgm")]
                    + [str(workdir / f"msg{k}.pbm") for k in range(len(planes))]
                )
            assert rc == 0, trial
            rc = main(
                ["extract", str(workdir / "stego.pgm"), str(workdir / "key.txt")]
                + [str(workdir / f"out{k}.pbm") for k in range(len(planes))]
            )
            assert rc == 0, trial
            for k, msg in enumerate(messages):
                assert np.array_equal(read_binary(workdir / f"out{k}.pbm"), msg), (
                    trial, k,
                )


def test_criterion_5_security_properties():
    with criterion(5, "wrong-key noise and orbit non-recovery", 10.0):
        # (a) permuted stage order decorrelates extraction from the truth
        n = 128
        done = 0
        attempt = 0
        while done < 30:
            attempt += 1
            assert attempt < 200, "trial generator failed to produce 30 cases"
            r = random.Random(5000 + attempt)
            m = r.randint(2, 4)
            true_key = random_schedule(n, m, r)
            wrong_order = list(true_key.order)
            while tuple(wrong_order) == true_key.order:
                r.shuffle(wrong_order)
            wrong_key = ScrambleSchedule(n, true_key.stages, tuple(wrong_order))
            if composite_matrix(true_key, n) == composite_matrix(wrong_key, n):
                continue  # the permuted order happens to commute; not a wrong key
            msg = natural_binary(n, seed=9000 + attempt)
            cover = natural_gray(n, seed=400 + attempt)
            stego = embed(cover, [np.packbits(msg, axis=1)], true_key, [0])
            recovered = rows_to_bits(extract(stego, wrong_key, [0])[0])
            agreement = float(np.mean(recovered == msg))
            assert 0.35 <= agreement <= 0.65, (attempt, agreement)
            done += 1

        # (b) the classic orbit of the two-step modified scramble never
        # passes through the original, no matter how long the trial runs
        bi2 = scramble(I3, ROW3, 2)
        for t in range(1, 3 * period("CLASSIC", 1, 3) + 1):
            assert not np.array_equal(scramble(bi2, CLASSIC, t), I3), t


def test_criterion_6_plane_locality_invariants():
    with criterion(6, "plane locality and perturbation bounds", 10.0):
        for trial in range(40):
            r = random.Random(3000 + trial)
            rng = np.random.default_rng(3100 + trial)
            n = r.choice((8, 16, 32, 64))
            sched = random_schedule(n, r.randint(1, 3), r)
            planes = sorted(r.sample(range(8), r.randint(1, 4)))
            cover = rng.integers(0, 256, (n, n), dtype=np.uint8)
            msgs = [
                rng.integers(0, 2, (n, n), dtype=np.uint8) for _ in planes
            ]
            stego = embed(cover, [np.packbits(m, axis=1) for m in msgs], sched, planes)
            for q in range(8):
                if q not in planes:
                    assert np.array_equal(
                        (stego >> q) & 1, (cover >> q) & 1
                    ), (trial, q)
            bound = sum(2**p for p in planes)
            assert (np.abs(stego.astype(int) - cover.astype(int)) <= bound).all()
            assert compare(cover, stego).bit_preservation >= 1 - len(planes) / 8


def test_criterion_7_period_sweep_csv_vs_oracle(tmp_path):
    with criterion(7, "period sweep CSV vs orbit oracle", 60.0):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "paper_report.py"),
             "--side", "128", "--lo", "1", "--hi", "20", "--outdir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        for family in ("ROWFIRST", "COLFIRST"):
            out = tmp_path / f"periods_{family.lower()}_n128.csv"
            lines = out.read_text().splitlines()
            assert lines[0] == "i,period"
            assert len(lines) == 21
            for expected_i, line in enumerate(lines[1:], start=1):
                i, p = map(int, line.split(","))
                assert i == expected_i
                m = matrix_for(family, i)
                assert p == orbit_period(*m, 128), (family, i)
