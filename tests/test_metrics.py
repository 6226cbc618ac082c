import math
import random

import numpy as np
import pytest

from catstego.bitplane import embed, extract, rows_to_bits
from catstego.metrics import MetricsReport, compare
from catstego.schedule import random_schedule
from catstego.synth import natural_binary, natural_gray
from oracles import composite_matrix


def _gray(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (n, n), dtype=np.uint8)


def test_mse_identical_is_zero():
    img = _gray(16)
    assert compare(img, img).mse == 0.0


def test_mse_unit_difference():
    a = np.zeros((8, 8), dtype=np.uint8)
    b = np.ones((8, 8), dtype=np.uint8)
    assert compare(a, b).mse == 1.0


def test_mse_extremes_are_exact():
    lo = np.zeros((4, 4), dtype=np.uint8)
    hi = np.full((4, 4), 255, dtype=np.int64)
    assert compare(lo, hi).mse == compare(hi, lo).mse == 255.0**2


def test_mse_shape_mismatch():
    with pytest.raises(ValueError, match="image shapes differ"):
        compare(_gray(8), _gray(4))


def test_values_outside_8_bits_rejected():
    # 256 would wrap to 0 in uint8 and read as unchanged
    a, b = np.full((2, 2), 256), np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        compare(a, b)
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        compare(b, a)


@pytest.mark.parametrize("n", [1, 3, 127, 128])
def test_metrics_match_int64_reference(n):
    # sides 1, 3 and 127 leave a tail of N² % 8 bytes after the uint64 words,
    # and 127 and 128 end on a part-filled and a full block of rows
    a, b = _gray(n, seed=n), _gray(n, seed=n + 1000)
    b[0, 0] = a[0, 0] ^ 0xFF
    big = np.random.default_rng(n + 2000).integers(0, 256, (3 * n, 2 * n), dtype=np.uint8)
    pairs = [
        (a, b),
        (a.astype(np.int64), b.astype(np.int32)),
        # strided views, one of them transposed, are read as they stand
        (big[::3, ::2], big[1::3, 1::2].T),
    ]
    for x, y in pairs:
        wide_x, wide_y = x.astype(np.int64), y.astype(np.int64)
        report = compare(x, y)
        mse = ((wide_x - wide_y) ** 2).sum() / (n * n)
        assert report.mse == mse
        assert report.psnr == (None if mse == 0 else 10 * math.log10(255**2 / mse))
        changed = sum(((wide_x ^ wide_y) >> k & 1).sum() for k in range(8))
        assert report.bit_preservation == 1.0 - changed / (8 * n * n)


def test_psnr_closed_form_half():
    # images differing by exactly 1 in exactly half the pixels: mse = 0.5
    a = np.zeros((16, 16), dtype=np.uint8)
    b = a.copy()
    b[:8, :] = 1
    report = compare(a, b)
    assert report.mse == 0.5
    assert report.psnr == pytest.approx(51.1411, abs=1e-3)


def test_psnr_monotone_in_mse():
    a = np.zeros((16, 16), dtype=np.uint8)
    pairs = []
    for level in (1, 3, 9, 40, 200):
        b = np.full_like(a, level)
        pairs.append(compare(a, b)[:2])
    pairs.sort()
    psnrs = [p for _, p in pairs]
    assert psnrs == sorted(psnrs, reverse=True)
    assert len(set(psnrs)) == len(psnrs)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_expected_mse_for_random_plane_bits(k):
    planes = list(range(k))
    cover = natural_gray(128, seed=50 + k)
    rng = np.random.default_rng(60 + k)
    msgs = [rng.integers(0, 2, cover.shape, dtype=np.uint8) for _ in planes]
    sched = random_schedule(128, 2, random.Random(70 + k))
    measured = compare(cover, embed(cover, [np.packbits(m, axis=1) for m in msgs], sched, planes)).mse
    expected = 0.5 * sum(4**p for p in planes)
    assert abs(measured - expected) <= 0.10 * expected


def test_bit_preservation_identical():
    img = _gray(16)
    assert compare(img, img).bit_preservation == 1.0


def test_bit_preservation_one_plane_inverted():
    img = _gray(16, seed=2)
    flipped = img ^ np.uint8(1 << 5)
    assert compare(img, flipped).bit_preservation == pytest.approx(7 / 8)


def test_bit_preservation_random_plane():
    cover = _gray(128, seed=3)
    rng = np.random.default_rng(4)
    msg = rng.integers(0, 2, cover.shape, dtype=np.uint8)
    sched = random_schedule(128, 1, random.Random(5))
    ratio = compare(cover, embed(cover, [np.packbits(msg, axis=1)], sched, [0])).bit_preservation
    assert ratio == pytest.approx(1 - 1 / 16, abs=0.01)


def test_wrong_key_agreement_near_half():
    # over 30 schedule pairs, mismatched extraction looks like coin flips
    n = 128
    agreements = []
    attempt = 0
    while len(agreements) < 30:
        attempt += 1
        r = random.Random(8000 + attempt)
        true_key = random_schedule(n, r.randint(2, 4), r)
        wrong_key = random_schedule(n, r.randint(2, 4), r)
        if composite_matrix(true_key, n) == composite_matrix(wrong_key, n):
            continue
        msg = natural_binary(n, seed=300 + attempt)
        cover = natural_gray(n, seed=600 + attempt)
        stego = embed(cover, [np.packbits(msg, axis=1)], true_key, [0])
        wrong = rows_to_bits(extract(stego, wrong_key, [0])[0])
        agreements.append(float(np.mean(wrong == msg)))
    mean = sum(agreements) / len(agreements)
    assert abs(mean - 0.5) <= 0.1
    assert all(abs(a - 0.5) <= 0.1 for a in agreements)


def test_report_csv_format():
    cover = np.zeros((8, 8), dtype=np.uint8)
    stego = cover.copy()
    stego[0, 0] = 2
    report = compare(cover, stego)
    lines = report.csv().splitlines()
    assert lines[0].startswith("mse,")
    assert lines[1].startswith("psnr,")
    assert lines[2].startswith("bit_preservation,")
    assert float(lines[0].split(",")[1]) == pytest.approx(4 / 64)


def test_report_infinite_psnr():
    img = _gray(8)
    report = compare(img, img)
    assert report.psnr is None
    assert report.mse == 0.0
    assert report.bit_preservation == 1.0
    assert "psnr,inf" in report.csv()


def test_report_is_value_object():
    r = MetricsReport(1.0, 48.13, 0.9)
    assert r == MetricsReport(1.0, 48.13, 0.9)
