import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catstego.arnold import FAMILIES
from catstego.bitplane import (
    as_binary,
    as_gray,
    capacity_bytes,
    embed,
    extract,
    get_plane,
    pack_payload,
    unpack_payload,
)
from catstego.schedule import ScrambleSchedule
from conftest import traced_peak
from oracles import reference_embed, reference_extract

SCHED8 = ScrambleSchedule(
    8,
    (("ROWFIRST", 2, 3), ("CLASSIC", 1, 2)),
    (1, 0),
)


def _gray(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (n, n), dtype=np.uint8)


def _bits(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2, (n, n), dtype=np.uint8)


# -- plane get/set ---------------------------------------------------------------


def set_plane(img, p, bits):
    """Replace bit p of every pixel with ``bits``: ``embed`` under a one-stage
    key with t = 0, which scrambles nothing."""
    key = ScrambleSchedule(len(img), (("CLASSIC", 1, 0),), (0,))
    return embed(img, [bits], key, [p])


def test_get_plane_all_zero():
    img = np.zeros((4, 4), dtype=np.uint8)
    for p in range(8):
        assert not get_plane(img, p).any()


def test_get_plane_all_255():
    img = np.full((4, 4), 255, dtype=np.uint8)
    for p in range(8):
        assert get_plane(img, p).all()


def test_get_plane_binary_expansion_of_6():
    img = np.full((2, 2), 6, dtype=np.uint8)
    assert get_plane(img, 0)[0, 0] == 0
    assert get_plane(img, 1)[0, 0] == 1
    assert get_plane(img, 2)[0, 0] == 1
    assert not get_plane(img, 3).any()


def test_set_plane_rewrite_is_identity():
    img = _gray(16, seed=1)
    for p in range(8):
        assert np.array_equal(set_plane(img, p, get_plane(img, p)), img)


def test_set_plane_weight():
    img = np.zeros((4, 4), dtype=np.uint8)
    out = set_plane(img, 3, np.ones((4, 4), dtype=np.uint8))
    assert (out == 8).all()


def test_set_plane_perturbation_exhaustive():
    # every pixel value x every bit value, all 8 planes
    values = np.arange(256, dtype=np.uint8).reshape(16, 16)
    for p in range(8):
        for bit in (0, 1):
            bits = np.full_like(values, bit)
            out = set_plane(values, p, bits)
            delta = np.abs(out.astype(int) - values.astype(int))
            assert set(np.unique(delta)) <= {0, 2**p}
            assert np.array_equal(get_plane(out, p), bits)


def test_plane_index_validation():
    img = _gray(4)
    for p in (-1, 8, 100):
        with pytest.raises(ValueError):
            get_plane(img, p)


def test_set_plane_side_mismatch():
    with pytest.raises(ValueError):
        set_plane(_gray(8), 0, _bits(4))


@given(st.integers(0, 7), st.integers(0, 2**32 - 1))
def test_get_set_plane_round_trip(p, seed):
    img = _gray(8, seed)
    bits = _bits(8, seed + 1)
    out = set_plane(img, p, bits)
    assert np.array_equal(get_plane(out, p), bits)
    for q in range(8):
        if q != p:
            assert np.array_equal(get_plane(out, q), get_plane(img, q))


# -- embed / extract -------------------------------------------------------------


def test_embed_no_messages_is_cover():
    cover = _gray(8)
    assert np.array_equal(embed(cover, [], SCHED8, []), cover)


def test_embed_single_plane_touches_only_bit0():
    cover = _gray(8, seed=3)
    stego = embed(cover, [_bits(8, seed=4)], SCHED8, [0])
    assert ((stego ^ cover) <= 1).all()


def test_embed_three_planes_and_extract():
    cover = _gray(8, seed=5)
    msgs = [_bits(8, seed=10 + k) for k in range(3)]
    stego = embed(cover, msgs, SCHED8, [0, 1, 2])
    out = extract(stego, SCHED8, [0, 1, 2])
    for msg, back in zip(msgs, out):
        assert np.array_equal(msg, back)


@given(st.integers(1, 24), st.data())
@settings(deadline=None)
def test_embed_extract_match_plane_by_plane_reference(n, data):
    m = data.draw(st.integers(1, 4))
    stages = data.draw(st.lists(st.tuples(
        st.sampled_from(FAMILIES), st.integers(1, 30), st.integers(0, 10**6),
    ), min_size=m, max_size=m))
    sched = ScrambleSchedule(n, tuple(stages), tuple(data.draw(st.permutations(range(m)))))
    planes = data.draw(st.lists(st.integers(0, 7), max_size=8, unique=True))
    seed = data.draw(st.integers(0, 2**32 - 1))
    cover = _gray(n, seed)
    msgs = [_bits(n, seed + 1 + k) for k in range(len(planes))]
    stego = embed(cover, msgs, sched, planes)
    assert np.array_equal(stego, reference_embed(cover, msgs, sched, planes))
    noisy = _gray(n, seed + 99)
    for got, want in zip(extract(noisy, sched, planes), reference_extract(noisy, sched, planes)):
        assert np.array_equal(got, want)


def test_embed_validation():
    cover = _gray(8)
    msg = _bits(8)
    with pytest.raises(ValueError):
        embed(cover, [msg], SCHED8, [0, 1])
    with pytest.raises(ValueError):
        embed(cover, [msg, msg], SCHED8, [2, 2])
    with pytest.raises(ValueError):
        embed(cover, [_bits(4)], SCHED8, [0])
    with pytest.raises(ValueError):
        embed(cover, [msg], SCHED8, [8])


def test_embed_folds_messages_from_a_generator():
    cover = _gray(8, seed=5)
    msgs = [_bits(8, seed=10 + k) for k in range(3)]
    stego = embed(cover, (m for m in msgs), SCHED8, [0, 1, 2])
    assert np.array_equal(stego, embed(cover, msgs, SCHED8, [0, 1, 2]))


@pytest.mark.parametrize("count", [0, 2, 4])
def test_embed_counts_the_messages_of_a_generator(count):
    msgs = (_bits(8, seed=k) for k in range(count))
    with pytest.raises(ValueError, match=f"^{count} messages but 3 planes; counts must match$"):
        embed(_gray(8), msgs, SCHED8, [0, 1, 2])


def test_embed_holds_one_generated_message_at_a_time():
    n = 1024
    cover = _gray(n, seed=6)
    sched = ScrambleSchedule(n, SCHED8.stages, SCHED8.order)
    # the packed byte and the scatter's 3 B/px; a message still held during
    # the scatter would make it 5
    messages = (_bits(n, k) for k in range(3))
    assert traced_peak(embed, cover, messages, sched, [0, 1, 2]) <= 4.5 * n * n


def test_low_planes_of_natural_image_look_like_noise():
    # an un-embedded photograph's LSB plane is ~coin-flip density
    from catstego.synth import natural_gray

    img = natural_gray(128, seed=13)
    for p in (0, 1):
        density = float(get_plane(img, p).mean())
        assert 0.35 <= density <= 0.65, (p, density)


def test_extracted_plane_is_scrambled_not_plain():
    cover = _gray(8, seed=6)
    msg = _bits(8, seed=7)
    stego = embed(cover, [msg], SCHED8, [0])
    raw = get_plane(stego, 0)
    assert not np.array_equal(raw, msg)
    assert np.array_equal(extract(stego, SCHED8, [0])[0], msg)


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 7), unique=True, min_size=1, max_size=5))
@settings(deadline=None)
def test_plane_locality_and_perturbation_bound(seed, planes):
    cover = _gray(16, seed)
    msgs = [_bits(16, seed + 7 * k + 1) for k in range(len(planes))]
    sched = ScrambleSchedule(16, (("COLFIRST", 2, 5),), (0,))
    stego = embed(cover, msgs, sched, planes)
    for q in range(8):
        if q not in planes:
            assert np.array_equal(get_plane(stego, q), get_plane(cover, q))
    bound = sum(2**p for p in planes)
    assert (np.abs(stego.astype(int) - cover.astype(int)) <= bound).all()


def test_capacity_k_planes_carry_exactly_k_n2_bits():
    n, planes = 16, [0, 1, 2, 3]
    cover = _gray(n, seed=8)
    sched = ScrambleSchedule(n, (("CLASSIC", 1, 3),), (0,))
    msgs = [_bits(n, seed=20 + k) for k in range(len(planes))]
    stego = embed(cover, msgs, sched, planes)
    recovered = extract(stego, sched, planes)
    carried = sum(m.size for m in recovered)
    assert carried == len(planes) * n * n
    for msg, back in zip(msgs, recovered):
        assert np.array_equal(msg, back)


# -- payload packing -------------------------------------------------------------


def test_pack_empty_payload():
    img = pack_payload(b"", 8)
    assert img.shape == (8, 8)
    assert not img.any()


def test_pack_single_byte_layout():
    img = pack_payload(b"\xa5", 8)
    bits = img.ravel()
    assert bits[:32].tolist() == [0] * 31 + [1]
    assert bits[32:40].tolist() == [1, 0, 1, 0, 0, 1, 0, 1]
    assert not bits[40:].any()


def test_pack_round_trip_large():
    data = np.random.default_rng(11).integers(0, 256, 1000, dtype=np.uint8).tobytes()
    assert unpack_payload(pack_payload(data, 128)) == data


@given(st.binary(max_size=200))
def test_pack_round_trip_property(data):
    assert unpack_payload(pack_payload(data, 64)) == data


def test_pack_capacity_limits():
    assert capacity_bytes(8) == 4
    pack_payload(b"abcd", 8)
    with pytest.raises(ValueError, match="at most 4 bytes"):
        pack_payload(b"abcde", 8)


def test_pack_side_above_limit_rejected():
    # refused by the side check before any plane is allocated
    with pytest.raises(ValueError, match="exceeds the limit"):
        pack_payload(b"", 1 << 20)


def test_unpack_rejects_corrupt_header():
    img = np.zeros((8, 8), dtype=np.uint8)
    img[0, :] = 1  # claims a giant length
    with pytest.raises(ValueError, match="corrupt"):
        unpack_payload(img)


def test_unpack_rejects_tiny_plane():
    with pytest.raises(ValueError):
        unpack_payload(np.zeros((5, 5), dtype=np.uint8))


# -- validators ------------------------------------------------------------------


def test_as_gray_accepts_int_range_and_rejects_overflow():
    ok = as_gray(np.array([[0, 255], [7, 128]]))
    assert ok.dtype == np.uint8
    with pytest.raises(ValueError):
        as_gray(np.array([[0, 256], [0, 0]]))
    with pytest.raises(ValueError):
        as_gray(np.array([[0.5, 0.1], [0.2, 0.3]]))


def test_as_binary_rejects_non_bits():
    with pytest.raises(ValueError):
        as_binary(np.array([[0, 2], [1, 0]]))


@pytest.mark.parametrize("dtype, bad", [
    (np.int8, 2), (np.int8, -1), (np.int64, 2), (np.int64, -1), (np.uint8, 2), (np.uint8, 255),
])
def test_as_binary_rejects_out_of_range_values(dtype, bad):
    with pytest.raises(ValueError, match="values must be 0 or 1"):
        as_binary(np.array([[0, bad], [1, 0]], dtype=dtype))


def test_as_binary_rejects_floats():
    with pytest.raises(ValueError, match="must be integer-valued, got float64"):
        as_binary(np.array([[0.0, 1.0], [1.0, 0.0]]))
