import random
import struct

import pytest

from rct import BitVector


def test_access_examples():
    bv = BitVector("001011")
    assert bv.access(3) == 1
    assert bv.access(1) == 0
    assert BitVector("1").access(1) == 1


def test_access_out_of_range():
    bv = BitVector("001011")
    with pytest.raises(ValueError):
        bv.access(0)
    with pytest.raises(ValueError):
        bv.access(7)


def test_rank_examples():
    bv = BitVector("001011")
    assert bv.rank1(4) == 1
    assert bv.rank1(0) == 0
    assert bv.rank1(6) == 3
    with pytest.raises(ValueError):
        bv.rank1(7)
    with pytest.raises(ValueError):
        bv.rank1(-1)


def test_select_examples():
    bv = BitVector("001011")
    assert bv.select1(2) == 5
    assert bv.select1(1) == 3
    assert BitVector("111").select1(3) == 3
    with pytest.raises(ValueError):
        bv.select1(0)
    with pytest.raises(ValueError):
        bv.select1(4)


def test_empty():
    bv = BitVector("")
    assert len(bv) == 0
    assert bv.rank1(0) == 0
    assert bv.ones == 0


def test_rank0():
    bv = BitVector("001011")
    assert [bv.rank0(i) for i in range(7)] == [0, 1, 2, 2, 3, 3, 3]


@pytest.mark.parametrize("density", [0.02, 0.5, 0.97])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 1000, 4097])
def test_against_naive_scan(n, density):
    rng = random.Random(n * 1000 + int(density * 100))
    bits = [1 if rng.random() < density else 0 for _ in range(n)]
    bv = BitVector(bits)
    prefix = [0]
    for b in bits:
        prefix.append(prefix[-1] + b)
    assert bv.ones == prefix[-1]
    for i in range(1, n + 1):
        assert bv.access(i) == bits[i - 1]
    for i in range(n + 1):
        assert bv.rank1(i) == prefix[i]
    ones = [i + 1 for i, b in enumerate(bits) if b]
    for j, pos in enumerate(ones, start=1):
        assert bv.select1(j) == pos


def test_select_rank_inverse_properties():
    rng = random.Random(7)
    bits = [rng.randint(0, 1) for _ in range(5000)]
    bv = BitVector(bits)
    for j in range(1, bv.ones + 1):
        assert bv.rank1(bv.select1(j)) == j
        assert bv.access(bv.select1(j)) == 1
        assert bv.select1(bv.rank1(bv.select1(j))) == bv.select1(j)
    # select1 strictly increasing
    positions = [bv.select1(j) for j in range(1, bv.ones + 1)]
    assert all(a < b for a, b in zip(positions, positions[1:]))


def test_large_sparse_and_dense():
    rng = random.Random(11)
    for density in (0.001, 0.85):
        n = 200_000
        bits = [1 if rng.random() < density else 0 for _ in range(n)]
        bv = BitVector(bits)
        prefix = [0]
        for b in bits:
            prefix.append(prefix[-1] + b)
        for _ in range(500):
            i = rng.randint(0, n)
            assert bv.rank1(i) == prefix[i]
        ones = [i + 1 for i, b in enumerate(bits) if b]
        for _ in range(500):
            j = rng.randint(1, len(ones))
            assert bv.select1(j) == ones[j - 1]


def test_serialization_roundtrip():
    rng = random.Random(3)
    for n in (0, 1, 64, 100, 1030):
        bits = [rng.randint(0, 1) for _ in range(n)]
        bv = BitVector(bits)
        data = bv.to_bytes()
        back, consumed = BitVector.from_bytes(data)
        assert consumed == len(data)
        assert back == bv
        assert back.to01() == bv.to01()
        # the index loader decodes from a memoryview over the whole file
        inside = memoryview(b"\xff" * 5 + data + b"\xee" * 3)
        back, end = BitVector.from_bytes(inside, 5)
        assert end == 5 + len(data)
        assert back == bv
        assert [back.rank1(i) for i in range(n + 1)] == [bv.rank1(i) for i in range(n + 1)]


def test_from_bytes_rejects_ones_past_the_end():
    assert BitVector.from_bytes(struct.pack("<QQ", 3, 0b101))[0].to01() == "101"
    for n, word in ((3, 0b1000), (63, 1 << 63), (1, 2)):
        with pytest.raises(ValueError, match="past its end"):
            BitVector.from_bytes(struct.pack("<QQ", n, word))


@pytest.mark.parametrize("tail", [0, 1, 63])
@pytest.mark.parametrize(
    "ones",
    [
        [1, 64, 65, 128, 129],  # first and last bit of words
        [1, 4 * 64 + 1],  # three all-zero words between
        [64, 5 * 64 + 64, 9 * 64 + 1, 9 * 64 + 2],  # four and three all-zero words between
        [],
    ],
)
def test_word_edges_and_zero_words(ones, tail):
    n = max(ones, default=0) + tail
    bits = [0] * n
    for pos in ones:
        bits[pos - 1] = 1
    bv = BitVector(bits)
    assert bv.ones == len(ones)
    assert [bv.rank1(i) for i in range(n + 1)] == [sum(bits[:i]) for i in range(n + 1)]
    assert [bv.select1(j) for j in range(1, len(ones) + 1)] == ones
    assert [bv.access(i) for i in range(1, n + 1)] == bits


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        BitVector([0, 2, 1])
