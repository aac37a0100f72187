import random
from array import array

import pytest

from helpers import naive_argext
from rct import MAX, MIN, RangeExtremumIndex
from rct.rmq import _BLOCK as BLOCK
from rct.rmq import compact


def test_build_examples():
    assert RangeExtremumIndex([3, 1, 2], MIN).query(1, 3) == 2
    assert RangeExtremumIndex([7], MIN).query(1, 1) == 1
    assert RangeExtremumIndex([3, 1, 2], MAX).query(1, 3) == 1


def test_query_examples():
    idx = RangeExtremumIndex([5, 2, 2, 9], MIN)
    assert idx.query(1, 4) == 2  # leftmost tie
    assert idx.query(4, 4) == 4
    assert RangeExtremumIndex([1, 2, 3, 4], MAX).query(2, 3) == 3


def test_empty_rejected():
    with pytest.raises(ValueError):
        RangeExtremumIndex([], MIN)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        RangeExtremumIndex([1], "median")


def test_bad_ranges_rejected():
    idx = RangeExtremumIndex([4, 4, 4], MIN)
    for i, j in [(0, 2), (2, 1), (1, 4), (-1, 1)]:
        with pytest.raises(ValueError):
            idx.query(i, j)


def test_single_point_ranges():
    rng = random.Random(5)
    values = [rng.randint(-50, 50) for _ in range(40)]
    for mode in (MIN, MAX):
        idx = RangeExtremumIndex(values, mode)
        for i in range(1, 41):
            assert idx.query(i, i) == i


def test_against_linear_scan_many_small_arrays():
    rng = random.Random(42)
    checks = 0
    while checks < 10_000:
        n = rng.randint(1, 60)
        values = [rng.randint(-100, 100) for _ in range(n)]
        for mode in (MIN, MAX):
            idx = RangeExtremumIndex(values, mode)
            for _ in range(5):
                i = rng.randint(1, n)
                j = rng.randint(i, n)
                assert idx.query(i, j) == naive_argext(values, i, j, mode)
                checks += 1


def test_against_linear_scan_long_arrays():
    rng = random.Random(9)
    for mode in (MIN, MAX):
        values = [rng.randint(0, 15) for _ in range(1000)]  # many ties
        idx = RangeExtremumIndex(values, mode)
        for _ in range(2000):
            i = rng.randint(1, 1000)
            j = rng.randint(i, 1000)
            assert idx.query(i, j) == naive_argext(values, i, j, mode)


@pytest.mark.parametrize("mode", [MIN, MAX])
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
def test_every_range_around_block_boundaries(n, mode):
    rng = random.Random(n)
    # all-equal values make every range's answer its leftmost position,
    # across block boundaries too
    for values in ([4] * n, [rng.randint(-5, 5) for _ in range(n)]):
        idx = RangeExtremumIndex(values, mode)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert idx.query(i, j) == naive_argext(values, i, j, mode)


def test_sub_ranges_of_a_shared_column():
    rng = random.Random(77)
    segments = [[rng.randint(0, 9) for _ in range(rng.randint(1, 3 * BLOCK + 1))] for _ in range(12)]
    column = compact([v for segment in segments for v in segment])
    for mode in (MIN, MAX):
        idx = RangeExtremumIndex(column, mode)
        base = 0
        for segment in segments:
            for _ in range(60):
                i = rng.randint(1, len(segment))
                j = rng.randint(i, len(segment))
                assert idx.query(base + i, base + j) - base == naive_argext(segment, i, j, mode)
            base += len(segment)


def test_compact_picks_the_narrowest_typecode():
    cases = [([], "B"), ([0, 255], "B"), ([256], "H"), ([2**32 - 1], "I"), ([2**32], "Q"),
             ([-1, 127], "b"), ([-129], "h"), ([2**31], "I"), ([-1, 2**31], "q"),
             ([-(2**63), 2**63 - 1], "q")]
    for values, code in cases:
        column = compact(values)
        assert column.typecode == code and list(column) == values
    narrow = array("H", [256])  # a loaded column is kept, not copied
    assert compact(narrow) is narrow
    assert compact(array("Q", [256])) == narrow
    for values in ([2**64], [-1, 2**63], [-(2**63) - 1]):
        with pytest.raises(ValueError):
            compact(values)
