import random

import pytest

from helpers import random_region
from rct import BitVector, Region, Snapshot, build_snapshot


def naive_filter(points, region):
    x1, y1, x2, y2 = region
    return {(oid, x, y) for oid, x, y in points if x1 <= x <= x2 and y1 <= y <= y2}


def test_empty_snapshot():
    sn = build_snapshot([], (100, 100))
    assert sn.report_region(Region(0, 0, 100, 100)) == set()


def test_single_point_universe_query():
    sn = build_snapshot([(1, 0, 0)], (3, 3))
    assert sn.report_region(Region(0, 0, 3, 3)) == {(1, 0, 0)}


def test_corner_inclusive():
    sn = build_snapshot([(7, 10, 20)], (31, 31))
    assert sn.report_region(Region(10, 20, 15, 25)) == {(7, 10, 20)}
    assert sn.report_region(Region(5, 15, 10, 20)) == {(7, 10, 20)}
    assert sn.report_region(Region(11, 20, 15, 25)) == set()


def test_disjoint_region():
    sn = build_snapshot([(1, 5, 5), (2, 6, 6)], (63, 63))
    assert sn.report_region(Region(20, 20, 30, 30)) == set()


def test_shared_cell_and_malformed_region():
    sn = build_snapshot([(3, 9, 9), (1, 9, 9), (2, 0, 0)], (15, 15))
    assert sn.report_region(Region(9, 9, 9, 9)) == {(1, 9, 9), (3, 9, 9)}
    with pytest.raises(ValueError):
        sn.report_region(Region(5, 5, 4, 9))


def test_point_outside_grid_rejected():
    with pytest.raises(ValueError):
        build_snapshot([(1, 10, 3)], (9, 9))
    with pytest.raises(ValueError):
        build_snapshot([(1, -1, 0)], (9, 9))


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        build_snapshot([(1, 0, 0), (1, 5, 5)], (9, 9))


def test_region_exceeding_grid_is_clipped():
    sn = build_snapshot([(1, 2, 2)], (3, 3))
    assert sn.report_region(Region(0, 0, 1000, 1000)) == {(1, 2, 2)}


def roundtrip(sn):
    """The snapshot rebuilt from its encoded bitmaps, as the index loader does."""
    data = sn.bits.to_bytes() + sn.run_starts.to_bytes()
    bits, at = BitVector.from_bytes(data)
    back = Snapshot(sn.timestamp, sn.side, sn.k, bits, BitVector.from_bytes(data, at)[0], sn.cell_ids)
    back.check_shape()
    return back


@pytest.mark.parametrize("k", [2, 3])
def test_against_naive_filter(k):
    rng = random.Random(k * 17)
    # grids up to 300, then grids of side k, whose root children are cells already
    for max_coord in [300] * 300 + [k - 1] * 30:
        max_x = rng.randint(0, max_coord)
        max_y = rng.randint(0, max_coord)
        n = rng.randint(0, 60)
        points = [
            (oid, rng.randint(0, max_x), rng.randint(0, max_y)) for oid in range(n)
        ]
        sn = build_snapshot(points, (max_x, max_y), k=k)
        back = roundtrip(sn)
        for _ in range(4):
            region = random_region(rng, (max_x, max_y))
            assert sn.report_region(region) == naive_filter(points, region)
            assert back.report_region(region) == naive_filter(points, region)


def test_k3_child_groups_across_word_boundaries():
    # every cell of a 27 x 27 grid occupied: 9 + 81 + 729 bits, and the 9-bit
    # child groups starting at bits 63, 126, 189, ... cross a 64-bit word edge
    points = [(oid, oid % 27, oid // 27) for oid in range(27 * 27)] + [(1000, 13, 13), (1001, 26, 0)]
    sn = build_snapshot(points, (26, 26), k=3)
    assert len(sn.bits) == 9 + 81 + 729
    rng = random.Random(5)
    for snapshot in (sn, roundtrip(sn)):
        for _ in range(200):
            region = random_region(rng, (26, 26))
            assert snapshot.report_region(region) == naive_filter(points, region)


def test_monotone_and_partition_properties():
    rng = random.Random(99)
    points = [(oid, rng.randint(0, 127), rng.randint(0, 127)) for oid in range(80)]
    sn = build_snapshot(points, (127, 127))
    inner = Region(20, 20, 60, 60)
    outer = Region(10, 10, 90, 90)
    assert sn.report_region(inner) <= sn.report_region(outer)
    # a partition of the grid reports every object exactly once
    quads = [
        Region(0, 0, 63, 63),
        Region(64, 0, 127, 63),
        Region(0, 64, 63, 127),
        Region(64, 64, 127, 127),
    ]
    merged = [hit for q in quads for hit in sn.report_region(q)]
    assert len(merged) == len(points)
    assert set(merged) == {tuple(p) for p in points}
