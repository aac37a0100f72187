import io
import random
import time

import pytest

from helpers import make_dataset, random_region
from rct import (
    NotFittedError,
    RCTIndex,
    RawStore,
    Region,
    SearchObject,
    TimeInterval,
    TimeSlice,
    Trajectory,
    TrajectoryBetween,
    run_query,
    validate_trajectories,
)


def small_fleet():
    return [
        Trajectory(1, 0, [(5, 5)] * 10),
        Trajectory(2, 2, [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)]),
        Trajectory(3, 7, [(9, 9), (8, 8)]),
    ]


def test_fit_builds_expected_snapshots():
    idx = RCTIndex(period=4).fit([Trajectory(1, 0, [(5, 5)] * 10)])
    assert [sn.timestamp for sn in idx.snapshots_] == [0, 4, 8]
    for sn in idx.snapshots_:
        assert sn.report_region(Region(0, 0, 5, 5)) == {(1, 5, 5)}


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        RCTIndex().fit([])
    with pytest.raises(ValueError):
        RCTIndex().fit([Trajectory(1, 0, [(0, 0)]), Trajectory(1, 0, [(1, 1)])])
    with pytest.raises(ValueError) as err:
        RCTIndex().fit([Trajectory(4, 3, [(0, 0), (-1, 0)])])
    assert "object 4" in str(err.value) and "timestamp 4" in str(err.value)


def test_estimator_params_roundtrip():
    idx = RCTIndex(period=8, k=3, ref_fraction="1/5", block_length=4)
    params = idx.get_params()
    assert params == {"period": 8, "k": 3, "ref_fraction": "1/5", "block_length": 4}
    clone = RCTIndex().set_params(**params)
    assert clone.get_params() == params
    with pytest.raises(ValueError):
        idx.set_params(snapshots=4)


def test_queries_require_fit():
    idx = RCTIndex()
    with pytest.raises(NotFittedError):
        idx.search_object(1, 0)
    with pytest.raises(NotFittedError):
        idx.time_slice((0, 0, 1, 1), 0)


def test_search_object_basics():
    idx = RCTIndex(period=4).fit(small_fleet())
    assert idx.search_object(1, 3) == (5, 5)
    assert idx.search_object(2, 2) == (0, 0)  # first instant is the start position
    assert idx.search_object(2, 6) == (4, 2)
    assert idx.search_object(2, 7) is None
    assert idx.search_object(3, 6) is None
    assert idx.search_object(3, 8) == (8, 8)
    with pytest.raises(KeyError):
        idx.search_object(99, 0)


def test_trajectory_basics():
    idx = RCTIndex(period=4).fit(small_fleet())
    assert idx.trajectory(2, 4, 4) == [(4, idx.search_object(2, 4)[0], idx.search_object(2, 4)[1])]
    full = idx.trajectory(2, 0, 50)
    assert full == [(2, 0, 0), (3, 1, 0), (4, 2, 1), (5, 3, 1), (6, 4, 2)]
    assert idx.trajectory(3, 0, 6) == []
    with pytest.raises(ValueError):
        idx.trajectory(2, 5, 4)


def test_time_slice_whole_grid_and_empty():
    idx = RCTIndex(period=4).fit(small_fleet())
    assert idx.time_slice((0, 0, 9, 9), 2) == [(1, 5, 5), (2, 0, 0)]
    assert idx.time_slice((0, 0, 9, 9), 8) == [(1, 5, 5), (3, 8, 8)]
    assert idx.time_slice((6, 0, 9, 4), 3) == []
    assert idx.time_slice((0, 0, 9, 9), 99) == []
    with pytest.raises(ValueError):
        idx.time_slice((5, 5, 4, 4), 2)


def test_time_interval_basics():
    idx = RCTIndex(period=4).fit(small_fleet())
    assert idx.time_interval((0, 0, 9, 9), 0, 9) == [1, 2, 3]
    assert idx.time_interval((4, 2, 4, 2), 0, 9) == [2]
    assert idx.time_interval((4, 2, 4, 2), 0, 5) == []
    # degenerate interval equals time-slice ids
    for t in range(10):
        slice_ids = [oid for oid, _, _ in idx.time_slice((2, 0, 7, 7), t)]
        assert idx.time_interval((2, 0, 7, 7), t, t) == slice_ids


def test_candidate_completeness():
    rng = random.Random(17)
    for _ in range(20):
        trajs = make_dataset(rng, max_objects=12, max_duration=120, grid=(255, 255))
        store = RawStore(trajs)
        idx = RCTIndex(period=rng.choice([4, 8, 16])).fit(trajs)
        for _ in range(30):
            region = random_region(rng, (255, 255))
            t = rng.randint(0, idx.t_max_)
            reported = {oid for oid, _, _ in store.time_slice(region, t)}
            if idx._off_grid(region):  # the queries return early; _slice_candidates is not asked
                assert reported == set()
                continue
            assert reported <= idx._slice_candidates(region, t)


def _check_hits(idx, tr, region, a, b):
    expected = any(
        region.contains(*tr.positions[t - tr.start_time])
        for t in range(max(a, tr.start_time), min(b, tr.end_time) + 1)
    )
    assert idx._hits_region_during(idx.logs_[tr.object_id], region, a, b) == expected, (region, a, b)


def test_candidate_verification_matches_scan():
    rng = random.Random(23)
    for _ in range(15):
        trajs = make_dataset(rng, max_objects=8, max_duration=150, grid=(127, 127))
        idx = RCTIndex(period=8).fit(trajs)
        for tr in trajs:
            log = idx.logs_[tr.object_id]
            for _ in range(25):
                region = random_region(rng, (127, 127), tight=rng.random() < 0.5)
                a = rng.randint(0, idx.t_max_)
                _check_hits(idx, tr, region, a, rng.randint(a, idx.t_max_))
            # one-cell regions on visited positions, and spans ending on either side of
            # a phrase boundary, so that the walk starts or ends in a clipped phrase
            for j in rng.sample(range(1, log.phrase_count + 1), min(6, log.phrase_count)):
                first, last = log.phrase_first(j), log.phrase_last(j)
                ends = sorted({tr.start_time + t for t in (first - 1, first, last, last + 1)})
                for offset in {first, (first + last) // 2, last}:
                    region = Region(*tr.positions[offset], *tr.positions[offset])
                    t = tr.start_time + offset
                    for a in ends + [t - 1, t, t + 1]:
                        for b in ends + [t - 1, t, t + 1]:
                            if a <= b:
                                _check_hits(idx, tr, region, a, b)
    # one phrase of 2000 steps along an L: regions in the corner that its box holds but
    # its path misses, regions across the path, and spans clipped inside the phrase
    tr = Trajectory(5, 3, [(4 + x, 6) for x in range(1000)] + [(1003, 7 + y) for y in range(1001)])
    idx = RCTIndex(period=64, ref_fraction=1, block_length=len(tr.positions)).fit([tr])
    assert idx.logs_[5].phrase_count == 1 and idx.logs_[5].phrase_box(1, 1) == (5, 6, 1003, 1007)
    regions = [Region(4, 7, 1002, 1007), Region(500, 500, 1002, 1007), Region(5, 7, 5, 7), Region(1002, 7, 1002, 7)]
    for _ in range(60):
        x1, y1 = rng.randint(0, 1010), rng.randint(0, 1010)
        regions.append(Region(x1, y1, x1 + rng.randint(0, 40), y1 + rng.randint(0, 40)))
    for region in regions:
        for _ in range(8):
            a = rng.randint(0, tr.end_time + 2)
            _check_hits(idx, tr, region, a, rng.randint(a, tr.end_time + 2))
        for a, b in [(0, tr.end_time), (3, 4), (4, 1002), (1002, 1003), (1003, 2003), (2002, 2002)]:
            _check_hits(idx, tr, region, a, b)


QUERY_MIX = ("search", "trajectory", "slice", "interval")


def random_query(rng, idx):
    ids = sorted(idx.logs_)
    kind = rng.choice(QUERY_MIX)
    t_max = idx.t_max_
    if kind == "search":
        return SearchObject(rng.choice(ids), rng.randint(-2, t_max + 3))
    if kind == "trajectory":
        a = rng.randint(-2, t_max + 2)
        return TrajectoryBetween(rng.choice(ids), a, a + rng.randint(0, 60))
    region = random_region(rng, idx.grid_, tight=rng.random() < 0.4)
    if kind == "slice":
        return TimeSlice(region, rng.randint(0, t_max))
    a = rng.randint(0, t_max)
    return TimeInterval(region, a, min(a + rng.randint(0, 50), t_max))


def test_oracle_equivalence_randomized():
    rng = random.Random(2024)
    for round_no in range(12):
        trajs = make_dataset(rng, max_objects=15, max_duration=200)
        idx = RCTIndex(period=rng.choice([4, 8, 16, 32])).fit(trajs)
        store = RawStore(trajs)
        for _ in range(120):
            q = random_query(rng, idx)
            assert run_query(idx, q) == run_query(store, q), f"query {q} diverged"


def test_interval_reports_each_id_once():
    rng = random.Random(31)
    trajs = make_dataset(rng, max_objects=10, max_duration=100, grid=(63, 63))
    idx = RCTIndex(period=4).fit(trajs)
    for _ in range(50):
        region = random_region(rng, (63, 63))
        a = rng.randint(0, idx.t_max_)
        b = min(a + rng.randint(0, 40), idx.t_max_)
        ids = idx.time_interval(region, a, b)
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)


def test_max_speed_covers_all_movements():
    rng = random.Random(37)
    trajs = make_dataset(rng, max_objects=10, max_duration=80)
    idx = RCTIndex(period=8).fit(trajs)
    worst = 0
    for tr in trajs:
        for (x0, y0), (x1, y1) in zip(tr.positions, tr.positions[1:]):
            worst = max(worst, abs(x1 - x0), abs(y1 - y0))
    assert idx.max_speed_ == worst


def test_single_position_objects():
    trajs = [Trajectory(1, 5, [(3, 4)]), Trajectory(2, 0, [(0, 0), (1, 1)])]
    idx = RCTIndex(period=4).fit(trajs)
    assert idx.search_object(1, 5) == (3, 4)
    assert idx.search_object(1, 4) is None
    assert idx.trajectory(1, 0, 10) == [(5, 3, 4)]
    assert idx.time_slice((3, 4, 3, 4), 5) == [(1, 3, 4)]
    assert idx.time_interval((3, 4, 3, 4), 0, 10) == [1]
    assert idx.time_interval((3, 4, 3, 4), 6, 10) == []


@pytest.mark.parametrize("k", [3, 4])
def test_non_default_arity(k):
    rng = random.Random(400 + k)
    trajs = make_dataset(rng, max_objects=12, max_duration=120, grid=(500, 500))
    idx = RCTIndex(period=8, k=k).fit(trajs)
    store = RawStore(trajs)
    for _ in range(150):
        region = random_region(rng, (500, 500))
        t = rng.randint(0, idx.t_max_)
        assert idx.time_slice(region, t) == store.time_slice(region, t)
        b = min(t + rng.randint(0, 30), idx.t_max_)
        assert idx.time_interval(region, t, b) == store.time_interval(region, t, b)


def test_many_objects_sharing_one_cell():
    stack = [Trajectory(i, 0, [(7, 7)] * 20) for i in range(60)]
    idx = RCTIndex(period=4).fit(stack)
    assert idx.time_slice((7, 7, 7, 7), 10) == [(i, 7, 7) for i in range(60)]
    assert idx.time_interval((7, 7, 7, 7), 3, 4) == list(range(60))
    assert idx.time_slice((0, 0, 6, 6), 10) == []


def test_concurrent_readers_match_serial():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(31337)
    trajs = make_dataset(rng, max_objects=12, max_duration=200)
    idx = RCTIndex(period=16).fit(trajs)
    queries = [random_query(rng, idx) for _ in range(300)]
    serial = [run_query(idx, q) for q in queries]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda q: run_query(idx, q), queries))
    assert serial == threaded


def test_save_returns_the_bytes_written(tmp_path):
    idx = RCTIndex(period=4).fit(small_fleet())
    path = tmp_path / "small.rct"
    written = idx.save(path)
    assert written == path.stat().st_size > 0
    buf = io.BytesIO()
    assert idx.save(buf) == len(buf.getvalue()) == written


def test_numpy_integers_are_accepted_as_plain_ints():
    np = pytest.importorskip("numpy")
    plain = small_fleet()
    wrapped = [
        Trajectory(np.int64(tr.object_id), np.int32(tr.start_time), list(np.array(tr.positions, dtype=np.int64)))
        for tr in plain
    ]
    checked = validate_trajectories(wrapped)
    for tr, ref in zip(checked, plain):
        assert type(tr.object_id) is int and type(tr.start_time) is int
        assert all(type(x) is int and type(y) is int for x, y in tr.positions)
        assert (tr.object_id, tr.start_time, tr.positions) == (ref.object_id, ref.start_time, ref.positions)
    assert all(type(tr.object_id) is np.int64 for tr in wrapped)  # the input is left as it was
    idx = RCTIndex(period=4).fit(wrapped)
    store = RawStore(plain)
    for t in range(12):
        assert idx.time_slice((0, 0, 9, 9), t) == store.time_slice((0, 0, 9, 9), t)
        assert idx.time_interval((2, 0, 7, 7), t, t + 3) == store.time_interval((2, 0, 7, 7), t, t + 3)
    assert idx.search_object(np.int64(2), 6) == (4, 2)


def test_values_too_wide_for_64_bits_are_rejected():
    for x in (2**63, 2**64):
        with pytest.raises(ValueError) as err:
            RCTIndex().fit([Trajectory(3, 5, [(0, 0), (1, 1), (x, 1)])])
        assert "object 3" in str(err.value) and "timestamp 7" in str(err.value)
    with pytest.raises(ValueError):
        RCTIndex().fit([Trajectory(2**63, 0, [(0, 0)])])


def test_coordinates_of_two_to_the_forty_answer_exactly(tmp_path):
    far = 2**40
    trajs = [
        Trajectory(1, 0, [(far + k, 7) for k in range(40)]),
        Trajectory(2, 3, [(k, far - 2 * k) for k in range(30)]),
        Trajectory(3, 5, [(far, far)] * 20),
    ]
    idx = RCTIndex(period=8).fit(trajs)
    idx.save(tmp_path / "far.rct")
    back = RCTIndex.load(tmp_path / "far.rct")
    store = RawStore(trajs)
    regions = [(0, 0, far, far), (far, 0, far + 10, 10), (0, far - 20, 5, far), (far, far, far, far)]
    for engine in (idx, back):
        for oid in (1, 2, 3):
            assert engine.trajectory(oid, 0, 50) == store.trajectory(oid, 0, 50)
        for region in regions:
            for t in range(0, 45, 3):
                assert engine.time_slice(region, t) == store.time_slice(region, t)
                assert engine.time_interval(region, t, t + 6) == store.time_interval(region, t, t + 6)


def test_periods_without_active_objects_build_no_snapshot(tmp_path):
    # period=1 and a gap of 2^40 timestamps: one snapshot per period would never finish
    far = 2**40
    trajs = [Trajectory(1, 0, [(3, 4), (4, 4)]), Trajectory(2, far, [(9, 1), (8, 2)])]
    started = time.perf_counter()
    idx = RCTIndex(period=1).fit(trajs)
    assert time.perf_counter() - started < 1.0
    assert len(idx.snapshots_) <= 4
    idx.save(tmp_path / "gap.rct")
    back = RCTIndex.load(tmp_path / "gap.rct")
    store = RawStore(trajs)
    times = [0, 1, 2, 5, far - 1, far, far + 1, far + 2]
    regions = [(0, 0, 9, 9), (3, 4, 3, 4), (8, 0, 9, 1), (4, 0, 9, 4)]
    for engine in (idx, back):
        assert [sn.timestamp for sn in engine.snapshots_] == [0, 1, far, far + 1]
        for region in regions:
            for t in times:
                assert engine.time_slice(region, t) == store.time_slice(region, t)
            for a in times:
                for b in times:
                    if a <= b:
                        assert engine.time_interval(region, a, b) == store.time_interval(region, a, b)
