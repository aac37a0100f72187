import gc
import io
import random
import tracemalloc
import zlib
from array import array

import pytest

from helpers import make_dataset, random_region, random_walk
from rct import BitVector, RangeExtremumIndex, RCTIndex, Trajectory, load_index, save_index
from rct.cli import main
from rct.serialize import IndexFormatError


def roundtrip(idx):
    buf = io.BytesIO()
    save_index(idx, buf)
    buf.seek(0)
    return load_index(buf)


def test_roundtrip_preserves_queries():
    rng = random.Random(55)
    for _ in range(8):
        trajs = make_dataset(rng, max_objects=10, max_duration=120)
        idx = RCTIndex(period=rng.choice([4, 16]), ref_fraction="1/8").fit(trajs)
        back = roundtrip(idx)
        assert back.period == idx.period and back.k == idx.k
        assert back.grid_ == idx.grid_
        assert back.max_speed_ == idx.max_speed_
        assert back.t_max_ == idx.t_max_
        for oid in idx.logs_:
            for t in range(-1, idx.t_max_ + 2):
                assert back.search_object(oid, t) == idx.search_object(oid, t)
        for _ in range(60):
            region = random_region(rng, idx.grid_)
            t = rng.randint(0, idx.t_max_)
            assert back.time_slice(region, t) == idx.time_slice(region, t)
            b = min(t + rng.randint(0, 30), idx.t_max_)
            assert back.time_interval(region, t, b) == idx.time_interval(region, t, b)


def test_roundtrip_via_file(tmp_path):
    rng = random.Random(56)
    trajs = make_dataset(rng, max_objects=5, max_duration=50)
    idx = RCTIndex(period=8).fit(trajs)
    path = tmp_path / "fleet.rct"
    idx.save(path)
    back = RCTIndex.load(path)
    for oid in idx.logs_:
        assert back.trajectory(oid, 0, idx.t_max_) == idx.trajectory(oid, 0, idx.t_max_)


@pytest.fixture(scope="module")
def walks():
    """An index of 26 random walks whose file, over 256 KiB, is longer than one piece."""
    rng = random.Random(66)
    trajs = [Trajectory(oid, rng.randint(0, 50), random_walk(rng, 1300, (999, 999), speed=3)) for oid in range(26)]
    idx = RCTIndex().fit(trajs)
    buf = io.BytesIO()
    save_index(idx, buf)
    return idx, buf.getvalue()


def test_load_holds_little_of_the_file(walks, tmp_path):
    # the checksum is read in pieces and each column straight into its array,
    # so a load holds little of the file besides the index it builds
    idx, data = walks
    path = tmp_path / "walks.rct"
    path.write_bytes(data)
    assert len(data) >= 256 * 1024
    gc.collect()
    tracemalloc.start()
    try:
        back = load_index(path)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - live < len(data) / 3
    from_buffer = load_index(io.BytesIO(data))
    rng = random.Random(67)
    for _ in range(40):
        region = random_region(rng, idx.grid_)
        t = rng.randint(0, idx.t_max_)
        b = min(t + rng.randint(0, 40), idx.t_max_)
        oid = rng.randrange(26)
        for loaded in (back, from_buffer):
            assert loaded.time_slice(region, t) == idx.time_slice(region, t)
            assert loaded.time_interval(region, t, b) == idx.time_interval(region, t, b)
            assert loaded.trajectory(oid, t, b) == idx.trajectory(oid, t, b)


def test_long_file_damage_is_rejected(walks, tmp_path):
    # a file longer than one piece is checked and decoded in passes over the file
    _, data = walks
    path = tmp_path / "damaged.rct"
    for cut in (5, 100, 65536, 65541, 70000, len(data) - 5, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(IndexFormatError):
            load_index(path)
    for at in (3, 70000, len(data) - 2):
        damaged = bytearray(data)
        damaged[at] ^= 0x10
        path.write_bytes(bytes(damaged))
        with pytest.raises(IndexFormatError):
            load_index(path)
    # a column length past the end of the file, under a matching checksum, fails before allocating
    crafted = bytearray(data[:-4])
    crafted[59:67] = (1 << 40).to_bytes(8, "little")  # the alphabet's dx column
    crafted += zlib.crc32(crafted).to_bytes(4, "little")
    path.write_bytes(bytes(crafted))
    with pytest.raises(IndexFormatError, match="truncated"):
        load_index(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.rct"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(IndexFormatError):
        load_index(path)


def test_bad_version_rejected(tmp_path):
    rng = random.Random(57)
    idx = RCTIndex(period=8).fit(make_dataset(rng, max_objects=3, max_duration=30))
    buf = io.BytesIO()
    save_index(idx, buf)
    data = bytearray(buf.getvalue())
    for version in (1, 2, 3, 99):  # 1: before the raw columns; 2: before the checksum; 3: two k2-tree bitmaps
        data[4:6] = version.to_bytes(2, "little")
        with pytest.raises(IndexFormatError, match="rebuild"):
            load_index(io.BytesIO(bytes(data)))


def test_fraction_survives_roundtrip():
    rng = random.Random(58)
    idx = RCTIndex(ref_fraction=0.25).fit(make_dataset(rng, max_objects=3, max_duration=30))
    back = roundtrip(idx)
    from fractions import Fraction

    assert Fraction(back.ref_fraction) == Fraction(1, 4)


def test_every_truncation_fails_cleanly(tmp_path, capsys):
    # cutting at every prefix length of a small index cuts at every section
    # boundary and inside every section
    rng = random.Random(61)  # 4 objects, 11 phrases, 2 appearance lists: 626 bytes
    idx = RCTIndex(period=4).fit(make_dataset(rng, max_objects=4, max_duration=40))
    buf = io.BytesIO()
    save_index(idx, buf)
    data = buf.getvalue()
    assert len(data) >= 200
    oid = min(idx.logs_)
    path = tmp_path / "cut.rct"
    for cut in range(len(data)):
        with pytest.raises(IndexFormatError):
            load_index(io.BytesIO(data[:cut]))
        path.write_bytes(data[:cut])
        assert main(["query", str(path), "search-object", "--id", str(oid), "--t", "0"]) == 2
        assert "data error" in capsys.readouterr().err


def test_every_copy_with_flipped_bits_is_rejected(tmp_path, capsys):
    # the CRC-32 trailer detects every error of up to three bits in a file
    # this small, wherever the bits sit: header, body or the trailer itself
    rng = random.Random(62)
    idx = RCTIndex(period=4).fit(make_dataset(rng, max_objects=6, max_duration=60))
    buf = io.BytesIO()
    save_index(idx, buf)
    data = buf.getvalue()
    oid = min(idx.logs_)
    path = tmp_path / "flipped.rct"
    for copy in range(1000):
        damaged = bytearray(data)
        for bit in rng.sample(range(8 * len(data)), rng.randint(1, 3)):
            damaged[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IndexFormatError):
            load_index(io.BytesIO(bytes(damaged)))
        if copy % 50 == 0:
            path.write_bytes(bytes(damaged))
            assert main(["query", str(path), "search-object", "--id", str(oid), "--t", "0"]) == 2
            assert "data error" in capsys.readouterr().err


def _built_by_load(monkeypatch, data: bytes) -> tuple[int, int]:
    """How many bitvectors and range-extremum indexes loading `data` builds."""
    bitvectors, extremum_indexes = [], []
    from_bytes, init, rmq_init = BitVector.from_bytes.__func__, BitVector.__init__, RangeExtremumIndex.__init__

    def counted_from_bytes(cls, *args):
        bitvectors.append(1)
        return from_bytes(cls, *args)

    def counted_init(self, *args):
        bitvectors.append(1)
        init(self, *args)

    def counted_rmq_init(self, *args):
        extremum_indexes.append(1)
        rmq_init(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(BitVector, "from_bytes", classmethod(counted_from_bytes))
        patch.setattr(BitVector, "__init__", counted_init)
        patch.setattr(RangeExtremumIndex, "__init__", counted_rmq_init)
        load_index(io.BytesIO(data))
    return len(bitvectors), len(extremum_indexes)


def test_load_builds_nothing_per_object(monkeypatch):
    # same t_max and period, so the same snapshots: only the object count differs
    rng = random.Random(63)
    counts = []
    for objects in (5, 50):
        fleet = [Trajectory(oid, 0, [(rng.randint(0, 99), rng.randint(0, 99)) for _ in range(41)])
                 for oid in range(objects)]
        buf = io.BytesIO()
        save_index(RCTIndex(period=8).fit(fleet), buf)
        counts.append(_built_by_load(monkeypatch, buf.getvalue()))
    # two bitvectors per snapshot, t = 0, 8, ..., 40; boxes are scanned from the stored columns
    assert counts[0] == counts[1] == (2 * 6, 0)


def test_load_keeps_the_saved_columns():
    # loaded columns are used as read, so they must come back as narrow as fit made them
    rng = random.Random(64)
    idx = RCTIndex(period=8).fit(make_dataset(rng, max_objects=10, max_duration=120))
    back = roundtrip(idx)
    pairs = list(zip(idx.phrases_.columns(), back.phrases_.columns()))
    pairs += [(getattr(idx.reference_, name), getattr(back.reference_, name)) for name in ("cum_x", "cum_y")]
    for fitted, loaded in pairs:
        assert loaded.typecode == fitted.typecode
        assert loaded == fitted


def _cut_bitmap(idx):
    sn = idx.snapshots_[0]
    sn.bits = BitVector(sn.bits.to01()[:4])


def _padded_bitmap(idx):
    sn = idx.snapshots_[0]
    sn.bits = BitVector(sn.bits.to01() + "0000")


def _drop_cell_id(idx):
    sn = idx.snapshots_[0]
    sn.cell_ids = sn.cell_ids[:-1]


def _unknown_cell_id(idx):
    sn = idx.snapshots_[0]
    sn.cell_ids = [max(idx.logs_) + 1] + list(sn.cell_ids[1:])


def _unknown_appearance_id(idx):
    q = min(idx.appearances_)
    idx.appearances_[q] = idx.appearances_[q] + [max(idx.logs_) + 1]


def _run_start_moved(idx):
    # the same number of id runs, but the first id starts none
    sn = next(sn for sn in idx.snapshots_ if len(sn.cell_ids) > sn.run_starts.ones)
    bits = sn.run_starts.to01()
    sn.run_starts = BitVector("0" + bits[1:bits.index("0", 1)] + "1" + bits[bits.index("0", 1) + 1:])


def _start_past_reference(idx):
    starts = array("q", idx.phrases_.starts)
    starts[len(starts) // 2] = len(idx.reference_) + 1
    idx.phrases_.starts = starts


def _start_zero(idx):
    starts = array("q", idx.phrases_.starts)
    starts[0] = 0
    idx.phrases_.starts = starts


def _first_phrase_not_at_one(idx):
    firsts = array("q", idx.phrases_.firsts)
    firsts[idx.logs_[0].base] = 2
    idx.phrases_.firsts = firsts


def _last_phrase_past_moves(idx):
    log = idx.logs_[0]
    firsts = array("q", idx.phrases_.firsts)
    firsts[log.base + log.phrase_count - 1] = log.move_count + 1
    idx.phrases_.firsts = firsts


def _repeated_first(idx):
    log = idx.logs_[0]
    firsts = array("q", idx.phrases_.firsts)
    firsts[log.base + 2] = firsts[log.base + 1]
    idx.phrases_.firsts = firsts


def _firsts_swapped(idx):
    log = idx.logs_[0]
    firsts = array("q", idx.phrases_.firsts)
    firsts[log.base + 1], firsts[log.base + 2] = firsts[log.base + 2], firsts[log.base + 1]
    idx.phrases_.firsts = firsts


def _phrase_runs_past_reference(idx):
    # a start inside the reference, but a phrase of several steps copies past its end
    log = idx.logs_[0]
    j = next(j for j in range(1, log.phrase_count + 1) if log.phrase_last(j) > log.phrase_first(j))
    starts = array("q", idx.phrases_.starts)
    starts[log.base + j - 1] = len(idx.reference_)
    idx.phrases_.starts = starts


def _speed_zero(idx):
    idx.max_speed_ = 0  # the snapshot filter would then miss every object that moved since its snapshot


def _grid_shrunk(idx):
    idx.grid_ = (idx.grid_[0] - 1, idx.grid_[1] - 1)


@pytest.mark.parametrize(
    "craft",
    [_cut_bitmap, _padded_bitmap, _drop_cell_id, _unknown_cell_id, _unknown_appearance_id, _run_start_moved,
     _start_past_reference, _start_zero, _first_phrase_not_at_one, _last_phrase_past_moves,
     _repeated_first, _firsts_swapped, _phrase_runs_past_reference, _speed_zero, _grid_shrunk],
)
def test_crafted_files_are_rejected(craft, tmp_path, capsys):
    # each file is well formed, with a matching checksum, but its parts do not fit together
    rng = random.Random(65)
    trajs = [Trajectory(oid, rng.choice([0, 3, 5]), [(rng.randint(0, 40), rng.randint(0, 40))] * 30)
             for oid in range(12)]
    trajs.append(Trajectory(12, 0, list(trajs[0].positions)))  # shares a cell with object 0
    trajs.append(Trajectory(13, 2, [(x, 7) for x in range(30)]))  # moves, so max speed is 1
    idx = RCTIndex(period=4).fit(trajs)
    craft(idx)
    path = tmp_path / "crafted.rct"
    idx.save(path)
    with pytest.raises(IndexFormatError):
        load_index(path)
    assert main(["query", str(path), "search-object", "--id", "0", "--t", "0"]) == 2
    assert "data error" in capsys.readouterr().err
