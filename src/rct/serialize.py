"""Binary index file, format v4: magic RCT1, little-endian scalars, raw columns.

A column is its typecode (one ASCII byte: b/B, h/H, i/I or q/Q for 8-,
16-, 32- and 64-bit signed/unsigned), its length as a u64, then its items
raw and little-endian, so a load reads each column straight into an array
of its length.  The file ends with the CRC-32 of everything before it, as
a u32; a load checks it first, reading the file in 64 KiB pieces, then
decodes the sections in order, and never holds the whole file in memory.
"""

from __future__ import annotations

import io
import os
import struct
import sys
import zlib
from array import array
from fractions import Fraction
from itertools import chain
from operator import add, lt, sub
from pathlib import Path
from typing import Union

from .bitvec import BitVector
from .index import RCTIndex, _as_fraction, _largest_step
from .k2tree import Snapshot, grid_side
from .reference import Reference
from .rlz import PhraseTable, TrajectoryLog
from .rmq import compact

MAGIC = b"RCT1"
VERSION = 4
_HEAD = struct.Struct("<4sH")
_CRC = struct.Struct("<I")
_TYPECODES = frozenset("bBhHiIqQ")
_BIG_ENDIAN = sys.byteorder == "big"
_PIECE = 1 << 16  # bytes read at a time for the checksum


class IndexFormatError(Exception):
    """The file is not a readable index of a supported version."""


def _write_column(out: bytearray, values) -> None:
    column = compact(values)
    out.extend(column.typecode.encode("ascii"))
    out.extend(struct.pack("<Q", len(column)))
    if _BIG_ENDIAN:
        column = array(column.typecode, column)  # a copy: compact may return `values` itself
        column.byteswap()
    out.extend(column.tobytes())


class _Reader:
    """The sections of an open index file, read in order up to its trailer at `end`."""

    def __init__(self, fh, at: int, end: int):
        self.fh, self.at, self.end = fh, at, end

    def claim(self, size: int) -> None:
        """Count the next `size` bytes as read; a file that ends sooner is truncated."""
        if self.at + size > self.end:
            raise IndexFormatError(f"truncated index file: {size} bytes wanted at offset {self.at}")
        self.at += size

    def take(self, size: int) -> bytes:
        self.claim(size)
        return self.fh.read(size)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def column(self) -> array:
        code = chr(self.take(1)[0])
        if code not in _TYPECODES:
            raise IndexFormatError(f"unknown column typecode {code!r} at offset {self.at - 1}")
        (n,) = self.unpack("<Q")
        zero = bytes(array(code).itemsize)
        self.claim(n * len(zero))  # before the column is allocated
        column = array(code, zero) * n
        if self.fh.readinto(column) != n * len(zero):
            raise IndexFormatError(f"truncated index file: it ended inside the column before offset {self.at}")
        if _BIG_ENDIAN:
            column.byteswap()
        return column

    def columns(self, count: int) -> list[array]:
        """`count` columns of one length."""
        out = [self.column() for _ in range(count)]
        if len({len(c) for c in out}) > 1:
            raise IndexFormatError(f"columns of unequal lengths {[len(c) for c in out]}")
        return out

    def bitvector(self) -> BitVector:
        head = self.take(8)
        return BitVector.from_bytes(head + self.take(8 * -(-struct.unpack("<Q", head)[0] // 64)))[0]


# -- whole files --------------------------------------------------------------


def save_index(index: RCTIndex, target: Union[str, Path, io.BufferedIOBase]) -> int:
    """Serialize a built index; returns the number of bytes written.

    Layout after the header: the reference (alphabet dx, dy and step ids),
    the objects (id, start time, start x, start y, move count, phrase
    count), the eight PhraseTable columns, the snapshots (their periods,
    then the k2-tree bitmap, the id-run bitmap and the cell ids each), the
    appearance lists (periods, list lengths, ids) and the CRC-32 trailer.
    Snapshot timestamps and sides follow from the periods and the header.
    """
    index._check_fitted()
    frac = _as_fraction(index.ref_fraction)
    out = bytearray(_HEAD.pack(MAGIC, VERSION))
    out.extend(struct.pack("<IIQQI", index.period, index.k, frac.numerator, frac.denominator, index.block_length))
    out.extend(struct.pack("<QQQ", index.grid_[0], index.grid_[1], index.max_speed_))
    ref = index.reference_
    _write_column(out, [dx for dx, _ in ref.alphabet])
    _write_column(out, [dy for _, dy in ref.alphabet])
    _write_column(out, ref.ids)
    logs = sorted(index.logs_.values(), key=lambda log: log.base)
    _write_column(out, [log.object_id for log in logs])
    _write_column(out, [log.start_time for log in logs])
    _write_column(out, [log.start_pos[0] for log in logs])
    _write_column(out, [log.start_pos[1] for log in logs])
    _write_column(out, [log.move_count for log in logs])
    _write_column(out, [log.phrase_count for log in logs])
    for column in index.phrases_.columns():
        _write_column(out, column)
    _write_column(out, [sn.timestamp // index.period for sn in index.snapshots_])
    for sn in index.snapshots_:
        out.extend(sn.bits.to_bytes())
        out.extend(sn.run_starts.to_bytes())
        _write_column(out, sn.cell_ids)
    periods = sorted(index.appearances_)
    _write_column(out, periods)
    _write_column(out, [len(index.appearances_[q]) for q in periods])
    _write_column(out, [oid for q in periods for oid in index.appearances_[q]])
    out.extend(_CRC.pack(zlib.crc32(out)))
    data = bytes(out)
    if isinstance(target, (str, Path)):
        with open(target, "wb") as fh:
            fh.write(data)
    else:
        target.write(data)
    return len(data)


def load_index(source: Union[str, Path, io.BufferedIOBase]) -> RCTIndex:
    """Read an index file back; query behaviour is identical to the original.

    Raises IndexFormatError for a file of another format or version, for
    one whose checksum does not match, and for one whose sections end
    early or do not fit together.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            if fh.seekable():
                return _load(fh, os.fstat(fh.fileno()).st_size)
            data = fh.read()  # a pipe, whose length is known only at its end
    else:
        data = source.read()
    return _load(io.BytesIO(data), len(data))


def _load(fh, size: int) -> RCTIndex:
    """Check the `size`-byte index file open at its start as `fh`, then decode it."""
    head = fh.read(_HEAD.size)
    if head[:4] != MAGIC:
        raise IndexFormatError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
    try:
        # the version comes first, so that older files are told to rebuild, not that they are damaged
        _, version = _HEAD.unpack(head)
        if version != VERSION:
            raise IndexFormatError(
                f"unsupported index version {version}; this build reads version {VERSION}, rebuild the index"
            )
        crc = zlib.crc32(head)
        for at in range(_HEAD.size, size - _CRC.size, _PIECE):
            crc = zlib.crc32(fh.read(min(_PIECE, size - _CRC.size - at)), crc)
        if fh.read() != _CRC.pack(crc):  # what is left must be the trailer
            raise IndexFormatError("index file checksum mismatch: the file is damaged or truncated")
        fh.seek(_HEAD.size)
        return _decode(_Reader(fh, _HEAD.size, size - _CRC.size))
    except (struct.error, ValueError, IndexError, OverflowError) as exc:
        raise IndexFormatError(f"corrupt index file: {exc}") from exc


def _decode(r: _Reader) -> RCTIndex:
    period, k, num, den, block_length = r.unpack("<IIQQI")
    if den == 0 or period < 1 or k < 2:
        raise IndexFormatError("corrupt configuration block")
    max_x, max_y, max_speed = r.unpack("<QQQ")
    dxs, dys = r.columns(2)
    reference = Reference.from_parts(list(zip(dxs, dys)), r.column())
    speed = _largest_step(reference)
    if max_speed != speed:
        raise IndexFormatError(f"max speed {max_speed} is not the reference's largest step {speed}")

    object_ids, start_times, start_xs, start_ys, move_counts, phrase_counts = r.columns(6)
    phrases = PhraseTable(r.columns(len(PhraseTable.COLUMNS)))
    if len(phrases) != sum(phrase_counts):
        raise IndexFormatError(f"{len(phrases)} phrase rows for {sum(phrase_counts)} phrases")
    # every position is a start or lies in a phrase's box
    grid = (max(chain(start_xs, phrases.x_max), default=0), max(chain(start_ys, phrases.y_max), default=0))
    if (max_x, max_y) != grid:
        raise IndexFormatError(f"grid {max_x} x {max_y} is not the positions' extent {grid[0]} x {grid[1]}")
    logs = {}
    base = 0
    for oid, t0, x0, y0, n, z in zip(object_ids, start_times, start_xs, start_ys, move_counts, phrase_counts):
        if not (0 < z <= n or z == n == 0):
            raise IndexFormatError(f"object {oid}: {z} phrases for {n} moves")
        if z:
            _check_phrases(oid, phrases.firsts[base : base + z], phrases.starts[base : base + z], n, len(reference))
        logs[oid] = TrajectoryLog(oid, t0, (x0, y0), n, z, phrases, base)
        base += z

    side = grid_side((max_x, max_y), k)
    snapshots = []
    for q in r.column():
        snapshot = Snapshot(q * period, side, k, r.bitvector(), r.bitvector(), r.column())
        snapshot.check_shape()
        _check_ids("snapshot", snapshot.cell_ids, logs)
        snapshots.append(snapshot)

    periods, lengths, ids = r.columns(2) + [r.column()]
    if sum(lengths) != len(ids):
        raise IndexFormatError(f"appearance lists of {sum(lengths)} ids hold {len(ids)}")
    _check_ids("appearance", ids, logs)
    appearances = {}
    at = 0
    for q, size in zip(periods, lengths):
        appearances[q] = ids[at : at + size].tolist()
        at += size
    if r.at != r.end:
        raise IndexFormatError(f"{r.end - r.at} unread bytes after the last section")

    index = RCTIndex(period=period, k=k, ref_fraction=Fraction(num, den), block_length=block_length)
    t_max = max((log.end_time for log in logs.values()), default=0)
    index._adopt((max_x, max_y), max_speed, t_max, reference, phrases, logs, snapshots, appearances)
    return index


def _check_phrases(oid: int, firsts: array, starts: array, n: int, m: int) -> None:
    """Check that one object's phrases begin at increasing moves from move 1 up to
    move n, and that each copies only steps 1..m of the reference.
    """
    nexts = firsts[1:]  # where the phrase after each begins; n + 1 after the last
    if firsts[0] != 1 or not all(map(lt, firsts, chain(nexts, (n + 1,)))):
        raise IndexFormatError(f"object {oid}: phrases do not begin at move 1 and at increasing moves up to {n}")
    # phrase k copies steps starts[k] .. starts[k] + (nexts[k] - firsts[k]) - 1
    if min(starts) < 1 or max(map(add, starts, map(sub, chain(nexts, (n + 1,)), firsts))) > m + 1:
        raise IndexFormatError(f"object {oid}: phrases copy steps outside the reference of length {m}")


def _check_ids(where: str, ids, logs: dict) -> None:
    if not all(map(logs.__contains__, ids)):
        unknown = sorted(set(ids) - logs.keys())
        raise IndexFormatError(f"{where} ids {unknown[:3]} name no object")
