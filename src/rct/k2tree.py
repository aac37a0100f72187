"""Succinct k2-tree snapshot of object positions at one timestamp."""

from __future__ import annotations

from collections import deque
from itertools import compress, repeat
from operator import and_, rshift
from typing import Iterable, Sequence

from .bitvec import BitVector
from .rmq import compact

_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")  # a "0"/"1" string's bytes as bytes 0/1


def _set_bits(value: int, width: int) -> list[int]:
    """Offsets of the set bits of a `width`-bit value, in increasing order."""
    # peeling costs a few int operations per set bit, the digit pass a few per bit plus a fixed
    # part: the first is quicker up to a word (cut nodes and small covered subtrees), the second above
    if width <= 64:  # a word: peel off the lowest set bit
        out = []
        while value:
            low = value & -value
            out.append(low.bit_length() - 1)
            value ^= low
        return out
    # longer: one pass over its digits, lowest first
    return list(compress(range(width), bin(value | 1 << width)[:2:-1].encode().translate(_ZERO_ONE)))


class Snapshot:
    """Spatial record of every active object at one timestamp.

    The occupancy matrix is a k2-tree whose levels sit breadth-first in
    one bitmap `bits`, the single-cell level last: the children of the
    i-th 1 start at bit i * k^2, and every 1 above the cell level has k^2
    children, so len(bits) = k^2 * (1 + ones above the cell level).
    Object ids sit in `cell_ids`, grouped per occupied cell in traversal
    (Morton) order; `run_starts` has a 1 at the first id of each cell run.
    """

    __slots__ = ("timestamp", "side", "k", "bits", "run_starts", "cell_ids")

    def __init__(
        self,
        timestamp: int,
        side: int,
        k: int,
        bits: BitVector,
        run_starts: BitVector,
        cell_ids: Sequence[int],
    ):
        self.timestamp = timestamp
        self.side = side
        self.k = k
        self.bits = bits
        self.run_starts = run_starts
        self.cell_ids = cell_ids

    def report_region(self, region) -> set[tuple[int, int, int]]:
        """All (object_id, x, y) with x1 <= x <= x2 and y1 <= y <= y2.

        A node the region covers, the root included, is reported whole by
        `_sweep`; a node it cuts reads its k^2 child bits with one chunk and
        ranks its children with one rank1.
        """
        x1, y1, x2, y2 = region
        if x1 > x2 or y1 > y2:
            raise ValueError(f"malformed region {region!r}")
        x1, y1 = max(x1, 0), max(y1, 0)
        x2, y2 = min(x2, self.side - 1), min(y2, self.side - 1)
        out: set[tuple[int, int, int]] = set()
        if x1 > x2 or y1 > y2:
            return out
        k, bits = self.k, self.bits
        kk = k * k
        # rank1 of a cell's bit minus this is the cell's ordinal
        above_cells = len(bits) // kk - 1
        # stack entries: (bits before the node's children, node origin, node size)
        stack = [(0, 0, 0, self.side)]
        while stack:
            base, ox, oy, size = stack.pop()
            if x1 <= ox and ox + size <= x2 + 1 and y1 <= oy and oy + size <= y2 + 1:
                self._sweep(base, ox, oy, size, out)
                continue
            sub = size // k
            children = bits.chunk(base, kk)
            rank = bits.rank1(base)  # set children have consecutive ranks from one past this
            for j in range(kk):
                if not children >> j & 1:
                    continue
                rank += 1
                cx, cy = ox + j % k * sub, oy + j // k * sub
                if cx > x2 or cx + sub <= x1 or cy > y2 or cy + sub <= y1:
                    continue
                if sub == 1:
                    start, end = self._id_span(rank - above_cells, rank - above_cells)
                    out.update((oid, cx, cy) for oid in self.cell_ids[start:end])
                else:
                    stack.append((rank * kk, cx, cy, sub))
        return out

    def _sweep(self, base: int, ox: int, oy: int, size: int, out: set) -> None:
        """Add every point under the node of side `size` at (ox, oy) whose
        children start after bit `base`.

        The set nodes of one level under it have consecutive ranks, so
        their children are one run of bits: each level costs one chunk and
        at most one rank1, and the cells' ids are one slice of `cell_ids`.
        """
        k, bits = self.k, self.bits
        kk = k * k
        # a node's origin packed as y << shift | x; child j of a node of side k * s lies s * unit[j] past it
        shift = self.side.bit_length()
        unit = [(j // k << shift) + j % k for j in range(kk)]
        nodes = [oy << shift | ox]
        rank = bits.rank1(base)  # ones before the level's run
        while nodes:
            size //= k
            width = len(nodes) * kk
            # bit p of the run is child p % kk of node p // kk
            nodes = [nodes[p // kk] + unit[p % kk] * size for p in _set_bits(bits.chunk(base, width), width)]
            if size == 1:
                break
            after, base = base + width, (rank + 1) * kk
            # a run that ends where the next begins holds every one between them
            rank = rank + len(nodes) if base == after else bits.rank1(base)
        if not nodes:
            return
        first = rank + 1 - (len(bits) // kk - 1)
        start, end = self._id_span(first, first + len(nodes) - 1)
        if end - start > len(nodes):
            # some cell holds several ids: repeat each cell once per id of its run
            runs = _set_bits(self.run_starts.chunk(start, end - start), end - start) + [end - start]
            nodes = [node for node, a, b in zip(nodes, runs, runs[1:]) for _ in range(b - a)]
        low = (1 << shift) - 1
        out.update(zip(self.cell_ids[start:end], map(and_, nodes, repeat(low)), map(rshift, nodes, repeat(shift))))

    def _id_span(self, first: int, last: int) -> tuple[int, int]:
        """Slice of `cell_ids` holding the ids of occupied cells first..last (1-based ordinals)."""
        runs = self.run_starts
        if len(runs) == runs.ones:  # one id per cell
            return first - 1, last
        start = runs.select1(first) - 1
        end = runs.select1(last + 1) - 1 if last < runs.ones else len(runs)
        return start, end

    def check_shape(self) -> None:
        """Raise ValueError unless the bitmaps and ids fit `side` and `k` together."""
        kk, bits = self.k * self.k, self.bits
        end, above = kk, 0  # where the current level ends; the ones before it
        size = self.side
        while size > self.k:  # each level above the cells sets the next one's length
            if end > len(bits):
                raise ValueError(f"k2-tree bitmap of {len(bits)} bits ends inside the level of side {size}")
            ones = bits.rank1(end)
            end, above = end + kk * (ones - above), ones
            size //= self.k
        if end != len(bits):
            raise ValueError(f"k2-tree bitmap has {len(bits)} bits where its levels need {end}")
        cells = bits.ones - above
        runs = self.run_starts
        if len(runs) != len(self.cell_ids) or runs.ones != cells or (len(runs) and not runs.access(1)):
            raise ValueError(
                f"{cells} occupied cells, but {runs.ones} id runs in {len(runs)} bits over {len(self.cell_ids)} ids"
            )


def grid_side(grid: tuple[int, int], k: int) -> int:
    """Side of the k2-tree square over [0, max_x] x [0, max_y]: a power of k."""
    side = k
    while side < max(grid) + 1:
        side *= k
    return side


def build_snapshot(
    points: Iterable[tuple[int, int, int]],
    grid: tuple[int, int],
    k: int = 2,
    timestamp: int = 0,
) -> Snapshot:
    """Build a snapshot from (object_id, x, y) points on [0,max_x] x [0,max_y].

    The grid side is padded to the next power of k.  Several objects may
    share a cell; object ids must be unique within the snapshot.
    """
    max_x, max_y = grid
    if k < 2:
        raise ValueError("k must be at least 2")
    pts = list(points)
    seen_ids = set()
    for oid, x, y in pts:
        if not (0 <= x <= max_x and 0 <= y <= max_y):
            raise ValueError(f"point ({x}, {y}) of object {oid} outside grid {grid}")
        if oid in seen_ids:
            raise ValueError(f"duplicate object id {oid} in snapshot")
        seen_ids.add(oid)

    side = grid_side(grid, k)
    bits: list[int] = []
    run_starts: list[int] = []
    cell_ids: list[int] = []
    queue: deque = deque([(0, 0, side, pts)])
    while queue:
        ox, oy, size, node_pts = queue.popleft()
        sub = size // k
        buckets: list[list[tuple[int, int, int]]] = [[] for _ in range(k * k)]
        for p in node_pts:
            _, x, y = p
            buckets[((y - oy) // sub) * k + ((x - ox) // sub)].append(p)
        for idx, bucket in enumerate(buckets):
            bits.append(1 if bucket else 0)
            if not bucket:
                continue
            if sub == 1:
                ids = sorted(oid for oid, _, _ in bucket)
                run_starts.extend([1] + [0] * (len(ids) - 1))
                cell_ids.extend(ids)
            else:
                r, c = divmod(idx, k)
                queue.append((ox + c * sub, oy + r * sub, sub, bucket))
    return Snapshot(
        timestamp,
        side,
        k,
        BitVector(bits),
        BitVector(run_starts),
        compact(cell_ids),
    )
