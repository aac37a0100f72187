"""Succinct k2-tree snapshot of object positions at one timestamp."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .bitvec import BitVector
from .rmq import compact


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

    def _ids_at(self, ordinal: int) -> Sequence[int]:
        """Ids of the `ordinal`-th occupied cell (1-based, traversal order)."""
        start = self.run_starts.select1(ordinal) - 1
        if ordinal < self.run_starts.ones:
            end = self.run_starts.select1(ordinal + 1) - 1
        else:
            end = len(self.cell_ids)
        return self.cell_ids[start:end]

    def report_region(self, region) -> set[tuple[int, int, int]]:
        """All (object_id, x, y) with x1 <= x <= x2 and y1 <= y <= y2."""
        x1, y1, x2, y2 = region
        if x1 > x2 or y1 > y2:
            raise ValueError(f"malformed region {region!r}")
        x1, y1 = max(x1, 0), max(y1, 0)
        x2, y2 = min(x2, self.side - 1), min(y2, self.side - 1)
        out: set[tuple[int, int, int]] = set()
        if x1 > x2 or y1 > y2:
            return out
        k, bits = self.k, self.bits
        # rank1 of a cell's bit minus this is the cell's ordinal
        above_cells = len(bits) // (k * k) - 1
        # stack entries: (first child bit position, cell origin, node size)
        stack = [(0, 0, 0, self.side)]
        while stack:
            base, ox, oy, size = stack.pop()
            sub = size // k
            for r in range(k):
                cy = oy + r * sub
                if cy > y2 or cy + sub - 1 < y1:
                    continue
                for c in range(k):
                    cx = ox + c * sub
                    if cx > x2 or cx + sub - 1 < x1:
                        continue
                    q = base + r * k + c + 1
                    if not bits.access(q):
                        continue
                    if sub == 1:
                        for oid in self._ids_at(bits.rank1(q) - above_cells):
                            out.add((oid, cx, cy))
                    else:
                        stack.append((bits.rank1(q) * k * k, cx, cy, sub))
        return out

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
