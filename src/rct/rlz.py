"""LZ77 parsing against a fixed reference, and the per-trajectory log."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .reference import Reference
from .rmq import compact


@dataclass(frozen=True)
class Phrase:
    """One copied segment: `start` is 1-based in the reference, `length` >= 1."""

    start: int
    length: int


def suffix_array(seq: Sequence) -> list[int]:
    """Suffix array by prefix doubling; symbols only need a total order."""
    n = len(seq)
    if n == 0:
        return []
    order = {s: i for i, s in enumerate(sorted(set(seq)))}
    rank = [order[s] for s in seq]
    sa = list(range(n))
    span = 1
    while True:
        key = lambda i: (rank[i], rank[i + span] if i + span < n else -1)
        sa.sort(key=key)
        fresh = [0] * n
        for t in range(1, n):
            fresh[sa[t]] = fresh[sa[t - 1]] + (key(sa[t]) != key(sa[t - 1]))
        rank = fresh
        if rank[sa[-1]] == n - 1:
            return sa
        span *= 2


class ReferenceMatcher:
    """Longest-prefix searcher over a fixed sequence, for repeated parsing.

    Holds a suffix array; the smallest reference position among the
    equal-length matches a phrase ends on is the minimum of their short
    run of suffix array entries (deterministic tie-breaking).
    """

    def __init__(self, seq: Sequence):
        self._seq = list(seq)
        self._sa = suffix_array(self._seq)
        self._alphabet = set(self._seq)

    def __len__(self) -> int:
        return len(self._seq)

    def _narrow(self, lo: int, hi: int, offset: int, symbol) -> tuple[int, int]:
        """Sub-range of sa[lo:hi] whose suffixes continue with `symbol` at `offset`."""
        sa, seq = self._sa, self._seq
        m = len(seq)
        if sa[lo] + offset == m:  # the one suffix that ends here sorts first
            lo += 1
            if lo >= hi:
                return lo, lo
        a, b = lo, hi
        while a < b:
            mid = (a + b) // 2
            if seq[sa[mid] + offset] < symbol:
                a = mid + 1
            else:
                b = mid
        first = a
        b = hi
        while a < b:
            mid = (a + b) // 2
            if seq[sa[mid] + offset] <= symbol:
                a = mid + 1
            else:
                b = mid
        return first, a

    def parse(self, source: Sequence) -> list[Phrase]:
        """Greedy leftmost-longest factorization of `source` against the reference.

        Every phrase is the longest prefix of the remaining source occurring
        anywhere in the reference; ties go to the smallest start position.
        """
        phrases: list[Phrase] = []
        n = len(source)
        q = 0
        while q < n:
            if source[q] not in self._alphabet:
                raise ValueError(
                    f"symbol {source[q]!r} at position {q} does not occur in the reference"
                )
            lo, hi = 0, len(self._sa)
            length = 0
            while q + length < n:
                nlo, nhi = self._narrow(lo, hi, length, source[q + length])
                if nlo >= nhi:
                    break
                lo, hi, length = nlo, nhi, length + 1
            start = min(self._sa[lo:hi]) + 1
            phrases.append(Phrase(start, length))
            q += length
        return phrases


def decompress(phrases: Sequence[Phrase], seq: Sequence) -> list:
    """Concatenate the reference segments the phrases point at."""
    m = len(seq)
    out: list = []
    for ph in phrases:
        if ph.length < 1 or ph.start < 1 or ph.start + ph.length - 1 > m:
            raise ValueError(f"phrase {ph} exceeds reference of length {m}")
        out.extend(seq[ph.start - 1 : ph.start - 1 + ph.length])
    return out


class PhraseTable:
    """Per-phrase columns of many logs, concatenated; each log owns a run of rows.

    Row k describes one phrase: `starts[k]` is its 1-based reference start,
    `firsts[k]` the 1-based movement offset in its log where it begins,
    `prev_x[k]`/`prev_y[k]` the absolute position just before it, and
    `x_min[k]`..`y_max[k]` the bounding box of the positions reached during
    it.  Rows are appended while logs are built; `seal()` then narrows
    every column to its compact typecode.  `box` scans the extrema columns
    over its rows, O(b - a); a time-interval query asks for it once per
    candidate, over the phrases of its time span, then reads single rows.
    """

    COLUMNS = ("starts", "firsts", "prev_x", "prev_y", "x_min", "y_min", "x_max", "y_max")
    __slots__ = COLUMNS

    def __init__(self, columns: Optional[Sequence[Sequence[int]]] = None):
        """Empty, or sealed over the eight COLUMNS given in order, which are narrow already."""
        for name, column in zip(self.COLUMNS, columns or [[] for _ in self.COLUMNS]):
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.starts)

    def columns(self) -> list[Sequence[int]]:
        return [getattr(self, name) for name in self.COLUMNS]

    def append(self, *row: int) -> None:
        """Add one phrase's row, its values in COLUMNS order."""
        for column, value in zip(self.columns(), row):
            column.append(value)

    def seal(self) -> None:
        for name in self.COLUMNS:
            setattr(self, name, compact(getattr(self, name)))

    def box(self, a: int, b: int) -> tuple[int, int, int, int]:
        """Bounding box of every position reached during rows a..b (1-based, inclusive)."""
        a -= 1
        return (
            min(self.x_min[a:b]),
            min(self.y_min[a:b]),
            max(self.x_max[a:b]),
            max(self.y_max[a:b]),
        )


class TrajectoryLog:
    """RLZ encoding of one object's movements: a run of rows of a PhraseTable.

    Phrase j (1-based) is row `base + j - 1` of `table`; the log's
    `phrase_count` phrases cover its `move_count` movements.
    """

    __slots__ = ("object_id", "start_time", "start_pos", "move_count", "phrase_count", "table", "base")

    def __init__(
        self,
        object_id: int,
        start_time: int,
        start_pos: tuple[int, int],
        move_count: int,
        phrase_count: int,
        table: PhraseTable,
        base: int,
    ):
        self.object_id = object_id
        self.start_time = start_time
        self.start_pos = start_pos
        self.move_count = move_count
        self.phrase_count = phrase_count
        self.table = table
        self.base = base

    @property
    def end_time(self) -> int:
        return self.start_time + self.move_count

    def _rows(self, column: Sequence[int]) -> Sequence[int]:
        return column[self.base : self.base + self.phrase_count]

    # read-only views of this log's rows, for inspection and tests
    phrase_starts = property(lambda self: self._rows(self.table.starts))
    x_mins = property(lambda self: self._rows(self.table.x_min))
    x_maxs = property(lambda self: self._rows(self.table.x_max))
    y_mins = property(lambda self: self._rows(self.table.y_min))
    y_maxs = property(lambda self: self._rows(self.table.y_max))

    @property
    def prev_positions(self) -> list[tuple[int, int]]:
        return list(zip(self._rows(self.table.prev_x), self._rows(self.table.prev_y)))

    def phrase_of(self, offset: int) -> int:
        """1-based phrase index containing movement `offset`; 0 for offset 0."""
        return bisect_right(self.table.firsts, offset, self.base, self.base + self.phrase_count) - self.base

    def phrase_first(self, j: int) -> int:
        return self.table.firsts[self.base + j - 1]

    def phrase_last(self, j: int) -> int:
        if j == self.phrase_count:
            return self.move_count
        return self.table.firsts[self.base + j] - 1

    def position_at(self, reference: Reference, offset: int) -> tuple[int, int]:
        """Absolute position after `offset` movements, 0 <= offset <= move_count."""
        if offset == 0:
            return self.start_pos
        table = self.table
        row = self.base + self.phrase_of(offset) - 1
        start = table.starts[row]
        dx, dy = reference.movement(start - 1, start + offset - table.firsts[row])
        return (table.prev_x[row] + dx, table.prev_y[row] + dy)

    def walk(self, reference: Reference, lo: int, hi: int) -> Iterator[tuple[int, int, int, int, int, int]]:
        """(row, first, last, step, dx, dy) for each phrase meeting movement offsets lo..hi.

        1 <= lo <= hi <= move_count.  `row` is the phrase's row of `table`,
        first..last its offsets clipped to lo..hi, and `step` the reference
        step that offset `first` copies; the position after each of those
        offsets is (dx + cum_x[t], dy + cum_y[t]) for t in step..step + last - first.
        """
        table = self.table
        starts, firsts, prev_x, prev_y = table.starts, table.firsts, table.prev_x, table.prev_y
        cum_x, cum_y = reference.cum_x, reference.cum_y
        row = self.base + self.phrase_of(lo) - 1
        end = self.base + self.phrase_count - 1  # the log's last row
        while lo <= hi:
            start = starts[row]
            last = firsts[row + 1] - 1 if row < end else self.move_count
            dx, dy = prev_x[row] - cum_x[start - 1], prev_y[row] - cum_y[start - 1]
            yield row, lo, min(last, hi), start + lo - firsts[row], dx, dy
            lo = last + 1
            row += 1

    def phrase_box(self, ws: int, we: int) -> tuple[int, int, int, int]:
        """Bounding box of all positions reached during phrases ws..we (1-based)."""
        return self.table.box(self.base + ws, self.base + we)


def build_log(
    object_id: int,
    start_time: int,
    positions: Sequence[tuple[int, int]],
    reference: Reference,
    matcher: Optional[ReferenceMatcher] = None,
    table: Optional[PhraseTable] = None,
) -> TrajectoryLog:
    """Parse one trajectory's movements and assemble its log.

    `positions` are the absolute positions at consecutive timestamps
    starting at `start_time`.  `matcher` must have been built over the
    reference's symbol ids; it is rebuilt here when omitted.  The phrases
    are appended to `table`, which the caller seals once every log is in;
    without one the log gets a sealed table of its own.
    """
    if not positions:
        raise ValueError(f"object {object_id}: empty trajectory")
    if matcher is None:
        matcher = ReferenceMatcher(reference.ids)
    own_table = table is None
    if own_table:
        table = PhraseTable()
    base = len(table)
    moves = []
    for (x0, y0), (x1, y1) in zip(positions, positions[1:]):
        moves.append(reference.symbol_id((x1 - x0, y1 - y0)))
    phrases = matcher.parse(moves)
    at = 0
    for ph in phrases:
        covered = positions[at + 1 : at + ph.length + 1]
        xs = [x for x, _ in covered]
        ys = [y for _, y in covered]
        table.append(ph.start, at + 1, *positions[at], min(xs), min(ys), max(xs), max(ys))
        at += ph.length
    if own_table:
        table.seal()
    return TrajectoryLog(object_id, start_time, tuple(positions[0]), len(moves), len(phrases), table, base)
