"""Flat integer columns, and range-minimum / range-maximum queries over them."""

from __future__ import annotations

from array import array
from typing import Sequence

MIN = "min"
MAX = "max"

_BLOCK_SHIFT = 5
_BLOCK = 1 << _BLOCK_SHIFT


def compact(values: Sequence[int]) -> array:
    """`values` as an array of the narrowest 8-, 16-, 32- or 64-bit typecode.

    Unsigned codes are used when no value is negative; an array that
    already has the narrowest typecode is returned itself, not copied.
    Raises ValueError when a value does not fit 64 bits.
    """
    lo = min(values, default=0)
    hi = max(values, default=0)
    for code in "BHIQ" if lo >= 0 else "bhiq":
        bits = 8 * array(code).itemsize - (lo < 0)  # a signed code spends one bit on the sign
        if -(1 << bits) <= lo and hi < 1 << bits:
            if isinstance(values, array) and values.typecode == code:
                return values
            return array(code, values)
    raise ValueError(f"values in [{lo}, {hi}] do not fit a 64-bit column")


class RangeExtremumIndex:
    """Index of the leftmost extremum of values[i..j] in a constant number of steps.

    Queries are 1-based and inclusive; ties break toward the smallest index.
    Block decomposition (Fischer & Heun 2011): `values` is cut into blocks
    of 32, and a sparse table over each block's leftmost extremum answers
    the whole blocks inside a range, while builtin min/max scans the
    partial blocks at its two ends.  The table takes O(n/32 log n) entries.
    `values` (a list or array) is shared, not copied, and must not change.
    A public building block: the index itself builds none, since its
    ranges are short enough that builtin min/max over a slice is faster.
    """

    __slots__ = ("values", "mode", "_pick", "_table")

    def __init__(self, values: Sequence[int], mode: str):
        if mode not in (MIN, MAX):
            raise ValueError(f"mode must be {MIN!r} or {MAX!r}, got {mode!r}")
        if len(values) == 0:
            raise ValueError("cannot index an empty array")
        if not isinstance(values, (list, array)):
            values = list(values)
        self.values = values
        self.mode = mode
        pick = self._pick = min if mode == MIN else max
        n = len(values)
        # the leftmost extremum of a block is the value's first occurrence from its start
        row = [values.index(pick(values[lo : lo + _BLOCK]), lo) for lo in range(0, n, _BLOCK)]
        table = [compact(row)]
        blocks = len(row)
        span = 1
        while 2 * span <= blocks:
            if mode == MIN:
                row = [a if values[a] <= values[b] else b for a, b in zip(row, row[span:])]
            else:
                row = [a if values[a] >= values[b] else b for a, b in zip(row, row[span:])]
            table.append(compact(row))
            span *= 2
        self._table = table

    def __len__(self) -> int:
        return len(self.values)

    def query(self, i: int, j: int) -> int:
        """1-based index of the leftmost extremum of values[i..j]."""
        vals = self.values
        if not 1 <= i <= j <= len(vals):
            raise ValueError(f"invalid range [{i}, {j}] for length {len(vals)}")
        pick = self._pick
        a = i - 1
        first = (a >> _BLOCK_SHIFT) + 1  # whole blocks first..last-1 lie inside [a, j)
        last = j >> _BLOCK_SHIFT
        if first >= last:
            return vals.index(pick(vals[a:j]), a) + 1
        depth = (last - first).bit_length() - 1
        row = self._table[depth]
        p = row[first]
        q = row[last - (1 << depth)]  # p <= q whenever their values tie
        head = pick(vals[a : first << _BLOCK_SHIFT])
        tail_at = last << _BLOCK_SHIFT
        best = pick(head, vals[p], vals[q])
        if tail_at < j:
            best = pick(best, pick(vals[tail_at:j]))
        if head == best:
            return vals.index(best, a) + 1
        if vals[p] == best:
            return p + 1
        if vals[q] == best:
            return q + 1
        return vals.index(best, tail_at) + 1
