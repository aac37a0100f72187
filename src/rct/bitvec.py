"""Plain bitvector with rank and select over 1-based positions."""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable

_WORD = 64
_DIGITS = {0: "0", 1: "1", "0": "0", "1": "1"}


def _kth_one_in_word(word: int, k: int) -> int:
    """Bit offset (0-based) of the k-th set bit of a 64-bit word, k >= 1."""
    offset = 0
    for width in (32, 16, 8, 4, 2, 1):
        low = (word & ((1 << width) - 1)).bit_count()
        if low < k:
            k -= low
            word >>= width
            offset += width
    return offset


class BitVector:
    """Immutable sequence of bits supporting access, rank1 and select1.

    Positions are 1-based on the outside; position i is bit (i - 1) % 64 of
    word (i - 1) // 64.  `_cum[w]` is the number of ones in words[0:w], so
    rank is one lookup plus a popcount, and select a bisect over `_cum`
    plus a search inside one word.
    """

    __slots__ = ("_n", "_words", "_cum")

    def __init__(self, bits: Iterable[int] | str = ()):
        try:
            text = "".join(map(_DIGITS.__getitem__, bits))
        except KeyError as exc:
            raise ValueError(f"bit must be 0 or 1, got {exc.args[0]!r}") from None
        nwords = -(-len(text) // _WORD)
        packed = int(text[::-1] or "0", 2).to_bytes(8 * nwords, "little")
        self._set(len(text), list(struct.unpack(f"<{nwords}Q", packed)))

    def _set(self, n: int, words: list[int]) -> None:
        self._n = n
        self._words = words
        self._cum = array("I", accumulate(map(int.bit_count, words), initial=0))

    def __len__(self) -> int:
        return self._n

    @property
    def ones(self) -> int:
        return self._cum[-1]

    def access(self, i: int) -> int:
        """The i-th bit, 1 <= i <= n."""
        if not 1 <= i <= self._n:
            raise ValueError(f"position {i} out of range [1, {self._n}]")
        w, r = divmod(i - 1, _WORD)
        return (self._words[w] >> r) & 1

    def rank1(self, i: int) -> int:
        """Number of ones in positions [1..i]; rank1(0) = 0."""
        if not 0 <= i <= self._n:
            raise ValueError(f"rank position {i} out of range [0, {self._n}]")
        w, r = divmod(i, _WORD)
        if r == 0:
            return self._cum[w]
        return self._cum[w] + (self._words[w] & ((1 << r) - 1)).bit_count()

    def chunk(self, i: int, width: int) -> int:
        """Positions i+1 .. i+width as an int whose bit j is position i+1+j."""
        if not (0 <= i and 0 <= width and i + width <= self._n):
            raise ValueError(f"chunk of {width} bits after position {i} out of range [1, {self._n}]")
        w, r = divmod(i, _WORD)
        end = -(-(r + width) // _WORD)  # words the chunk touches, from word w
        if end == 1:  # one word, as for most k2-tree nodes: no pack needed
            value = self._words[w]
        else:
            value = int.from_bytes(struct.pack(f"<{end}Q", *self._words[w : w + end]), "little")
        return (value >> r) & ((1 << width) - 1)

    def rank0(self, i: int) -> int:
        return i - self.rank1(i)

    def select1(self, j: int) -> int:
        """Position of the j-th one, 1 <= j <= ones."""
        if not 1 <= j <= self._cum[-1]:
            raise ValueError(f"select argument {j} out of range [1, {self._cum[-1]}]")
        w = bisect_left(self._cum, j) - 1  # the word holding it: _cum[w] < j <= _cum[w + 1]
        return w * _WORD + _kth_one_in_word(self._words[w], j - self._cum[w]) + 1

    def to01(self) -> str:
        """The bits as a '0'/'1' string, leftmost = position 1."""
        return "".join(format(word, "064b")[::-1] for word in self._words)[: self._n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._n == other._n and self._words == other._words

    def __hash__(self) -> int:
        return hash((self._n, tuple(self._words)))

    def to_bytes(self) -> bytes:
        """Bit length as u64 little-endian, then 64-bit little-endian words."""
        return struct.pack("<Q", self._n) + struct.pack(
            f"<{len(self._words)}Q", *self._words
        )

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["BitVector", int]:
        """Decode a bitvector from `data` at `offset`; returns it and the offset after it."""
        (n,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        nwords = (n + _WORD - 1) // _WORD
        if offset + 8 * nwords > len(data):
            raise ValueError(f"bitvector of {n} bits runs past the end of the data")
        words = list(struct.unpack_from(f"<{nwords}Q", data, offset))
        if n % _WORD and words[-1] >> (n % _WORD):
            raise ValueError(f"bitvector of {n} bits has ones past its end")
        bv = cls.__new__(cls)
        bv._set(n, words)
        return bv, offset + 8 * nwords
