"""Plain bitvector with constant-time rank and select over 1-based positions."""

from __future__ import annotations

import struct
from typing import Iterable

_WORD = 64
_SUPER_WORDS = 8  # superblock = 512 bits
_SELECT_SAMPLE = 512  # one word hint per this many ones

_BYTE_POP = [bin(b).count("1") for b in range(256)]


def _kth_one_in_word(word: int, k: int) -> int:
    """Bit offset (0-based) of the k-th set bit of a 64-bit word, k >= 1."""
    offset = 0
    while True:
        byte = word & 0xFF
        pop = _BYTE_POP[byte]
        if k <= pop:
            break
        k -= pop
        word >>= 8
        offset += 8
    for bit in range(8):
        if byte & (1 << bit):
            k -= 1
            if k == 0:
                return offset + bit
    raise AssertionError("corrupt rank directory")


class BitVector:
    """Immutable sequence of bits supporting access, rank1 and select1.

    Positions are 1-based on the outside.  Rank uses a two-level directory
    (absolute counts per superblock, relative counts per word); select uses
    sampled one-positions to bound a binary search plus an in-word scan.
    """

    __slots__ = ("_n", "_words", "_super", "_rel", "_samples", "_ones")

    def __init__(self, bits: Iterable[int] | str = ()):
        words: list[int] = []
        n = 0
        word = 0
        shift = 0
        for b in bits:
            if b not in (0, 1, "0", "1"):
                raise ValueError(f"bit must be 0 or 1, got {b!r}")
            if b in (1, "1"):
                word |= 1 << shift
            shift += 1
            n += 1
            if shift == _WORD:
                words.append(word)
                word = 0
                shift = 0
        if shift:
            words.append(word)
        self._n = n
        self._words = words
        self._build_directories()

    @classmethod
    def _from_words(cls, n: int, words: list[int]) -> "BitVector":
        bv = cls.__new__(cls)
        bv._n = n
        bv._words = words
        bv._build_directories()
        return bv

    def _build_directories(self) -> None:
        words = self._words
        sup: list[int] = []
        rel: list[int] = []
        samples: list[int] = []
        total = 0
        in_super = 0
        next_sample = 1
        for w, word in enumerate(words):
            if w % _SUPER_WORDS == 0:
                sup.append(total)
                in_super = 0
            rel.append(in_super)
            pop = word.bit_count()
            while next_sample <= total + pop:
                samples.append(w)
                next_sample += _SELECT_SAMPLE
            total += pop
            in_super += pop
        # sentinel entries so _cum(len(words)) is valid
        if len(words) % _SUPER_WORDS == 0:
            sup.append(total)
            rel.append(0)
        else:
            rel.append(in_super)
        self._super = sup
        self._rel = rel
        self._samples = samples
        self._ones = total

    def _cum(self, w: int) -> int:
        """Number of ones in words[0:w]."""
        return self._super[w // _SUPER_WORDS] + self._rel[w]

    def __len__(self) -> int:
        return self._n

    @property
    def ones(self) -> int:
        return self._ones

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
            return self._cum(w)
        return self._cum(w) + (self._words[w] & ((1 << r) - 1)).bit_count()

    def rank0(self, i: int) -> int:
        return i - self.rank1(i)

    def select1(self, j: int) -> int:
        """Position of the j-th one, 1 <= j <= ones."""
        if not 1 <= j <= self._ones:
            raise ValueError(f"select argument {j} out of range [1, {self._ones}]")
        lo = self._samples[(j - 1) // _SELECT_SAMPLE]
        hi_idx = (j - 1) // _SELECT_SAMPLE + 1
        hi = self._samples[hi_idx] if hi_idx < len(self._samples) else len(self._words) - 1
        # smallest word w in [lo, hi] with _cum(w + 1) >= j
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cum(mid + 1) >= j:
                hi = mid
            else:
                lo = mid + 1
        k = j - self._cum(lo)
        return lo * _WORD + _kth_one_in_word(self._words[lo], k) + 1

    def to01(self) -> str:
        """The bits as a '0'/'1' string, leftmost = position 1."""
        out = []
        for w, word in enumerate(self._words):
            width = min(_WORD, self._n - w * _WORD)
            out.append(format(word, "b").zfill(_WORD)[::-1][:width])
        return "".join(out)

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
        """Decode a bitvector from `data` at `offset`; directories are rebuilt."""
        (n,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        nwords = (n + _WORD - 1) // _WORD
        if offset + 8 * nwords > len(data):
            raise ValueError(f"bitvector of {n} bits runs past the end of the data")
        words = list(struct.unpack_from(f"<{nwords}Q", data, offset))
        return cls._from_words(n, words), offset + 8 * nwords
