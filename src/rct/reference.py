"""Artificial movement reference with constant-time displacement and MBB queries."""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .bitvec import BitVector
from .rmq import compact

MovementSymbol = tuple[int, int]  # (dx, dy) displacement of one timestep
MovementSequence = Sequence[MovementSymbol]


class RelativeMBB(NamedTuple):
    """Bounding box of a reference segment, relative to the pre-segment position."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int


def _cumulative(steps: list[int], ids: Sequence[int]):
    """0 followed by the running sum of steps[ids[0]], steps[ids[1]], ..."""
    # not via a list: its ~70k freed ints on large references made a load's resident memory uneven
    return compact(array("q", accumulate(map(steps.__getitem__, ids), initial=0)))


def _unary_view(plane: int, doc: str) -> property:
    return property(lambda self: self._unary_bitmaps()[plane], doc=doc)


class Reference:
    """Artificial movement sequence plus its cumulative displacement columns.

    `cum_x[t]`/`cum_y[t]` are the cumulative displacement after the first t
    steps (`cum[0] = 0`), so `movement` is four lookups, and `mbb` is the
    minimum and maximum of each axis's cumulative run over its steps,
    minus `cum[i-1]`.  Queries read runs of these columns directly (see
    `TrajectoryLog.walk`).  The paper's unary bitmaps `x_pos`, `x_neg`,
    `y_pos` and `y_neg` (per step, its magnitude on that axis and sign in
    zeros, then a 1) are derived on first access; no query reads them.
    """

    __slots__ = (
        "alphabet",
        "ids",
        "cum_x",
        "cum_y",
        "_sym_id",
        "_bitmaps",
    )

    def __init__(self, symbols: MovementSequence):
        symbols = list(symbols)
        alphabet = sorted(set(symbols))
        sym_id = {s: i for i, s in enumerate(alphabet)}
        self._install(alphabet, compact([sym_id[s] for s in symbols]))

    @classmethod
    def from_parts(cls, alphabet: list[MovementSymbol], ids: Sequence[int]) -> "Reference":
        """The reference whose step t is `alphabet[ids[t - 1]]`; `ids` is kept as given."""
        ref = cls.__new__(cls)
        ref._install(list(alphabet), ids)
        return ref

    def _install(self, alphabet: list[MovementSymbol], ids: Sequence[int]) -> None:
        self.alphabet = alphabet
        self._sym_id = {s: i for i, s in enumerate(alphabet)}
        self.ids = ids
        self._bitmaps = None
        self.cum_x = _cumulative([dx for dx, _ in alphabet], ids)
        self.cum_y = _cumulative([dy for _, dy in alphabet], ids)

    def __len__(self) -> int:
        return len(self.ids)

    def symbol_id(self, symbol: MovementSymbol) -> int:
        try:
            return self._sym_id[symbol]
        except KeyError:
            raise ValueError(f"movement {symbol!r} does not occur in the reference") from None

    def step(self, t: int) -> MovementSymbol:
        """Displacement of reference step t, 1-based."""
        return self.alphabet[self.ids[t - 1]]

    def movement(self, i: int, j: int) -> tuple[int, int]:
        """Cumulative displacement over reference steps i+1..j, 0 <= i <= j <= m."""
        if not 0 <= i <= j <= len(self.ids):
            raise ValueError(f"invalid step range ({i}, {j}) for reference of length {len(self.ids)}")
        cx, cy = self.cum_x, self.cum_y
        return (cx[j] - cx[i], cy[j] - cy[i])

    def mbb(self, i: int, j: int) -> RelativeMBB:
        """Per-axis extrema of movement(i-1, t) over t in [i..j].

        A scan of cumulative rows i..j, so O(j - i).  The index's queries
        do not call it: they test positions on the cumulative rows themselves.
        """
        if not 1 <= i <= j <= len(self.ids):
            raise ValueError(f"invalid mbb range ({i}, {j}) for reference of length {len(self.ids)}")
        xs, ys = self.cum_x[i : j + 1], self.cum_y[i : j + 1]
        bx, by = self.cum_x[i - 1], self.cum_y[i - 1]
        return RelativeMBB(min(xs) - bx, min(ys) - by, max(xs) - bx, max(ys) - by)

    def _unary_bitmaps(self) -> tuple[BitVector, BitVector, BitVector, BitVector]:
        bitmaps = self._bitmaps
        if bitmaps is None:
            planes: tuple[list[int], ...] = ([], [], [], [])
            for k in self.ids:
                dx, dy = self.alphabet[k]
                for bits, magnitude in zip(planes, (dx, -dx, dy, -dy)):
                    bits.extend([0] * max(magnitude, 0))
                    bits.append(1)
            # built at most once per thread that races here; every copy is equal
            bitmaps = self._bitmaps = tuple(BitVector(bits) for bits in planes)
        return bitmaps

    x_pos = _unary_view(0, "Unary code of each step's positive x displacement.")
    x_neg = _unary_view(1, "Unary code of each step's negative x displacement.")
    y_pos = _unary_view(2, "Unary code of each step's positive y displacement.")
    y_neg = _unary_view(3, "Unary code of each step's negative y displacement.")


def build_reference(
    dataset: Iterable[MovementSequence],
    ref_fraction: Fraction = Fraction(1, 10),
    block_length: int = 8,
) -> Reference:
    """Assemble the artificial reference from frequent fixed-length blocks.

    Every movement sequence is cut into blocks of `block_length` steps
    (trailing remainder included).  Blocks are chosen by descending
    frequency until the reference reaches `ref_fraction` of the total
    movement count, then laid out in first-occurrence order so that runs
    of popular blocks stay contiguous.  Finally any dataset symbol still
    missing is appended, so every sequence can be parsed.
    """
    if block_length < 1:
        raise ValueError("block_length must be positive")
    counts: dict[tuple, int] = {}
    first_seen: dict[tuple, int] = {}
    alphabet: set[MovementSymbol] = set()
    total = 0
    empty = True
    for seq in dataset:
        empty = False
        total += len(seq)
        alphabet.update(seq)
        for off in range(0, len(seq), block_length):
            block = tuple(seq[off : off + block_length])
            if block not in counts:
                counts[block] = 0
                first_seen[block] = len(first_seen)
            counts[block] += 1
    if empty:
        raise ValueError("cannot build a reference from an empty dataset")
    num, den = ref_fraction.numerator, ref_fraction.denominator
    target = -(-total * num // den)  # ceil
    chosen: list[tuple] = []
    length = 0
    for block in sorted(counts, key=lambda b: -counts[b]):
        if length >= target:
            break
        chosen.append(block)
        length += len(block)
    chosen.sort(key=first_seen.__getitem__)
    symbols: list[MovementSymbol] = [s for block in chosen for s in block]
    present = set(symbols)
    symbols.extend(s for s in sorted(alphabet - present))
    return Reference(symbols)
