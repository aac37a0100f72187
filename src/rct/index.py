"""The trajectory index: snapshots + reference + logs, and the four queries."""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .k2tree import build_snapshot
from .reference import Reference, build_reference
from .rlz import PhraseTable, ReferenceMatcher, TrajectoryLog, build_log


class NotFittedError(RuntimeError):
    """A query was issued before fit() or load."""


class Region(NamedTuple):
    """Closed axis-aligned rectangle [x1, x2] x [y1, y2]."""

    x1: int
    y1: int
    x2: int
    y2: int

    def contains(self, x: int, y: int) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def covers(self, box: tuple[int, int, int, int]) -> bool:
        bx1, by1, bx2, by2 = box
        return self.x1 <= bx1 and bx2 <= self.x2 and self.y1 <= by1 and by2 <= self.y2

    def disjoint(self, box: tuple[int, int, int, int]) -> bool:
        bx1, by1, bx2, by2 = box
        return bx2 < self.x1 or self.x2 < bx1 or by2 < self.y1 or self.y2 < by1

    def expanded(self, amount: int, bounds: tuple[int, int]) -> "Region":
        """Grow by `amount` on every side, clamped to [0, max_x] x [0, max_y]."""
        max_x, max_y = bounds
        return Region(
            max(self.x1 - amount, 0),
            max(self.y1 - amount, 0),
            min(self.x2 + amount, max_x),
            min(self.y2 + amount, max_y),
        )


def as_region(value: Union[Region, Sequence[int]]) -> Region:
    """Validate and coerce (x1, y1, x2, y2) into a Region."""
    region = Region(*value)
    if region.x1 > region.x2 or region.y1 > region.y2:
        raise ValueError(f"malformed region {tuple(region)}: need x1 <= x2 and y1 <= y2")
    return region


@dataclass
class Trajectory:
    """Raw positions of one object at consecutive timestamps from start_time."""

    object_id: int
    start_time: int
    positions: list[tuple[int, int]]

    @property
    def end_time(self) -> int:
        return self.start_time + len(self.positions) - 1


# Query descriptions shared by the index and the brute-force oracle.
@dataclass(frozen=True)
class SearchObject:
    object_id: int
    t: int


@dataclass(frozen=True)
class TrajectoryBetween:
    object_id: int
    t_start: int
    t_end: int


@dataclass(frozen=True)
class TimeSlice:
    region: Region
    t: int


@dataclass(frozen=True)
class TimeInterval:
    region: Region
    t_start: int
    t_end: int


Query = Union[SearchObject, TrajectoryBetween, TimeSlice, TimeInterval]


def run_query(engine, query: Query):
    """Dispatch a query description against an index or an oracle store."""
    if isinstance(query, SearchObject):
        return engine.search_object(query.object_id, query.t)
    if isinstance(query, TrajectoryBetween):
        return engine.trajectory(query.object_id, query.t_start, query.t_end)
    if isinstance(query, TimeSlice):
        return engine.time_slice(query.region, query.t)
    if isinstance(query, TimeInterval):
        return engine.time_interval(query.region, query.t_start, query.t_end)
    raise TypeError(f"unsupported query {query!r}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


# Ids, timestamps and coordinates are stored in 64-bit columns.
_VALUE_LIMIT = 1 << 63


def _grid_point(object_id: int, t: int, point) -> tuple[int, int]:
    """`point` as plain ints, or a ValueError naming the object and timestamp."""
    x, y = point
    where = f"object {object_id} at timestamp {t}: position ({x}, {y})"
    try:
        px, py = operator.index(x), operator.index(y)
    except TypeError:
        raise ValueError(f"{where} off the integer grid") from None
    if px < 0 or py < 0:
        raise ValueError(f"{where} off the integer grid")
    if px >= _VALUE_LIMIT or py >= _VALUE_LIMIT:
        raise ValueError(f"{where} does not fit a 64-bit column")
    return px, py


def validate_trajectories(trajectories: Iterable[Trajectory]) -> list[Trajectory]:
    """Check ids, coordinates and shapes before building; returns a list.

    Integers of any type `operator.index` accepts, numpy's included, come
    back as plain ints, in copies of the trajectories holding them.  Ids,
    timestamps and coordinates must lie in [0, 2**63).
    """
    trajs = []
    seen: set[int] = set()
    for tr in trajectories:
        try:
            oid, start = operator.index(tr.object_id), operator.index(tr.start_time)
        except TypeError:
            raise ValueError(
                f"object id {tr.object_id!r} and start time {tr.start_time!r} must be integers"
            ) from None
        if oid in seen:
            raise ValueError(f"duplicate object id {oid}")
        seen.add(oid)
        if not 0 <= oid < _VALUE_LIMIT:
            raise ValueError(f"object id {oid} must be non-negative and fit a 64-bit column")
        if start < 0:
            raise ValueError(f"object {oid}: start time {start} is negative")
        if not tr.positions:
            raise ValueError(f"object {oid}: no positions")
        if start + len(tr.positions) > _VALUE_LIMIT:
            raise ValueError(f"object {oid}: timestamps do not fit a 64-bit column")
        positions = tr.positions
        if not all(type(x) is int and type(y) is int and 0 <= x < _VALUE_LIMIT and 0 <= y < _VALUE_LIMIT
                   for x, y in positions):
            positions = [_grid_point(oid, start + k, p) for k, p in enumerate(positions)]
        if positions is not tr.positions or type(tr.object_id) is not int or type(tr.start_time) is not int:
            tr = replace(tr, object_id=oid, start_time=start, positions=positions)
        trajs.append(tr)
    if not trajs:
        raise ValueError("cannot build an index from an empty dataset")
    return trajs


def _largest_step(reference: Reference) -> int:
    """The largest |dx| or |dy| of one movement; the reference holds every symbol of its dataset."""
    return max((max(abs(dx), abs(dy)) for dx, dy in reference.alphabet), default=0)


class RCTIndex:
    """Compressed index over moving-object trajectories.

    Follows the estimator convention: hyperparameters in the constructor,
    `fit(trajectories)` builds the structure and returns self, fitted state
    lives in trailing-underscore attributes.  All four queries are exact.

    Parameters
    ----------
    period : distance `d` between consecutive snapshots.
    k : arity of the snapshot k2-trees.
    ref_fraction : target reference length as a fraction of the total
        movement count (int, float, str or Fraction).
    block_length : block size of the reference construction heuristic.
    """

    def __init__(self, period: int = 32, k: int = 2, ref_fraction="1/10", block_length: int = 8):
        self.period = period
        self.k = k
        self.ref_fraction = ref_fraction
        self.block_length = block_length

    # -- estimator plumbing -------------------------------------------------

    _PARAM_NAMES = ("period", "k", "ref_fraction", "block_length")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params) -> "RCTIndex":
        for name, value in params.items():
            if name not in self._PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    @property
    def is_fitted(self) -> bool:
        return hasattr(self, "logs_")

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("index is not built; call fit() or load an index file")

    # -- building -----------------------------------------------------------

    def fit(self, trajectories: Iterable[Trajectory]) -> "RCTIndex":
        """Build reference, logs, snapshots and appearance lists from raw data."""
        if self.period < 1:
            raise ValueError("period must be at least 1")
        trajs = validate_trajectories(trajectories)
        frac = _as_fraction(self.ref_fraction)
        if frac <= 0:
            raise ValueError("ref_fraction must be positive")

        max_x = max(x for tr in trajs for x, _ in tr.positions)
        max_y = max(y for tr in trajs for _, y in tr.positions)
        # one object's movements at a time: build_reference reads each list once
        reference = build_reference(
            ([(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(tr.positions, tr.positions[1:])] for tr in trajs),
            frac,
            self.block_length,
        )
        matcher = ReferenceMatcher(reference.ids)
        phrases = PhraseTable()
        logs = {
            tr.object_id: build_log(tr.object_id, tr.start_time, tr.positions, reference, matcher, phrases)
            for tr in trajs
        }
        phrases.seal()

        t_max = max(tr.end_time for tr in trajs)
        # a snapshot only for the periods whose timestamp finds some object
        # active, and an appearance list for those with mid-period arrivals
        points: dict[int, list[tuple[int, int, int]]] = {}
        appearances: dict[int, list[int]] = {}
        for tr in trajs:
            for q in range(-(-tr.start_time // self.period), tr.end_time // self.period + 1):
                points.setdefault(q, []).append((tr.object_id, *tr.positions[q * self.period - tr.start_time]))
            if tr.start_time % self.period != 0:
                appearances.setdefault(tr.start_time // self.period, []).append(tr.object_id)
        for ids in appearances.values():
            ids.sort()
        snapshots = [
            build_snapshot(points[q], (max_x, max_y), self.k, q * self.period) for q in sorted(points)
        ]

        self._adopt((max_x, max_y), _largest_step(reference), t_max, reference, phrases, logs, snapshots, appearances)
        return self

    def _adopt(self, grid, max_speed, t_max, reference, phrases, logs, snapshots, appearances) -> None:
        """Install fitted state, built by fit or read by load_index.

        `phrases` is the PhraseTable every log's rows live in, in the order of
        `logs`; `snapshots` are sorted by timestamp, one per period that has
        an object active at its start.
        """
        self.grid_ = grid
        self.max_speed_ = max_speed
        self.t_max_ = t_max
        self.reference_ = reference
        self.phrases_ = phrases
        self.logs_ = logs
        self.snapshots_ = snapshots
        self.appearances_ = appearances
        self._snapshot_of = {sn.timestamp // self.period: sn for sn in snapshots}
        # the only periods in which any object is active
        self._busy_periods = sorted(self._snapshot_of.keys() | appearances.keys())

    def stats(self) -> dict:
        self._check_fitted()
        return {
            "objects": len(self.logs_),
            "movements": sum(log.move_count for log in self.logs_.values()),
            "reference_length": len(self.reference_),
            "phrases": sum(log.phrase_count for log in self.logs_.values()),
        }

    # -- queries ------------------------------------------------------------

    def _log(self, object_id: int) -> TrajectoryLog:
        self._check_fitted()
        try:
            return self.logs_[object_id]
        except KeyError:
            raise KeyError(f"unknown object id {object_id}") from None

    def search_object(self, object_id: int, t: int) -> Optional[tuple[int, int]]:
        """Position of the object at timestamp t, or None when inactive."""
        log = self._log(object_id)
        if not log.start_time <= t <= log.end_time:
            return None
        return log.position_at(self.reference_, t - log.start_time)

    def trajectory(self, object_id: int, t_start: int, t_end: int) -> list[tuple[int, int, int]]:
        """(t, x, y) at every instant of [t_start, t_end] the object is active."""
        if t_start > t_end:
            raise ValueError(f"invalid time range [{t_start}, {t_end}]")
        log = self._log(object_id)
        a = max(t_start, log.start_time)
        b = min(t_end, log.end_time)
        if a > b:
            return []
        ref = self.reference_
        t0 = log.start_time
        off, stop = a - t0, b - t0
        out = [(a, *log.position_at(ref, off))]
        if off < stop:
            cum_x, cum_y = ref.cum_x, ref.cum_y
            for _, first, last, s, dx, dy in log.walk(ref, off + 1, stop):
                # a plain loop: phrases average about ten steps, too few to repay a zip of slices
                for t in range(t0 + first, t0 + last + 1):
                    out.append((t, dx + cum_x[s], dy + cum_y[s]))
                    s += 1
        return out

    def _slice_candidates(self, region: Region, t: int) -> set[int]:
        """Ids that could be inside `region` at any time from t's snapshot up to t.

        Snapshot hits in the region grown by the distance an object can
        cover since the snapshot, plus the period's mid-period arrivals.
        `region` must meet the grid (see `_off_grid`).
        """
        q = t // self.period
        found = set(self.appearances_.get(q, ()))
        snapshot = self._snapshot_of.get(q)
        if snapshot is not None:
            # clamped to the snapshot's square, not the grid: no point lies past the grid, and a
            # grown region that covers the grid then covers the root, which is reported in one sweep
            edge = snapshot.side - 1
            expanded = region.expanded(self.max_speed_ * (t - q * self.period), (edge, edge))
            found.update(oid for oid, _, _ in snapshot.report_region(expanded))
        return found

    def _off_grid(self, region: Region) -> bool:
        """True when the region misses [0, max_x] x [0, max_y] entirely."""
        max_x, max_y = self.grid_
        return region.x2 < 0 or region.x1 > max_x or region.y2 < 0 or region.y1 > max_y

    def time_slice(self, region, t: int) -> list[tuple[int, int, int]]:
        """All (object_id, x, y) inside `region` at timestamp t, sorted by id."""
        self._check_fitted()
        region = as_region(region)
        if t < 0 or t > self.t_max_ or self._off_grid(region):
            return []
        hits = []
        for oid in self._slice_candidates(region, t):
            pos = self.search_object(oid, t)
            if pos is not None and region.contains(*pos):
                hits.append((oid, *pos))
        hits.sort()
        return hits

    def time_interval(self, region, t_start: int, t_end: int) -> list[int]:
        """Ids of objects inside `region` at any instant of [t_start, t_end], sorted."""
        self._check_fitted()
        region = as_region(region)
        if t_start > t_end:
            raise ValueError(f"invalid time range [{t_start}, {t_end}]")
        a = max(t_start, 0)
        b = min(t_end, self.t_max_)
        if a > b or self._off_grid(region):
            return []
        busy = self._busy_periods
        candidates: set[int] = set()
        for q in busy[bisect_left(busy, a // self.period) : bisect_right(busy, b // self.period)]:
            # objects inside at some t of the period's part of [a, b] are candidates at its end
            candidates |= self._slice_candidates(region, min(b, (q + 1) * self.period - 1))
        return sorted(oid for oid in candidates if self._hits_region_during(self.logs_[oid], region, a, b))

    # -- time-interval candidate verification --------------------------------

    def _hits_region_during(self, log: TrajectoryLog, region: Region, a: int, b: int) -> bool:
        """Whether the object's position enters `region` at some t in [a, b]."""
        ta = max(a, log.start_time) - log.start_time
        tb = min(b, log.end_time) - log.start_time
        if ta > tb:
            return False
        if ta == 0:
            if region.contains(*log.start_pos):
                return True
            ta = 1
            if ta > tb:
                return False
        box = log.phrase_box(log.phrase_of(ta), log.phrase_of(tb))
        # every phrase of the box holds an offset of [ta, tb], so a box the
        # region covers or misses decides; so does each phrase's own box
        if region.covers(box):
            return True
        if region.disjoint(box):
            return False
        table, ref = log.table, self.reference_
        x1, y1, x2, y2 = region
        for row, first, last, s, dx, dy in log.walk(ref, ta, tb):
            box = (table.x_min[row], table.y_min[row], table.x_max[row], table.y_max[row])
            if region.disjoint(box):
                continue
            if region.covers(box):
                return True
            e = s + last - first + 1
            # the region moved by -(dx, dy), against the reference's cumulative steps
            lx, ly, hx, hy = x1 - dx, y1 - dy, x2 - dx, y2 - dy
            for x, y in zip(ref.cum_x[s:e], ref.cum_y[s:e]):
                if lx <= x <= hx and ly <= y <= hy:
                    return True
        return False

    # -- persistence ----------------------------------------------------------

    def save(self, target) -> int:
        """Write the index file; returns the number of bytes written."""
        from .serialize import save_index

        return save_index(self, target)

    @classmethod
    def load(cls, source) -> "RCTIndex":
        from .serialize import load_index

        return load_index(source)
