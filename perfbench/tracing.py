"""Span tracing of rct's layers from outside the package.

`Tracer.install()` replaces the public functions and methods of each layer
(dataio, index, rlz, reference, rmq, bitvec, k2tree, serialize) with
wrappers that record one span per call: name, start, end, parent span and
query id.  Spans stay in compact in-memory arrays until the run ends.
`uninstall()` puts the originals back, so untraced passes run the
program's own code.  Counts the queries do not return directly (snapshot
rows, candidates, hits) are taken at the same wrapper boundaries.
"""

from __future__ import annotations

import gzip
import time
from array import array

import rct.bitvec
import rct.dataio
import rct.index
import rct.k2tree
import rct.reference
import rct.rlz
import rct.rmq
import rct.serialize

_QUERY_SPANS = {
    "search_object": "index.object",
    "trajectory": "index.trajectory",
    "time_slice": "index.slice",
    "time_interval": "index.interval",
}

# (owner, attribute, span name); index query methods are added below.
_HOOKS = [
    (rct.dataio, "read_trajectories", "dataio.read"),
    (rct.index.RCTIndex, "fit", "index.fit"),
    (rct.index, "build_reference", "reference.build"),
    (rct.reference.Reference, "movement", "reference.movement"),
    (rct.reference.Reference, "mbb", "reference.mbb"),
    (rct.reference.Reference, "step", "reference.step"),
    (rct.rlz.ReferenceMatcher, "__init__", "rlz.matcher_build"),
    (rct.rlz.ReferenceMatcher, "parse", "rlz.parse"),
    (rct.index, "build_log", "rlz.build_log"),
    (rct.rlz.TrajectoryLog, "__init__", "rlz.log_init"),
    (rct.rlz.TrajectoryLog, "position_at", "rlz.position_at"),
    (rct.rlz.TrajectoryLog, "phrase_box", "rlz.phrase_box"),
    (rct.rmq.RangeExtremumIndex, "__init__", "rmq.build"),
    (rct.rmq.RangeExtremumIndex, "query", "rmq.query"),
    (rct.bitvec.BitVector, "__init__", "bitvec.build"),
    (rct.bitvec.BitVector, "from_bytes", "bitvec.build"),
    (rct.bitvec.BitVector, "rank1", "bitvec.rank1"),
    (rct.bitvec.BitVector, "select1", "bitvec.select1"),
    (rct.bitvec.BitVector, "access", "bitvec.access"),
    (rct.index, "build_snapshot", "k2tree.build"),
    (rct.k2tree.Snapshot, "report_region", "k2tree.report_region"),
    (rct.serialize, "save_index", "serialize.save"),
    (rct.serialize, "load_index", "serialize.load"),
]


class Tracer:
    """Collects spans and counters; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.phases: list[tuple[int, str]] = []  # (first span id, phase)
        self.counts: dict[str, int] = {}
        self.query_id = -1
        self._index = None  # the index and kind of the outermost open query
        self._kind = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def phase(self, name: str) -> None:
        """Spans recorded from now on belong to `name` (fit, load or query)."""
        self.phases.append((len(self.span_start), name))

    # -- wrapping -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, after=None):
        nid = self._name_id(name)
        stack = self._stack
        names, parents, queries = self.span_name, self.span_parent, self.span_query
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            queries.append(tracer.query_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_query(self, fn, name: str):
        """Index query methods: a span only for the outermost call.

        time_slice verifies candidates through search_object; those inner
        calls are part of the slice's own work, not object queries.
        """
        kind = name.split(".")[1]
        traced = self._wrap(fn, name, after=lambda args, result: self._count_hits(kind, result))
        stack = self._stack
        tracer = self

        def wrapper(index, *args, **kwargs):
            if stack:
                return fn(index, *args, **kwargs)
            tracer._index, tracer._kind = index, kind
            return traced(index, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_hits(self, kind: str, result) -> None:
        if kind in ("slice", "interval"):
            self._add(f"query.index.{kind}.hits", len(result))

    def _count_rows(self, args, result) -> None:
        """Snapshot rows, plus the period's appearances_ entries, are the candidates."""
        snapshot = args[0]
        index = self._index
        arrivals = len(index.appearances_.get(snapshot.timestamp // index.period, ()))
        self._add("query.k2tree.report_region.rows", len(result))
        self._add(f"query.index.{self._kind}.candidates", len(result) + arrivals)

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = list(_HOOKS) + [
            (rct.index.RCTIndex, attr, name) for attr, name in _QUERY_SPANS.items()
        ]
        for owner, attr, name in hooks:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name))
            elif attr in _QUERY_SPANS:
                wrapped = self._wrap_query(original, name)
            elif attr == "report_region":
                wrapped = self._wrap(original, name, after=self._count_rows)
            else:
                wrapped = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def _phase_of_spans(self) -> list[str]:
        n = len(self.span_start)
        out = [""] * n
        bounds = self.phases + [(n, "")]
        for (first, phase), (nxt, _) in zip(bounds, bounds[1:]):
            out[first:nxt] = [phase] * (nxt - first)
        return out

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """{"<phase>.<span name>": (calls, self nanoseconds)}.

        Self time is a span's duration minus the durations of its direct
        children, so the self times under a root span add up to its duration.
        """
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        phases = self._phase_of_spans()
        totals: dict[str, list[int]] = {}
        for i in range(n):
            key = f"{phases[i]}.{self.names[self.span_name[i]]}"
            entry = totals.setdefault(key, [0, 0])
            entry[0] += 1
            entry[1] += ends[i] - starts[i] - child[i]
        return {k: (c, s) for k, (c, s) in totals.items()}

    def dump(self, path) -> int:
        """Write every span as gzip'd TSV; returns the span count."""
        phases = self._phase_of_spans()
        t0 = self.span_start[0] if self.span_start else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tquery\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{phases[i]}.{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - t0}\t{self.span_end[i] - t0}\t"
                    f"{self.span_parent[i]}\t{self.span_query[i]}\n"
                )
        return len(self.span_start)
