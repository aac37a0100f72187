"""The benchmark's metrics: names, units, bounds and what each should move.

END_TO_END and PER_LAYER are the single source for BENCHMARK.json's
metric lists; the smoke test checks that the two agree.
"""

from __future__ import annotations

import math
import statistics

# name, unit, better, bound (share of the parent's median it may worsen by).
# Times are normalised for the host's speed (speed.py), which takes the
# drift of a shared host out of them, but not all of it: over ten seeds
# their IQR / median still reaches ~0.1 on glitch.  So every timing keeps
# the largest bound allowed.  Sizes and memory repeat within 1-2% for a
# seed, so their bounds only leave room for dataset differences between
# seeds and, for the file, the growth ROADMAP item 2 allows.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("load_s", "s", "lower", 0.25),
    ("build_peak_rss_mb", "MiB", "lower", 0.1),
    ("index_file_bytes_per_move", "B", "lower", 0.25),
    ("index_ram_bytes_per_move", "B", "lower", 0.1),
    ("object_p50_ms", "ms", "lower", 0.25),
    ("object_p95_ms", "ms", "lower", 0.25),
    ("trajectory_p50_ms", "ms", "lower", 0.25),
    ("trajectory_p95_ms", "ms", "lower", 0.25),
    ("slice_p50_ms", "ms", "lower", 0.25),
    ("slice_p95_ms", "ms", "lower", 0.25),
    ("interval_p50_ms", "ms", "lower", 0.25),
    ("interval_p95_ms", "ms", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
]

_OVERLAY = "interval_p50_ms, slice_p50_ms and object_p50_ms on fleet"
_FLEET_INTERVAL = "interval_p50_ms on fleet"
_REFERENCE = "interval_p50_ms and trajectory_p50_ms on fleet; interval_p50_ms on glitch"
_FILTER = "slice_p50_ms and interval_p50_ms on glitch; no change on fleet"
_FIT = "setup_s and build_peak_rss_mb on large; no change to any query metric"
_LOAD = "load_s and index_ram_bytes_per_move on large"


def _layer_table():
    rows = []

    def add(name, unit, better, target):
        rows.append((name, unit, better, target))

    for op in ("rank1", "select1", "access"):
        add(f"query.bitvec.{op}.calls", "count", "lower", _OVERLAY)
        add(f"query.bitvec.{op}.self_ms", "ms", "lower", _OVERLAY)
    for span in ("rmq.query", "rlz.phrase_box"):
        add(f"query.{span}.calls", "count", "lower", _FLEET_INTERVAL)
        add(f"query.{span}.self_ms", "ms", "lower", _FLEET_INTERVAL)
    for span in ("reference.movement", "reference.mbb", "reference.step", "rlz.position_at"):
        add(f"query.{span}.calls", "count", "lower", _REFERENCE)
        add(f"query.{span}.self_ms", "ms", "lower", _REFERENCE)
    add("query.k2tree.report_region.calls", "count", "lower", _FILTER)
    add("query.k2tree.report_region.self_ms", "ms", "lower", _FILTER)
    add("query.k2tree.report_region.rows", "count", "lower", _FILTER)
    for kind in ("slice", "interval"):
        add(f"query.index.{kind}.candidates", "count", "lower", _FILTER)
        add(f"query.index.{kind}.hits", "count", "higher", _FILTER)
        add(f"query.index.{kind}.precision", "ratio", "higher", _FILTER)
    for kind in ("object", "trajectory", "slice", "interval"):
        add(f"query.index.{kind}.self_ms", "ms", "lower", f"{kind}_p50_ms on fleet")
    for span in ("dataio.read", "index.fit", "reference.build", "rlz.matcher_build",
                 "rlz.parse", "rlz.build_log"):
        add(f"fit.{span}.self_s", "s", "lower", _FIT)
    for span in ("k2tree.build", "rmq.build", "bitvec.build"):
        add(f"fit.{span}.calls", "count", "lower", _FIT)
        add(f"fit.{span}.self_s", "s", "lower", _FIT)
    add("fit.serialize.save.self_s", "s", "lower", _FIT)
    add("load.serialize.load.self_s", "s", "lower", _LOAD)
    for span in ("rmq.build", "bitvec.build"):
        add(f"load.{span}.calls", "count", "lower", _LOAD)
        add(f"load.{span}.self_s", "s", "lower", _LOAD)
    add("load.rlz.log_init.self_s", "s", "lower", _LOAD)
    add("trace.overhead", "ratio", "lower", "none: traced / untraced wall time of the same queries")
    return rows


# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = _layer_table()


def p50(samples: list[float]) -> float:
    return statistics.median(samples)


def p95(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 95th percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = math.ceil(0.95 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def layer_metrics(totals: dict, counts: dict, overhead: float) -> dict[str, float]:
    """Per-layer values from Tracer.layer_totals() and Tracer.counts."""
    out = {}
    for name, _unit, _better, _target in PER_LAYER:
        span, _, stat = name.rpartition(".")
        calls, self_ns = totals.get(span, (0, 0))
        if stat == "calls":
            out[name] = calls
        elif stat == "self_ms":
            out[name] = self_ns / 1e6
        elif stat == "self_s":
            out[name] = self_ns / 1e9
        elif stat == "precision":
            hits = counts.get(f"{span}.hits", 0)
            candidates = counts.get(f"{span}.candidates", 0)
            out[name] = hits / candidates if candidates else 1.0
        elif name == "trace.overhead":
            out[name] = overhead
        else:
            out[name] = counts.get(name, 0)
    return out
