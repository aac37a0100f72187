"""Steps of a benchmark run that need a fresh process, and the query loop.

    python3 perfbench/child.py build <root> <csv> <index>
        read_trajectories + fit + save_index; prints build_s, its
        host-speed-normalised twin norm_build_s (see speed.py) and peak RSS.
    python3 perfbench/child.py query <root> <index> <queries.pickle> <start> <seconds>
        a query session: load_index (repeated while the loads are short),
        with load_s, norm_load_s and the resident-memory growth across the
        first, then a warm-up pass and a timed
        loop over the query list from position <start>, probed for host
        speed between chunks.

Each prints one JSON object on stdout.  A fresh process starts from the
heap a new user session has: the build's peak RSS is its own, the load's
RSS growth is the memory the loaded index holds, and the garbage collector
never rescans the benchmark's datasets or oracle during timed calls.  (RSS
growth tracks tracemalloc's live-heap growth within about 2% on these
indexes; tracemalloc itself makes the load about nine times slower.)
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import sys
import time
from pathlib import Path

from speed import CHUNK_S, Probed, factors, probe

WARM_UP_S = 0.2
LOADS_S = 0.5  # a session repeats its load until the loads took this long
LOADS_MAX = 5


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def warm_up(index, queries) -> int:
    """Discarded pass over the start of the list; returns the queries it ran."""
    from rct import run_query

    deadline = time.perf_counter() + WARM_UP_S
    count = 0
    for query in queries[: len(queries) // 4]:
        run_query(index, query)
        count += 1
        if time.perf_counter() >= deadline:
            break
    return count


def timed_loop(index, queries, kinds, expected, start, seconds=0.0, count=0, tracer=None,
               probed=False):
    """One client's closed loop over the query list from `start`, cycling.

    Runs `count` queries, or until `seconds` have passed when count is 0.
    Each answer is compared with the oracle's after the query's clock stops.
    With `probed`, the loop times a host-speed probe between chunks of
    speed.CHUNK_S and normalises each query's latency by the probes around
    its chunk (see speed.py).  Returns a dict: latencies_ms and, when
    probed, norm_ms (both per kind), failed, wall_s (the loop's time without
    the probes) and norm_wall_s.
    """
    from rct import run_query

    clock = time.perf_counter
    n = len(queries)
    latencies = [[] for _ in range(4)]
    chunk_of = [[] for _ in range(4)]  # chunk of each latency sample
    probes = [probe()] if probed else []
    chunk_s = []
    failed = 0
    gc.collect()
    began = chunk_began = clock()
    deadline = began + seconds
    i = start
    while True:
        k = i % n
        if tracer is not None:
            tracer.query_id = i
        t0 = clock()
        try:
            answer = run_query(index, queries[k])
        except Exception as exc:  # a failed query is counted; the loop goes on
            answer = exc
        t1 = clock()
        latencies[kinds[k]].append((t1 - t0) * 1e3)
        chunk_of[kinds[k]].append(len(chunk_s))
        if answer != expected[k]:
            failed += 1
        i += 1
        done = (count and i - start >= count) or (not count and t1 >= deadline)
        if probed and (done or t1 - chunk_began >= CHUNK_S):
            chunk_s.append(clock() - chunk_began)
            probes.append(probe())
            chunk_began = clock()
        if done:
            break
    out = {"latencies_ms": latencies, "failed": failed, "wall_s": clock() - began}
    if probed:
        f = factors(probes)
        out["wall_s"] = sum(chunk_s)
        out["norm_wall_s"] = sum(s * x for s, x in zip(chunk_s, f))
        out["norm_ms"] = [[ms * f[c] for ms, c in zip(lat, chunks)]
                          for lat, chunks in zip(latencies, chunk_of)]
    return out


def _timed_loads(index_path: str):
    """Load the index, again while the loads so far took under LOADS_S.

    The first load gives the RSS growth; every load gives a time.
    """
    from rct import load_index

    out = {"load_s": [], "norm_load_s": []}
    while sum(out["load_s"]) < LOADS_S and len(out["load_s"]) < LOADS_MAX:
        index = None
        gc.collect()
        before = _rss_bytes()
        with Probed() as span:
            index = load_index(index_path)
        gc.collect()
        out.setdefault("ram_bytes", _rss_bytes() - before)
        out["load_s"].append(span.seconds)
        out["norm_load_s"].append(span.normalised)
    return index, out


def main(argv: list[str]) -> int:
    mode, root = argv[0], Path(argv[1])
    sys.path.insert(0, str(root / "src"))
    from rct import RCTIndex, read_trajectories, save_index

    if mode == "build":
        csv_path, index_path = argv[2], argv[3]
        with Probed() as span:
            index = RCTIndex(period=32, k=2, ref_fraction="1/10", block_length=8)
            index.fit(read_trajectories(csv_path))
            save_index(index, index_path)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        out = {"build_s": span.seconds, "norm_build_s": span.normalised,
               "peak_rss_mb": peak_kb / 1024}
    elif mode == "query":
        with open(argv[3], "rb") as fh:
            queries, kinds, expected = pickle.load(fh)
        index, out = _timed_loads(argv[2])
        out["stats"] = {**index.stats(), "max_speed": index.max_speed_}
        start = int(argv[4])
        out["warm_up"] = warm_up(index, queries[start:] + queries[:start])
        out.update(timed_loop(index, queries, kinds, expected, start,
                              seconds=float(argv[5]), probed=True))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
