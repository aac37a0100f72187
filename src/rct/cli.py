"""Command line: build, query, gen and bench over index files."""

from __future__ import annotations

import argparse
import sys
import time

from .dataio import DataError, read_trajectories
from .gen import generate_fleet, to_csv_lines
from .index import (
    RCTIndex,
    Region,
    SearchObject,
    TimeInterval,
    TimeSlice,
    TrajectoryBetween,
    as_region,
    run_query,
)
from .oracle import RawStore
from .serialize import IndexFormatError, load_index, save_index

USAGE_EXIT = 1
DATA_EXIT = 2

# ratio baseline: one raw row modeled as 4 x 4-byte integers
BYTES_PER_ROW = 16


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _parse_region(text: str) -> Region:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"region must be x1,y1,x2,y2, got {text!r}")
    return as_region(tuple(int(p) for p in parts))


def _build_parser() -> _Parser:
    parser = _Parser(prog="rct", description="Compressed trajectory index")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an index file from a CSV of positions")
    b.add_argument("input_csv")
    b.add_argument("output_index")
    b.add_argument("--period", type=int, default=32, help="timestamps between snapshots")
    b.add_argument("--k", type=int, default=2, help="k2-tree arity")
    b.add_argument("--ref-fraction", default="1/10", help="reference length / total movements")
    b.add_argument("--block", type=int, default=8, help="reference heuristic block length")

    q = sub.add_parser("query", help="run a query against an index file")
    q.add_argument("input", help="index file (or CSV with --oracle)")
    q.add_argument("--oracle", action="store_true", help="answer from raw CSV by brute force")
    qsub = q.add_subparsers(dest="query_type", required=True)

    so = qsub.add_parser("search-object")
    so.add_argument("--id", type=int, required=True)
    so.add_argument("--t", type=int, required=True)
    tr = qsub.add_parser("trajectory")
    tr.add_argument("--id", type=int, required=True)
    tr.add_argument("--from", dest="t_from", type=int, required=True)
    tr.add_argument("--to", dest="t_to", type=int, required=True)
    ts = qsub.add_parser("time-slice")
    ts.add_argument("--region", required=True, help="x1,y1,x2,y2")
    ts.add_argument("--t", type=int, required=True)
    ti = qsub.add_parser("time-interval")
    ti.add_argument("--region", required=True, help="x1,y1,x2,y2")
    ti.add_argument("--from", dest="t_from", type=int, required=True)
    ti.add_argument("--to", dest="t_to", type=int, required=True)

    g = sub.add_parser("gen", help="emit a synthetic fleet CSV on stdout")
    g.add_argument("--objects", type=int, default=10)
    g.add_argument("--steps", type=int, default=100)
    g.add_argument("--grid", type=int, default=1000, help="square grid side")
    g.add_argument("--routes", type=int, default=4)
    g.add_argument("--mutation-rate", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)

    be = sub.add_parser("bench", help="time randomized queries against an index file")
    be.add_argument("index_file")
    be.add_argument("--queries", type=int, default=100)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument(
        "--workload", choices=("slice", "interval", "object"), default="slice"
    )
    return parser


def _cmd_build(args) -> int:
    trajectories = read_trajectories(args.input_csv)
    rows = sum(len(tr.positions) for tr in trajectories)
    index = RCTIndex(
        period=args.period,
        k=args.k,
        ref_fraction=args.ref_fraction,
        block_length=args.block,
    ).fit(trajectories)
    index_bytes = save_index(index, args.output_index)
    stats = index.stats()
    input_bytes = BYTES_PER_ROW * rows
    print(
        f"objects={stats['objects']} movements={stats['movements']} "
        f"reference={stats['reference_length']} phrases={stats['phrases']} "
        f"index_bytes={index_bytes} input_bytes={input_bytes} "
        f"ratio={index_bytes / input_bytes:.4f}"
    )
    return 0


def _make_query(args):
    if args.query_type == "search-object":
        return SearchObject(args.id, args.t)
    if args.query_type == "trajectory":
        return TrajectoryBetween(args.id, args.t_from, args.t_to)
    region = _parse_region(args.region)
    if args.query_type == "time-slice":
        return TimeSlice(region, args.t)
    return TimeInterval(region, args.t_from, args.t_to)


def _print_result(query, result) -> None:
    if isinstance(query, SearchObject):
        if result is None:
            print("inactive")
        else:
            print(f"{query.object_id} {query.t} {result[0]} {result[1]}")
    elif isinstance(query, TrajectoryBetween):
        for t, x, y in result:
            print(f"{query.object_id} {t} {x} {y}")
    elif isinstance(query, TimeSlice):
        for oid, x, y in result:
            print(f"{oid} {query.t} {x} {y}")
    else:
        for oid in result:
            print(oid)


def _cmd_query(args) -> int:
    query = _make_query(args)
    if args.oracle:
        engine = RawStore(read_trajectories(args.input))
    else:
        engine = load_index(args.input)
    _print_result(query, run_query(engine, query))
    return 0


def _cmd_gen(args) -> int:
    fleet = generate_fleet(
        args.objects, args.steps, args.grid, args.routes, args.mutation_rate, args.seed
    )
    for line in to_csv_lines(fleet):
        print(line)
    return 0


def _bench_queries(index: RCTIndex, workload: str, count: int, seed: int):
    import random

    rng = random.Random(seed)
    max_x, max_y = index.grid_
    ids = sorted(index.logs_)
    t_max = index.t_max_
    queries = []
    for _ in range(count):
        if workload == "object":
            queries.append(SearchObject(rng.choice(ids), rng.randint(0, t_max)))
            continue
        x1 = rng.randint(0, max_x)
        y1 = rng.randint(0, max_y)
        region = Region(x1, y1, min(x1 + rng.randint(0, max_x // 4 + 1), max_x),
                        min(y1 + rng.randint(0, max_y // 4 + 1), max_y))
        if workload == "slice":
            queries.append(TimeSlice(region, rng.randint(0, t_max)))
        else:
            t1 = rng.randint(0, t_max)
            queries.append(TimeInterval(region, t1, min(t1 + rng.randint(0, 50), t_max)))
    return queries


def _cmd_bench(args) -> int:
    if args.queries < 0:
        raise ValueError("--queries must be >= 0")
    index = load_index(args.index_file)
    queries = _bench_queries(index, args.workload, args.queries, args.seed)
    latencies = []
    for q in queries:
        t0 = time.perf_counter()
        run_query(index, q)
        latencies.append((time.perf_counter() - t0) * 1000.0)
    if not latencies:
        print(f"workload={args.workload} count=0")
        return 0
    latencies.sort()
    p50 = latencies[int(0.50 * (len(latencies) - 1))]
    p95 = latencies[int(0.95 * (len(latencies) - 1))]
    print(
        f"workload={args.workload} count={len(latencies)} "
        f"p50_ms={p50:.3f} p95_ms={p95:.3f} max_ms={latencies[-1]:.3f}"
    )
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "query": _cmd_query,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"rct: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (KeyError, IndexFormatError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"rct: data error: {message}", file=sys.stderr)
        return DATA_EXIT
    except FileNotFoundError as exc:
        print(f"rct: {exc}", file=sys.stderr)
        return DATA_EXIT
    except ValueError as exc:
        print(f"rct: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
