"""Seeded end-to-end benchmark of rct, with a separate traced per-layer run.

    python3 perfbench/run.py --workload fleet --seed 3 --seconds 10 --trace 0

Runs rct from this checkout's `src/`.  Writes the workload's CSV, then
measures set-up (read, fit and save in a fresh child process, then a load
in another), memory, and a closed loop of one client issuing the four
query types in a seeded interleaved order.  Every time is normalised for
the host's speed by probes taken alongside it (speed.py).  Every timed
answer is compared with `rct.oracle.RawStore`.  `--trace 1` instead wraps
each layer's public functions and reports per-layer calls, self time and
filter counts.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Full results, the per-layer table and the span dump go to
`perfbench/results/`.  `--workload all` runs every workload, each in its
own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("fleet", "glitch", "large")
CHILD_TIMEOUT_S = 170


def _import_rct():
    """Import rct from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "rct" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rct sources under {src}; run from an rct checkout")
    sys.path.insert(0, str(src))
    import rct

    if Path(rct.__file__).resolve().parent != (src / "rct").resolve():
        raise SystemExit(f"perfbench: imported rct from {rct.__file__}, not {src}")


def _child(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(CHILD), args[0], str(ROOT), *args[1:]],
        stdout=subprocess.PIPE,
        text=True,
    )


def _finish(proc: subprocess.Popen) -> dict:
    """Wait for a child started by _child and parse its JSON line."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"child {proc.args[2]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


class Run:
    """Inputs of one workload and seed: the CSV on disk, queries and oracle answers."""

    def __init__(self, workload, seed: int, work: Path):
        from rct import RawStore, run_query
        from workloads import csv_text, make_queries

        self.workload = workload
        self.work = work
        fleet = workload.trajectories(seed)
        self.csv_path = work / "data.csv"
        self.index_path = work / "index.rct"
        self.csv_path.write_text(csv_text(fleet))
        self.rows = sum(len(tr.positions) for tr in fleet)
        self.objects = len(fleet)
        self.moves = self.rows - self.objects
        self.queries, self.kinds = make_queries(fleet, workload.distinct, workload.mix, seed)
        oracle = RawStore(fleet)
        self.expected = [run_query(oracle, q) for q in self.queries]

    def fingerprint(self, stats: dict) -> dict:
        """What proves two runs saw identical inputs, plus the index's shape."""
        from workloads import answers_digest

        return {
            "rows": self.rows,
            "moves": self.moves,
            "objects": self.objects,
            "phrases": stats["phrases"],
            "reference_length": stats["reference_length"],
            "max_speed": stats["max_speed"],
            "oracle_digest": answers_digest(self.expected),
        }


def measure(run: Run, seconds: float) -> dict:
    """Set-up and query sessions, each in a fresh child process.

    Each of the workload's `sessions` is a build (the first `builds` only)
    followed by a query session: a timed load, a warm-up, then an equal
    share of the timed loop, each session from its own place in the query
    list.  setup_s pairs each build with the first load after it; load_s
    pools every load (a session repeats short loads, see child.py).

    Every time reported is normalised for the host's speed (speed.py): on
    a shared host, raw times of the same code a minute apart differ by far
    more than any bound.  The raw times go to the results file as
    `measured`.  Latency percentiles and queries_per_s pool every session.
    """
    from metrics import p50, p95
    from workloads import KINDS

    w = run.workload
    query_file = run.work / "queries.pickle"
    with open(query_file, "wb") as fh:
        pickle.dump((run.queries, run.kinds, run.expected), fh)
    builds, sessions = [], []
    for rep in range(w.sessions):
        if rep < w.builds:
            builds.append(_finish(_child("build", str(run.csv_path), str(run.index_path))))
        start = rep * len(run.queries) // w.sessions
        sessions.append(_finish(_child("query", str(run.index_path), str(query_file),
                                       str(start), repr(seconds / w.sessions))))

    def timings(prefix: str, latency_key: str, wall_key: str) -> tuple[dict, list]:
        lat = [sum((s[latency_key][k] for s in sessions), []) for k in range(len(KINDS))]
        out = {
            "setup_s": p50([b[f"{prefix}build_s"] + s[f"{prefix}load_s"][0]
                            for b, s in zip(builds, sessions)]),
            "load_s": p50(sum((s[f"{prefix}load_s"] for s in sessions), [])),
        }
        for kind, samples in zip(KINDS, lat):
            out[f"{kind}_p50_ms"] = p50(samples)
            out[f"{kind}_p95_ms"] = p95(samples)[0]
        out["queries_per_s"] = sum(map(len, lat)) / sum(s[wall_key] for s in sessions)
        return out, lat

    values, latencies = timings("norm_", "norm_ms", "norm_wall_s")
    measured, _ = timings("", "latencies_ms", "wall_s")
    attempted = sum(map(len, latencies))
    failed = sum(s["failed"] for s in sessions)
    values.update({
        "build_peak_rss_mb": p50([b["peak_rss_mb"] for b in builds]),
        "index_file_bytes_per_move": run.index_path.stat().st_size / run.moves,
        "index_ram_bytes_per_move": p50([s["ram_bytes"] for s in sessions]) / run.moves,
        "error_rate": failed / attempted,
    })
    samples = {
        "setup_s": len(builds),
        "load_s": sum(len(s["load_s"]) for s in sessions),
        "build_peak_rss_mb": len(builds),
        "index_file_bytes_per_move": 1,
        "index_ram_bytes_per_move": len(sessions),
        "queries_per_s": attempted,
        "error_rate": attempted,
    }
    beyond = {}
    for kind, lat in zip(KINDS, latencies):
        samples[f"{kind}_p50_ms"] = samples[f"{kind}_p95_ms"] = len(lat)
        beyond[f"{kind}_p95_ms"] = p95(lat)[1]
    return {
        "fingerprint": run.fingerprint(sessions[0]["stats"]),
        "values": values,
        "measured": measured,
        "samples": samples,
        "beyond_p95": beyond,
        "setup_runs": {key: [b[key] for b in builds] for key in ("build_s", "norm_build_s")}
        | {key: [s[key] for s in sessions] for key in ("load_s", "norm_load_s")},
        "warm_up_queries": [s["warm_up"] for s in sessions],
        "attempted": attempted,
        "failed": failed,
    }


def measure_traced(run: Run, span_dump: Path) -> dict:
    import rct.dataio
    import rct.serialize
    from child import timed_loop, warm_up
    from metrics import layer_metrics
    from rct import RCTIndex
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase("fit")
        index = RCTIndex(period=32, k=2, ref_fraction="1/10", block_length=8)
        index.fit(rct.dataio.read_trajectories(run.csv_path))
        rct.serialize.save_index(index, run.index_path)
        index = None
        gc.collect()
        tracer.phase("load")
        index = rct.serialize.load_index(run.index_path)
    finally:
        tracer.uninstall()
    warm_up(index, run.queries)
    # Both passes run the same fixed prefix of the list, so counts repeat
    # exactly.  They alternate in eight chunks, so a change in host speed
    # during the run weighs on both alike.
    count = run.workload.traced * sum(run.workload.mix)
    chunk = max(1, count // 8)
    failed = 0
    wall_plain = wall_traced = 0.0
    tracer.phase("query")
    for start in range(0, count, chunk):
        loop = (index, run.queries, run.kinds, run.expected, start)
        n = min(chunk, count - start)
        plain = timed_loop(*loop, count=n)
        tracer.install()
        try:
            traced = timed_loop(*loop, count=n, tracer=tracer)
        finally:
            tracer.uninstall()
        wall_plain += plain["wall_s"]
        wall_traced += traced["wall_s"]
        failed += plain["failed"] + traced["failed"]
    totals = tracer.layer_totals()
    values = layer_metrics(totals, tracer.counts, wall_traced / wall_plain)
    span_dump.parent.mkdir(exist_ok=True)
    spans = tracer.dump(span_dump)
    return {
        "fingerprint": run.fingerprint({**index.stats(), "max_speed": index.max_speed_}),
        "values": values,
        "bases": {
            "trace.overhead": f"{wall_traced:.4f} s traced / {wall_plain:.4f} s untraced",
            **{
                f"query.index.{kind}.precision": (
                    f"{tracer.counts.get(f'query.index.{kind}.hits', 0)} hits / "
                    f"{tracer.counts.get(f'query.index.{kind}.candidates', 0)} candidates"
                )
                for kind in ("slice", "interval")
            },
        },
        "layer_totals": {
            key: {"calls": calls, "self_ms": self_ns / 1e6}
            for key, (calls, self_ns) in sorted(totals.items())
        },
        "traced_queries": count,
        "spans": spans,
        "attempted": 2 * count,
        "failed": failed,
    }


def _report(name: str, seed: int, result: dict, trace: bool) -> list[str]:
    from metrics import END_TO_END, PER_LAYER

    fp = result["fingerprint"]
    lines = [
        f"# rct benchmark: workload={name} seed={seed} trace={int(trace)}",
        "# fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()),
    ]
    if trace:
        lines.append(f"# traced pass: {result['traced_queries']} queries, "
                     f"{result['spans']} spans dumped to perfbench/results/{name}-spans.tsv.gz")
        lines.append(f"{'metric':40} {'value':>14} {'unit':6} targets")
        for metric, unit, _better, target in PER_LAYER:
            base = result["bases"].get(metric, "")
            value = result["values"][metric]
            lines.append(f"{metric:40} {value:>14.6g} {unit:6} {target}"
                         + (f"  [{base}]" if base else ""))
        lines.append("# self time and calls of every traced span, by phase:")
        for key, entry in result["layer_totals"].items():
            lines.append(f"#   {key:34} calls={entry['calls']:<9} self_ms={entry['self_ms']:.3f}")
    else:
        lines.append("# times are normalised for host speed; 'measured' is the raw time")
        lines.append(f"{'metric':28} {'value':>14} {'measured':>14} {'unit':6} samples")
        table = END_TO_END + [("error_rate", "ratio", "lower", 0)]
        for metric, unit, _better, _bound in table:
            extra = ""
            if metric in result["beyond_p95"]:
                extra = f" ({result['beyond_p95'][metric]} above p95)"
            raw = result["measured"].get(metric)
            raw = "" if raw is None else f"{raw:.6g}"
            lines.append(f"{metric:28} {result['values'][metric]:>14.6g} {raw:>14} {unit:6} "
                         f"{result['samples'][metric]}{extra}")
    return lines


def run_one(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, toy as shrink

    workload = WORKLOADS[name]
    tag = name
    if toy:
        workload, tag = shrink(workload), f"{name}-toy"
    work = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work)
        if trace:
            result = measure_traced(run, RESULTS / f"{tag}-spans.tsv.gz")
        else:
            result = measure(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in _report(tag, seed, result, trace):
        print(line)
    RESULTS.mkdir(exist_ok=True)
    suffix = "-trace" if trace else ""
    (RESULTS / f"{tag}-seed{seed}{suffix}.json").write_text(json.dumps(result, indent=1))
    table = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m[0]: {"value": result["values"][m[0]], "unit": m[1]} for m in table},
    }


def run_all(argv_rest: list[str]) -> dict:
    """Each workload in its own process; metrics come back prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, *argv_rest],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="drives datasets and query streams (default 3)")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="shrink every dataset (smoke test)")
    args = parser.parse_args(argv)
    _import_rct()
    from workloads import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "all":
        rest = ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = run_all(rest + (["--toy"] if args.toy else []))
    else:
        result = run_one(args.workload, seed, args.seconds, bool(args.trace), args.toy)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
