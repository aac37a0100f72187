"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fleet --seeds 1-10 --seconds 10

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median and the interquartile range as a share of the median
(statistics.quantiles, n=4), next to the metric's bound.  A benchmark is
steady when every spread but setup_s stays within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} wrong answers", file=sys.stderr)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    print(f"{'metric':28} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for name, _unit, _better, bound in END_TO_END:
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= bound / 3 else (" > bound/3" if spread <= bound else " > BOUND")
        print(f"{name:28} {med:>12.6g} {spread:>10.4f} {bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
