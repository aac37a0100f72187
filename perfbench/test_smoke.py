"""Smoke test of the benchmark at toy size: every metric emitted, no wrong answers."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_end_to_end_metric_on_every_workload():
    proc = _run("--workload", "all", "--toy", "--seconds", "0.2", "--trace", "0")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in WORKLOADS:
        for name, unit, _better, _bound in END_TO_END:
            entry = result["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit
            assert entry["value"] > 0, (workload, name)
    error_lines = [line.split() for line in proc.stdout.splitlines() if line.startswith("error_rate")]
    assert len(error_lines) == len(WORKLOADS)
    assert all(float(fields[1]) == 0 for fields in error_lines)


def test_traced_run_emits_every_layer_metric():
    result = _result(_run("--workload", "glitch", "--toy", "--trace", "1"))
    assert result["correct"]
    assert set(result["metrics"]) == {name for name, *_ in PER_LAYER}
    for name, unit, _better, _target in PER_LAYER:
        assert result["metrics"][name]["unit"] == unit
    assert result["metrics"]["query.index.slice.precision"]["value"] < 1
    assert result["metrics"]["trace.overhead"]["value"] > 1


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == [row[:3] for row in PER_LAYER]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "_work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "fleet", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
