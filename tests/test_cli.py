import random

import pytest

from helpers import make_dataset
from rct.cli import main
from rct.gen import to_csv_lines


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, trajectories):
    path.write_text("\n".join(to_csv_lines(trajectories)) + "\n")


@pytest.fixture
def fleet_csv(tmp_path, capsys):
    path = tmp_path / "fleet.csv"
    code, out, _ = run(capsys, "gen", "--objects", "8", "--steps", "60",
                       "--grid", "64", "--routes", "2", "--mutation-rate", "0.05",
                       "--seed", "7")
    assert code == 0
    path.write_text(out)
    return path


def test_gen_deterministic(capsys):
    a = run(capsys, "gen", "--objects", "5", "--steps", "30", "--seed", "3")
    b = run(capsys, "gen", "--objects", "5", "--steps", "30", "--seed", "3")
    assert a == b
    assert a[0] == 0


def test_gen_shared_route_without_mutation(capsys):
    code, out, _ = run(capsys, "gen", "--objects", "4", "--steps", "50",
                       "--grid", "500", "--routes", "1", "--seed", "1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    by_id = {}
    for oid, t, x, y in rows:
        by_id.setdefault(int(oid), []).append((int(x), int(y)))
    moves = {
        oid: tuple((x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pos, pos[1:]))
        for oid, pos in by_id.items()
    }
    assert len(set(moves.values())) == 1


def test_build_stats_line(fleet_csv, tmp_path, capsys):
    out_path = tmp_path / "fleet.rct"
    code, out, _ = run(capsys, "build", str(fleet_csv), str(out_path), "--period", "16")
    assert code == 0
    assert out_path.exists()
    fields = dict(kv.split("=") for kv in out.split())
    assert fields["objects"] == "8"
    assert fields["movements"] == str(8 * 60)
    assert int(fields["phrases"]) > 0
    assert int(fields["index_bytes"]) > 0
    assert fields["input_bytes"] == str(16 * 8 * 61)
    assert abs(float(fields["ratio"]) - int(fields["index_bytes"]) / (16 * 8 * 61)) < 1e-4


def test_build_single_position_object(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text("5,3,10,11\n")
    out_path = tmp_path / "one.rct"
    code, out, _ = run(capsys, "build", str(csv), str(out_path))
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    assert fields["movements"] == "0"
    assert fields["phrases"] == "0"
    code, out, _ = run(capsys, "query", str(out_path), "search-object", "--id", "5", "--t", "3")
    assert code == 0 and out == "5 3 10 11\n"


def test_build_rejects_malformed_rows(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("1,0,5,5\n1,2,6,6\n")  # gap between t=0 and t=2
    code, _, err = run(capsys, "build", str(csv), str(tmp_path / "x.rct"))
    assert code == 2
    assert "gap" in err and "line 2" in err

    csv.write_text("1,0,5,5\n1,0,6,6\n")
    code, _, err = run(capsys, "build", str(csv), str(tmp_path / "x.rct"))
    assert code == 2 and "duplicate" in err

    csv.write_text("1,0,5,5\nxx,1,2,3\n")
    code, _, err = run(capsys, "build", str(csv), str(tmp_path / "x.rct"))
    assert code == 2 and "line 2" in err


def test_query_outputs(fleet_csv, tmp_path, capsys):
    out_path = tmp_path / "fleet.rct"
    assert run(capsys, "build", str(fleet_csv), str(out_path))[0] == 0

    code, out, _ = run(capsys, "query", str(out_path), "search-object", "--id", "0", "--t", "10")
    assert code == 0
    oid, t, x, y = out.split()
    assert (oid, t) == ("0", "10")

    code, out, _ = run(capsys, "query", str(out_path), "search-object", "--id", "0", "--t", "500")
    assert code == 0 and out == "inactive\n"

    code, out, _ = run(capsys, "query", str(out_path), "trajectory", "--id", "1",
                       "--from", "5", "--to", "9")
    assert code == 0
    assert len(out.strip().splitlines()) == 5

    code, out, _ = run(capsys, "query", str(out_path), "time-slice",
                       "--region", "0,0,64,64", "--t", "30")
    assert code == 0
    ids = [int(line.split()[0]) for line in out.strip().splitlines()]
    assert ids == sorted(ids) and len(ids) == 8

    code, out, _ = run(capsys, "query", str(out_path), "time-interval",
                       "--region", "0,0,64,64", "--from", "0", "--to", "60")
    assert code == 0
    assert [int(v) for v in out.split()] == list(range(8))


def test_query_time_slice_empty_is_silent_success(fleet_csv, tmp_path, capsys):
    out_path = tmp_path / "fleet.rct"
    run(capsys, "build", str(fleet_csv), str(out_path))
    code, out, _ = run(capsys, "query", str(out_path), "time-slice",
                       "--region", "1000,1000,1200,1200", "--t", "30")
    assert code == 0 and out == ""


def test_query_errors(fleet_csv, tmp_path, capsys):
    out_path = tmp_path / "fleet.rct"
    run(capsys, "build", str(fleet_csv), str(out_path))
    code, _, err = run(capsys, "query", str(out_path), "search-object", "--id", "77", "--t", "0")
    assert code == 2 and "77" in err
    code, _, err = run(capsys, "query", str(out_path), "time-slice",
                       "--region", "9,9,1,1", "--t", "0")
    assert code == 1 and "region" in err
    code, _, err = run(capsys, "query", str(out_path), "time-slice",
                       "--region", "1,2,3", "--t", "0")
    assert code == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query"])  # missing required input
    assert exc.value.code == 1


def test_oracle_differential_byte_identical(tmp_path, capsys):
    rng = random.Random(70)
    trajs = make_dataset(rng, max_objects=10, max_duration=80, grid=(200, 200))
    csv = tmp_path / "data.csv"
    write_csv(csv, trajs)
    out_path = tmp_path / "data.rct"
    assert run(capsys, "build", str(csv), str(out_path), "--period", "8")[0] == 0
    t_max = max(tr.end_time for tr in trajs)
    queries = []
    for _ in range(40):
        oid = rng.randrange(len(trajs))
        t = rng.randint(0, t_max)
        queries.append(("search-object", "--id", str(oid), "--t", str(t)))
        queries.append(("trajectory", "--id", str(oid), "--from", str(max(t - 10, 0)), "--to", str(t)))
        x1, y1 = rng.randint(0, 200), rng.randint(0, 200)
        region = f"{x1},{y1},{min(x1 + rng.randint(0, 60), 200)},{min(y1 + rng.randint(0, 60), 200)}"
        queries.append(("time-slice", "--region", region, "--t", str(t)))
        queries.append(("time-interval", "--region", region, "--from", str(max(t - 15, 0)), "--to", str(t)))
    for q in queries:
        code_i, out_i, _ = run(capsys, "query", str(out_path), *q)
        code_o, out_o, _ = run(capsys, "query", "--oracle", str(csv), *q)
        assert code_i == code_o == 0
        assert out_i == out_o, f"divergence on {q}"


def test_bench_reports_percentiles(fleet_csv, tmp_path, capsys):
    out_path = tmp_path / "fleet.rct"
    run(capsys, "build", str(fleet_csv), str(out_path))
    for workload in ("slice", "interval", "object"):
        code, out, _ = run(capsys, "bench", str(out_path), "--queries", "20",
                           "--seed", "4", "--workload", workload)
        assert code == 0
        assert f"workload={workload}" in out
        assert "count=20" in out
        assert "p50_ms=" in out and "p95_ms=" in out and "max_ms=" in out


def test_bench_zero_queries(fleet_csv, tmp_path, capsys):
    out_path = tmp_path / "fleet.rct"
    run(capsys, "build", str(fleet_csv), str(out_path))
    code, out, _ = run(capsys, "bench", str(out_path), "--queries", "0")
    assert code == 0 and "count=0" in out


def test_bench_checks_queries_before_loading(tmp_path, capsys):
    code, _, err = run(capsys, "bench", str(tmp_path / "missing.rct"), "--queries", "-1")
    assert code == 1 and "--queries" in err


def test_bench_same_seed_same_queries(fleet_csv, tmp_path, capsys):
    out_path = tmp_path / "fleet.rct"
    run(capsys, "build", str(fleet_csv), str(out_path))
    from rct.cli import _bench_queries
    from rct.serialize import load_index

    idx = load_index(str(out_path))
    a = _bench_queries(idx, "interval", 25, seed=9)
    b = _bench_queries(idx, "interval", 25, seed=9)
    assert a == b
