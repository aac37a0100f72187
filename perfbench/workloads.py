"""Seeded datasets and query streams for the benchmark workloads.

Everything here is a pure function of the workload name and the seed, so
two checkouts given the same seed run identical inputs.  The program under
test only ever sees the CSV written from these trajectories and the query
objects built here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from rct import (
    Region,
    SearchObject,
    TimeInterval,
    TimeSlice,
    Trajectory,
    TrajectoryBetween,
    generate_fleet,
)

DEFAULT_SEED = 3  # the seed of the ROADMAP's hand-measured 2M-move baseline

KINDS = ("object", "trajectory", "slice", "interval")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fleet shape plus how the run is sized."""

    name: str
    why: str
    objects: int
    steps: int
    grid: int
    routes: int
    glitch: bool  # move 1% of the objects half the grid away at one timestamp
    builds: int  # child-process builds; setup_s is the median of each with a load
    sessions: int  # query sessions, each timing its own load; at least builds
    distinct: int  # blocks of queries; the timed loop cycles through them
    traced: int  # blocks in the traced pass (fixed, so counts repeat)
    mix: tuple[int, int, int, int] = (1, 1, 1, 1)  # queries of each kind per block
    mutation_rate: float = 0.01

    def trajectories(self, seed: int) -> list[Trajectory]:
        fleet = generate_fleet(
            self.objects, self.steps, self.grid, self.routes, self.mutation_rate, seed
        )
        if self.glitch:
            add_glitches(fleet, self.grid, random.Random(f"glitch-{seed}"))
        return fleet


# On `glitch` every slice and interval scans all objects, so its fleet has
# 50 objects, not fleet's 200: a scan costs a quarter as much, and a 10 s
# run completes ~450 slices and ~230 intervals, enough for their p95s, with
# p50s still 15-30x fleet's.  Its blocks hold eight object and eight
# trajectory queries, which cost almost nothing there, and two slices per
# interval.  Its 200 blocks give the tails enough distinct queries; the
# three sessions, each starting a third of the way further, cover them.
# `large` is the ROADMAP's 2M-move set (500 objects, 4000 steps) at half the
# steps: one run of the full set takes about 60 s, and 22 of them per
# benchmark pass would not fit the time budget alongside fleet and glitch.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fleet",
            "400k moves, max speed 1: the snapshot filter is selective, so query time "
            "is the rank/select, RMQ, reference and phrase overlays",
            200, 2000, 2000, 10, glitch=False,
            builds=2, sessions=3, distinct=1000, traced=200,
        ),
        Workload(
            "glitch",
            "a 50-object fleet with one object jumping half the grid once: max speed "
            "~1000 turns the filter into a full scan, stressing candidate verification",
            50, 2000, 2000, 10, glitch=True,
            builds=2, sessions=3, distinct=200, traced=8, mix=(8, 8, 2, 1),
        ),
        Workload(
            "large",
            "1M moves over 500 objects on a 4000 grid: CSV read, fit, save, load and "
            "memory dominate, and the index is far larger than the CPU caches",
            500, 2000, 4000, 20, glitch=False,
            builds=2, sessions=3, distinct=500, traced=200,
        ),
    )
}

TOY = {
    "fleet": dict(objects=20, steps=200, grid=200, routes=4, distinct=40, traced=10),
    "glitch": dict(objects=20, steps=200, grid=200, routes=4, distinct=40, traced=10),
    "large": dict(objects=30, steps=300, grid=400, routes=5, distinct=40, traced=10),
}


def toy(workload: Workload) -> Workload:
    """The same workload shrunk to a few thousand moves, for smoke tests."""
    from dataclasses import replace

    return replace(workload, **TOY[workload.name])


def add_glitches(fleet: list[Trajectory], grid: int, rng: random.Random) -> None:
    """Move 1% of the objects (at least one) half the grid away for one timestamp.

    A GPS glitch: the object jumps out and straight back, so its largest
    step, and with it the index's global max speed, becomes about grid/2.
    """
    half = grid // 2
    for oid in sorted(rng.sample(range(len(fleet)), max(1, len(fleet) // 100))):
        positions = fleet[oid].positions
        k = rng.randint(1, len(positions) - 2)
        x, y = positions[k]
        positions[k] = ((x + half) % grid, (y + half) % grid)


def csv_text(fleet: list[Trajectory]) -> str:
    lines = [
        f"{tr.object_id},{tr.start_time + k},{x},{y}"
        for tr in fleet
        for k, (x, y) in enumerate(tr.positions)
    ]
    return "\n".join(lines) + "\n"


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` values uniform on [lo, hi], one from each of `count` equal strata, shuffled."""
    order = list(range(count))
    rng.shuffle(order)
    return [min(hi, lo + int((s + rng.random()) * (hi - lo + 1) / count)) for s in order]


def make_queries(fleet: list[Trajectory], blocks: int, mix, seed: int):
    """`blocks` shuffled blocks, each holding mix[k] queries of kind k.

    Distributions follow `rct bench`: regions have a uniform corner and
    sides uniform in [0, grid/4 + 1] clamped to the grid; slices pick a
    uniform t; intervals span [0, 50] steps; object and trajectory queries
    pick a uniform id and t, trajectories spanning [0, 100] steps.

    Each parameter is drawn by Latin hypercube sampling (one value per
    stratum, strata paired at random), which keeps those distributions but
    makes the latency percentiles of one query set vary far less from seed
    to seed than independent draws do.  Blocks keep the kinds in proportion
    wherever a timed run stops.  Returns (queries, kinds) with kinds[i] an
    index into KINDS.
    """
    rng = random.Random(f"queries-{seed}")
    max_x = max(x for tr in fleet for x, _ in tr.positions)
    max_y = max(y for tr in fleet for _, y in tr.positions)
    t_max = max(tr.end_time for tr in fleet)
    ids = sorted(tr.object_id for tr in fleet)

    def draw(count: int, lo: int, hi: int) -> list[int]:
        return _stratified(rng, count, lo, hi)

    def regions(n: int) -> list[Region]:
        x1s, y1s = draw(n, 0, max_x), draw(n, 0, max_y)
        ws, hs = draw(n, 0, max_x // 4 + 1), draw(n, 0, max_y // 4 + 1)
        return [
            Region(x1, y1, min(x1 + w, max_x), min(y1 + h, max_y))
            for x1, y1, w, h in zip(x1s, y1s, ws, hs)
        ]

    def spans(n: int, longest: int) -> list[tuple[int, int]]:
        return [(t, min(t + d, t_max)) for t, d in zip(draw(n, 0, t_max), draw(n, 0, longest))]

    n_obj, n_traj, n_slice, n_int = (blocks * m for m in mix)
    by_kind = [
        [SearchObject(ids[i], t) for i, t in zip(draw(n_obj, 0, len(ids) - 1),
                                                 draw(n_obj, 0, t_max))],
        [TrajectoryBetween(ids[i], a, b) for i, (a, b) in zip(draw(n_traj, 0, len(ids) - 1),
                                                               spans(n_traj, 100))],
        [TimeSlice(r, t) for r, t in zip(regions(n_slice), draw(n_slice, 0, t_max))],
        [TimeInterval(r, a, b) for r, (a, b) in zip(regions(n_int), spans(n_int, 50))],
    ]
    pools = [iter(pool) for pool in by_kind]
    queries, kinds = [], []
    for _ in range(blocks):
        block = [kind for kind, m in enumerate(mix) for _ in range(m)]
        rng.shuffle(block)
        for kind in block:
            queries.append(next(pools[kind]))
            kinds.append(kind)
    return queries, kinds


def answers_digest(answers) -> str:
    """Short stable digest of oracle answers, to prove two runs saw the same inputs."""
    h = hashlib.sha256()
    for ans in answers:
        h.update(repr(ans).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
