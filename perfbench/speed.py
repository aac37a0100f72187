"""The host's speed, probed alongside every timed span, and times normalised by it.

A shared host gives the benchmark a CPU whose speed swings by up to 1.7x
within a minute, as other tenants come and go.  Timed a minute apart, the
same queries differ by more than any bound a benchmark could hold.  So
every timed span is cut into short segments separated by probes: a fixed
pure-Python kernel, timed on its own.  The kernel mixes arithmetic,
method calls and dict work with a random walk over a 2 MiB array, in
about the proportions that tracked rct's query time best: over 4 s windows
of fleet queries, the IQR / median of normalised query time was 0.031
with this mix, 0.049 with either part alone and 0.098 raw.  A segment's
normalised time is

    measured time * REFERENCE_PROBE_S / (median of the probes around it)

the time it would have taken on a host where one probe takes
REFERENCE_PROBE_S.  The probe is the benchmark's own code and never
changes with rct, so a change in rct moves normalised times as much as
measured ones, while most of the host's drift drops out: over ten seeds
on a 2-vCPU VM, the worst IQR / median of a timing metric was 0.10
normalised against 0.30 raw for the same runs.

The query loop probes between chunks of CHUNK_S.  Long single calls
(read + fit + save, load) are probed from a SIGALRM timer every
PROBE_EVERY_S, which Python runs between bytecodes of the timed call;
the probes' own time is left out of the span.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

REFERENCE_PROBE_S = 0.001  # one probe on the reference host
CHUNK_S = 0.025  # query-loop time between two probes
PROBE_EVERY_S = 0.05  # timer period while a long call runs
_NEAR = 4  # probes on each side of a segment that set its speed

_MASK = (1 << 18) - 1
_TABLE = array("q", range(_MASK + 1))  # 2 MiB, past the L2 cache


class _Counter:
    __slots__ = ("acc", "steps")

    def __init__(self):
        self.acc = 0
        self.steps = [i * 7 % 256 for i in range(256)]

    def step(self, i: int) -> int:
        j = self.steps[i & 255]
        self.acc = (self.acc + j * i) & 0xFFFFF
        return j


def _kernel(calls: int, loads: int) -> int:
    counter, seen, acc = _Counter(), {}, 0
    for i in range(calls):
        j = counter.step(i)
        seen[j] = i
        acc ^= seen.get(i & 511, 0)
    table, k = _TABLE, 12345
    for _ in range(loads):
        k = (k * 1103515245 + 12345) & _MASK
        acc += table[k]
    return acc


def probe() -> float:
    """Seconds one run of the fixed kernel takes now."""
    t0 = time.perf_counter()
    _kernel(900, 1800)
    return time.perf_counter() - t0


def factors(probes: list[float]) -> list[float]:
    """Normalising factor of each segment between probes[j] and probes[j + 1].

    The median of the _NEAR probes on either side, so that one probe an
    interrupt slowed down does not skew its segments.
    """
    out = []
    for j in range(len(probes) - 1):
        near = probes[max(0, j + 1 - _NEAR): j + 1 + _NEAR]
        out.append(REFERENCE_PROBE_S / statistics.median(near))
    return out


class Probed:
    """Times one long call with probes from a timer while it runs.

        with Probed() as span:
            index = load_index(path)
        span.seconds, span.normalised
    """

    def __init__(self):
        self.seconds = self.normalised = 0.0

    def _tick(self, _signum, _frame) -> None:
        if not self._open:
            return
        t0 = time.perf_counter()
        self._ends.append(t0)
        self._probes.append(probe())
        self._starts.append(time.perf_counter())

    def __enter__(self) -> "Probed":
        self._probes = [probe()]
        self._ends = []
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._open = True
        self._starts = [time.perf_counter()]
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        self._open = False  # a tick that fires from here on does nothing
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._ends.append(end)
        self._probes.append(probe())
        segments = [b - a for a, b in zip(self._starts, self._ends)]
        self.seconds = sum(segments)
        self.normalised = sum(s * f for s, f in zip(segments, factors(self._probes)))
