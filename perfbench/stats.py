"""Order statistics for the benchmark's timings, and the machine-speed scale.

The machines this runs on are shared: the same pass can take 1.5x longer
a minute later because a neighbour got busy.  So every pass is timed
between two runs of a fixed reference loop and scaled by how long that
loop took, to reference seconds: seconds on a machine where the loop takes
REFERENCE_LOOP_S.  A change to the package moves its timings and not the
loop's, so it still shows in full.
"""

from __future__ import annotations

import json
from time import perf_counter

#: The reference loop's time on the machine timings are scaled to.
REFERENCE_LOOP_S = 0.010

#: Percentiles tried for a timing's tail, highest first.
TAILS = (99.99, 99.9, 99.0, 90.0)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def median(values) -> float:
    """The upper middle value; 0.0 for no values."""
    xs = sorted(values)
    return xs[len(xs) // 2] if xs else 0.0


def summary(values: list[float]) -> dict:
    """Median, every tail percentile with at least ten samples beyond it,
    and the sample count."""
    xs = sorted(values)
    out = {"median": percentile(xs, 50), "n": len(xs)}
    for p in TAILS:
        if len(xs) * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = percentile(xs, p)
    return out


class Samples:
    """At most `cap` evenly spaced samples of an unbounded series: when full,
    every second sample is dropped and the spacing doubles, so memory stays
    flat however many operations a run makes."""

    def __init__(self, cap: int = 1 << 16) -> None:
        self.cap, self.stride, self._skip, self.values = cap, 1, 0, []

    def extend(self, xs) -> None:
        for x in xs:
            self._skip += 1
            if self._skip >= self.stride:
                self._skip = 0
                self.values.append(x)
                if len(self.values) >= self.cap:
                    del self.values[1::2]
                    self.stride *= 2


def reference_loop_s() -> float:
    """Seconds the fixed reference loop takes right now.

    Integer arithmetic and small dicts serialised with json: of the loops
    tried, this mix followed the workloads' speed from one process to the
    next most closely.
    """
    t0 = perf_counter()
    x = 0
    for i in range(25_000):
        x += i * i
    for i in range(1_000):
        json.dumps({"m": i, "n": i + 1, "a": 3 * i, "b": 4 * i, "c": 5 * i, "p": True}, separators=(",", ":"))
    return perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor from seconds to reference seconds, for a timing taken
    between two reference loops."""
    return 2 * REFERENCE_LOOP_S / (before + after)
