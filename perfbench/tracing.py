"""In-memory span tracing for the benchmark's traced runs.

Shims wrap calls at the boundaries between the package's modules.  A
per-record call (one forward map, one stream step) is not kept as a span
of its own: it adds to its name's (calls, total ns, child ns) aggregate.
Coarse calls (one cli.main, one verify_chain, one oracle run) are also kept
as spans (id, parent, request, name, start, end), written out once at the
end.  A name's self time is its total minus the time of the shimmed calls
made inside it, and minus what each of those shims costs its caller beyond
a plain call (calibrated on an empty function when the tracer starts), so
that the shims' own cost does not count as the parent's work.
"""

from __future__ import annotations

import json
import time
from itertools import count

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        #: name -> [calls, total_ns, child_ns]
        self.stats: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.first_record_ns: list[int] = []
        self.request = 0
        self._child = 0
        self._open = [0]
        self._ids = count(1)
        self.timer_ns = self._timer_floor()
        #: ns a wrap / wrap_keyed shim and a stream step cost their caller
        #: beyond a plain call, outside their own timed window; each shimmed
        #: call adds its figure to its parent's child time.
        self.call_ns = self.keyed_ns = self.next_ns = 0.0
        self.call_ns, self.keyed_ns, self.next_ns = self._shim_costs()

    @staticmethod
    def _timer_floor() -> int:
        """Median cost of one clock read, the part of it a span includes."""
        reads = sorted(-(_now() - _now()) for _ in range(2001))
        return reads[len(reads) // 2]

    def _shim_costs(self, calls: int = 5000, repeats: int = 7) -> tuple[float, float, float]:
        """Median excess of each kind of shim over a plain call: the caller's
        time for `calls` shimmed calls of an empty function, less the time
        the shims record and less the same calls made plainly."""

        def noop():
            return None

        names = ("calibrate.call", "calibrate.keyed", "calibrate.next")
        call, keyed = self.wrap(names[0], noop), self.wrap_keyed(noop, lambda outcome: names[1])
        loop = range(calls)
        costs = ([], [], [])
        for _ in range(repeats):
            for stat in map(self.stat, names):
                stat[:] = (0, 0, 0)
            t0 = _now()
            for _ in loop:
                noop()
            t1 = _now()
            for _ in loop:
                call()
            t2 = _now()
            for _ in loop:
                keyed()
            t3 = _now()
            for _ in iter(loop):
                pass
            t4 = _now()
            for _ in _Stream(self, names[2], iter(loop), None):
                pass
            t5 = _now()
            plain_call, plain_next = t1 - t0, t4 - t3
            costs[0].append((t2 - t1 - self.stats[names[0]][1] - plain_call) / calls)
            costs[1].append((t3 - t2 - self.stats[names[1]][1] - plain_call) / calls)
            costs[2].append((t5 - t4 - self.stats[names[2]][1] - plain_next) / (calls + 1))
        for name in names:
            del self.stats[name]
        self.counts.clear()
        return tuple(sorted(c)[len(c) // 2] for c in costs)

    def stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0])

    def reset(self) -> None:
        """Zero every aggregate in place (the shims hold references to them)."""
        for stat in self.stats.values():
            stat[:] = (0, 0, 0)
        self.counts.clear()
        self.spans.clear()
        self.first_record_ns.clear()

    def _sum(self, names, field: int) -> int:
        return sum(self.stats[n][field] for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return self._sum(names, 0)

    def total_ns(self, *names: str) -> int:
        return self._sum(names, 1)

    def self_ns(self, *names: str) -> int:
        return self._sum(names, 1) - self._sum(names, 2)

    def per_call_ns(self, *names: str) -> float:
        """Mean ns per call, less the clock read each measurement includes."""
        calls = self.calls(*names)
        return self.total_ns(*names) / calls - self.timer_ns if calls else 0.0

    def wrap(self, name: str, fn):
        """A per-record shim: aggregates into `name`."""
        tracer, stat = self, self.stat(name)

        def shim(*args, **kwargs):
            outer, tracer._child = tracer._child, 0
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += tracer._child
                tracer._child = outer + dt + tracer.call_ns

        return shim

    def wrap_keyed(self, fn, key):
        """A per-record shim whose aggregate is named by key(result or exception)."""
        tracer = self

        def shim(*args, **kwargs):
            outer, tracer._child = tracer._child, 0
            t0 = _now()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                dt = _now() - t0
                stat = tracer.stat(key(outcome))
                stat[0] += 1
                stat[1] += dt
                stat[2] += tracer._child
                tracer._child = outer + dt + tracer.keyed_ns

        return shim

    def span(self, name: str, fn):
        """A coarse shim: aggregates into `name` and keeps one span per call."""
        tracer, stat = self, self.stat(name)

        def shim(*args, **kwargs):
            outer, tracer._child = tracer._child, 0
            span_id, parent = next(tracer._ids), tracer._open[-1]
            tracer._open.append(span_id)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                tracer._open.pop()
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += tracer._child
                tracer._child = outer + (t1 - t0)
                tracer.spans.append((span_id, parent, tracer.request, name, t0, t1))

        return shim

    def wrap_stream(self, name: str, factory):
        """Shim a stream factory: creation and every next() aggregate into
        `name`, records yielded count into counts[name + ".records"] and the
        time from creation to the first record goes to first_record_ns."""
        make = self.wrap(name, factory)
        tracer = self

        def shim(*args, **kwargs):
            t0 = _now()
            return _Stream(tracer, name, make(*args, **kwargs), t0)

        return shim

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "timer_ns": self.timer_ns,
            "shim_ns": {"call": self.call_ns, "keyed": self.keyed_ns, "next": self.next_ns},
            "stats": {k: dict(zip(("calls", "total_ns", "child_ns"), v)) for k, v in self.stats.items()},
            "counts": self.counts,
            "spans": [dict(zip(("id", "parent", "request", "name", "start_ns", "end_ns"), s)) for s in self.spans],
        }
        path.write_text(json.dumps(doc, indent=1))


class _Stream:
    __slots__ = ("_tracer", "_stat", "_records", "_it", "_t0")

    def __init__(self, tracer: Tracer, name: str, it, t0: int) -> None:
        self._tracer, self._stat, self._it, self._t0 = tracer, tracer.stat(name), it, t0
        self._records = name + ".records"

    def __iter__(self):
        return self

    def __next__(self):
        tracer, stat = self._tracer, self._stat
        outer, tracer._child = tracer._child, 0
        t0 = _now()
        try:
            item = next(self._it)
        finally:
            dt = _now() - t0
            stat[0] += 1
            stat[1] += dt
            stat[2] += tracer._child
            tracer._child = outer + dt + tracer.next_ns
        tracer.counts[self._records] = tracer.counts.get(self._records, 0) + 1
        if self._t0 is not None:
            tracer.first_record_ns.append(t0 + dt - self._t0)
            self._t0 = None
        return item
