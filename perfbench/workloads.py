"""The four workloads: inputs from a seed, one timed pass, and the gate.

Each workload leans on a different layer and bypasses another:

- enum-stream: `cli.main enum` at c_max near 10^5, lattice mode in
  json-lines and extended mode in csv, into a hashing sink.  The product's
  main path: cli, series and core all carry weight.
- enum-head: the first 10,000 records of a fresh lattice stream at c_max
  near 10^10.  Column admission in series dominates; cli is bypassed.
- point-ops: single gen / inv / classify requests, members beside rejects,
  magnitudes up past U64_MAX.  core validation and classify carry it;
  series is bypassed.
- verify-chain: verify_chain below the oracle ceiling.  The only workload
  that runs classify's brute-force oracle and set compare.

A pass returns (wall_s, first-result times in s, results).  The gate
counts every operation attempted and every one whose output, exception
or exit code is wrong.  For the traced run each workload also names the
bound of the series stream it opens (stream_bound, None if it opens
none) and lattice points like the ones its forward maps run on
(floor_points).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from itertools import islice
from math import gcd, isqrt
from time import perf_counter, perf_counter_ns

from reference import (
    EXTENDED_BOUNDS,
    LATTICE_BOUNDS,
    PINNED_ENUM_DIGESTS,
    TINY_EXTENDED_BOUND,
    TINY_LATTICE_BOUND,
    U64_MAX,
    chain_counts,
    extended_count,
    first_lattice_records,
    lattice_count,
    lattice_point,
    lattice_primitive,
    lattice_triple,
)


class Gate:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, describe) -> bool:
        """Count one operation; on failure keep describe()'s account of it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(describe())
        return ok


# -- enum-stream ------------------------------------------------------------


class _HashRaw(io.RawIOBase):
    """Raw byte sink: digests and counts lines; optionally checks each line."""

    def __init__(self, on_line=None) -> None:
        self.sha = hashlib.sha256()
        self.lines = 0
        self._on_line = on_line
        self._tail = b""

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        b = bytes(b)
        self.sha.update(b)
        self.lines += b.count(b"\n")
        if self._on_line is not None:
            *whole, self._tail = (self._tail + b).split(b"\n")
            for line in whole:
                self._on_line(line)
        return len(b)


class _FirstRecord:
    """Stands in for sys.stdout until the first record's line is written,
    notes the time, then hands sys.stdout to the buffered sink itself."""

    def __init__(self, text, lines: int) -> None:
        self.text, self.left, self.at = text, lines, None

    def write(self, s: str) -> int:
        self.text.write(s)
        self.left -= s.count("\n")
        if self.left <= 0 and self.at is None:
            self.at = perf_counter()
            sys.stdout = self.text
        return len(s)

    def flush(self) -> None:
        self.text.flush()


def _run_cli(main, argv, header_lines: int, raw: _HashRaw):
    """cli.main(argv) with stdout captured; returns (rc, wall_s, first_s)."""
    text = io.TextIOWrapper(io.BufferedWriter(raw, 1 << 16), encoding="utf-8")
    probe = _FirstRecord(text, header_lines + 1)
    saved = sys.stdout
    sys.stdout = probe
    t0 = perf_counter()
    try:
        rc = main(argv)
        text.flush()
    finally:
        t1 = perf_counter()
        sys.stdout = saved
    return rc, t1 - t0, (probe.at or t1) - t0


class _RecordChecker:
    """Checks each output line of one enum call: the identity, the record's
    own formula, strict (c, a) order and, for csv, the header."""

    def __init__(self, fmt: str) -> None:
        self.fmt, self.bad, self.records, self.last, self.first_bad = fmt, 0, 0, (0, 0), None
        self._header = fmt == "csv"

    def __call__(self, line: bytes) -> None:
        if self._header:
            self._header = False
            if line != b"mu,n,a,b,c,primitive":
                self._fail(line)
            return
        try:
            if self.fmt == "json-lines":
                rec = json.loads(line)
                ok = list(rec) == ["m", "n", "a", "b", "c", "primitive"]
                m, n, a, b, c, prim = rec.values()
                ok = ok and (a, b, c) == lattice_triple(m, n) and prim is lattice_primitive(m, n)
            else:
                mu, n, a, b, c, prim = line.split(b",")
                mu, n, a, b, c = int(mu), int(n), int(a), int(b), int(c)
                u, v = n + mu, n
                ok = (a, b, c) == (u * u - v * v, 2 * u * v, u * u + v * v)
                ok = ok and prim == (b"true" if gcd(gcd(a, b), c) == 1 else b"false")
        except (ValueError, TypeError, AttributeError):
            ok = False
        if ok:
            ok = a * a + b * b == c * c and (c, a) > self.last
            self.last = (c, a)
        self.records += 1
        if not ok:
            self._fail(line)

    def _fail(self, line: bytes) -> None:
        self.bad += 1
        if self.first_bad is None:
            self.first_bad = line[:120].decode(errors="replace")


class EnumStream:
    name = "enum-stream"

    def __init__(self, api, seed: int, tiny: bool, gate: Gate) -> None:
        rng = random.Random(seed)
        if tiny:
            lattice_c, extended_c = TINY_LATTICE_BOUND, TINY_EXTENDED_BOUND
        else:
            i = rng.randrange(len(LATTICE_BOUNDS))
            lattice_c, extended_c = LATTICE_BOUNDS[i], EXTENDED_BOUNDS[i]
        self.api, self.gate = api, gate
        # (format, argv, header lines, expected records, pinned digest)
        self.calls = [
            ("json-lines", ["enum", "--c-max", str(lattice_c)], 0,
             lattice_count(lattice_c), PINNED_ENUM_DIGESTS[("lattice", "json-lines", lattice_c)]),
            ("csv", ["enum", "--c-max", str(extended_c), "--mode", "extended", "--format", "csv"], 1,
             extended_count(extended_c), PINNED_ENUM_DIGESTS[("extended", "csv", extended_c)]),
        ]
        self.emitted = {"json-lines": 0, "csv": 0}
        self.stream_bound = lattice_c
        self.floor_points = [
            ((u - v + 1) // 2, v) for u in range(2, isqrt(lattice_c), 7) for v in range(u - 1, 0, -2)
            if u * u + v * v <= lattice_c
        ]

    def _call(self, fmt, argv, header, expected, digest, checker=None):
        raw = _HashRaw(checker)
        self.api.wrap_sink(raw)
        rc, wall, first = _run_cli(self.api.cli_main[fmt], argv, header, raw)
        records = raw.lines - header
        what = f"enum {fmt} {' '.join(argv[1:3])}"
        self.gate.check(
            rc == 0 and records == expected and raw.sha.hexdigest() == digest
            and (checker is None or checker.bad == 0),
            lambda: f"{what}: exit {rc}, {records} records (expected {expected}), digest "
            f"{raw.sha.hexdigest()[:12]} (pinned {digest[:12]})"
            + (f", {checker.bad} bad records, first {checker.first_bad!r}" if checker and checker.bad else ""),
        )
        return wall, first, records

    def warmup(self) -> None:
        for fmt, argv, header, expected, digest in self.calls:
            checker = _RecordChecker(fmt)
            self._call(fmt, argv, header, expected, digest, checker)
            self.gate.check(checker.records == expected, lambda: f"enum {fmt}: checked {checker.records} records")

    def run_pass(self):
        wall = results = 0
        firsts = []
        for fmt, argv, header, expected, digest in self.calls:
            w, first, records = self._call(fmt, argv, header, expected, digest)
            wall += w
            results += records
            self.emitted[fmt] += records
            if fmt == "json-lines":
                firsts.append(first)
        return wall, firsts, results


# -- enum-head --------------------------------------------------------------


class EnumHead:
    name = "enum-head"

    def __init__(self, api, seed: int, tiny: bool, gate: Gate) -> None:
        rng = random.Random(seed)
        # The first k records do not depend on the bound; the bound only
        # decides how many columns are admitted before the first one.
        self.c_max = (10**6 if tiny else 10**10) + rng.randrange(10**6)
        self.k = 200 if tiny else 10_000
        self.reference = first_lattice_records(self.k)
        self.api, self.gate = api, gate
        self.stream_bound = self.c_max
        self.floor_points = [(m, n) for m, n, *_ in self.reference]

    def warmup(self) -> None:
        self.run_pass()

    def run_pass(self):
        t0 = perf_counter()
        it = self.api.lattice_enumerate_indexed(self.c_max)
        out = [next(it)]
        t1 = perf_counter()
        out.extend(islice(it, self.k - 1))
        t2 = perf_counter()
        del it
        got = [(idx.m, idx.n, t.a, t.b, t.c) for idx, t in out]
        bad = next((i for i, (g, r) in enumerate(zip(got, self.reference)) if g != r), None)
        self.gate.check(
            got == self.reference,
            lambda: f"enum-head c_max={self.c_max}: {len(got)} records, first difference at "
            f"{bad}: {got[bad] if bad is not None else None} vs "
            f"{self.reference[bad] if bad is not None else None}",
        )
        return t2 - t0, [t1 - t0], len(out)


# -- point-ops --------------------------------------------------------------


def _gen(api, m, n):
    idx = api.LatticeIndex(m, n)
    return api.triple_from_lattice(idx), api.is_primitive_lattice(idx)


def _inv(api, a, b, c):
    return api.lattice_from_triple(api.Triple(a, b, c))


def _classify(api, x, y, z):
    return api.classify(x, y, z)


def _answer(kind, out):
    """The comparable form of one operation's outcome."""
    if isinstance(out, BaseException):
        return type(out)
    if kind == "gen":
        t, prim = out
        return t.a, t.b, t.c, prim
    if kind == "inv":
        return out.m, out.n
    lattice = (out.lattice.m, out.lattice.n) if out.lattice else None
    euclid = (out.euclid.u, out.euclid.v) if out.euclid else None
    triple = (out.triple.a, out.triple.b, out.triple.c) if out.triple else None
    return out.in_P, out.in_E, out.in_C, out.in_P0, lattice, euclid, out.scale, triple


def _classify_expected(m, n, k):
    """classify() of k times the lattice triple at (m, n), worked out from
    k alone: k*T is in E iff k is a square or twice a square, in C iff k is
    an odd square."""
    a, b, c = (k * x for x in lattice_triple(m, n))
    if c > U64_MAX:
        return OverflowError
    u, v = n + 2 * m - 1, n
    g = gcd(u, v)
    s, h = isqrt(k), isqrt(k // 2)
    if s * s == k:
        euclid = (s * u, s * v)
    elif k % 2 == 0 and 2 * h * h == k:
        euclid = (h * (u + v), h * (u - v))
    else:
        euclid = None
    triple = (a, b, c) if k % 2 else (min(a, b), max(a, b), c)
    in_c = s * s == k and k % 2 == 1
    scale = k * g * g
    lattice = lattice_point(*triple) if in_c else None
    return True, euclid is not None, in_c, scale == 1, lattice, euclid, scale, triple


class PointOps:
    """Single gen / inv / classify requests, interleaved.

    The mix is an assumption, not a measured user's traffic.  Its rule: at
    the seed commit each of the two reject kinds (an inverse that raises
    NotInClassC, and classify on a non-triple) takes 30% of a pass's time,
    and each of the three accept kinds 40/3%.  A kind's share must be well
    above wall_s's 0.2 bound for a doubling of its cost to show there, and
    a fast path for members that slows rejects is a change this workload
    must catch.  Rejects are then about three requests in four, so the
    median request (ttfr_ms) is a reject too.  A change to one accept kind
    shows on the per-layer metrics (core.*, classify.classify.member_us)
    rather than on wall_s.  The counts in MIX
    come from per-call means measured there with the garbage collector off
    (Python 3.11, 2-core x86 VM): relative to gen's, inv 1.47, classify
    2.24, inv-reject 0.75 and classify-non 0.81.  Each run reports the
    kinds' shares of pass time on its detail line (time_share), so drift
    from the rule shows.

    m and n have bit lengths spread evenly from 0 to 33 (log-uniform), so
    small and large values weigh the same, and about one triple in nine
    passes U64_MAX, where OverflowError is expected.
    """

    name = "point-ops"
    #: requests per pass, by kind; fixed so the mix does not vary by seed
    MIX = (("gen", 350), ("inv", 240), ("classify", 160), ("inv-reject", 1080), ("classify-non", 970))
    #: scale factors of classify's members, one per place in the chain:
    #: P0 (1), C but not P0 (9), E but not C as a square (4) and as twice
    #: a square (2), and P only (3)
    SCALES = (1, 9, 4, 2, 3)
    ORDER_SEED = 0

    def __init__(self, api, seed: int, tiny: bool, gate: Gate) -> None:
        rng = random.Random(seed)
        not_in_c = api.NotInClassC
        self.api, self.gate = api, gate
        self.stream_bound = None
        self.floor_points = []
        self.ops = []  # (kind, call, fn, args, expected)
        for kind, count in self.MIX:
            count = count // 50 if tiny else count
            # Stratified bit lengths and a fixed cycle of branches: every
            # seed draws the same spread of requests, so that a pass costs
            # the same from seed to seed.
            m_bits = [33 * (i + rng.random()) / count for i in range(count)]
            n_bits = [33 * (i + rng.random()) / count for i in range(count)]
            rng.shuffle(n_bits)
            for i in range(count):
                m, n = 1 + int(2 ** m_bits[i]), 1 + int(2 ** n_bits[i])
                a, b, c = lattice_triple(m, n)
                big = c > U64_MAX
                if kind == "gen":
                    self.floor_points.append((m, n))
                    expected = OverflowError if big else (a, b, c, lattice_primitive(m, n))
                    self.ops.append((kind, "gen", _gen, (m, n), expected))
                elif kind == "inv":
                    expected = OverflowError if big else lattice_point(a, b, c)
                    self.ops.append((kind, "inv", _inv, (a, b, c), expected))
                elif kind == "inv-reject":
                    # The inverse's two reject branches a valid triple can
                    # reach, equally often: a even, and c - b not a square.
                    args = ((b, a, c), (3 * a, 3 * b, 3 * c))[i % 2]
                    expected = OverflowError if max(args) > U64_MAX else not_in_c
                    self.ops.append((kind, "inv", _inv, args, expected))
                elif kind == "classify":
                    k = self.SCALES[i % len(self.SCALES)]
                    args = [k * a, k * b, k * c]
                    rng.shuffle(args)
                    self.ops.append((kind, "classify", _classify, tuple(args), _classify_expected(m, n, k)))
                else:
                    args = [a, b, c + 1]
                    rng.shuffle(args)
                    expected = (False, False, False, False, None, None, None, None)
                    self.ops.append((kind, "classify", _classify, tuple(args), expected))
        # One interleaving for every seed: how fast the interpreter runs a
        # pass depends on the order of its calls, by up to 8% between two
        # shuffles, and that would read as spread between seeds.
        random.Random(self.ORDER_SEED).shuffle(self.ops)
        self.kind_ns = {kind: 0 for kind, _ in self.MIX}

    def warmup(self) -> None:
        self.run_pass()
        self.kind_ns = dict.fromkeys(self.kind_ns, 0)

    def time_share(self) -> dict:
        """Each request kind's share of the pass time so far."""
        total = sum(self.kind_ns.values())
        return {kind: ns / total for kind, ns in self.kind_ns.items()} if total else {}

    def run_pass(self):
        api, ops, now = self.api, self.ops, perf_counter_ns
        answers, lat = [], []
        for _, call, fn, args, _ in ops:
            t0 = now()
            try:
                out = fn(api, *args)
            except Exception as exc:  # a wrong exception is a failed operation
                out = exc
            lat.append(now() - t0)
            # Keep only the plain answer, as a caller that drops each result
            # would: held results and tracebacks would make the garbage
            # collector run more often than it does for such a caller.
            answers.append(_answer(call, out))
        for (kind, call, _, args, expected), got, ns in zip(ops, answers, lat):
            self.kind_ns[kind] += ns
            self.gate.check(got == expected, lambda: f"{call}{args}: got {got!r}, expected {expected!r}")
        wall = sum(lat) / 1e9
        return wall, [x / 1e9 for x in lat], len(ops)


# -- verify-chain -----------------------------------------------------------


class VerifyChain:
    name = "verify-chain"

    def __init__(self, api, seed: int, tiny: bool, gate: Gate) -> None:
        rng = random.Random(seed)
        self.c_max = (100 if tiny else 2_500) + rng.randrange(32)
        self.expected = chain_counts(self.c_max)
        self.api, self.gate = api, gate
        self.stream_bound = self.c_max
        self.floor_points = [
            ((u - v + 1) // 2, v) for u in range(2, isqrt(self.c_max) + 1) for v in range(u - 1, 0, -2)
            if u * u + v * v <= self.c_max
        ]

    def warmup(self) -> None:
        self.run_pass()

    def run_pass(self):
        t0 = perf_counter()
        report = self.api.verify_chain(self.c_max)
        wall = perf_counter() - t0
        counts = (report.count_P, report.count_E, report.count_C, report.count_P0)
        self.gate.check(
            report.ok and counts == self.expected,
            lambda: f"verify_chain({self.c_max}): counts {counts} (expected {self.expected}), "
            f"discrepancies {list(report.discrepancies)[:2]}",
        )
        return wall, [wall], report.count_P


WORKLOADS = {w.name: w for w in (EnumStream, EnumHead, PointOps, VerifyChain)}
