"""The measured part of a workload process: warm-up, timed passes, trace.

A plain process reports the end-to-end samples.  A traced process first
measures series' peak allocation with tracemalloc, then installs shims on
the names cli, series and classify import from each other, and on the
package calls the benchmark itself makes, and reports per-layer figures.
"""

from __future__ import annotations

import importlib
import json
import resource
import tracemalloc
from itertools import islice
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from stats import REFERENCE_LOOP_S, Samples, median, reference_loop_s, speed_scale
from tracing import Tracer
from workloads import WORKLOADS, Gate

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
#: Passes run between two reference loops; each is scaled by their mean.
BATCH_S = 0.25
ALLOC_RECORDS = 10_000
SERIES_SITES = ("series@cli", "series@classify", "series@bench")


def build_api(tracer: Tracer | None) -> SimpleNamespace:
    core, series, classify, cli = (
        importlib.import_module(f"triple_lattice.{m}") for m in ("core", "series", "classify", "cli")
    )
    api = SimpleNamespace(
        LatticeIndex=core.LatticeIndex,
        Triple=core.Triple,
        NotInClassC=core.NotInClassC,
        triple_from_lattice=core.triple_from_lattice,
        lattice_from_triple=core.lattice_from_triple,
        is_primitive_lattice=core.is_primitive_lattice,
        classify=classify.classify,
        lattice_enumerate_indexed=series.lattice_enumerate_indexed,
        verify_chain=classify.verify_chain,
        cli_main={"json-lines": cli.main, "csv": cli.main},
        wrap_sink=lambda raw: None,
        build_parser=cli.build_parser,
    )
    if tracer is None:
        return api

    def rejects(name):
        return lambda outcome: name + (".reject" if isinstance(outcome, core.NotInClassC) else "")

    def membership(outcome):
        if isinstance(outcome, BaseException):
            return "bench:classify.error"
        return "bench:classify.member" if outcome.in_P else "bench:classify.nonmember"

    # Names the modules import from each other.
    series.triple_from_lattice = tracer.wrap("series:triple_from_lattice", core.triple_from_lattice)
    series.extended_triple = tracer.wrap("series:extended_triple", core.extended_triple)
    cli.is_primitive_lattice = tracer.wrap("cli:is_primitive_lattice", core.is_primitive_lattice)
    cli.lattice_enumerate_indexed = tracer.wrap_stream("series@cli", series.lattice_enumerate_indexed)
    cli.extended_enumerate_indexed = tracer.wrap_stream("series@cli", series.extended_enumerate_indexed)
    classify.lattice_enumerate_indexed = tracer.wrap_stream("series@classify", series.lattice_enumerate_indexed)
    classify.extended_enumerate = tracer.wrap_stream("series@classify", series.extended_enumerate)
    classify.lattice_from_triple = tracer.wrap_keyed(core.lattice_from_triple, rejects("classify:lattice_from_triple"))
    classify.brute_force_triples = tracer.span("classify.oracle", classify.brute_force_triples)
    # The package calls the benchmark makes itself.
    api.triple_from_lattice = tracer.wrap("bench:triple_from_lattice", core.triple_from_lattice)
    api.is_primitive_lattice = tracer.wrap("bench:is_primitive_lattice", core.is_primitive_lattice)
    api.lattice_from_triple = tracer.wrap_keyed(core.lattice_from_triple, rejects("bench:lattice_from_triple"))
    api.classify = tracer.wrap_keyed(classify.classify, membership)
    api.lattice_enumerate_indexed = tracer.wrap_stream("series@bench", series.lattice_enumerate_indexed)
    api.verify_chain = tracer.span("classify.verify_chain", classify.verify_chain)
    api.cli_main = {fmt: tracer.span(f"cli.main.{fmt}", cli.main) for fmt in api.cli_main}

    def wrap_sink(raw):
        raw.write = tracer.wrap("bench.sink", raw.write)

    api.wrap_sink = wrap_sink
    return api


def formula_floor_ns(points, repeats: int = 5) -> float:
    """ns per point for the forward map done inline, with no validation."""
    per = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        for m, n in points:
            a = 4 * m * m + 4 * n * m - 4 * m - 2 * n + 1
            b = 2 * n * n + 4 * n * m - 2 * n  # noqa: F841
            c = a + 2 * n * n  # noqa: F841
        per.append((perf_counter_ns() - t0) / len(points))
    return median(per)


def peak_alloc_mb(api, bound) -> float:
    """tracemalloc peak of a fresh stream up to its first ALLOC_RECORDS records."""
    if bound is None:
        return 0.0
    tracemalloc.start()
    try:
        it = api.lattice_enumerate_indexed(bound)
        for _ in islice(it, ALLOC_RECORDS):
            pass
        del it
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(t: Tracer, wl, passes: int, peak_mb: float, parser_s: float) -> dict:
    tfl = t.per_call_ns("series:triple_from_lattice", "bench:triple_from_lattice")
    floor = formula_floor_ns(wl.floor_points)
    built = t.calls("series:triple_from_lattice", "series:extended_triple")
    records = sum(t.counts.get(site + ".records", 0) for site in SERIES_SITES)
    verifies = t.calls("classify.verify_chain")
    emitted = getattr(wl, "emitted", {})

    def per_verify_s(ns):
        return ns / verifies / 1e9 if verifies else 0.0

    def per_record_ns(fmt):
        return t.self_ns(f"cli.main.{fmt}") / emitted[fmt] if emitted.get(fmt) else 0.0

    return {
        "core.triple_from_lattice.ns": tfl,
        "core.is_primitive_lattice.ns": t.per_call_ns("cli:is_primitive_lattice", "bench:is_primitive_lattice"),
        "core.formula_floor.ns": floor,
        "core.validation_share": 1 - floor / tfl if tfl > 0 else 0.0,
        "core.lattice_from_triple.ns": t.per_call_ns("bench:lattice_from_triple", "classify:lattice_from_triple"),
        "core.lattice_from_triple.reject_ns": t.per_call_ns(
            "bench:lattice_from_triple.reject", "classify:lattice_from_triple.reject"
        ),
        "series.self_s": t.self_ns(*SERIES_SITES) / passes / 1e9,
        "series.first_record_s": median(t.first_record_ns) / 1e9,
        "series.triples_built": built / passes,
        "series.useful_ratio": records / built if built else 0.0,
        "series.peak_alloc_mb": peak_mb,
        "classify.classify.member_us": t.per_call_ns("bench:classify.member") / 1e3,
        "classify.classify.nonmember_us": t.per_call_ns("bench:classify.nonmember") / 1e3,
        "classify.oracle_s": per_verify_s(t.total_ns("classify.oracle")),
        "classify.enumerate_s": per_verify_s(t.total_ns("series@classify")),
        "classify.compare_s": per_verify_s(t.self_ns("classify.verify_chain")),
        "cli.json-lines.ns_per_record": per_record_ns("json-lines"),
        "cli.csv.ns_per_record": per_record_ns("csv"),
        "cli.build_parser_s": parser_s,
    }


def main(mode: str, name: str, seed: int, seconds: float, tiny: bool) -> int:
    gate = Gate()
    tracer = Tracer() if mode == "traced" else None
    api = build_api(None)
    wl = WORKLOADS[name](api, seed, tiny, gate)
    if tracer is not None:
        peak_mb = peak_alloc_mb(api, wl.stream_bound)
        wl.api = build_api(tracer)
    wl.warmup()
    if tracer is not None:
        tracer.reset()
    walls, raw_walls, rates, firsts = [], [], [], Samples()
    loops = [reference_loop_s()]
    deadline = perf_counter() + seconds
    while len(walls) < MIN_PASSES or perf_counter() < deadline:
        batch, start = [], perf_counter()
        while not batch or perf_counter() - start < BATCH_S:
            if tracer is not None:
                tracer.request += 1
            batch.append(wl.run_pass())
        loops.append(reference_loop_s())
        scale = speed_scale(loops[-2], loops[-1])
        for wall, first, results in batch:
            raw_walls.append(wall)
            walls.append(wall * scale)
            rates.append(results / (wall * scale))
            firsts.extend(x * scale for x in first)
    out = {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "errors": gate.errors,
        "samples": {
            "wall_s": walls,
            "unscaled_wall_s": raw_walls,
            "reference_loop_s": loops,
            "first_s": firsts.values,
            "results_per_s": rates,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if hasattr(wl, "time_share"):
        out["time_share"] = wl.time_share()
    if tracer is not None:
        parser_s = []
        for _ in range(5):
            t0 = perf_counter()
            api.build_parser()
            parser_s.append(perf_counter() - t0)
        out["layers"] = layer_metrics(tracer, wl, len(walls), peak_mb, median(parser_s))
        out["speed"] = REFERENCE_LOOP_S / median(loops)
        trace_path = ROOT / ".bench_build" / "traces" / f"{name}-seed{seed}.json"
        tracer.write(trace_path)
        out["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(out))
    return 0
