"""Benchmark for triple-lattice: one workload per run, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Workloads: enum-stream, enum-head, point-ops, verify-chain (see
workloads.py for what each exercises and why).  Each runs in fresh child
processes, one caller in a closed loop with no threads, under an
address-space cap.  Set-up time is the median over several fresh processes.
Timings are in reference seconds, scaled by a fixed loop timed around
them, so that a busy neighbour on a shared machine does not read as a
regression (see stats.py); the detail line keeps the unscaled figures.

--trace 0 measures the end-to-end metrics for S seconds (at most 110, so
that the whole run ends within 170 s).  --trace 1 runs
the workload untraced for S/2 seconds and traced for S/2 seconds and
reports the per-layer metrics, with the tracing overhead between the two.
Every output is checked; a wrong one counts in `failed`.

stdout: a `context` line (seed, Python, cores, CPU, load), a `detail`
line (each timing's median, tail percentile and sample count, the failed
fraction, and the first few failures) and, last, the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from stats import REFERENCE_LOOP_S, median, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enum-stream", "enum-head", "point-ops", "verify-chain")
#: Fresh processes timed for setup_s, after one untimed warm-up process.
#: They run in groups before, between and after the workload processes, so
#: the median spans the whole run rather than one busy or quiet moment.
SETUP_PROBES = 16
#: Untraced workload processes per run, each measuring an equal share of
#: the seconds; their passes are pooled.  Several processes average out
#: what one process's placement and memory layout do to its speed.
PLAIN_PROCESSES = 3
#: A run must end within this many seconds.
RUN_BUDGET_S = 170
#: Time a run takes beyond --seconds (process starts, set-up probes and
#: warm-up passes; about 9 s on a quiet 2-core machine), with room for a
#: busy one.  --seconds may be at most RUN_BUDGET_S - MARGIN_S.
MARGIN_S = 60

#: Units of per-layer timings, which are scaled to reference seconds.
TIME_UNITS = ("s", "ms", "us", "ns")


class ChildFailed(Exception):
    pass


def spawn(mode: str, args, seconds: float, deadline: float) -> tuple[float, dict]:
    """Run one child; returns (spawn-to-ready seconds, its report)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, args.workload, str(args.seed), repr(seconds),
           "1" if args.tiny else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    # Unbuffered, so that readline takes only the ready line and communicate gets the rest.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, bufsize=0)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} process passed the run's time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != b"ready\n":
        raise ChildFailed(f"{mode} process exited with {proc.returncode} before set-up finished")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with {proc.returncode}")
    return setup, json.loads(out.decode().splitlines()[-1])


def run_context(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= RUN_BUDGET_S - MARGIN_S:
        parser.error(f"--seconds must be above 0 and at most {RUN_BUDGET_S - MARGIN_S}")
    if not (ROOT / "src" / "triple_lattice" / "__init__.py").is_file():
        print(f"error: no triple_lattice package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + args.seconds + MARGIN_S
    context = run_context(args)
    setup, import_s = [], []
    reports = {}

    def probes(count: int) -> None:
        for _ in range(count):
            s, report = spawn("probe", args, 0, deadline)
            setup.append(s)
            import_s.append(report["cli_import_s"])

    modes = ["plain"] if args.trace else ["plain"] * PLAIN_PROCESSES
    modes += ["traced"] * args.trace
    group = SETUP_PROBES // (len(modes) + 1)
    try:
        spawn("probe", args, 0, deadline)  # fills the bytecode caches
        for i, mode in enumerate(modes):
            probes(group)
            _, reports[f"{mode}{i}"] = spawn(mode, args, args.seconds / len(modes), deadline)
        probes(SETUP_PROBES - group * len(modes))
    except ChildFailed as exc:
        # A crashed process (a MemoryError under the cap, say) fails the run.
        attempted = sum(r["attempted"] for r in reports.values()) + 1
        failed = sum(r["failed"] for r in reports.values()) + 1
        print(json.dumps({"context": context, "detail": {"error": str(exc)}}))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    context["loadavg_end"] = os.getloadavg()

    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    plains = [r for mode, r in reports.items() if mode.startswith("plain")]
    pooled = {
        name: summary([x for r in plains for x in r["samples"][name]]) for name in plains[0]["samples"]
    }
    # Set-up is scaled by the loop times of the whole run: one probe is too
    # short to pair with a loop of its own, but run to run the two move together.
    speed = REFERENCE_LOOP_S / pooled["reference_loop_s"]["median"]
    e2e = {
        "setup_s": summary(setup)["median"] * speed,
        "wall_s": pooled["wall_s"]["median"],
        "ttfr_ms": pooled["first_s"]["median"] * 1e3,
        "results_per_s": pooled["results_per_s"]["median"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in plains),
    }
    detail = {
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": [e for r in reports.values() for e in r["errors"]],
        "passes": {mode: len(r["samples"]["wall_s"]) for mode, r in reports.items()},
        "unscaled_setup_s": summary(setup),
        **pooled,
    }
    if args.workload == "point-ops":
        shares = [r["time_share"] for r in plains]
        detail["time_share"] = {kind: sum(x[kind] for x in shares) / len(shares) for kind in shares[0]}
        op = pooled["first_s"]
        detail["op_p50_us"] = {"value": op["median"] * 1e6, "unit": "us", "n": op["n"]}
        detail["op_p99_us"] = {"value": op.get("p99", op["median"]) * 1e6, "unit": "us", "n": op["n"]}
    if args.trace:
        traced = reports[f"traced{len(modes) - 1}"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = {k: v * traced["speed"] if units[k] in TIME_UNITS else v for k, v in traced["layers"].items()}
        layers["cli.import_s"] = summary(import_s)["median"] * speed
        layers["trace.overhead_share"] = median(traced["samples"]["wall_s"]) / pooled["wall_s"]["median"] - 1
        detail["trace_file"] = traced["trace_file"]
    values = layers if args.trace else e2e
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(json.dumps({"context": context, "detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
