"""Tiny-size self-test of the benchmark.  Takes about a minute:

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, traced and untraced; that the correctness gate passes on
the package and reports a failure for each workload when its reference is
corrupted; that the independent counts reproduce the published ones; and
that the benchmark refuses to run without the package beside it or with
more seconds than its time budget allows.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_metrics(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run("--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, (name, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, trace, proc.stdout)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected, (name, trace, printed)
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, k, v)
                assert trace or v["value"] > 0, (name, k, v)
            print(f"ok  {name} --trace {trace}: {len(printed)} metrics with units")


def corrupt(wl) -> None:
    """Spoil the reference one gate compares against."""
    if isinstance(wl, workloads.EnumStream):
        fmt, argv, header, expected, digest = wl.calls[0]
        wl.calls[0] = (fmt, argv, header, expected, "0" * 64)
    elif isinstance(wl, workloads.EnumHead):
        m, n, a, b, c = wl.reference[3]
        wl.reference[3] = (m, n, b, a, c)
    elif isinstance(wl, workloads.PointOps):
        kind, call, fn, args, expected = wl.ops[0]
        wl.ops[0] = (kind, call, fn, args, NotImplemented)
    else:
        p, e, c, p0 = wl.expected
        wl.expected = (p + 1, e, c, p0)


def check_gate() -> None:
    api = session.build_api(None)
    for name, cls in workloads.WORKLOADS.items():
        gate = workloads.Gate()
        wl = cls(api, 7, True, gate)
        wl.warmup()
        wl.run_pass()
        assert gate.failed == 0, (name, gate.errors)
        corrupt(wl)
        wl.run_pass()
        assert gate.failed >= 1, name
        print(f"ok  {name}: corrupted reference reported as {gate.failed} failure(s): {gate.errors[0][:90]}")
    checker = workloads._RecordChecker("json-lines")
    checker(b'{"m":1,"n":1,"a":3,"b":4,"c":5,"primitive":true}')
    checker(b'{"m":1,"n":2,"a":5,"b":12,"c":14,"primitive":true}')
    assert checker.bad == 1, checker.bad
    print("ok  record checker rejects a record off the identity")


def check_counts() -> None:
    for c_max, counts in reference.PINNED_CHAIN_COUNTS.items():
        assert reference.chain_counts(c_max) == counts, (c_max, reference.chain_counts(c_max))
    print("ok  independent chain counts match the published ones")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("--workload", "point-ops", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)
    print(f"ok  without the package: exit {proc.returncode}, no result")


def check_seconds_limit() -> None:
    proc = run("--workload", "point-ops", "--seed", "1", "--seconds", "1000", "--trace", "0")
    assert proc.returncode == 2 and not proc.stdout, (proc.returncode, proc.stdout)
    print("ok  --seconds past the run's budget: usage error, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_counts()
    check_gate()
    check_bare_directory()
    check_seconds_limit()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
