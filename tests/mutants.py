"""Check that the tier-1 tests kill every listed mutant of the package.

Run from anywhere, stdlib only:  python tests/mutants.py

Each mutant is one exact text edit to one file under src/triple_lattice,
with the test module that must kill it (the smallest one that does).  For
each mutant the script copies src/ and tests/ to a fresh temporary
directory, applies the edit there and runs `pytest -x -q` on that module:
the mutant is killed when pytest reports a failing test.  Before any
mutant, each named module must pass on an unmutated copy, so a copy that
cannot run kills nothing by accident.  The script exits 1 if any old text
is not found exactly once in its file, if a module fails unmutated, or if
any mutant survives, errors out or runs past its time limit; else 0.
pytest does not collect this file: its name does not match test_*.py.

A change that rewrites a mutated line updates that entry here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/triple_lattice"
# Seconds one pytest run may take; a mutant that hangs counts as a failure
# of this script, not as killed.
LIMIT = 120

# (file in the package, exact old text, new text, test module)
MUTANTS = [
    # series._merge: the band kernel.
    ("series.py", "                columns[k] = (c, a, b, i, j)\n", "", "test_series.py"),
    ("series.py", "rise += 4", "rise += 2", "test_series.py"),
    ("series.py", "if c <= hi:", "if c < hi:", "test_series.py"),
    ("series.py", "while head[0] <= hi:", "while head[0] < hi:", "test_series.py"),
    ("series.py", "    yield [(hi, a, b, 1, 1)]\n", "", "test_series.py"),
    ("series.py", "r2 = 2 * (step * i + shift)", "r2 = 2 * (step * i)", "test_series.py"),
    ("series.py", "a, b, c = _abc(step * i + shift, 1)", "a, b, c = _abc(step * i + shift, 2)",
     "test_series.py"),
    # series._walk: the first record a band of its own, and the bound.
    ("series.py", "band, size = [], 1", "band, size = [], 256", "test_series.py"),
    ("series.py", "        if c > c_max:\n            break\n",
     "        if c >= c_max:\n            break\n", "test_cli.py"),
    # series._valid: the one record rule, clause by clause.
    ("series.py", "and i > 0 and n > 0 and", "and i > 0 and", "test_cli.py"),
    ("series.py", "type(a) is type(b) is type(c) is int", "type(a) is type(c) is int",
     "test_series.py"),
    ("series.py", "n > 0 and a > 0 and b > 0", "n > 0 and b > 0", "test_series.py"),
    ("series.py", "a > 0 and b > 0 and 0 < c", "a > 0 and 0 < c", "test_series.py"),
    ("series.py", "and i > 0 and n > 0", "and n > 0", "test_cli.py"),
    ("series.py", "type(i) is type(n) is", "type(n) is", "test_series.py"),
    ("series.py", "0 < c <= top", "0 < c", "test_cli.py"),
    ("series.py", "0 < c <= top\n                and a * a + b * b == c * c\n", "0 < c <= top\n",
     "test_cli.py"),
    # A zero leg, a swapped leg and hypotenuse, and a sum for a square:
    # each edit passes a record that is no triple.
    ("series.py", "n > 0 and a > 0 and b > 0", "n > 0 and a >= 0 and b > 0", "test_series.py"),
    ("series.py", "a > 0 and b > 0 and 0 < c", "a > 0 and b >= 0 and 0 < c", "test_series.py"),
    ("series.py", "and a * a + b * b == c * c", "and a * a - b * b == c * c", "test_series.py"),
    ("series.py", "and a * a + b * b == c * c", "and a + a + b * b == c * c", "test_series.py"),
    ("series.py", "and a * a + b * b == c * c", "and a * a + b + b == c * c", "test_series.py"),
    ("series.py", "and a * a + b * b == c * c", "and a * a + b * b == c + c", "test_series.py"),
    # series._valid: the records of a band before its first bad record,
    # yielded only once a helper has raised.
    ("series.py", "                    yield band[: list(map(id, band)).index(id(record))]\n", "",
     "test_cli.py"),
    ("series.py", "                except Exception:\n", "                finally:\n",
     "test_series.py"),
    # series._indexed: mu (or m) and n each stored in its own slot.
    ("series.py", "set_i(idx, i)\n            set_n(idx, n)",
     "set_i(idx, n)\n            set_n(idx, i)", "test_series.py"),
    # core._check_triple: its fast test, clause by clause, and the width
    # clause of the per-field path.
    ("core.py", "type(a) is type(b) is type(c) is int", "type(a) is type(c) is int", "test_core.py"),
    ("core.py", "and a > 0 and b > 0 and 0 < c <= U64_MAX", "and b > 0 and 0 < c <= U64_MAX",
     "test_core.py"),
    ("core.py", "and a > 0 and b > 0 and 0 < c <= U64_MAX", "and a > 0 and 0 < c <= U64_MAX",
     "test_core.py"),
    ("core.py", "and 0 < c <= U64_MAX and", "and 0 < c and", "test_core.py"),
    ("core.py", "0 < c <= U64_MAX and a * a + b * b == c * c", "0 < c <= U64_MAX", "test_core.py"),
    ("core.py", "and a > 0 and b > 0 and 0 < c", "and a >= 0 and b > 0 and 0 < c", "test_core.py"),
    ("core.py", "and a > 0 and b > 0 and 0 < c", "and a > 0 and b >= 0 and 0 < c", "test_core.py"),
    ("core.py", "and a * a + b * b == c * c", "and a * a - b * b == c * c", "test_core.py"),
    ("core.py", "and a * a + b * b == c * c", "and a + a + b * b == c * c", "test_core.py"),
    ("core.py", "and a * a + b * b == c * c", "and a * a + b + b == c * c", "test_core.py"),
    ("core.py", "if v > U64_MAX:", "if v >= U64_MAX:", "test_core.py"),
    # core: the paper's primitivity rule and compose_def's type order.
    ("core.py", "== 1 and gcd(n, r) == 1", "== 1 and gcd(n, r + 2) == 1", "test_core.py"),
    ("core.py", "return r % 2 == 1 and gcd", "return gcd", "test_cli.py"),
    ("core.py", '(("e", e), ("f", f), ("d", d))', '(("e", e), ("d", d), ("f", f))', "test_core.py"),
    # classify: the tree multiples' Euclid marks and the tree loop's check.
    ("classify.py", "k == sq or k == tw", "k == sq", "test_cli.py"),
    ("classify.py", "yield k * odd, k * even, k * c, k, k == sq", "yield k * odd, k * even, k * c, k, k == 1",
     "test_cli.py"),
    ("classify.py", "        _check_triple(a, b, c)\n        count_p += 1\n", "        count_p += 1\n",
     "test_classify.py"),
    # classify: verify's oracle ceiling.
    ("classify.py", "if c_max > oracle_ceiling:", "if c_max > oracle_ceiling + 1:", "test_cli.py"),
    # classify: verify's band rule, in the first pass and the naming pass.
    ("classify.py",
     "(c - 1) * _BANDS // c_max if c <= c_max else _BANDS\n            h = hash((a, b, c))\n"
     "            c_gap",
     "c * _BANDS // c_max if c <= c_max else _BANDS\n            h = hash((a, b, c))\n"
     "            c_gap",
     "test_cli.py"),
    ("classify.py", "return ((c - 1) * _BANDS", "return (c * _BANDS", "test_classify.py"),
    ("classify.py", "c_max // _BANDS) + 1", "c_max // _BANDS)", "test_classify.py"),
    ("classify.py", "-(-(max(bands) + 1) * c_max", "-(-max(bands) * c_max", "test_classify.py"),
    ("classify.py", "named = max(1,", "named = max(0,", "test_classify.py"),
    ("classify.py", "(count_p + count_e + count_c + 1)", "(count_p + count_c + 1)", "test_classify.py"),
    # cli: the row paths, the family bounds and the exit codes.
    ("cli.py", "2 * i - 1 if lattice else i", "2 * i - 1", "test_cli.py"),
    ("cli.py", "(*row, c - b, c - a)", "(*row, c - a, c - b)", "test_cli.py"),
    ('cli.py', 'null = "null" if fmt == "json-lines" else ""', 'null = "null"', "test_cli.py"),
    ("cli.py", "sorted((args.a, args.b, args.c))", "(args.a, args.b, args.c)", "test_cli.py"),
    ("cli.py", "core._abc(1, count)", "core._abc(1, count + 1)", "test_cli.py"),
    ("cli.py", "core._abc(2 * count - 1, 1)", "core._abc(2 * count + 1, 1)", "test_cli.py"),
    ("cli.py", "if c_max > core.U64_MAX:", "if c_max >= core.U64_MAX:", "test_cli.py"),
    ("cli.py", "BrokenPipeError):\n            return EXIT_OK", "BrokenPipeError):\n            return 1",
     "test_cli.py"),
    ("cli.py", "EXIT_OK if report.ok else EXIT_DISCREPANCY", "EXIT_OK", "test_cli.py"),
]


def _run(module: str, edit: tuple[str, str, str] | None = None) -> tuple[int | None, float]:
    # pytest's exit code (None past LIMIT) and seconds for one module, on a
    # fresh copy of src/ and tests/ with edit = (file, old, new) applied.
    with tempfile.TemporaryDirectory() as tmp:
        into = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, into / part, ignore=skip)
        if edit:
            name, old, new = edit
            path = into / PACKAGE / name
            path.write_text(path.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(into / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"tests/{module}"]
        start = time.perf_counter()
        try:
            code = subprocess.run(command, cwd=into, env=env, capture_output=True, timeout=LIMIT).returncode
        except subprocess.TimeoutExpired:
            code = None
        return code, time.perf_counter() - start


def main() -> int:
    missing = [
        (name, old)
        for name, old, _, _ in MUTANTS
        if (ROOT / PACKAGE / name).read_text().count(old) != 1
    ]
    for name, old in missing:
        print(f"old text not found exactly once in {name}: {old!r}", flush=True)
    if missing:
        return 1
    failed = 0
    for module in dict.fromkeys(module for *_, module in MUTANTS):
        code, seconds = _run(module)
        if code != 0:
            print(f"unmutated {module} does not pass (exit {code}) in {seconds:.1f} s", flush=True)
            failed += 1
    if failed:
        return 1
    for name, old, new, module in MUTANTS:
        code, seconds = _run(module, (name, old, new))
        # pytest exits 1 when a test fails; 0 means the mutant survived, and
        # anything else (a collection error, say) says the edit is broken.
        outcome = {0: "SURVIVED", 1: "killed", None: "TIMED OUT"}.get(code, f"ERROR (exit {code})")
        edit = f"{' '.join(old.split())!r} -> {' '.join(new.split())!r}"
        print(f"{outcome:>9} {seconds:5.1f} s  {name}: {edit}  [{module}]", flush=True)
        failed += code != 1
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
