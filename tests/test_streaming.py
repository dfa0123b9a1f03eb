"""Stream memory, up-front bound checks and pipe handling.

Huge bounds never run in this process: they run in a child interpreter
under a 512 MB address-space limit and a timeout, so a stream that grows
with its bound fails the test instead of exhausting the machine.
"""

import errno
import io
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import triple_lattice
from triple_lattice.cli import main
from triple_lattice.series import odd_series

SRC = str(Path(triple_lattice.__file__).resolve().parents[1])
LIMIT_BYTES = 512 * 2**20
TIMEOUT_S = 60


def _child(*args: str, limit: int = LIMIT_BYTES) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def _run(*args: str) -> tuple[int, str, str]:
    proc = _child(*args)
    out, err = proc.communicate(timeout=TIMEOUT_S)
    return proc.returncode, out, err


FRONTIER_PROBE = """
import json, sys, tracemalloc
from itertools import islice
from triple_lattice import U64_MAX, series

stream, records = (getattr(series, name) for name in sys.argv[1:])
expected = list(islice(stream(10**6), 1000))
peaks = {}


def traced(count):
    tracemalloc.start()
    try:
        return count(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


for c_max in (10**10, U64_MAX):
    peaks[c_max] = traced(
        lambda: sum(1 for pair, want in zip(stream(c_max), expected) if pair == want)
    )
peaks["drained"] = traced(lambda: sum(map(len, records(5 * 10**5))))
print(json.dumps(peaks))
"""


@pytest.mark.parametrize(
    "stream,records",
    [("lattice_enumerate_indexed", "_lattice_records"),
     ("extended_enumerate_indexed", "_extended_records")],
    ids=["lattice_enumerate_indexed", "extended_enumerate_indexed"],
)
def test_stream_memory_follows_the_frontier_not_the_bound(stream, records):
    # The first 1,000 pairs under two far bounds, then the stream's whole
    # record source drained (its records, not its pairs, to keep the traced
    # run short), each in a child: a stream that held records by its bound,
    # not by the columns it has reached, would pass the 2 MB budget in one
    # of them, or the child's limit.
    code, out, err = _run("-c", FRONTIER_PROBE, stream, records)
    assert code == 0, err
    peaks = json.loads(out)
    drained, peak = peaks.pop("drained")
    assert drained > 9 * 10**4
    assert peak < 2 * 2**20
    assert len(peaks) == 2
    for c_max, (got, peak) in peaks.items():
        assert got == 1000, c_max
        assert peak < 2 * 2**20, c_max


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--c-max", str(2**64)],
        ["enum", "--c-max", str(2**64), "--mode", "extended"],
        ["series", "odd", "1", "--c-max", str(10**23)],
        ["series", "even", "1", "--c-max", str(10**23)],
        ["verify", "--c-max", str(2**64), "--oracle-ceiling", str(2**64)],
    ],
)
def test_cli_rejects_bound_past_u64_up_front(argv):
    code, out, err = _run("-m", "triple_lattice.cli", *argv)
    assert code == 3
    assert out == ""
    assert "64-bit" in err and "Traceback" not in err


STREAM_PROBE = """
import json
from triple_lattice import U64_MAX, series

calls = {
    "odd_series": lambda c: series.odd_series(1, c),
    "even_series": lambda c: series.even_series(1, c),
    "lattice_enumerate": series.lattice_enumerate,
    "lattice_enumerate_indexed": series.lattice_enumerate_indexed,
    "extended_enumerate": series.extended_enumerate,
    "extended_enumerate_indexed": series.extended_enumerate_indexed,
    "diagonal_multiples": series.diagonal_multiples,
}
missed = []
for name, call in calls.items():
    try:
        call(U64_MAX + 1)
        missed.append(name)
    except OverflowError:
        pass
idx, t = next(series.lattice_enumerate_indexed(U64_MAX))
print(json.dumps({"missed": missed, "first": [[idx.m, idx.n], [t.a, t.b, t.c]]}))
"""


def test_every_stream_checks_its_bound_at_call_time():
    code, out, err = _run("-c", STREAM_PROBE)
    assert code == 0, err
    report = json.loads(out)
    assert report["missed"] == []
    assert report["first"] == [[1, 1], [3, 4, 5]]


def test_stream_past_the_width_but_under_its_bound_is_empty():
    # Only yielded triples meet the width check; c <= c_max <= U64_MAX
    # bounds them, so the first out-of-bound point is never built.
    assert list(odd_series(2**32, 100)) == []


def test_closed_pipe_is_a_clean_exit():
    proc = _child("-m", "triple_lattice.cli", "enum", "--c-max", str(10**6))
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=TIMEOUT_S)
    assert json.loads(first) == {"m": 1, "n": 1, "a": 3, "b": 4, "c": 5, "primitive": True}
    assert proc.returncode == 0
    assert "Traceback" not in err


def test_ctrl_c_ends_a_stream_without_a_traceback():
    # SIGINT after the first row of a stream that would run for hours: the
    # process dies by SIGINT, as a shell expects, and writes no stderr.
    proc = _child("-m", "triple_lattice.cli", "enum", "--c-max", str(10**10))
    first = proc.stdout.readline()
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=TIMEOUT_S)
    assert json.loads(first) == {"m": 1, "n": 1, "a": 3, "b": 4, "c": 5, "primitive": True}
    assert (proc.returncode, err) == (-signal.SIGINT, "")


def test_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("no /proc/self/fd to count open descriptors")
    before = len(os.listdir(fd_dir))
    for _ in range(5):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["enum", "--c-max", "100000"]) == 0
    monkeypatch.undo()
    assert len(os.listdir(fd_dir)) == before


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stdout", ["closed", "full"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "2", "3"],
        ["gen", "2", "3", "--format", "table"],
        ["enum", "--c-max", "100000"],
        ["gen", "--help"],
        ["--help"],
    ],
)
def test_unwritable_stdout_exits_1_with_one_error_line(argv, stdout, unbuffered):
    # Buffered, a short output fails only when flushed; unbuffered, at the
    # write itself.  Either way one line names the error and nothing else
    # reaches stderr.  A help text is output like any other.
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full to write to")
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code = errno.EBADF if stdout == "closed" else errno.ENOSPC
    with open("/dev/full" if stdout == "full" else os.devnull, "wb") as sink:
        proc = subprocess.run(
            [sys.executable, "-m", "triple_lattice.cli", *argv],
            stdout=sink,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=TIMEOUT_S,
            preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None,
        )
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot write to stdout: [Errno {code}] {os.strerror(code)}\n"


def _cli_env() -> dict:
    # The child imports this package and buffers its output as a pipe would.
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize(
    "argv,exit_code",
    [
        (["-m", "triple_lattice.cli", "gen", "4294967296", "1"], 3),
        (["-m", "triple_lattice.cli", "inv", "4", "3", "5"], 4),
        (
            [
                "-c",
                "import importlib, sys\n"
                "classify = importlib.import_module('triple_lattice.classify')\n"
                "from triple_lattice.cli import main\n"
                "flip = classify._is_primitive_at\n"
                "classify._is_primitive_at = lambda m, n: not flip(m, n)\n"
                "sys.exit(main(['verify', '--c-max', '100']))\n",
            ],
            5,
        ),
        (["-m", "triple_lattice.cli", "bogus"], 2),
    ],
    ids=["overflow", "not-in-c", "discrepancy", "usage"],
)
@pytest.mark.parametrize("stderr", ["closed", "full"])
def test_unwritable_stderr_keeps_the_exit_code(argv, exit_code, stderr):
    if stderr == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full to write to")
    with open("/dev/full" if stderr == "full" else os.devnull, "wb") as sink:
        proc = subprocess.run(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=sink,
            text=True,
            env=_cli_env(),
            timeout=TIMEOUT_S,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
        )
    assert proc.returncode == exit_code
    # Nothing meant for stderr lands on stdout: verify's one record only.
    if exit_code == 5:
        assert json.loads(proc.stdout)["c_max"] == 100
    else:
        assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv,exit_code",
    [
        (["gen", "4294967296", "1"], 3),
        (["inv", "4", "3", "5"], 4),
        (["verify", "--c-max", "60", "--oracle-ceiling", "10"], 2),
        (["series", "odd", "1", "--c-max", str(2**64)], 3),
        (["enum", "--c-max", "4"], 0),
    ],
    ids=["overflow", "not-in-c", "usage", "bound", "empty"],
)
def test_closed_stdout_fails_like_a_full_one(argv, exit_code):
    # stdout fails only at its first write, so a command that fails before
    # writing, or writes nothing, keeps its own exit code and stderr.
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full to write to")
    seen = []
    for closed in (True, False):
        with open("/dev/full", "wb") as sink:
            proc = subprocess.run(
                [sys.executable, "-m", "triple_lattice.cli", *argv],
                stdout=sink,
                stderr=subprocess.PIPE,
                text=True,
                env=_cli_env(),
                timeout=TIMEOUT_S,
                preexec_fn=(lambda: os.close(1)) if closed else None,
            )
        seen.append((proc.returncode, proc.stderr))
    assert seen[0] == seen[1]
    assert seen[0][0] == exit_code
    assert "Traceback" not in seen[0][1]


class _WriteOnly:
    # A stream that offers nothing but write and flush, and whose every
    # write raises exc.
    def __init__(self, exc):
        self.exc = exc

    def write(self, text):
        raise self.exc

    def flush(self):
        pass


class _FullStringIO(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


ENOSPC_LINE = f"error: cannot write to stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "name,stream,argv,exit_code,err",
    [
        ("stdout", lambda: _WriteOnly(BrokenPipeError(errno.EPIPE, "Broken pipe")),
         ["enum", "--c-max", "100"], 0, ""),
        ("stdout", _FullStringIO, ["enum", "--c-max", "100"], 1, ENOSPC_LINE),
        ("stderr", lambda: _WriteOnly(OSError(errno.ENOSPC, "No space left on device")),
         ["gen", "4294967296", "1"], 3, ""),
    ],
    ids=["write-only-stdout-epipe", "stringio-stdout-full", "write-only-stderr-full"],
)
def test_stream_without_a_descriptor_keeps_the_exit_code(
    name, stream, argv, exit_code, err, monkeypatch, capsys
):
    # A failed stream that has no file descriptor to point at devnull is
    # left as it is; the run still ends with its own exit code.
    monkeypatch.setattr(sys, name, stream())
    assert main(argv) == exit_code
    assert capsys.readouterr() == ("", err)


EBADF_LINE = f"error: cannot write to stdout: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"
CLOSED_STREAM_CASES = {
    "stdout": ("stdout", ["gen", "2", "3"], 1, EBADF_LINE),
    "stdout-help": ("stdout", ["gen", "--help"], 1, EBADF_LINE),
    "stderr": ("stderr", ["gen", "4294967296", "1"], 3, ""),
    # A usage error writes nothing to stdout: its stderr is what it prints
    # with a working one.
    "stdout-usage": ("stdout", ["gen", "0", "1"], 2, None),
}


@pytest.mark.parametrize(
    "make,name,argv,exit_code,err",
    [
        # A closed io.TextIOWrapper's flush raises ValueError; a closed
        # io.StringIO's does not.
        pytest.param(make, *case, id=prefix + case_id)
        for prefix, make in (
            ("", io.StringIO), ("textiowrapper-", lambda: io.TextIOWrapper(io.BytesIO()))
        )
        for case_id, case in CLOSED_STREAM_CASES.items()
    ],
)
def test_closed_stream_object_fails_like_a_closed_descriptor(
    make, name, argv, exit_code, err, monkeypatch, capsys
):
    # A closed Python stream raises ValueError where a closed descriptor
    # raises OSError; the run still ends as it would with the fd closed.
    if err is None:
        assert main(argv) == exit_code
        err = capsys.readouterr().err
    stream = make()
    stream.close()
    monkeypatch.setattr(sys, name, stream)
    assert main(argv) == exit_code
    assert capsys.readouterr() == ("", err)


def test_importing_the_cli_leaves_json_unloaded():
    # Only verify's json-lines record needs json; no other run pays for it.
    code, out, err = _run("-c", "import sys, triple_lattice.cli; print('json' in sys.modules)")
    assert (code, out, err) == (0, "False\n", "")


def test_table_format_streams_instead_of_buffering():
    proc = _child(
        "-m", "triple_lattice.cli", "enum", "--c-max", str(10**12), "--format", "table",
        limit=400 * 2**20,
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=TIMEOUT_S)
    assert head[0].split() == ["m", "n", "a", "b", "c", "primitive"]
    assert head[1].split() == ["1", "1", "3", "4", "5", "true"]
    assert proc.returncode == 0
    assert "Traceback" not in err


def test_verify_memory_stays_flat_at_its_ceiling():
    proc = _child(
        "-m", "triple_lattice.cli", "verify", "--c-max", str(10**6),
        "--oracle-ceiling", str(10**6), limit=400 * 2**20,
    )
    out, err = proc.communicate(timeout=TIMEOUT_S)
    assert proc.returncode == 0, err
    assert "Traceback" not in err
    assert json.loads(out)["counts"] == {"P": 1_980_642, "E": 391_840, "C": 196_093, "P0": 159_139}


def test_verify_names_a_fault_in_every_band_within_the_same_limit():
    # A flipped primitivity test makes every c-band disagree.
    script = (
        "import importlib, sys\n"
        "classify = importlib.import_module('triple_lattice.classify')\n"
        "from triple_lattice.cli import main\n"
        "flip = classify._is_primitive_at\n"
        "classify._is_primitive_at = lambda m, n: not flip(m, n)\n"
        "sys.exit(main(['verify', '--c-max', '1000000', '--oracle-ceiling', '1000000']))\n"
    )
    proc = _child("-c", script, limit=400 * 2**20)
    out, err = proc.communicate(timeout=TIMEOUT_S)
    assert proc.returncode == 5, err
    assert err.splitlines() == [
        "discrepancy: primitivity mismatch at (m=1, n=1): (3, 4, 5)",
        "discrepancy: 58 c-bands with differing hashes left unnamed, "
        "the first starting at c = 93751",
    ]


def test_verify_memory_follows_the_walk_at_the_64_bit_bound():
    # The tree's Euclid-multiplier cursor holds a few ints however far k
    # runs, so verify at the full width starts and keeps running.
    top = str(2**64 - 1)
    proc = _child(
        "-m", "triple_lattice.cli", "verify", "--c-max", top, "--oracle-ceiling", top,
        limit=300 * 2**20,
    )
    try:
        proc.wait(timeout=3)
    except subprocess.TimeoutExpired:
        pass
    running = proc.poll() is None
    proc.kill()
    _, err = proc.communicate(timeout=TIMEOUT_S)
    assert running, err
    assert "Traceback" not in err
