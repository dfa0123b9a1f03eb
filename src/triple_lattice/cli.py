"""Command-line front end.

Subcommands: gen, inv, enum, series, classify, verify, family.  Output is
json-lines (default), csv or table: json-lines and csv are byte-stable,
table is for humans.

Exit codes: 0 success (also when the reader closes stdout early, EPIPE),
1 the first write to stdout fails, 2 argument error, 3 overflow (a result
or --c-max above 2^64 - 1), 4 not in the lattice class, 5 verification
discrepancy.  A command that fails before it writes keeps its own code.

A stream is missing when it is None, as Python leaves sys.stdout or
sys.stderr when fd 1 or 2 is closed at start, and closed when it is a
stream object whose methods raise ValueError.  Both count as a stream
that cannot be written: stdout fails at its first write, like a full one,
and stderr loses its lines but never changes the exit code.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from itertools import chain, islice

from . import core
from .classify import DEFAULT_VERIFY_CEILING, classify, verify_chain
from .core import NotInClassC, Triple, _is_primitive_at, lattice_from_triple
from .series import (
    _even_records,
    _extended_records,
    _lattice_records,
    _odd_records,
    _valid,
)

FORMAT_ENV = "TRIPLE_LATTICE_FORMAT"
FORMATS = ("json-lines", "csv", "table")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_NOT_IN_C = 4
EXIT_DISCREPANCY = 5

LATTICE_FIELDS = ("m", "n", "a", "b", "c", "primitive")
TABLE_SIZING_ROWS = 1000
_BATCH = 256


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _cells(row, fmt) -> tuple:
    # A single row's values as _emit's cells: "true"/"false" for a bool,
    # "null" in json-lines and empty otherwise for None, any other value as
    # it is.
    null = "null" if fmt == "json-lines" else ""
    return tuple(
        ("true" if v else "false") if v is True or v is False else null if v is None else v
        for v in row
    )


def _emit(rows, fields, fmt) -> None:
    # Each row is a tuple of cells in fields order, and rows may be a lazy
    # stream.  A cell is an int or text that is printed as it is: lattice
    # and extended rows, gen's among them, carry "true"/"false" already, and
    # classify and verify pass their values through _cells; a json-lines row
    # holds no str but JSON text that a caller encoded itself.  json-lines
    # and csv fill one %-template per batch, the row template once per row,
    # with the batch's cells.  The first batch is one row, so a stream's
    # first record waits on no batch; later batches are _BATCH lines to one
    # _write.  A row that fails its check ends its batch, and the rows read
    # before it are still written.  The table format sizes its columns from
    # the first TABLE_SIZING_ROWS rows only, so memory never follows the
    # stream's length; a later, longer cell widens its column from there on.
    # An error while those rows are read leaves texts spent, so the header
    # and the rows read before it are all that is written.
    if fmt == "table":
        texts = (list(map(str, row)) for row in rows)
        head: list[list[str]] = []
        try:
            head.extend(islice(texts, TABLE_SIZING_ROWS))
        finally:
            _write_table(head, texts, fields)
        return
    if fmt == "json-lines":
        template = "{" + ",".join(f'"{name}":%s' for name in fields) + "}\n"
    else:
        template = ",".join(["%s"] * len(fields)) + "\n"
        _write(",".join(fields) + "\n")
    rows = iter(rows)
    size = 1
    while True:
        batch: list[tuple] = []
        try:
            # list.extend keeps the rows read before one raises.
            batch.extend(islice(rows, size))
        finally:
            if batch:
                _write(template * len(batch) % tuple(chain.from_iterable(batch)))
        if len(batch) < size:
            return
        size = _BATCH


def _write(text: str) -> None:
    # The one writer of stdout, for rows and help texts alike.  sys.stdout is
    # looked up at each call, so a stream swapped in mid-run that offers
    # nothing but write and flush is honoured.  A missing stdout (None has no
    # write) or a closed one fails here as EBADF, as a full one fails.
    try:
        sys.stdout.write(text)
    except (AttributeError, ValueError):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF)) from None


def _write_table(head, rest, fields) -> None:
    # Write the header, head and then rest, with columns sized from head.
    widths = [
        max(len(name), *(len(row[i]) for row in head)) if head else len(name)
        for i, name in enumerate(fields)
    ]
    for row in chain([fields], head, rest):
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        _write(line.rstrip() + "\n")


def _resolve_format(args: argparse.Namespace) -> str:
    fmt = args.format or os.environ.get(FORMAT_ENV) or FORMATS[0]
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}; choose one of {FORMATS}")
    return fmt


def cmd_gen(args: argparse.Namespace, fmt: str) -> int:
    a, b, c = core._abc(2 * args.m - 1, args.n)
    (row,) = _rows([(c, a, b, args.m, args.n)], "m")
    _emit([(*row, c - b, c - a)], LATTICE_FIELDS + ("d", "e"), fmt)
    return EXIT_OK


def cmd_inv(args: argparse.Namespace, fmt: str) -> int:
    try:
        t = Triple(args.a, args.b, args.c)
    except ValueError as exc:
        raise NotInClassC(str(exc)) from None
    idx = lattice_from_triple(t)
    _emit([(idx.m, idx.n)], ("m", "n"), fmt)
    return EXIT_OK


def _rows(records, name):
    # Rows from plain (c, a, b, i, n) records, lattice ones when name is "m"
    # and extended ones when it is "mu", on the records series._valid passes.
    # Both flag primitives by the paper's rule on column r of core._abc:
    # r = 2i - 1 on the lattice and r = i (mu) in the extended form.
    lattice = name == "m"
    for c, a, b, i, n in _valid(records, name):
        primitive = _is_primitive_at(2 * i - 1 if lattice else i, n)
        yield i, n, a, b, c, "true" if primitive else "false"


def cmd_enum(args: argparse.Namespace, fmt: str) -> int:
    if args.mode == "lattice":
        records, name = _lattice_records, "m"
    else:
        records, name = _extended_records, "mu"
    _emit(_rows(records(args.c_max), name), (name, *LATTICE_FIELDS[1:]), fmt)
    return EXIT_OK


def cmd_series(args: argparse.Namespace, fmt: str) -> int:
    records = _odd_records if args.kind == "odd" else _even_records
    _emit(_rows(records(args.index, args.c_max), "m"), LATTICE_FIELDS, fmt)
    return EXIT_OK


def cmd_family(args: argparse.Namespace, fmt: str) -> int:
    # The Pythagorean family is the odd series 1 and the Platonic family the
    # even series 1.  c rises along both, so the series bounded by member
    # count's c holds exactly the first count members.  That c is checked
    # here, named as the count the caller gave, so a count past the width
    # fails before the first row.
    count = args.count
    if args.kind == "pythagorean":
        records, c_max = _odd_records, core._abc(1, count)[2]
    else:
        records, c_max = _even_records, core._abc(2 * count - 1, 1)[2]
    if c_max > core.U64_MAX:
        raise OverflowError(f"family member {count} has c = {c_max}, past the checked 64-bit width")
    _emit(_rows(records(1, c_max), "m"), LATTICE_FIELDS, fmt)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace, fmt: str) -> int:
    report = classify(args.a, args.b, args.c)
    t, lattice, euclid = report.triple, report.lattice, report.euclid
    row = (
        *((t.a, t.b, t.c) if t else sorted((args.a, args.b, args.c))),
        report.in_P,
        report.in_E,
        report.in_C,
        report.in_P0,
        *((lattice.m, lattice.n) if lattice else (None, None)),
        *((euclid.u, euclid.v) if euclid else (None, None)),
        report.scale,
    )
    _emit(
        [_cells(row, fmt)],
        ("a", "b", "c", "in_P", "in_E", "in_C", "in_P0", "m", "n", "u", "v", "scale"),
        fmt,
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, fmt: str) -> int:
    report = verify_chain(args.c_max, args.oracle_ceiling)
    counts = {
        "P": report.count_P,
        "E": report.count_E,
        "C": report.count_C,
        "P0": report.count_P0,
    }
    witnesses = {
        gap: (w.a, w.b, w.c) if w else None
        for gap, w in (
            ("P_not_E", report.witness_P_not_E),
            ("E_not_C", report.witness_E_not_C),
            ("C_not_P0", report.witness_C_not_P0),
        )
    }
    if fmt == "json-lines":
        # _emit puts json-lines cells in as they are: nest as JSON text.
        import json

        nested = (counts, witnesses, report.discrepancies)
        rows = [(report.c_max, *(json.dumps(v, separators=(",", ":")) for v in nested))]
        fields = ("c_max", "counts", "witnesses", "discrepancies")
    else:
        # A set's row carries the witness that lies in it but not in the
        # next set down the chain; P0, the last, has none.
        rows = [
            _cells((name, n, *(w or (None, None, None))), fmt)
            for (name, n), w in zip(counts.items(), [*witnesses.values(), None])
        ]
        rows.append(_cells(("discrepancies", len(report.discrepancies), None, None, None), fmt))
        fields = ("set", "count", "witness_a", "witness_b", "witness_c")
    _emit(rows, fields, fmt)
    for item in report.discrepancies:
        _note(f"discrepancy: {item}")
    return EXIT_OK if report.ok else EXIT_DISCREPANCY


_INT = {"type": _positive_int}
_C_MAX = {**_INT, "required": True}

# Each subcommand once, in help order: its help line, its handler and its
# arguments, each name with its add_argument keywords.  _Command adds
# --format to every one, last.
_COMMANDS = {
    "gen": ("triple at lattice point (m, n)", cmd_gen, {"m": _INT, "n": _INT}),
    "inv": ("lattice point of a triple (a, b, c)", cmd_inv, {"a": _INT, "b": _INT, "c": _INT}),
    "enum": ("all triples with hypotenuse up to a bound", cmd_enum, {
        "--c-max": _C_MAX,
        "--mode": {"choices": ("lattice", "extended"), "default": "lattice"},
    }),
    "series": ("one odd(m) or even(n) series", cmd_series, {
        "kind": {"choices": ("odd", "even")}, "index": _INT, "--c-max": _C_MAX,
    }),
    "classify": ("membership in the chain P > E > C > P0", cmd_classify, {
        "a": _INT, "b": _INT, "c": _INT,
    }),
    "verify": ("cross-check the chain against the oracle", cmd_verify, {
        "--c-max": _C_MAX, "--oracle-ceiling": {**_INT, "default": DEFAULT_VERIFY_CEILING},
    }),
    "family": ("prefix of the Pythagorean or Platonic family", cmd_family, {
        "kind": {"choices": ("pythagorean", "platonic")}, "--count": {**_INT, "default": 10},
    }),
}
_FORMAT = {"choices": FORMATS, "help": f"output format (default: ${FORMAT_ENV} or json-lines)"}


class _Parser(argparse.ArgumentParser):
    # With error overridden, argparse hands _print_message only help texts,
    # for sys.stdout (print_help's file, None when stdout is missing); it
    # passes stderr only for 3.13's deprecation warnings, and nothing here
    # is deprecated.  argparse's own method swallows a failed write: _write
    # lets it reach main instead.
    def _print_message(self, message, file=None):
        _write(message)

    def error(self, message):
        _note(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(EXIT_USAGE)


class _Command:
    # One subcommand's entry in the top parser's choices.  argparse (3.10 to
    # 3.13) calls nothing on a subparser but parse_known_args, so the real
    # parser is built there, from the command's _COMMANDS entry.  A run so
    # builds the parser of the one command it runs, not all seven.
    def __init__(self, *, command, **kwargs):
        self._command, self._kwargs = command, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = _Parser(**self._kwargs)
        for name, kwargs in {**_COMMANDS[self._command][2], "--format": _FORMAT}.items():
            parser.add_argument(name, **kwargs)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="triple-lattice",
        description="Generate, invert, enumerate, classify and verify "
        "Pythagorean triples on the exact (m, n) lattice.",
    )
    # Given prog, add_subparsers need not format the usage to find it.
    sub = parser.add_subparsers(
        dest="command", required=True, prog=parser.prog, parser_class=_Command
    )
    for name, (text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=text, command=name)
    return parser


def _note(text: str) -> None:
    # The one writer of stderr.  A missing, closed or full stderr loses the
    # line, never the exit code: _silence points fd 2 at devnull where it
    # can, so the interpreter's final flush stays quiet too.
    try:
        sys.stderr.write(text + "\n")
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        _silence(sys.stderr)


def _silence(stream) -> None:
    # Point the stream's file descriptor at devnull.  A stream with no
    # usable descriptor, None, one that offers only write and flush, an
    # io.StringIO or a closed stream object, is left as it is.
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # Help went to _write, a usage error to _note; a help text
            # that cannot be written raises OSError at its write or, when
            # stdout is buffered, at the flush below.
            code = exc.code
        else:
            code = _COMMANDS[args.command][1](args, _resolve_format(args))
        try:
            sys.stdout.flush()
        except (AttributeError, ValueError):
            pass  # A missing or closed stdout took no byte: _write would have failed.
        return code
    except OSError as exc:
        # Point stdout at devnull so the interpreter's final flush of what
        # could not be written stays quiet.  EPIPE means the reader stopped
        # early (`... | head -1`): a clean exit.
        _silence(sys.stdout)
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK
        _note(f"error: cannot write to stdout: {exc}")
        return 1
    except OverflowError as exc:
        _note(f"error: {exc}")
        return EXIT_OVERFLOW
    except NotInClassC as exc:
        _note(f"not in class C: {exc}")
        return EXIT_NOT_IN_C
    except ValueError as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
