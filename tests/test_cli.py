"""CLI contract tests: records, formats, exit codes, determinism."""

import argparse
import hashlib
import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import count
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triple_lattice import (
    ChainReport,
    LatticeIndex,
    Triple,
    cli,
    core,
    even_series,
    extended_enumerate_indexed,
    is_primitive_lattice,
    lattice_enumerate_indexed,
    lattice_from_triple,
    odd_series,
    platonic_family,
    pythagorean_family,
    triple_from_lattice,
    verify_chain,
)
from triple_lattice.classify import DEFAULT_VERIFY_CEILING
from triple_lattice.cli import FORMAT_ENV, main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(FORMAT_ENV, raising=False)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def lines(out):
    return [json.loads(line) for line in out.splitlines()]


# ------------------------------------------------------------------------- gen


def test_gen_json_record(run):
    code, out, _ = run("gen", "2", "3")
    assert code == 0
    assert out == '{"m":2,"n":3,"a":27,"b":36,"c":45,"primitive":false,"d":9,"e":18}\n'


def test_gen_field_order_is_fixed(run):
    _, out, _ = run("gen", "1", "1")
    assert list(lines(out)[0]) == ["m", "n", "a", "b", "c", "primitive", "d", "e"]


def test_gen_primitive_flag(run):
    _, out, _ = run("gen", "1", "1")
    rec = lines(out)[0]
    assert (rec["a"], rec["b"], rec["c"], rec["primitive"]) == (3, 4, 5, True)


def test_gen_rejects_zero_index(run):
    code, _, err = run("gen", "0", "1")
    assert code == 2


def test_gen_overflow_exit(run):
    code, _, err = run("gen", str(2**31), "1")
    assert code == 3
    assert "64-bit" in err


def test_gen_csv(run):
    code, out, _ = run("gen", "2", "3", "--format", "csv")
    assert code == 0
    assert out == "m,n,a,b,c,primitive,d,e\n2,3,27,36,45,false,9,18\n"


def test_gen_table(run):
    code, out, _ = run("gen", "2", "3", "--format", "table")
    assert code == 0
    header, row = out.splitlines()
    assert header.split() == ["m", "n", "a", "b", "c", "primitive", "d", "e"]
    assert row.split() == ["2", "3", "27", "36", "45", "false", "9", "18"]


# ------------------------------------------------------------------------- inv


def test_inv_success(run):
    code, out, _ = run("inv", "45", "28", "53")
    assert code == 0
    assert out == '{"m":3,"n":2}\n'
    assert run("inv", "3", "4", "5")[1] == '{"m":1,"n":1}\n'


def test_inv_outside_class_names_condition(run):
    code, out, err = run("inv", "9", "12", "15")
    assert code == 4
    assert out == ""
    assert "not a perfect square" in err


def test_inv_wrong_parity(run):
    code, _, err = run("inv", "8", "6", "10")
    assert code == 4
    assert "even" in err


def test_inv_non_pythagorean(run):
    code, _, err = run("inv", "9", "12", "16")
    assert code == 4
    assert "Pythagorean" in err


# ------------------------------------------------------------------------ enum


def test_enum_lattice_golden(run):
    code, out, _ = run("enum", "--c-max", "17")
    assert code == 0
    recs = lines(out)
    assert [(r["a"], r["b"], r["c"]) for r in recs] == [
        (3, 4, 5),
        (5, 12, 13),
        (15, 8, 17),
    ]
    assert [(r["m"], r["n"]) for r in recs] == [(1, 1), (1, 2), (2, 1)]


def test_enum_extended_contains_all_even_triple(run):
    code, out, _ = run("enum", "--mode", "extended", "--c-max", "13")
    assert code == 0
    recs = lines(out)
    assert list(recs[0]) == ["mu", "n", "a", "b", "c", "primitive"]
    target = [r for r in recs if (r["a"], r["b"], r["c"]) == (8, 6, 10)]
    assert target and (target[0]["mu"], target[0]["n"]) == (2, 1)
    assert target[0]["primitive"] is False


def test_enum_empty_below_smallest(run):
    code, out, _ = run("enum", "--c-max", "4")
    assert code == 0
    assert out == ""


def test_enum_requires_bound(run):
    code, _, _ = run("enum")
    assert code == 2


def test_enum_mode_defaults_to_lattice(run):
    assert run("enum", "--c-max", "200") == run("enum", "--c-max", "200", "--mode", "lattice")


# ---------------------------------------------------------------------- series


def test_series_odd_golden(run):
    code, out, _ = run("series", "odd", "1", "--c-max", "30")
    assert code == 0
    assert [(r["a"], r["b"], r["c"]) for r in lines(out)] == [
        (3, 4, 5),
        (5, 12, 13),
        (7, 24, 25),
    ]


def test_series_even_golden(run):
    code, out, _ = run("series", "even", "1", "--c-max", "40")
    assert code == 0
    recs = lines(out)
    assert [(r["a"], r["b"], r["c"]) for r in recs] == [
        (3, 4, 5),
        (15, 8, 17),
        (35, 12, 37),
    ]
    assert [(r["m"], r["n"]) for r in recs] == [(1, 1), (2, 1), (3, 1)]


def test_series_empty(run):
    code, out, _ = run("series", "even", "9", "--c-max", "5")
    assert code == 0
    assert out == ""


def test_series_bad_kind(run):
    assert run("series", "diagonal", "1", "--c-max", "10")[0] == 2


# -------------------------------------------------------------------- classify


def test_classify_full_membership(run):
    code, out, _ = run("classify", "27", "36", "45")
    assert code == 0
    rec = lines(out)[0]
    assert rec == {
        "a": 27,
        "b": 36,
        "c": 45,
        "in_P": True,
        "in_E": True,
        "in_C": True,
        "in_P0": False,
        "m": 2,
        "n": 3,
        "u": 6,
        "v": 3,
        "scale": 9,
    }


def test_classify_non_member_still_succeeds(run):
    code, out, _ = run("classify", "9", "12", "15")
    assert code == 0
    rec = lines(out)[0]
    assert (rec["in_P"], rec["in_E"], rec["in_C"], rec["in_P0"]) == (
        True,
        False,
        False,
        False,
    )
    assert rec["m"] is None and rec["u"] is None and rec["scale"] == 3


def test_classify_unordered_input_is_canonicalized(run):
    _, out, _ = run("classify", "5", "3", "4")
    rec = lines(out)[0]
    assert (rec["a"], rec["b"], rec["c"]) == (3, 4, 5)
    assert rec["in_P0"] is True


def test_classify_degenerate(run):
    code, out, _ = run("classify", "1", "1", "1")
    assert code == 0
    assert lines(out)[0]["in_P"] is False


def test_classify_rejects_nonpositive(run):
    assert run("classify", "0", "4", "5")[0] == 2


# ---------------------------------------------------------------------- verify


def test_verify_clean_run(run):
    code, out, _ = run("verify", "--c-max", "50")
    assert code == 0
    rec = lines(out)[0]
    assert rec["counts"] == {"P": 20, "E": 14, "C": 8, "P0": 7}
    assert rec["witnesses"] == {
        "P_not_E": [9, 12, 15],
        "E_not_C": [8, 6, 10],
        "C_not_P0": [27, 36, 45],
    }
    assert rec["discrepancies"] == []


def test_verify_csv_layout(run):
    code, out, _ = run("verify", "--c-max", "50", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "set,count,witness_a,witness_b,witness_c"
    assert rows[1] == "P,20,9,12,15"
    assert rows[4] == "P0,7,,,"
    assert rows[5] == "discrepancies,0,,,"


def test_verify_table_smoke(run):
    code, out, _ = run("verify", "--c-max", "50", "--format", "table")
    assert code == 0
    assert ["C", "8", "27", "36", "45"] in [row.split() for row in out.splitlines()]


def test_verify_discrepancies_exit_5_and_go_to_stderr(run, monkeypatch):
    texts = ("3 lattice triples missing from the Euclid set, e.g. (3, 4, 5)",
             "primitivity mismatch at (m=1, n=1): (3, 4, 5)")
    report = ChainReport(
        c_max=50, count_P=20, count_E=14, count_C=8, count_P0=7,
        witness_P_not_E=None, witness_E_not_C=None, witness_C_not_P0=None,
        discrepancies=texts,
    )
    monkeypatch.setattr(cli, "verify_chain", lambda c_max, ceiling: report)
    for fmt in ("json-lines", "csv", "table"):
        code, out, err = run("verify", "--c-max", "50", "--format", fmt)
        assert code == 5
        assert err.splitlines() == [f"discrepancy: {text}" for text in texts]
        if fmt == "json-lines":
            assert lines(out)[0]["discrepancies"] == list(texts)
        elif fmt == "csv":
            assert out.splitlines()[-1] == "discrepancies,2,,,"


def test_verify_bound_too_small(run):
    code, _, err = run("verify", "--c-max", "4")
    assert code == 2
    assert ">= 5" in err


def test_verify_bound_above_ceiling(run):
    code, _, err = run("verify", "--c-max", "100", "--oracle-ceiling", "50")
    assert code == 2
    assert "ceiling" in err


def test_verify_oracle_ceiling_defaults_to_one_million(run):
    assert run("verify", "--c-max", "1000001") == (
        2,
        "",
        "error: c_max = 1000001 exceeds the oracle ceiling 1000000\n",
    )


def test_verify_runs_past_the_oracle_ceiling(run):
    code, out, err = run("verify", "--c-max", "10001")
    assert (code, err) == (0, "")
    assert lines(out)[0]["counts"] == {"P": 12_475, "E": 3_844, "C": 1_941, "P0": 1_595}


# ---------------------------------------------------------------------- family


def test_family_pythagorean(run):
    code, out, _ = run("family", "pythagorean", "--count", "3")
    assert code == 0
    assert [(r["a"], r["b"], r["c"]) for r in lines(out)] == [
        (3, 4, 5),
        (5, 12, 13),
        (7, 24, 25),
    ]


def test_family_count_defaults_to_ten(run):
    code, out, _ = run("family", "pythagorean")
    assert code == 0
    assert len(lines(out)) == 10


def test_family_platonic(run):
    code, out, _ = run("family", "platonic", "--count", "3")
    assert code == 0
    assert [(r["a"], r["b"], r["c"]) for r in lines(out)] == [
        (3, 4, 5),
        (15, 8, 17),
        (35, 12, 37),
    ]


def test_family_bad_kind(run):
    assert run("family", "fermat")[0] == 2


# ------------------------------------------------------------ formats and misc


def test_format_env_variable(run, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV, "csv")
    _, out, _ = run("gen", "1", "1")
    assert out.startswith("m,n,a,b,c,primitive,d,e\n")


def test_format_flag_overrides_env(run, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV, "csv")
    _, out, _ = run("gen", "1", "1", "--format", "json-lines")
    assert out.startswith('{"m":1,')


def test_invalid_env_format_is_an_argument_error(run, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV, "xml")
    code, _, err = run("gen", "1", "1")
    assert code == 2
    assert "format" in err


def test_missing_subcommand(run):
    assert run()[0] == 2


def test_help_exits_zero(run):
    assert run("--help")[0] == 0


def test_json_and_csv_output_is_deterministic(run):
    for fmt in ("json-lines", "csv"):
        first = run("enum", "--c-max", "500", "--format", fmt)
        second = run("enum", "--c-max", "500", "--format", fmt)
        assert first == second
        assert first[1]


# sha256 of the stdout bytes, recorded when the record path was first pinned;
# the table digests were recorded before streamed rows carried their own text.
@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("enum", "--c-max", "2000"),
            "a853900d51a214116784b37ddef082d4f18bbf0a5641f5ed8ad4e0aba0d1822d",
        ),
        (
            ("enum", "--c-max", "1000", "--mode", "extended", "--format", "csv"),
            "4f354115442207c6a4599a75ecf7277f435dec18176a39d81b9c7bf3ee924dcf",
        ),
        (
            ("series", "odd", "3", "--c-max", "5000", "--format", "csv"),
            "aca1ad0767d3b3cd2ac0b089abb0c938dbb144906f34b05fe6ae4cde1c92993a",
        ),
        (
            ("series", "even", "2", "--c-max", "5000"),
            "47431509e701ae107b51a0b4f4ed48632f9cf98eddde73d2718b34de8ab5b2e1",
        ),
        (
            ("family", "pythagorean", "--count", "40"),
            "f789f284e3c25a82498a6e932e77e88009cd259473fd007069a0531ddeecc5aa",
        ),
        (
            ("family", "platonic", "--count", "40", "--format", "csv"),
            "20d3bb4fd6e26226672caa46cb192750d3516ae65cd54b3de98f04367c92a720",
        ),
        (
            ("enum", "--c-max", "2000", "--format", "table"),
            "fe9ee3c0d1441252e584474efe8961df39f221ba1f0382402def85229ca70f5a",
        ),
        (
            ("enum", "--c-max", "1000", "--mode", "extended", "--format", "table"),
            "f7f4a5fc26cb7fdc671baa24472b53e05098b513ef8e1fb4f7af9074316dcd00",
        ),
        (
            ("series", "odd", "3", "--c-max", "5000", "--format", "table"),
            "c803efb1868095253d3b7b6aa42d5e4a2f2c8ce995a6e2d1bee79455ca59dcd8",
        ),
        (
            ("family", "platonic", "--count", "40", "--format", "table"),
            "cac14c3341aa2713e94089c68fcc0a4003112536d0a9bc23abdef521109e019a",
        ),
    ],
)
def test_enum_stdout_matches_pinned_digest(run, argv, digest):
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Exit code, stderr and the stdout of each format, recorded before json-lines
# and csv went through one %-template: bools, None and nested values byte for
# byte.
SINGLE_ROW_OUTPUT = {
    ("gen", "2", "3"): (0, "", {
        "json-lines": '{"m":2,"n":3,"a":27,"b":36,"c":45,"primitive":false,"d":9,"e":18}\n',
        "csv": "m,n,a,b,c,primitive,d,e\n2,3,27,36,45,false,9,18\n",
        "table": "m  n  a   b   c   primitive  d  e\n"
                 "2  3  27  36  45  false      9  18\n",
    }),
    ("gen", "4294967296", "4294967296"): (
        3, "error: component 147573952563906609153 exceeds the checked 64-bit width\n",
        {"json-lines": "", "csv": "", "table": ""},
    ),
    ("inv", "27", "36", "45"): (0, "", {
        "json-lines": '{"m":2,"n":3}\n',
        "csv": "m,n\n2,3\n",
        "table": "m  n\n2  3\n",
    }),
    ("inv", "9", "12", "15"): (4, "not in class C: c - b = 3 is not a perfect square\n", {
        "json-lines": "",
        "csv": "",
        "table": "",
    }),
    ("classify", "27", "36", "45"): (0, "", {
        "json-lines": '{"a":27,"b":36,"c":45,"in_P":true,"in_E":true,"in_C":true,'
                      '"in_P0":false,"m":2,"n":3,"u":6,"v":3,"scale":9}\n',
        "csv": "a,b,c,in_P,in_E,in_C,in_P0,m,n,u,v,scale\n"
               "27,36,45,true,true,true,false,2,3,6,3,9\n",
        "table": "a   b   c   in_P  in_E  in_C  in_P0  m  n  u  v  scale\n"
                 "27  36  45  true  true  true  false  2  3  6  3  9\n",
    }),
    ("classify", "9", "12", "15"): (0, "", {
        "json-lines": '{"a":9,"b":12,"c":15,"in_P":true,"in_E":false,"in_C":false,'
                      '"in_P0":false,"m":null,"n":null,"u":null,"v":null,"scale":3}\n',
        "csv": "a,b,c,in_P,in_E,in_C,in_P0,m,n,u,v,scale\n"
               "9,12,15,true,false,false,false,,,,,3\n",
        "table": "a  b   c   in_P  in_E   in_C   in_P0  m  n  u  v  scale\n"
                 "9  12  15  true  false  false  false              3\n",
    }),
    ("classify", "2", "3", "4"): (0, "", {
        "json-lines": '{"a":2,"b":3,"c":4,"in_P":false,"in_E":false,"in_C":false,'
                      '"in_P0":false,"m":null,"n":null,"u":null,"v":null,"scale":null}\n',
        "csv": "a,b,c,in_P,in_E,in_C,in_P0,m,n,u,v,scale\n"
               "2,3,4,false,false,false,false,,,,,\n",
        "table": "a  b  c  in_P   in_E   in_C   in_P0  m  n  u  v  scale\n"
                 "2  3  4  false  false  false  false\n",
    }),
    # A non-triple's row lists its values ascending, whatever their order.
    ("classify", "4", "2", "3"): (0, "", {
        "json-lines": '{"a":2,"b":3,"c":4,"in_P":false,"in_E":false,"in_C":false,'
                      '"in_P0":false,"m":null,"n":null,"u":null,"v":null,"scale":null}\n',
        "csv": "a,b,c,in_P,in_E,in_C,in_P0,m,n,u,v,scale\n"
               "2,3,4,false,false,false,false,,,,,\n",
        "table": "a  b  c  in_P   in_E   in_C   in_P0  m  n  u  v  scale\n"
                 "2  3  4  false  false  false  false\n",
    }),
    ("verify", "--c-max", "50"): (0, "", {
        "json-lines": '{"c_max":50,"counts":{"P":20,"E":14,"C":8,"P0":7},'
                      '"witnesses":{"P_not_E":[9,12,15],"E_not_C":[8,6,10],'
                      '"C_not_P0":[27,36,45]},"discrepancies":[]}\n',
        "csv": "set,count,witness_a,witness_b,witness_c\n"
               "P,20,9,12,15\nE,14,8,6,10\nC,8,27,36,45\nP0,7,,,\ndiscrepancies,0,,,\n",
        "table": "set            count  witness_a  witness_b  witness_c\n"
                 "P              20     9          12         15\n"
                 "E              14     8          6          10\n"
                 "C              8      27         36         45\n"
                 "P0             7\n"
                 "discrepancies  0\n",
    }),
}


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("argv", list(SINGLE_ROW_OUTPUT))
def test_single_row_commands_print_pinned_bytes(run, argv, fmt):
    code, err, out = SINGLE_ROW_OUTPUT[argv]
    assert run(*argv, "--format", fmt) == (code, out[fmt], err)


# The record sources cli reads, by the forward formula their records follow.
# The families stream through the odd and even series' sources.
RECORD_SOURCES = {
    "lattice": ("_lattice_records", "_odd_records", "_even_records"),
    "extended": ("_extended_records",),
}


def corrupt_form(monkeypatch, name, point):
    # Make every record source that cli reads and whose records follow the
    # formula name yield c + 2 at one point (i, j).  At the points used no
    # other record's c lies in (c, c + 2], so the bad record keeps its place.
    for source_name in RECORD_SOURCES[name]:
        source = getattr(cli, source_name)

        def corrupted(*args, source=source):
            return (
                (c + 2 if (i, j) == point else c, a, b, i, j)
                for c, a, b, i, j in source(*args)
            )

        monkeypatch.setattr(cli, source_name, corrupted)


# (formula, corrupted point, argv, json-lines records before the error, stderr)
CORRUPTED_RECORDS = [
    ("lattice", (2, 3), ("enum", "--c-max", "500"), 7,
     "error: not a Pythagorean triple: 27^2 + 36^2 != 47^2\n"),
    ("extended", (2, 3), ("enum", "--c-max", "500", "--mode", "extended"), 8,
     "error: not a Pythagorean triple: 16^2 + 30^2 != 36^2\n"),
    ("lattice", (2, 3), ("series", "odd", "2", "--c-max", "500"), 2,
     "error: not a Pythagorean triple: 27^2 + 36^2 != 47^2\n"),
    ("lattice", (1, 4), ("family", "pythagorean"), 3,
     "error: not a Pythagorean triple: 9^2 + 40^2 != 43^2\n"),
    ("lattice", (3, 1), ("family", "platonic"), 2,
     "error: not a Pythagorean triple: 35^2 + 12^2 != 39^2\n"),
    # Some 700 rows in, past two full batches of json-lines and csv lines.
    ("lattice", (14, 27), ("enum", "--c-max", "5000"), 700,
     "error: not a Pythagorean triple: 2187^2 + 2916^2 != 3647^2\n"),
]


@pytest.mark.parametrize("form,point,argv,before,err", CORRUPTED_RECORDS)
def test_every_streamed_record_is_checked(run, monkeypatch, form, point, argv, before, err):
    clean = {fmt: run(*argv, "--format", fmt)[1].splitlines() for fmt in cli.FORMATS}
    corrupt_form(monkeypatch, form, point)
    # csv and table print a header first; table sizes its columns from the
    # rows read before the error, so only its cells match the clean run's;
    # json-lines and csv lines match byte for byte.
    for fmt, printed in (("json-lines", before), ("csv", before + 1), ("table", before + 1)):
        code, out, error = run(*argv, "--format", fmt)
        assert (code, error) == (2, err)
        cells = str.split if fmt == "table" else str
        assert list(map(cells, out.splitlines())) == list(
            map(cells, clean[fmt][:printed])
        )


@pytest.mark.parametrize(
    "source,corrupt,argv,err",
    [
        ("_lattice_records", lambda c, a, b, m, n: (c, a, b, m * (c != 65), n),
         ("enum", "--c-max", "500"), "error: m must be >= 1, got 0\n"),
        ("_extended_records", lambda c, a, b, mu, n: (c, a, b, mu, n * (c != 40)),
         ("enum", "--c-max", "500", "--mode", "extended"), "error: n must be >= 1, got 0\n"),
        # A bad index is named before a bad triple in the same record.
        ("_lattice_records", lambda c, a, b, m, n: (c + 2 * (c == 65), a, b, m * (c != 65), n),
         ("enum", "--c-max", "500"), "error: m must be >= 1, got 0\n"),
    ],
)
def test_every_streamed_index_is_checked(run, monkeypatch, source, corrupt, argv, err):
    # The first bad record is the 11th in both modes.
    clean = run(*argv)[1].splitlines()
    records = getattr(cli, source)
    monkeypatch.setattr(cli, source, lambda c_max: (corrupt(*r) for r in records(c_max)))
    code, out, error = run(*argv)
    assert (code, error) == (2, err)
    assert out.splitlines() == clean[:10]


@pytest.mark.parametrize(
    "kind,within,last,err",
    [("pythagorean", 6, 85,
      "error: family member 7 has c = 113, past the checked 64-bit width\n"),
     ("platonic", 4, 65,
      "error: family member 5 has c = 101, past the checked 64-bit width\n")],
    ids=["pythagorean", "platonic"],
)
def test_family_member_past_the_width_exits_3_before_any_row(
    run, monkeypatch, kind, within, last, err
):
    # Under a width of 100, or of exactly member `within`'s c (`last`), the
    # first `within` members fit and the next does not: one more member
    # fails the whole request before its first row.
    rows = "\n".join(run("family", kind)[1].splitlines()[:within]) + "\n"
    for width in (100, last):
        monkeypatch.setattr(core, "U64_MAX", width)
        assert run("family", kind, "--count", str(within)) == (0, rows, "")
        assert run("family", kind, "--count", str(within + 1)) == (3, "", err)


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_family_is_the_prefix_of_its_series(run, fmt):
    # Member K of the Pythagorean family is row K of odd series 1, with
    # c = 2K^2 + 2K + 1; member K of the Platonic family is column K of even
    # series 1, with c = 4K^2 + 1.
    for count in range(1, 61):
        for kind, series, c_max in (
            ("pythagorean", "odd", 2 * count * count + 2 * count + 1),
            ("platonic", "even", 4 * count * count + 1),
        ):
            family = run("family", kind, "--count", str(count), "--format", fmt)
            prefix = run("series", series, "1", "--c-max", str(c_max), "--format", fmt)
            assert family == prefix
            assert family[0] == 0 and len(family[1].splitlines()) == count + (fmt != "json-lines")


class _WriteOnly:
    # A stand-in for sys.stdout that offers write and nothing else.
    def __init__(self):
        self.text = ""

    def write(self, s):
        self.text += s
        return len(s)


class _ClosesAfter(_WriteOnly):
    # A write-only stdout whose reader goes away after `writes` writes.
    def __init__(self, writes):
        super().__init__()
        self.writes = writes

    def write(self, s):
        if not self.writes:
            raise BrokenPipeError
        self.writes -= 1
        return super().write(s)


# The largest counts whose last member still fits in 64 bits: the Platonic
# member 2k (c = 4k^2 + 1) and the Pythagorean member k (c = 2k^2 + 2k + 1).
_FAMILY_WIDTH = {"platonic": 2**31 - 1, "pythagorean": 3_037_000_499}
_FAMILY = {"platonic": platonic_family, "pythagorean": pythagorean_family}


@settings(deadline=None)
@given(
    kind=st.sampled_from(list(_FAMILY_WIDTH)),
    count=st.tuples(
        st.sampled_from([1, *_FAMILY_WIDTH.values(), 2**32]), st.integers(-2, 2)
    ).map(sum).filter(lambda k: k >= 1),
)
@example(kind="platonic", count=2**31 - 1)
@example(kind="platonic", count=2**31)
@example(kind="pythagorean", count=3_037_000_499)
@example(kind="pythagorean", count=3_037_000_500)
def test_family_past_the_width_fails_before_its_first_row(kind, count):
    last_c = 4 * count**2 + 1 if kind == "platonic" else 2 * count**2 + 2 * count + 1
    assert (last_c <= core.U64_MAX) == (count <= _FAMILY_WIDTH[kind])
    # The first write holds one row and the second 256; then the pipe closes.
    out, err = _ClosesAfter(2), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["family", kind, "--count", str(count)])
    if last_c > core.U64_MAX:
        assert (code, out.text) == (3, "")
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
    else:
        assert (code, err.getvalue()) == (0, "")
        rows = [(r["a"], r["b"], r["c"]) for r in lines(out.text)]
        assert len(rows) == min(count, 257)
        assert rows == [
            (t.a, t.b, t.c) for t in map(_FAMILY[kind], range(1, len(rows) + 1))
        ]


@pytest.mark.parametrize("fmt", ["json-lines", "csv"])
def test_emit_writes_the_first_row_before_it_asks_for_the_second(monkeypatch, fmt):
    line = ('{{"k":{}}}\n' if fmt == "json-lines" else "{}\n").format
    sink = _WriteOnly()
    monkeypatch.setattr(sys, "stdout", sink)
    seen = []

    def rows():
        for k in range(1000):
            if k == 1:
                seen.append(sink.text)
            yield (k,)

    cli._emit(rows(), ("k",), fmt)
    header = "k\n" if fmt == "csv" else ""
    assert seen == [header + line(0)]
    assert sink.text == header + "".join(map(line, range(1000)))


class _Chunks(_WriteOnly):
    # A write-only stand-in for sys.stdout that also keeps each write.
    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, s):
        self.chunks.append(s)
        return super().write(s)


@pytest.mark.parametrize("fmt", ["json-lines", "csv"])
def test_emit_fills_each_batch_as_one_template_per_row(monkeypatch, fmt):
    # 700 rows of int and text cells run through the first batch of one
    # row, two full batches and a remainder, each one write; a batch's
    # lines must equal the row template filled once per row.
    fields = ("k", "word", "square", "flag")
    rows = [(k, f'"w{k}"', k * k, "true" if k % 3 else "false") for k in range(700)]
    sink = _Chunks()
    monkeypatch.setattr(sys, "stdout", sink)
    cli._emit(iter(rows), fields, fmt)
    if fmt == "json-lines":
        header, template = [], '{"k":%s,"word":%s,"square":%s,"flag":%s}\n'
    else:
        header, template = ["k,word,square,flag\n"], "%s,%s,%s,%s\n"
    lines = [template % row for row in rows]
    batches = [lines[:1], lines[1:257], lines[257:513], lines[513:]]
    assert sink.chunks == header + ["".join(batch) for batch in batches]


# A subcommand's parser is built, with its arguments, only when it parses,
# so its help and usage must list them as if it had been built up front: -h
# first, then each in the order build_parser gives it, --format last.  The
# top-level help names every command, though it builds none of their
# parsers.  The last case names its command second, behind an argument the
# top level rejects.
DEFERRED_ARGUMENT_TEXTS = [
    (("--help",), 0, """\
usage: triple-lattice [-h] {gen,inv,enum,series,classify,verify,family} ...

Generate, invert, enumerate, classify and verify Pythagorean triples on the
exact (m, n) lattice.

positional arguments:
  {gen,inv,enum,series,classify,verify,family}
    gen                 triple at lattice point (m, n)
    inv                 lattice point of a triple (a, b, c)
    enum                all triples with hypotenuse up to a bound
    series              one odd(m) or even(n) series
    classify            membership in the chain P > E > C > P0
    verify              cross-check the chain against the oracle
    family              prefix of the Pythagorean or Platonic family

options:
  -h, --help            show this help message and exit
""", ""),
    (("gen", "--help"), 0, """\
usage: triple-lattice gen [-h] [--format {json-lines,csv,table}] m n

positional arguments:
  m
  n

options:
  -h, --help            show this help message and exit
  --format {json-lines,csv,table}
                        output format (default: $TRIPLE_LATTICE_FORMAT or
                        json-lines)
""", ""),
    (("inv", "--help"), 0, """\
usage: triple-lattice inv [-h] [--format {json-lines,csv,table}] a b c

positional arguments:
  a
  b
  c

options:
  -h, --help            show this help message and exit
  --format {json-lines,csv,table}
                        output format (default: $TRIPLE_LATTICE_FORMAT or
                        json-lines)
""", ""),
    (("enum", "--help"), 0, """\
usage: triple-lattice enum [-h] --c-max C_MAX [--mode {lattice,extended}]
                           [--format {json-lines,csv,table}]

options:
  -h, --help            show this help message and exit
  --c-max C_MAX
  --mode {lattice,extended}
  --format {json-lines,csv,table}
                        output format (default: $TRIPLE_LATTICE_FORMAT or
                        json-lines)
""", ""),
    (("series", "--help"), 0, """\
usage: triple-lattice series [-h] --c-max C_MAX
                             [--format {json-lines,csv,table}]
                             {odd,even} index

positional arguments:
  {odd,even}
  index

options:
  -h, --help            show this help message and exit
  --c-max C_MAX
  --format {json-lines,csv,table}
                        output format (default: $TRIPLE_LATTICE_FORMAT or
                        json-lines)
""", ""),
    (("classify", "--help"), 0, """\
usage: triple-lattice classify [-h] [--format {json-lines,csv,table}] a b c

positional arguments:
  a
  b
  c

options:
  -h, --help            show this help message and exit
  --format {json-lines,csv,table}
                        output format (default: $TRIPLE_LATTICE_FORMAT or
                        json-lines)
""", ""),
    (("verify", "--help"), 0, """\
usage: triple-lattice verify [-h] --c-max C_MAX
                             [--oracle-ceiling ORACLE_CEILING]
                             [--format {json-lines,csv,table}]

options:
  -h, --help            show this help message and exit
  --c-max C_MAX
  --oracle-ceiling ORACLE_CEILING
  --format {json-lines,csv,table}
                        output format (default: $TRIPLE_LATTICE_FORMAT or
                        json-lines)
""", ""),
    (("family", "--help"), 0, """\
usage: triple-lattice family [-h] [--count COUNT]
                             [--format {json-lines,csv,table}]
                             {pythagorean,platonic}

positional arguments:
  {pythagorean,platonic}

options:
  -h, --help            show this help message and exit
  --count COUNT
  --format {json-lines,csv,table}
                        output format (default: $TRIPLE_LATTICE_FORMAT or
                        json-lines)
""", ""),
    (("verify", "--c-max", "0"), 2, "", """\
usage: triple-lattice verify [-h] --c-max C_MAX
                             [--oracle-ceiling ORACLE_CEILING]
                             [--format {json-lines,csv,table}]
triple-lattice verify: error: argument --c-max: 0 is not a positive integer
"""),
    (("gen", "0", "1"), 2, "", """\
usage: triple-lattice gen [-h] [--format {json-lines,csv,table}] m n
triple-lattice gen: error: argument m: 0 is not a positive integer
"""),
    (("--format=csv", "enum", "--c-max", "5"), 2, "", """\
usage: triple-lattice [-h] {gen,inv,enum,series,classify,verify,family} ...
triple-lattice: error: unrecognized arguments: --format=csv
"""),
]


def test_deferred_subcommand_arguments_keep_help_and_usage_texts(run, monkeypatch):
    # Help and usage are wrapped to the terminal width, which COLUMNS fixes.
    monkeypatch.setenv("COLUMNS", "80")
    for argv, code, out, err in DEFERRED_ARGUMENT_TEXTS:
        assert run(*argv) == (code, out, err), argv


def test_a_run_builds_only_the_parser_it_parses_with(monkeypatch):
    # build_parser builds the top-level parser alone; a subcommand's parser
    # is built when it parses, so a run builds at most one of the seven.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for call, want in [
        (cli.build_parser, 1),
        (lambda: main(["enum", "--c-max", "10"]), 2),
        (lambda: main(["--help"]), 1),
        (lambda: main(["bogus"]), 1),
        (lambda: main(["gen", "2", "3"]), 2),
        (lambda: main(["inv", "3", "4", "5"]), 2),
        (lambda: main(["enum", "--c-max", "5", "--mode", "extended"]), 2),
        (lambda: main(["series", "odd", "1", "--c-max", "5"]), 2),
        (lambda: main(["classify", "3", "4", "5"]), 2),
        (lambda: main(["verify", "--c-max", "5"]), 2),
        (lambda: main(["family", "platonic", "--count", "1"]), 2),
    ]:
        built.clear()
        call()
        assert len(built) == want


def test_enum_csv_has_header_naming_fields(run):
    _, out, _ = run("enum", "--c-max", "17", "--format", "csv")
    assert out.splitlines()[0] == "m,n,a,b,c,primitive"


def test_table_widens_a_column_only_past_its_sizing_rows(capsys, monkeypatch):
    records = [(1, 2), (333, 4), (5, 6)]
    cli._emit(records, ("x", "y"), "table")
    assert capsys.readouterr().out == "x    y\n1    2\n333  4\n5    6\n"
    monkeypatch.setattr(cli, "TABLE_SIZING_ROWS", 1)
    cli._emit(records, ("x", "y"), "table")
    assert capsys.readouterr().out == "x  y\n1  2\n333  4\n5    6\n"


def test_every_json_line_parses(run):
    _, out, _ = run("enum", "--c-max", "300")
    for line in out.splitlines():
        rec = json.loads(line)
        assert set(rec) == {"m", "n", "a", "b", "c", "primitive"}


# ------------------------------------------------------- cli against library


def lattice_record(idx, t):
    return {"m": idx.m, "n": idx.n, "a": t.a, "b": t.b, "c": t.c,
            "primitive": is_primitive_lattice(idx)}


def test_enum_lattice_matches_library(run):
    _, out, _ = run("enum", "--c-max", "3000")
    assert lines(out) == [lattice_record(idx, t) for idx, t in lattice_enumerate_indexed(3000)]


def test_enum_extended_matches_library(run):
    _, out, _ = run("enum", "--c-max", "3000", "--mode", "extended")
    assert lines(out) == [
        {"mu": idx.mu, "n": idx.n, "a": t.a, "b": t.b, "c": t.c,
         "primitive": gcd(gcd(t.a, t.b), t.c) == 1}
        for idx, t in extended_enumerate_indexed(3000)
    ]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("series", "odd", "3", "--c-max", "5000"),
         lambda: zip((LatticeIndex(3, n) for n in count(1)), odd_series(3, 5000))),
        (("series", "even", "2", "--c-max", "5000"),
         lambda: zip((LatticeIndex(m, 2) for m in count(1)), even_series(2, 5000))),
        (("family", "pythagorean", "--count", "40"),
         lambda: ((LatticeIndex(1, k), pythagorean_family(k)) for k in range(1, 41))),
        (("family", "platonic", "--count", "40"),
         lambda: ((LatticeIndex(k, 1), platonic_family(k)) for k in range(1, 41))),
    ],
)
def test_series_and_family_match_library(run, argv, expected):
    _, out, _ = run(*argv)
    records = lines(out)
    assert records and records == [lattice_record(idx, t) for idx, t in expected()]


def test_gen_and_inv_match_library_on_a_grid(run):
    for m in range(1, 13):
        for n in range(1, 13):
            t = triple_from_lattice(LatticeIndex(m, n))
            _, out, _ = run("gen", str(m), str(n))
            assert lines(out) == [
                {**lattice_record(LatticeIndex(m, n), t), "d": t.c - t.b, "e": t.c - t.a}
            ]
            _, out, _ = run("inv", str(t.a), str(t.b), str(t.c))
            idx = lattice_from_triple(Triple(t.a, t.b, t.c))
            assert lines(out) == [{"m": idx.m, "n": idx.n}] == [{"m": m, "n": n}]


def test_verify_matches_library(run):
    _, out, _ = run("verify", "--c-max", "2500")
    report = verify_chain(2500)

    def listed(t):
        return [t.a, t.b, t.c] if t else None

    assert lines(out) == [{
        "c_max": report.c_max,
        "counts": {"P": report.count_P, "E": report.count_E,
                   "C": report.count_C, "P0": report.count_P0},
        "witnesses": {"P_not_E": listed(report.witness_P_not_E),
                      "E_not_C": listed(report.witness_E_not_C),
                      "C_not_P0": listed(report.witness_C_not_P0)},
        "discrepancies": list(report.discrepancies),
    }]


# ------------------------------------------------------------- arbitrary argv

# Values run as drawn, into a stdout that closes after a few writes, so a
# bound up to the 64-bit top streams only a few rows.  Only what writes
# nothing stays small: the oracle ceiling, never drawn large, holds verify
# to bounds it can walk at once, and a family --count is drawn small or at
# an edge its last member passes.  verify's --c-max is also drawn just past
# its default ceiling, never at it: a full verify at 10^6 takes seconds.
# Junk holds no decimal digit of any script: int() reads those, so junk
# could otherwise be a big bound.
JUNK = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
EDGE = st.sampled_from([1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 2**64]).map(str)
SMALL = st.one_of(st.sampled_from(["-1", "0"]), st.integers(1, 300).map(str), JUNK)
ANY = st.one_of(SMALL, st.integers(1, 300).map(str), st.integers(2**64, 2**70).map(str), EDGE)
PAST_CEILING = st.sampled_from([DEFAULT_VERIFY_CEILING + 1, 2 * 10**6]).map(str)
FORMAT = st.sampled_from(
    [[], ["--format", "csv"], ["--format", "table"], ["--format", "xml"]]
)
FORMAT_VALUE = st.sampled_from([None, "json-lines", "csv", "table", "xml"])
# The line that names why a run failed: argparse's after its usage lines,
# or the one line _note writes for every other failure.
ERROR_LINE = re.compile(r"(triple-lattice( \w+)?: )?error: |not in class C: ")


def _argv(command, *parts):
    return st.tuples(*parts, FORMAT).map(
        lambda drawn: [command, *drawn[:-1], *drawn[-1]]
    )


ARGV = st.one_of(
    _argv("gen", ANY, ANY),
    _argv("inv", ANY, ANY, ANY),
    _argv("classify", ANY, ANY, ANY),
    _argv("enum", st.just("--c-max"), ANY, st.sampled_from(["--mode=lattice", "--mode=extended"]) | JUNK),
    _argv("series", st.sampled_from(["odd", "even"]) | JUNK, ANY, st.just("--c-max"), ANY),
    _argv("verify", st.just("--c-max"), ANY | PAST_CEILING, st.just("--oracle-ceiling"), SMALL),
    _argv("verify", st.just("--c-max"), ANY | PAST_CEILING),
    _argv("family", st.sampled_from(["pythagorean", "platonic"]) | JUNK, st.just("--count"), SMALL | EDGE),
    st.lists(JUNK, max_size=4),
)


def _bound_past_the_width(argv) -> bool:
    # A --c-max past U64_MAX, or a --count whose last family member's c is.
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--c-max", "--count") and value.isdecimal():
            k = int(value)
            if flag == "--count":
                k = 2 * k * k + 2 * k + 1 if argv[1] == "pythagorean" else 4 * k * k + 1
            if k > core.U64_MAX:
                return True
    return False


def _past_the_oracle_ceiling(argv) -> bool:
    # A verify --c-max above its --oracle-ceiling, drawn or default.
    flags = dict(zip(argv[1::2], argv[2::2]))
    c_max = flags.get("--c-max", "")
    ceiling = flags.get("--oracle-ceiling", str(DEFAULT_VERIFY_CEILING))
    return (
        argv[:1] == ["verify"] and c_max.isdecimal() and ceiling.isdecimal()
        and int(c_max) > int(ceiling)
    )


@settings(deadline=None)
@given(argv=ARGV, fmt=FORMAT_VALUE, writes=st.integers(0, 3))
@example(argv=["enum", "--c-max", str(2**64 - 1)], fmt=None, writes=2)
@example(argv=["enum", "--c-max", str(2**64 - 1), "--mode=extended"], fmt="csv", writes=3)
@example(argv=["family", "platonic", "--count", str(2**32 + 1)], fmt="table", writes=3)
@example(argv=["verify", "--c-max", str(DEFAULT_VERIFY_CEILING + 1)], fmt=None, writes=3)
def test_arbitrary_argv_exits_with_a_documented_code(argv, fmt, writes):
    out, err = _ClosesAfter(writes), io.StringIO()
    env = {} if fmt is None else {FORMAT_ENV: fmt}
    with mock.patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in {0, 1, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().endswith("\n")
        assert sum(map(bool, map(ERROR_LINE.match, err.getvalue().splitlines()))) == 1
    else:
        assert err.getvalue() == ""
    if _bound_past_the_width(argv):
        assert out.text == ""
    if _past_the_oracle_ceiling(argv):
        assert code == 2 and out.text == ""
