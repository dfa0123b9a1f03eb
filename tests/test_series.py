"""Unit tests for bounded series and lattice enumeration."""

import copy
import dataclasses
import importlib
import operator
import pickle
from bisect import bisect_right
from itertools import islice
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from triple_lattice import cli, series
from triple_lattice.classify import brute_force_triples
from triple_lattice.core import (
    U64_MAX,
    ExtendedIndex,
    LatticeIndex,
    Triple,
    _check_index,
    _check_triple,
    is_perfect_square,
    triple_from_lattice,
)
from triple_lattice.series import (
    diagonal_multiples,
    even_series,
    extended_enumerate,
    extended_enumerate_indexed,
    lattice_enumerate,
    lattice_enumerate_indexed,
    odd_series,
    platonic_family,
    pythagorean_family,
)


def as_tuples(stream):
    return [(t.a, t.b, t.c) for t in stream]


def slot_values(value):
    # vars() for a slotted value: its fields by slot, in slot order.  An
    # unset slot raises AttributeError, so this is as strict as vars().
    assert not hasattr(value, "__dict__")
    return {name: getattr(value, name) for name in type(value).__slots__}


# ----------------------------------------------------------------- odd and even


def test_odd_series_golden():
    assert as_tuples(odd_series(1, 30)) == [(3, 4, 5), (5, 12, 13), (7, 24, 25)]
    assert as_tuples(odd_series(2, 50)) == [(15, 8, 17), (21, 20, 29), (27, 36, 45)]
    assert as_tuples(odd_series(1, 4)) == []


def test_even_series_golden():
    assert as_tuples(even_series(1, 40)) == [(3, 4, 5), (15, 8, 17), (35, 12, 37)]
    assert as_tuples(even_series(2, 60)) == [(5, 12, 13), (21, 20, 29), (45, 28, 53)]
    assert as_tuples(even_series(1, 4)) == []


def test_series_validate_arguments():
    with pytest.raises(ValueError):
        odd_series(0, 10)
    with pytest.raises(ValueError):
        even_series(1, 0)


@given(m=st.integers(1, 40), c_max=st.integers(1, 2000))
def test_odd_series_membership(m, c_max):
    for t in odd_series(m, c_max):
        assert t.c <= c_max
        assert t.c - t.b == (2 * m - 1) ** 2


@given(n=st.integers(1, 40), c_max=st.integers(1, 2000))
def test_even_series_membership(n, c_max):
    for t in even_series(n, c_max):
        assert t.c <= c_max
        assert t.c - t.a == 2 * n * n


# ------------------------------------------------------------- full lattice slice


def test_lattice_enumerate_golden():
    assert as_tuples(lattice_enumerate(17)) == [(3, 4, 5), (5, 12, 13), (15, 8, 17)]
    assert as_tuples(lattice_enumerate(5)) == [(3, 4, 5)]
    assert as_tuples(lattice_enumerate(30)) == [
        (3, 4, 5),
        (5, 12, 13),
        (15, 8, 17),
        (7, 24, 25),
        (21, 20, 29),
    ]
    assert as_tuples(lattice_enumerate(4)) == []


def test_lattice_enumerate_breaks_hypotenuse_ties_by_a():
    listing = as_tuples(lattice_enumerate(65))
    at_65 = [t for t in listing if t[2] == 65]
    assert at_65 == [(33, 56, 65), (63, 16, 65)]


def test_lattice_enumerate_indexed_pairs_match():
    for idx, t in lattice_enumerate_indexed(200):
        assert triple_from_lattice(idx) == t


@given(c_max=st.integers(1, 500))
def test_lattice_enumerate_ordering_and_uniqueness(c_max):
    listing = list(lattice_enumerate(c_max))
    keys = [(t.c, t.a) for t in listing]
    assert keys == sorted(keys)
    assert len(set(listing)) == len(listing)


def test_lattice_enumerate_matches_oracle_to_5000():
    # Independent route: exhaustive leg search filtered to one odd leg,
    # odd hypotenuse, and square hypotenuse-minus-even-leg.
    oracle = {
        t
        for t in brute_force_triples(5000)
        if t.a % 2 == 1 and t.b % 2 == 0 and t.c % 2 == 1
        and is_perfect_square(t.c - t.b)
    }
    assert set(lattice_enumerate(5000)) == oracle


def test_series_disjointness_small():
    sets = [set(odd_series(m, 1500)) for m in range(1, 9)]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            assert not sets[i] & sets[j]


def test_odd_even_series_single_intersection():
    for m in range(1, 7):
        for n in range(1, 7):
            expected = triple_from_lattice(LatticeIndex(m, n))
            bound = expected.c + 100
            common = set(odd_series(m, bound)) & set(even_series(n, bound))
            assert common == {expected}


# ------------------------------------------------------------- extended lattice


def test_extended_enumerate_golden():
    assert as_tuples(extended_enumerate(13)) == [(3, 4, 5), (8, 6, 10), (5, 12, 13)]
    assert as_tuples(extended_enumerate(5)) == [(3, 4, 5)]
    assert as_tuples(extended_enumerate(20)) == [
        (3, 4, 5),
        (8, 6, 10),
        (5, 12, 13),
        (15, 8, 17),
        (12, 16, 20),
    ]


def test_extended_enumerate_matches_pair_search():
    expected = set()
    u = 2
    while u * u + 1 <= 300:
        for v in range(1, u):
            a, b, c = u * u - v * v, 2 * u * v, u * u + v * v
            if c <= 300:
                expected.add(Triple(a, b, c))
        u += 1
    assert set(extended_enumerate(300)) == expected


@given(c_max=st.integers(1, 400))
def test_extended_enumerate_ordering_and_uniqueness(c_max):
    listing = list(extended_enumerate(c_max))
    keys = [(t.c, t.a) for t in listing]
    assert keys == sorted(keys)
    assert len(set(listing)) == len(listing)


def test_extended_enumerate_indexed_carries_mu():
    seen = {(idx.mu, idx.n): t for idx, t in extended_enumerate_indexed(50)}
    assert (2, 1) in seen and seen[(2, 1)] == Triple(8, 6, 10)


# ------------------------------------------------------- the merge at its bounds

# Column heads (j = 1) of both lattices for columns up to 30, and their
# neighbours: the bounds at which a column is admitted or ends.
_HEAD_BOUNDS = sorted(
    {
        head + delta
        for i in range(1, 31)
        for head in (4 * i * i + 1, i * i + 2 * i + 2)
        for delta in (-1, 0, 1)
    }
)
_GRID_SIDE = 64
_RECORDS = {
    lattice_enumerate_indexed: series._lattice_records,
    extended_enumerate_indexed: series._extended_records,
}


def _lattice_point(m, n):
    a = 4 * m * m + 4 * n * m - 4 * m - 2 * n + 1
    return m, n, a, 2 * n * n + 4 * n * m - 2 * n, a + 2 * n * n


def _extended_point(mu, n):
    a = mu * (2 * n + mu)
    return mu, n, a, 2 * n * (n + mu), 2 * n * n + a


def _sorted_grid(point):
    # c rises along both axes, so a grid whose far edges pass every bound
    # tested holds every record at those bounds.
    edge = _GRID_SIDE - 1
    assert min(point(edge, 1)[4], point(1, edge)[4]) > _HEAD_BOUNDS[-1]
    grid = [point(i, j) for i in range(1, _GRID_SIDE) for j in range(1, _GRID_SIDE)]
    return sorted(grid, key=lambda r: (r[4], r[2]))


@pytest.mark.parametrize(
    "enumerate_indexed,point",
    [
        (lattice_enumerate_indexed, _lattice_point),
        (extended_enumerate_indexed, _extended_point),
    ],
)
def test_merge_matches_sorted_grid_at_every_bound(enumerate_indexed, point):
    # The merge's band edges move with c_max, so every bound up to 3,000 is
    # checked on the stream's records, and the indexed pairs at the first
    # 400 bounds and at the heads.
    grid = _sorted_grid(point)
    hypotenuses = [r[4] for r in grid]
    records = _RECORDS[enumerate_indexed]
    for c_max in sorted({*range(1, 3001), *_HEAD_BOUNDS}):
        expected = grid[: bisect_right(hypotenuses, c_max)]
        got = [record for band in records(c_max) for record in band]
        assert got == [(c, a, b, i, j) for i, j, a, b, c in expected], c_max
        if c_max <= 400 or c_max in _HEAD_BOUNDS:
            stream = enumerate_indexed(c_max)
            got = [(*slot_values(idx).values(), t.a, t.b, t.c) for idx, t in stream]
            assert got == expected, c_max


@pytest.mark.parametrize("step", [1, 2])
def test_merge_yields_column_1_head_before_any_band(step):
    # The first record leaves alone, as the first band, before any other
    # band is built: one _abc call, column 1's head, and no other column
    # touched, however far c_max is.
    calls, abc = [], series._abc

    def counted(r, n):
        calls.append((r, n))
        return abc(r, n)

    with mock.patch.object(series, "_abc", counted):
        assert next(series._merge(step, 10**10)) == [(5, 3, 4, 1, 1)]
    assert calls == [(1, 1)]


@pytest.mark.parametrize("records", [series._odd_records, series._even_records])
def test_walk_yields_the_first_record_as_a_band_of_its_own(records):
    # The first record waits on no other, however far c_max is.
    assert next(records(1, U64_MAX)) == [(5, 3, 4, 1, 1)]


# -------------------------------------------------------------------- families


@pytest.mark.parametrize("n,expected", [(1, (3, 4, 5)), (2, (5, 12, 13)), (3, (7, 24, 25))])
def test_pythagorean_family_golden(n, expected):
    t = pythagorean_family(n)
    assert (t.a, t.b, t.c) == expected


@pytest.mark.parametrize("m,expected", [(1, (3, 4, 5)), (2, (15, 8, 17)), (3, (35, 12, 37))])
def test_platonic_family_golden(m, expected):
    t = platonic_family(m)
    assert (t.a, t.b, t.c) == expected


@given(k=st.integers(1, 300))
def test_families_sit_on_lattice_edges(k):
    assert pythagorean_family(k) == triple_from_lattice(LatticeIndex(1, k))
    assert platonic_family(k) == triple_from_lattice(LatticeIndex(k, 1))


def test_family_overflow():
    with pytest.raises(OverflowError):
        pythagorean_family(2**32)


# -------------------------------------------------------------------- diagonal


def test_diagonal_multiples_golden():
    assert as_tuples(diagonal_multiples(50)) == [(3, 4, 5), (27, 36, 45)]
    assert as_tuples(diagonal_multiples(125)) == [
        (3, 4, 5),
        (27, 36, 45),
        (75, 100, 125),
    ]
    assert as_tuples(diagonal_multiples(4)) == []


def test_diagonal_multiples_are_square_scalings():
    for k, t in enumerate(islice(diagonal_multiples(10**6), 20), 1):
        p = 2 * k - 1
        assert (t.a, t.b, t.c) == (3 * p * p, 4 * p * p, 5 * p * p)
        assert gcd(gcd(t.a, t.b), t.c) == p * p


# ------------------------------------------------- stream objects at the edge

# The seven object streams, each with the index type it pairs its triples
# with (None for the triple-only streams).
_OBJECT_STREAMS = {
    "odd_series": (lambda c_max: odd_series(3, c_max), None),
    "even_series": (lambda c_max: even_series(2, c_max), None),
    "lattice_enumerate": (lattice_enumerate, None),
    "lattice_enumerate_indexed": (lattice_enumerate_indexed, LatticeIndex),
    "extended_enumerate": (extended_enumerate, None),
    "extended_enumerate_indexed": (extended_enumerate_indexed, ExtendedIndex),
    "diagonal_multiples": (diagonal_multiples, None),
}


def _assert_built_like_its_constructor(value, cls):
    assert type(value) is cls
    fields = [f.name for f in dataclasses.fields(cls)]
    built = cls(*(getattr(value, name) for name in fields))
    assert value == built and hash(value) == hash(built)
    assert repr(value) == repr(built)
    assert list(slot_values(value).items()) == list(slot_values(built).items())
    assert dataclasses.asdict(value) == dataclasses.asdict(built)
    for copied in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
        dataclasses.replace(value),
    ):
        assert type(copied) is cls and copied == built and hash(copied) == hash(built)
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert slot_values(value) == slot_values(built)


@pytest.mark.parametrize("c_max", [37, 997, 10**6, U64_MAX])
@pytest.mark.parametrize("name", list(_OBJECT_STREAMS))
def test_stream_objects_match_constructor_built_ones(name, c_max):
    stream, index = _OBJECT_STREAMS[name]
    items = list(islice(stream(c_max), 300))
    assert items
    for item in items:
        if index is None:
            _assert_built_like_its_constructor(item, Triple)
        else:
            idx, t = item
            _assert_built_like_its_constructor(idx, index)
            _assert_built_like_its_constructor(t, Triple)


# Record fields near every edge the checks test: zero, negatives, the
# width and one past it, bools and floats.
_FIELD = st.one_of(
    st.integers(-3, 6),
    st.sampled_from([U64_MAX, U64_MAX + 1, -U64_MAX, True, False, 0.0, 3.0, 5.0]),
    st.integers(),
)


@st.composite
def _records(draw):
    # A true triple record (c, a, b, m, n), scaled up to and past the width,
    # legs in either order, with up to two fields replaced or negated; or
    # five arbitrary fields.
    if draw(st.booleans()):
        return tuple(draw(_FIELD) for _ in range(5))
    m, n = draw(st.integers(1, 50)), draw(st.integers(1, 50))
    k = draw(st.sampled_from([1, 2, 3, U64_MAX // (4 * m * m + 1) // 9, U64_MAX // 5 + 1]))
    a, b, c = (k * v for v in series._abc(2 * m - 1, n))
    if draw(st.booleans()):
        a, b = b, a
    record = [c, a, b, m, n]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, 4))
        record[at] = -record[at] if draw(st.booleans()) else draw(_FIELD)
    return tuple(record)


def _helpers_on(records, name):
    """The records _check_index (unless name is None) and then _check_triple
    pass, up to the first they reject, and what that one raised."""
    passed = []
    for c, a, b, i, n in records:
        try:
            if name is not None:
                _check_index(name, i, n)
            _check_triple(a, b, c)
        except (TypeError, ValueError, OverflowError) as exc:
            return passed, exc
        passed.append((c, a, b, i, n))
    return passed, None


def _drain(stream):
    out = []
    try:
        for item in stream:
            out.append(item)
    except (TypeError, ValueError, OverflowError) as exc:
        return out, exc
    return out, None


def _same_failure(got, want):
    assert (type(got), str(got)) == (type(want), str(want))


def _one_example_per_clause(test):
    # A passing record and then, in the same band, one that fails a single
    # clause of the record rule, for every clause: each field's type and
    # sign, the width and the identity.  Random draws reach some clauses
    # only rarely.  The next six each pass the rule with one edit to it: a
    # zero leg with a >= 0 or b >= 0, a swapped leg and hypotenuse with
    # a*a - b*b, a + a or b + b for a leg's square, and c + c for c's.  The
    # last, with a bool index field, fails the inline test and passes the
    # helpers, so it stays in its band.
    ok, big = (5, 3, 4, 1, 1), U64_MAX // 5 + 1
    bad = [(5 * big, 3 * big, 4 * big, 1, 1), (7, 3, 4, 1, 1)]
    for at in range(5):
        bad += [ok[:at] + (v,) + ok[at + 1:] for v in (float(ok[at]), -ok[at])]
    bad += [(5, 0, 5, 1, 1), (5, 5, 0, 1, 1), (3, 5, 4, 1, 1), (3, 4, 1, 1, 1),
            (3, 1, 4, 1, 1), (1, 1, 1, 1, 1), (5, 3, 4, True, 1)]
    for record in bad:
        test = example(bands=[[ok, record]])(test)
    return test


@_one_example_per_clause
@given(bands=st.lists(st.lists(_records(), max_size=3), max_size=3))
def test_inline_record_tests_accept_exactly_what_the_helpers_accept(bands):
    # The drawn records, split into bands as a record source yields them.
    records = [record for band in bands for record in band]
    source = mock.patch.multiple(
        series,
        _walk=lambda *args: iter(bands),
        _merge=lambda *args: iter(bands),
    )
    for name, (stream, index) in _OBJECT_STREAMS.items():
        field = None if index is None else "m" if index is LatticeIndex else "mu"
        passed, raised = _helpers_on(records, field)
        with source:
            got, failure = _drain(stream(10**6))
        _same_failure(failure, raised)
        if index is None:
            want = [Triple(a, b, c) for c, a, b, _, _ in passed]
        else:
            want = [(index(i, n), Triple(a, b, c)) for c, a, b, i, n in passed]
        assert repr(got) == repr(want), name
    verify = importlib.import_module("triple_lattice.classify")
    for field, patched in (("m", "_lattice_records"), ("mu", "_extended_records")):
        passed, raised = _helpers_on(records, field)
        got, failure = _drain(series._valid(iter(bands), field))
        _same_failure(failure, raised)
        # The records that pass come out as they went in, not repacked: each
        # band the same list, up to the band of the first record that fails,
        # of which a list of the records before that one comes out.
        flat = [record for band in got for record in band]
        assert len(flat) == len(passed) and all(map(operator.is_, flat, records))
        whole = len(got) - (failure is not None)
        assert all(map(operator.is_, got[:whole], bands))
        if failure is None:
            assert len(got) == len(bands)
        else:
            assert got[whole] == bands[whole][: len(got[whole])]
        rows, failure = _drain(cli._rows(iter(bands), field))
        _same_failure(failure, raised)
        rows = [row for band in rows for row in band]
        assert [row[:5] for row in rows] == [(i, n, a, b, c) for c, a, b, i, n in passed]
        # verify_chain reads the drawn records as that field's stream; its
        # other two routes stay as they are.
        with mock.patch.object(verify, patched, lambda c_max: iter(bands)):
            _, failure = _drain(map(verify.verify_chain, [500]))
        _same_failure(failure, raised)
