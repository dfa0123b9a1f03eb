"""Bounded, ordered streaming of triple series and whole lattice slices.

Both forms are columns of one quadratic: column r holds, for j = 1, 2, ...,
(a, b, c) = core._abc(r, j) = (r(r + 2j), 2j(j + r), r(r + 2j) + 2j^2),
with r = 2m - 1 on the lattice (column m, step 2) and r = mu in the
extended form (step 1).
Every stream walks a line of the index lattice on which c rises (a
column, a row, the diagonal) or merges all columns, one band of c at a
time sorted once, carrying plain (c, a, b, i, j) tuples in lists, bands:
each record source yields bands, and each consumer takes a band at a
time.  Triple and index objects are built only at the public edge.  The
Triple-only streams call Triple there.  The indexed lattice and extended
streams build each pair without a constructor call:
_valid, the package's one copy of the record rule, accepts just what the
constructors accept (a record that fails it raises what they raise, once
the records before it in its band are passed on), and each object is
made by object.__new__ and a store through each field's slot descriptor,
the same slot write the constructors make, so it is indistinguishable
from one its constructor built.
Streams are single-consumer iterators; merged slices come out c
ascending, then a.  A merge keeps one cursor per joined column,
overwritten in place, and no column leaves.  Each stream checks
c_max <= U64_MAX once, at call time, which bounds every component it
can yield.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import count, repeat

from . import core
from .core import (
    ExtendedIndex,
    LatticeIndex,
    Triple,
    _abc,
    _check_index,
    _check_triple,
    _require_positive_int,
    triple_from_lattice,
)

__all__ = [
    "MIN_HYPOTENUSE",
    "odd_series",
    "even_series",
    "lattice_enumerate",
    "lattice_enumerate_indexed",
    "extended_enumerate",
    "extended_enumerate_indexed",
    "pythagorean_family",
    "platonic_family",
    "diagonal_multiples",
]

#: Hypotenuse of the smallest triple; bounds below it yield empty streams.
MIN_HYPOTENUSE = 5

#: A stream element, (c, a, b, i, j) on plain ints.
_Record = tuple[int, int, int, int, int]


def _check_bound(c_max: int) -> None:
    _require_positive_int("c_max", c_max)
    if c_max > core.U64_MAX:
        raise OverflowError(f"c_max = {c_max} exceeds the checked 64-bit width")


def _walk(points: Iterable[tuple[int, int]], c_max: int) -> Iterator[list[_Record]]:
    """Yield (c, a, b, i, j) at each lattice point (i, j) in turn until c > c_max,
    in bands: the first of one record, so it waits on no other, then of
    256, and last the rest, which may be empty.

    Lattice point (i, j) is _abc's column r = 2i - 1 at row j.
    """
    band, size = [], 1
    for i, j in points:
        a, b, c = _abc(2 * i - 1, j)
        if c > c_max:
            break
        band.append((c, a, b, i, j))
        if len(band) == size:
            yield band
            band, size = [], 256
    yield band


def _merge(step: int, c_max: int) -> Iterator[list[_Record]]:
    """Yield (c, a, b, i, j) over every column i, c then a ascending, in bands.

    Column i is _abc's column r = step*(i - 1) + 1: step 2 gives the lattice
    (r = 2m - 1) and step 1 the extended form (r = mu).  Column 1's head,
    (5, 3, 4, 1, 1) in both forms, is yielded alone, as the first band,
    before any other work.  The rest comes out one band of c at a time,
    from the last band's top hi to the new hi, each band one list, yielded
    whole (and empty when no record lies in it): each column whose head
    (j = 1, from _abc(r, 1), one call per column) is <= hi joins, in i
    order, and every column appends its records with c <= hi to the band;
    one sort then puts the band in order.
    The successor step walks _abc down the column inline, as it runs once
    per record: along a column c - b = r^2 stays put, so from j to j + 1 a
    rises by 2r and b and c by 2(r + 2j + 1), a rise that grows by 4 with
    each step.  Each column keeps one cursor, its next record, overwritten
    in place in one list that only grows.  No column leaves: every band
    ends at or below c_max, so a cursor past c_max adds nothing to any
    later band, and a cursor passes c_max only within one step of it, in
    the last band or two.  c rises along each column and heads rise with
    i, so no column that has not joined holds a record in the band, and
    (c, a) is unique, so sorting whole records gives c then a.  The band's
    width starts at 1 and doubles after a band of fewer than
    max(256, columns) records: a band holds a small multiple of the
    columns the frontier has reached, so memory follows those columns,
    not c_max.

    Each choice was timed against the kernel without it (Python 3.11.7,
    shared 2-core VM):
    - Column 1's head before any band: without it the first record of a
      stream at c_max 1e10 came 35-42% later (0.023 -> 0.033 ms).
    - The 256 floor: without it the lattice to 1e5 took 1.12x as long, to
      2,515 1.22x, and the first 10,000 records at 1e10 1.18x.
    - The columns term: without it the lattice to 10^6 took 1.05x and the
      extended form to 5*10^5 1.10x.
    - Bands between Platonic heads, ((2m)^2, (2m + 2)^2], need no width,
      but took 1.10x on the lattice to 1e5, 1.13x on the first 10,000
      records at 1e10, and 3.2x to the first record.
    """
    # Column 1 has r = 1 in both forms.
    a, b, hi = _abc(1, 1)
    if hi > c_max:
        return
    yield [(hi, a, b, 1, 1)]
    shift = 1 - step
    a, b, c = _abc(1, 2)
    columns: list[_Record] = [(c, a, b, 1, 2)]
    a, b, c = _abc(1 + step, 1)
    head: _Record = (c, a, b, 2, 1)
    width = 1
    while hi < c_max:
        hi = min(hi + width, c_max)
        while head[0] <= hi:
            columns.append(head)
            i = head[3] + 1
            a, b, c = _abc(step * i + shift, 1)
            head = (c, a, b, i, 1)
        band: list[_Record] = []
        add = band.append
        for k, (c, a, b, i, j) in enumerate(columns):
            if c <= hi:
                r2 = 2 * (step * i + shift)
                rise = r2 + 4 * j + 2
                while c <= hi:
                    add((c, a, b, i, j))
                    c += rise
                    a += r2
                    b += rise
                    rise += 4
                    j += 1
                columns[k] = (c, a, b, i, j)
        band.sort()
        yield band
        if len(band) < max(256, len(columns)):
            width += width


def _triples(bands: Iterator[list[_Record]]) -> Iterator[Triple]:
    return (Triple(a, b, c) for band in bands for c, a, b, _, _ in band)


def _valid(bands: Iterable[list[_Record]], name: str) -> Iterator[list[_Record]]:
    """Yield each band of (c, a, b, i, n) records, unchanged, whose every
    record index(i, n) and Triple(a, b, c) accept, the index's first field
    called name.

    The package's one record rule.  Its inline test passes all that
    _check_index and _check_triple pass but for int subclasses, such as
    bool: a and b lie below c once the identity holds, so only c meets
    U64_MAX, read from core per stream.  A record that fails it goes
    through those two, the constructors' order.  If they pass it, it stays
    in its band; if they raise, the band's records before it are yielded
    as a list of their own, so a consumer still has every record read
    before the bad one, and then what they raised is raised.

    The test is written out here, not as calls to _check_index and
    _check_triple, because it runs once per streamed record.  Timed against
    the two calls per record (Python 3.11.7, shared 2-core VM), enum to
    c_max 1e5, the lattice as json-lines and the extended form as csv,
    took 80.2 ms here against 85.1 ms, about 6% less.
    """
    top = core.U64_MAX
    for band in bands:
        for record in band:
            c, a, b, i, n = record
            if not (
                type(i) is type(n) is type(a) is type(b) is type(c) is int
                and i > 0 and n > 0 and a > 0 and b > 0 and 0 < c <= top
                and a * a + b * b == c * c
            ):
                try:
                    _check_index(name, i, n)
                    _check_triple(a, b, c)
                except Exception:
                    # The first occurrence of this tuple is this one: any
                    # earlier one would have raised first.
                    yield band[: list(map(id, band)).index(id(record))]
                    raise
        yield band


#: Each streamed type's slot setters, in field order: a slot descriptor's
#: __set__ is the slot write object.__setattr__ reaches from __init__.
_SETTERS = {
    cls: tuple(getattr(cls, field).__set__ for field in cls.__slots__)
    for cls in (Triple, LatticeIndex, ExtendedIndex)
}


def _indexed(
    bands: Iterator[list[_Record]], index: type[LatticeIndex | ExtendedIndex]
) -> Iterator[tuple[LatticeIndex | ExtendedIndex, Triple]]:
    # (index(i, n), Triple(a, b, c)) without either call, on the records
    # _valid passes.  Each field is written through its slot, in __init__'s
    # order; name is the index's first field, "m" or "mu".  The bands are
    # unpacked by a nested loop, not chain.from_iterable: in perfbench's
    # enum-head (Python 3.11.7, shared 2-core VM, 3 seeds), the first pair
    # of a fresh stream at c_max 1e10 came after 0.054, 0.057 and 0.058 ms
    # with the chain, 0.048, 0.053 and 0.052 ms with the nested loop, and
    # 0.049, 0.050 and 0.052 ms with the flat loop before bands.
    name = index.__match_args__[0]
    set_i, set_n = _SETTERS[index]
    set_a, set_b, set_c = _SETTERS[Triple]
    new = object.__new__
    for band in _valid(bands, name):
        for c, a, b, i, n in band:
            idx = new(index)
            set_i(idx, i)
            set_n(idx, n)
            t = new(Triple)
            set_a(t, a)
            set_b(t, b)
            set_c(t, c)
            yield idx, t


def _odd_records(m: int, c_max: int) -> Iterator[list[_Record]]:
    _require_positive_int("m", m)
    _check_bound(c_max)
    return _walk(zip(repeat(m), count(1)), c_max)


def _even_records(n: int, c_max: int) -> Iterator[list[_Record]]:
    _require_positive_int("n", n)
    _check_bound(c_max)
    return _walk(zip(count(1), repeat(n)), c_max)


def _lattice_records(c_max: int) -> Iterator[list[_Record]]:
    _check_bound(c_max)
    return _merge(2, c_max)


def _extended_records(c_max: int) -> Iterator[list[_Record]]:
    _check_bound(c_max)
    return _merge(1, c_max)


def odd_series(m: int, c_max: int) -> Iterator[Triple]:
    """Stream the triples with c - b = (2m-1)^2 and c <= c_max, c ascending."""
    return _triples(_odd_records(m, c_max))


def even_series(n: int, c_max: int) -> Iterator[Triple]:
    """Stream the triples with c - a = 2n^2 and c <= c_max, c ascending."""
    return _triples(_even_records(n, c_max))


def lattice_enumerate_indexed(c_max: int) -> Iterator[tuple[LatticeIndex, Triple]]:
    """Stream every lattice triple with c <= c_max along with its (m, n).

    Order: c ascending, then a.  Column m joins at its head, c = 4m^2 + 1.
    """
    return _indexed(_lattice_records(c_max), LatticeIndex)


def lattice_enumerate(c_max: int) -> Iterator[Triple]:
    """Stream every lattice triple with c <= c_max, c ascending then a."""
    return _triples(_lattice_records(c_max))


def extended_enumerate_indexed(c_max: int) -> Iterator[tuple[ExtendedIndex, Triple]]:
    """Stream every Euclid-form triple with c <= c_max along with its (mu, n).

    Order: c ascending, then a.  Column mu joins at its head, c = mu^2 + 2mu + 2.
    """
    return _indexed(_extended_records(c_max), ExtendedIndex)


def extended_enumerate(c_max: int) -> Iterator[Triple]:
    """Stream every Euclid-form triple with c <= c_max, c ascending then a."""
    return _triples(_extended_records(c_max))


def pythagorean_family(n: int) -> Triple:
    """The m = 1 column member (2n+1, 2n^2+2n, 2n^2+2n+1)."""
    return triple_from_lattice(LatticeIndex(1, n))


def platonic_family(m: int) -> Triple:
    """The n = 1 row member (4m^2-1, 4m, 4m^2+1)."""
    return triple_from_lattice(LatticeIndex(m, 1))


def diagonal_multiples(c_max: int) -> Iterator[Triple]:
    """Stream the n = 2m-1 diagonal: the k-th element is (2k-1)^2 * (3, 4, 5)."""
    _check_bound(c_max)
    return _triples(_walk(((m, 2 * m - 1) for m in count(1)), c_max))
