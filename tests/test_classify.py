"""Unit tests for classification, the two oracles and verify_chain."""

import dataclasses
import importlib
from itertools import chain, count, permutations
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from triple_lattice.classify import (
    DEFAULT_ORACLE_CEILING,
    BoundTooLarge,
    ChainReport,
    ClassReport,
    _berggren_primitives,
    _check_oracle_bound,
    berggren_triples,
    brute_force_triples,
    classify,
    verify_chain,
)
from triple_lattice.cli import main
from triple_lattice.core import (
    U64_MAX,
    EuclidParams,
    LatticeIndex,
    Triple,
    _check_triple,
    canonicalize,
    euclid_params_from_triple,
    is_perfect_square,
    is_primitive_lattice,
    lattice_from_triple,
    triple_from_lattice,
)
from triple_lattice.series import (
    MIN_HYPOTENUSE,
    extended_enumerate,
    lattice_enumerate_indexed,
)


# -------------------------------------------------------------------- classify


def test_classify_scaled_outside_euclid():
    rep = classify(9, 12, 15)
    assert (rep.in_P, rep.in_E, rep.in_C, rep.in_P0) == (True, False, False, False)
    assert rep.lattice is None and rep.euclid is None
    assert rep.scale == 3


def test_classify_square_scaled_lattice_member():
    rep = classify(27, 36, 45)
    assert (rep.in_P, rep.in_E, rep.in_C, rep.in_P0) == (True, True, True, False)
    assert rep.lattice == LatticeIndex(2, 3)
    assert rep.euclid == EuclidParams(6, 3)
    assert rep.scale == 9


def test_classify_all_even_euclid_member():
    rep = classify(8, 6, 10)
    assert (rep.in_P, rep.in_E, rep.in_C, rep.in_P0) == (True, True, False, False)
    assert rep.euclid == EuclidParams(3, 1)
    assert rep.lattice is None
    assert rep.scale == 2


def test_classify_smallest_primitive():
    rep = classify(3, 4, 5)
    assert (rep.in_P, rep.in_E, rep.in_C, rep.in_P0) == (True, True, True, True)
    assert rep.lattice == LatticeIndex(1, 1)
    assert rep.euclid == EuclidParams(2, 1)
    assert rep.scale == 1


def test_classify_non_triple():
    rep = classify(1, 1, 1)
    assert (rep.in_P, rep.in_E, rep.in_C, rep.in_P0) == (False, False, False, False)
    assert rep.lattice is None and rep.euclid is None and rep.scale is None


def test_classify_accepts_any_component_order():
    assert classify(5, 3, 4) == classify(3, 4, 5)
    assert classify(15, 9, 12) == classify(9, 12, 15)


def test_classify_validates_input():
    with pytest.raises(ValueError):
        classify(0, 4, 5)
    with pytest.raises(TypeError):
        classify(3.0, 4, 5)


@given(
    x=st.integers(1, 1000), y=st.integers(1, 1000), z=st.integers(1, 1000)
)
def test_classify_chain_soundness(x, y, z):
    rep = classify(x, y, z)
    assert not rep.in_P0 or rep.in_C
    assert not rep.in_C or rep.in_E
    assert not rep.in_E or rep.in_P


@given(m=st.integers(1, 15), n=st.integers(1, 15), k=st.integers(1, 12))
def test_classify_scaled_lattice_members(m, n, k):
    t = triple_from_lattice(LatticeIndex(m, n))
    rep = classify(k * t.a, k * t.b, k * t.c)
    assert rep.in_P
    base = gcd(gcd(t.a, t.b), t.c)
    assert rep.scale == k * base
    scaled_down = classify(
        k * t.a // rep.scale, k * t.b // rep.scale, k * t.c // rep.scale
    )
    assert scaled_down.in_P0


def test_classify_round_trip_of_reported_lattice():
    for raw in ((3, 4, 5), (36, 27, 45), (28, 45, 53), (12, 5, 13)):
        rep = classify(*raw)
        assert rep.in_C
        assert triple_from_lattice(rep.lattice) == rep.triple


_NO_REPORT = ClassReport(in_P=False, in_E=False, in_C=False, in_P0=False)


def _reference_report(x, y, z):
    # classify by the library's public steps: orient with canonicalize,
    # then recover each parameter by its own function.
    lo, mid, hi = sorted((x, y, z))
    if lo * lo + mid * mid != hi * hi:
        return _NO_REPORT
    t = canonicalize(Triple(lo, mid, hi))
    params = euclid_params_from_triple(t)
    in_c = params is not None and (t.a + t.b) % 2 == 1
    scale = gcd(t.a, t.b, t.c)
    return ClassReport(
        in_P=True,
        in_E=params is not None,
        in_C=in_c,
        in_P0=scale == 1,
        lattice=lattice_from_triple(t) if in_c else None,
        euclid=params,
        scale=scale,
        triple=t,
    )


def _assert_same_report(got, want):
    assert type(got) is ClassReport
    for field in dataclasses.fields(ClassReport):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert type(g) is type(w) and g == w, field.name


def test_classify_matches_the_reference_field_by_field():
    triples = brute_force_triples(1000)
    assert len(triples) == 881
    for t in triples:
        for k in (1, 2, 3, 4, 9):
            for args in set(permutations((k * t.a, k * t.b, k * t.c))):
                _assert_same_report(classify(*args), _reference_report(*args))
            for args in set(permutations((k * t.a, k * t.b, k * t.c + 1))):
                _assert_same_report(classify(*args), _NO_REPORT)


@pytest.mark.parametrize(
    "args",
    [
        (U64_MAX + 1, 1, 1),
        (3, 4, U64_MAX + 2),
        (2**70, 2**70, 2**71),
        (3 * 2**62, 4 * 2**62, 5 * 2**62 + 1),
        (True, 4, 5),
    ],
)
def test_classify_non_triples_raise_nothing(args):
    for order in permutations(args):
        _assert_same_report(classify(*order), _NO_REPORT)


def test_classify_triple_past_the_width_overflows():
    k = 2**62
    for order in permutations((3 * k, 4 * k, 5 * k)):
        with pytest.raises(OverflowError, match="exceeds the checked 64-bit width"):
            classify(*order)


@pytest.mark.parametrize(
    "args,exc,message",
    [
        ((0, 4, 5), ValueError, "x must be >= 1, got 0"),
        ((3, -4, 5), ValueError, "y must be >= 1, got -4"),
        ((3, 4, False), ValueError, "z must be >= 1, got False"),
        ((3.0, 4, 5), TypeError, "x must be an int, got float"),
        ((3, 4, "5"), TypeError, "z must be an int, got str"),
        ((0, None, 5), ValueError, "x must be >= 1, got 0"),
        ((U64_MAX + 1, None, 5), TypeError, "y must be an int, got NoneType"),
    ],
)
def test_classify_argument_errors_name_the_first_bad_argument(args, exc, message):
    with pytest.raises(exc) as info:
        classify(*args)
    assert type(info.value) is exc
    assert str(info.value) == message


# ---------------------------------------------------------------------- oracle


def test_brute_force_small_bounds():
    assert {(t.a, t.b, t.c) for t in brute_force_triples(5)} == {(3, 4, 5)}
    assert {(t.a, t.b, t.c) for t in brute_force_triples(15)} == {
        (3, 4, 5),
        (6, 8, 10),
        (5, 12, 13),
        (9, 12, 15),
    }
    at_17 = {(t.a, t.b, t.c) for t in brute_force_triples(17)}
    assert (15, 8, 17) in at_17
    assert len(at_17) == 5


def test_brute_force_orientation_convention():
    for t in brute_force_triples(200):
        assert t == canonicalize(t)


def test_brute_force_bound_checks():
    with pytest.raises(BoundTooLarge):
        brute_force_triples(10_001)
    with pytest.raises(BoundTooLarge):
        brute_force_triples(60, oracle_ceiling=50)
    with pytest.raises(ValueError):
        brute_force_triples(0)


def test_oracle_agreement_with_classify():
    for t in brute_force_triples(300):
        rep = classify(t.a, t.b, t.c)
        assert rep.in_P
        assert rep.in_P0 == (gcd(gcd(t.a, t.b), t.c) == 1)
        assert rep.in_C == (rep.in_E and t.c % 2 == 1 and (t.a + t.b) % 2 == 1)
        if rep.in_P0:
            assert (t.a + t.b) % 2 == 1 and t.c % 2 == 1


def test_berggren_equals_brute_force():
    for c_max in [*range(1, 301), 5000]:
        assert berggren_triples(c_max) == brute_force_triples(c_max), c_max


def _pushing_every_child(c_max):
    """The tree walk as it was before it pruned: all three children pushed,
    each past c_max skipped when popped.  Kept as the order reference."""
    stack = [(3, 4, 5)]
    while stack:
        a, b, c = stack.pop()
        if c > c_max:
            continue
        yield a, b, c
        stack.append((a - 2 * b + 2 * c, 2 * a - b + 2 * c, 2 * a - 2 * b + 3 * c))
        stack.append((a + 2 * b + 2 * c, 2 * a + b + 2 * c, 2 * a + 2 * b + 3 * c))
        stack.append((2 * b - a + 2 * c, b - 2 * a + 2 * c, 2 * b - 2 * a + 3 * c))


def test_berggren_walk_keeps_its_order_when_pruned():
    # The naming pass's "first repeat in stream order" rests on this order.
    for c_max in [*range(1, 3_001), 10**5]:
        assert list(_berggren_primitives(c_max)) == list(_pushing_every_child(c_max)), c_max
    assert berggren_triples(4) == set()


@pytest.mark.parametrize("c_max", [5, 50, 500, 2500])
def test_berggren_primitives_are_distinct_and_count_p0(c_max):
    nodes = list(_berggren_primitives(c_max))
    assert len(set(nodes)) == len(nodes) == verify_chain(c_max).count_P0
    assert all(gcd(gcd(a, b), c) == 1 and a * a + b * b == c * c for a, b, c in nodes)


@pytest.mark.parametrize(
    "args",
    [(0,), (-1,), (5.0,), ("50",), (None,), (True,), (1,), (10_001,),
     (60, 50), (50, 50), (51, 50), (5, 4),
     (5, 4.0), (5, "9"), (5, None), (5, 0)],
)
def test_berggren_bound_checks_match_brute_force(args):
    def outcome(oracle):
        try:
            return oracle(*args)
        except (TypeError, ValueError) as exc:
            return type(exc)

    assert outcome(berggren_triples) == outcome(brute_force_triples)


@pytest.mark.parametrize("oracle", [brute_force_triples, berggren_triples, verify_chain])
@pytest.mark.parametrize(
    "bound,type_name", [(5.0, "float"), ("50", "str"), (None, "NoneType")]
)
def test_non_int_bound_is_a_type_error(oracle, bound, type_name):
    for args, name in (((bound,), "c_max"), ((5, bound), "oracle_ceiling")):
        with pytest.raises(TypeError) as info:
            oracle(*args)
        assert info.type is TypeError
        assert str(info.value) == f"{name} must be an int, got {type_name}"


# ---------------------------------------------------------------- verify_chain


def _set_based_verify_chain(
    c_max: int, oracle_ceiling: int = DEFAULT_ORACLE_CEILING
) -> ChainReport:
    """verify_chain as it was before its routes streamed: four whole sets
    of Triples, diffed.  Kept as the reference the streamed one must equal.
    """
    _check_oracle_bound(c_max, oracle_ceiling, MIN_HYPOTENUSE)
    p_set = berggren_triples(c_max, oracle_ceiling)
    p0_set = {t for t in p_set if gcd(t.a, t.b, t.c) == 1}
    c_pairs = list(lattice_enumerate_indexed(c_max))
    c_set = {t for _, t in c_pairs}
    e_set: set[Triple] = set()
    e_count = 0
    witness_e_not_c = None
    for e_count, t in enumerate(extended_enumerate(c_max), 1):
        canon = canonicalize(t)
        e_set.add(canon)
        if witness_e_not_c is None and canon not in c_set:
            witness_e_not_c = t

    def smallest(triples):
        return min(triples, key=lambda t: (t.c, t.a), default=None)

    discrepancies: list[str] = []

    def leak(kind, extras, sample=None):
        if extras:
            sample = sample or smallest(extras)
            discrepancies.append(
                f"{len(extras)} {kind}, e.g. ({sample.a}, {sample.b}, {sample.c})"
            )

    def repeats(stream, count, distinct, records):
        if count > distinct:
            seen: set[Triple] = set()
            rep = [t for t in records if (k := canonicalize(t)) in seen or seen.add(k)]
            leak(f"duplicate records in the {stream} stream", rep, rep[0])

    leak("Euclid triples missing from the oracle set", e_set - p_set)
    leak("lattice triples missing from the Euclid set", c_set - e_set)
    leak("primitive triples missing from the lattice set", p0_set - c_set)
    not_all_even = {t for t in e_set if t.a % 2 or t.b % 2}
    leak("lattice triples outside Euclid-minus-all-even", c_set - not_all_even)
    leak("Euclid-minus-all-even triples missing from the lattice", not_all_even - c_set)
    repeats("lattice", len(c_pairs), len(c_set), (t for _, t in c_pairs))
    repeats("Euclid", e_count, len(e_set), extended_enumerate(c_max))
    for idx, t in c_pairs:
        if is_primitive_lattice(idx) != (t in p0_set):
            discrepancies.append(
                f"primitivity mismatch at (m={idx.m}, n={idx.n}): "
                f"({t.a}, {t.b}, {t.c})"
            )
            break

    return ChainReport(
        c_max=c_max,
        count_P=len(p_set),
        count_E=len(e_set),
        count_C=len(c_set),
        count_P0=len(p0_set),
        witness_P_not_E=smallest(p_set - e_set),
        witness_E_not_C=witness_e_not_c,
        witness_C_not_P0=smallest(c_set - p0_set),
        discrepancies=tuple(discrepancies),
    )


def test_verify_chain_equals_the_set_based_reference():
    for c_max in [*range(5, 400), 1000, 2500, 10_000]:
        assert verify_chain(c_max) == _set_based_verify_chain(c_max), c_max


def test_euclid_multipliers_are_the_squares_and_twice_the_squares(monkeypatch):
    # One primitive, so k runs from 1 to 10^6 and every mark is k's own.
    module = importlib.import_module("triple_lattice.classify")
    monkeypatch.setattr(module, "_berggren_primitives", lambda c_max: iter([(3, 4, 5)]))
    marked, count = set(), 0
    for count, (_, _, _, k, e) in enumerate(module._tree_multiples(5 * 10**6), 1):
        assert k == count
        if e:
            marked.add(k)
    assert count == 10**6
    roots = range(1, 1_001)
    euclid = {s * s for s in roots} | {2 * s * s for s in roots}
    assert marked == {k for k in euclid if k <= 10**6}


# Triple fields near every edge _check_triple tests: zero, negatives, the
# width and one past it, bools and floats.
_FIELD = st.one_of(
    st.integers(-3, 6),
    st.sampled_from([U64_MAX, U64_MAX + 1, -U64_MAX, True, False, 0.0, 3.0, 5.0]),
    st.integers(),
)


@st.composite
def _multiples(draw):
    # A tree multiple (a, b, c, k, euclid): a true Euclid triple scaled up
    # to and past the width, legs in either order, with up to two fields
    # negated, zeroed or replaced; or three arbitrary fields.
    k, euclid = draw(st.integers(1, 50)), draw(st.booleans())
    if draw(st.booleans()):
        return (*(draw(_FIELD) for _ in range(3)), k, euclid)
    u = draw(st.integers(2, 40))
    v = draw(st.integers(1, u - 1))
    a, b, c = u * u - v * v, 2 * u * v, u * u + v * v
    scale = draw(st.sampled_from([1, 2, 3, U64_MAX // c, U64_MAX // c + 1]))
    record = [scale * a, scale * b, scale * c]
    if draw(st.booleans()):
        record[:2] = record[1::-1]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, 2))
        record[at] = draw(st.sampled_from([-record[at], 0, record[at] + 1]) | _FIELD)
    return (*record, k, euclid)


def _one_example_per_clause(test):
    # A passing multiple and then one that fails a single clause of the
    # Triple rule the tree loop checks through _check_triple, for every
    # clause: each field's type and sign, the width and the identity.
    # Random draws reach some clauses only rarely.
    ok, big = (3, 4, 5, 1, True), U64_MAX // 5 + 1
    bad = [(3 * big, 4 * big, 5 * big, big, False), (3, 4, 6, 1, True)]
    for at in range(3):
        bad += [ok[:at] + (v,) + ok[at + 1:] for v in (float(ok[at]), -ok[at])]
    for record in bad:
        test = example(records=[ok, record])(test)
    return test


def _first_rejection(records):
    for a, b, c, _, _ in records:
        try:
            _check_triple(a, b, c)
        except (TypeError, ValueError, OverflowError) as exc:
            return exc
    return None


@_one_example_per_clause
@given(records=st.lists(_multiples(), max_size=6))
def test_inline_tree_test_accepts_exactly_what_check_triple_accepts(records):
    module = importlib.import_module("triple_lattice.classify")
    want = _first_rejection(records)
    got = None
    with mock.patch.object(module, "_tree_multiples", lambda c_max: iter(records)):
        try:
            verify_chain(500)
        except (TypeError, ValueError, OverflowError) as exc:
            got = exc
    assert (type(got), str(got)) == (type(want), str(want))


def test_verify_chain_counts_at_1e5():
    report = verify_chain(10**5)
    assert report.ok
    assert (report.count_P, report.count_E, report.count_C, report.count_P0) == (
        161_436,
        39_005,
        19_559,
        15_919,
    )


def _brute_force_multiples(c_max):
    # Its own marks, not the tree's: k p is a Euclid triple iff k = s^2 or 2 s^2.
    for t in brute_force_triples(c_max):
        k = gcd(t.a, t.b, t.c)
        yield t.a, t.b, t.c, k, is_perfect_square(k) or is_perfect_square(2 * k)


@pytest.mark.parametrize("c_max", [5, 50, 500, 2500])
def test_verify_chain_same_report_with_brute_force_route(c_max, monkeypatch):
    tree_report = verify_chain(c_max)
    module = importlib.import_module("triple_lattice.classify")
    monkeypatch.setattr(module, "_tree_multiples", _brute_force_multiples)
    assert verify_chain(c_max) == tree_report


def test_verify_chain_witnesses_at_50():
    report = verify_chain(50)
    assert report.ok
    assert report.discrepancies == ()
    assert (report.count_P, report.count_E, report.count_C, report.count_P0) == (
        20,
        14,
        8,
        7,
    )
    assert report.witness_P_not_E == Triple(9, 12, 15)
    assert report.witness_E_not_C == Triple(8, 6, 10)
    assert report.witness_C_not_P0 == Triple(27, 36, 45)


def test_verify_chain_degenerate_bound():
    report = verify_chain(5)
    assert report.ok
    assert (report.count_P, report.count_E, report.count_C, report.count_P0) == (
        1,
        1,
        1,
        1,
    )
    assert report.witness_P_not_E is None
    assert report.witness_E_not_C is None
    assert report.witness_C_not_P0 is None


def test_verify_chain_counts_nest():
    report = verify_chain(500)
    assert report.ok
    assert report.count_P > report.count_E > report.count_C > report.count_P0


def test_verify_chain_bound_errors():
    with pytest.raises(ValueError):
        verify_chain(4)
    with pytest.raises(BoundTooLarge):
        verify_chain(100, oracle_ceiling=50)
    with pytest.raises(ValueError) as info:
        verify_chain(100, oracle_ceiling=0)
    assert info.type is ValueError
    assert str(info.value) == "oracle_ceiling must be >= 1, got 0"


# Fault injectors: each wraps a record source verify_chain calls in classify.
# Stream records are (c, a, b, i, j), yielded in bands (lists); tree
# multiples are (a, b, c, k, euclid), yielded one at a time.


def _per_record(edit):
    # A fault on a stream: its i-th record r overall (from 0) becomes the
    # records edit(i, r) lists, in r's band.
    def fault(stream):
        def faulted(c_max):
            i = count()
            for band in stream(c_max):
                yield [new for r in band for new in edit(next(i), r)]

        return faulted

    return fault


_drop_11th = _per_record(lambda i, r: [r] * (i != 10))
_repeat_11th = _per_record(lambda i, r: [r] * (1 + (i == 10)))
_both_leg_orders_of_11th = _per_record(
    lambda i, r: [r, (r[0], r[2], r[1], *r[3:])] if i == 10 else [r]
)


def _flip_mark_at(multiple):
    return lambda tree: lambda c_max: (
        (a, b, c, k, e != ((a, b, c, k) == multiple)) for a, b, c, k, e in tree(c_max)
    )


_LATTICE_DUPLICATE = "1 duplicate records in the lattice stream, e.g. (33, 56, 65)"


@pytest.mark.parametrize(
    "faults,expected",
    [
        (
            [("_lattice_records", _drop_11th)],
            (
                "1 primitive triples missing from the lattice set, e.g. (33, 56, 65)",
                "1 Euclid-minus-all-even triples missing from the lattice, "
                "e.g. (33, 56, 65)",
            ),
        ),
        (
            [
                (
                    "_tree_multiples",
                    lambda f: lambda c_max: (r for r in f(c_max) if r[:4] != (3, 4, 5, 1)),
                )
            ],
            (
                "1 Euclid triples missing from the oracle set, e.g. (3, 4, 5)",
                "primitivity mismatch at (m=1, n=1): (3, 4, 5)",
            ),
        ),
        (
            [
                (
                    "_lattice_records",
                    lambda f: lambda c_max: chain([[(15, 9, 12, 1, 1)]], f(c_max)),
                )
            ],
            (
                "1 lattice triples missing from the Euclid set, e.g. (9, 12, 15)",
                "1 lattice triples outside Euclid-minus-all-even, e.g. (9, 12, 15)",
                "primitivity mismatch at (m=1, n=1): (9, 12, 15)",
            ),
        ),
        (
            [
                (
                    "_is_primitive_at",
                    lambda f: lambda r, n: f(r, n) != ((r, n) == (3, 3)),
                )
            ],
            ("primitivity mismatch at (m=2, n=3): (27, 36, 45)",),
        ),
        ([("_lattice_records", _repeat_11th)], (_LATTICE_DUPLICATE,)),
        (
            [("_extended_records", _repeat_11th)],
            ("1 duplicate records in the Euclid stream, e.g. (32, 24, 40)",),
        ),
        (
            [
                ("_extended_records", _both_leg_orders_of_11th),
                ("_lattice_records", _repeat_11th),
            ],
            (
                _LATTICE_DUPLICATE,
                "1 duplicate records in the Euclid stream, e.g. (24, 32, 40)",
            ),
        ),
        (
            [
                (
                    "_extended_records",
                    _per_record(lambda i, r: [r] * (r[:3] != (40, 32, 24))),
                )
            ],
            (
                "1 tree-predicted Euclid triples missing from the Euclid stream, "
                "e.g. (24, 32, 40)",
            ),
        ),
        (
            [
                (
                    "_extended_records",
                    lambda f: lambda c_max: chain([[(30, 18, 24, 1, 1)]], f(c_max)),
                )
            ],
            ("1 Euclid triples outside the tree's prediction, e.g. (18, 24, 30)",),
        ),
        (
            [
                (
                    "_tree_multiples",
                    lambda f: lambda c_max: (
                        r for r in f(c_max) for _ in range(1 + (r[:4] == (12, 16, 20, 4)))
                    ),
                )
            ],
            ("1 duplicate records in the tree stream, e.g. (12, 16, 20)",),
        ),
        (
            [
                (
                    "_lattice_records",
                    lambda f: lambda c_max: chain(
                        f(c_max), [[(505, 217, 456, 4, 12), (1013, 45, 1012, 1, 22)]]
                    ),
                )
            ],
            (
                "2 lattice triples missing from the Euclid set, e.g. (217, 456, 505)",
                "2 lattice triples outside Euclid-minus-all-even, e.g. (217, 456, 505)",
                "primitivity mismatch at (m=4, n=12): (217, 456, 505)",
            ),
        ),
        (
            # The odd leg second hides the record from C's compare, and no
            # set check sees an orientation.
            [
                (
                    "_extended_records",
                    _per_record(
                        lambda i, r: [(r[0], r[2], r[1], *r[3:]) if r[:2] == (65, 33) else r]
                    ),
                )
            ],
            ("1 c-bands with differing hashes left unnamed, the first starting at c = 64",),
        ),
        (
            # k = 11 lies outside E, so no hash sees the tree multiple; only
            # the count of P by the primitive lattice rows' multiples does.
            [
                (
                    "_tree_multiples",
                    lambda f: lambda c_max: (r for r in f(c_max) if r[:4] != (33, 44, 55, 11)),
                )
            ],
            (
                "385 tree multiples, but the primitive lattice rows have 386 "
                "multiples up to c = 500",
            ),
        ),
        (
            [
                (
                    "_tree_multiples",
                    lambda f: lambda c_max: (
                        r for r in f(c_max) for _ in range(1 + (r[:4] == (33, 44, 55, 11)))
                    ),
                )
            ],
            (
                "387 tree multiples, but the primitive lattice rows have 386 "
                "multiples up to c = 500",
            ),
        ),
        (
            [("_tree_multiples", _flip_mark_at((24, 32, 40, 8)))],
            ("1 Euclid triples outside the tree's prediction, e.g. (24, 32, 40)",),
        ),
        (
            [("_tree_multiples", _flip_mark_at((15, 20, 25, 5)))],
            (
                "1 tree-predicted Euclid triples missing from the Euclid stream, "
                "e.g. (15, 20, 25)",
            ),
        ),
    ],
    ids=[
        "lattice-drop",
        "tree-drop",
        "lattice-extra",
        "primitivity-flip",
        "lattice-repeat",
        "euclid-repeat",
        "both-repeat-euclid-in-both-leg-orders",
        "euclid-drop-all-even",
        "euclid-extra-outside-e",
        "tree-repeat",
        "lattice-past-bound",
        "euclid-odd-leg-second",
        "tree-drop-outside-e",
        "tree-repeat-outside-e",
        "tree-mark-dropped",
        "tree-mark-added",
    ],
)
def test_verify_chain_reports_each_injected_fault(
    faults, expected, monkeypatch, capsys
):
    module = importlib.import_module("triple_lattice.classify")
    for name, fault in faults:
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert verify_chain(500).discrepancies == expected
    assert main(["verify", "--c-max", "500"]) == 5
    assert capsys.readouterr().err.splitlines() == [
        f"discrepancy: {text}" for text in expected
    ]


def test_verify_chain_names_only_the_bands_its_budget_allows(monkeypatch):
    # The Euclid repeat sits in a lower band than the lattice repeat.
    module = importlib.import_module("triple_lattice.classify")
    for name in ("_extended_records", "_lattice_records"):
        monkeypatch.setattr(module, name, _repeat_11th(getattr(module, name)))
    monkeypatch.setattr(module, "_NAMING_BUDGET", 1)
    assert verify_chain(500).discrepancies == (
        "1 duplicate records in the Euclid stream, e.g. (32, 24, 40)",
        "1 c-bands with differing hashes left unnamed, the first starting at c = 64",
    )


def test_verify_chain_naming_budget_counts_every_route(monkeypatch):
    # The six lattice records at c = 65, 145 and 265, in bands 8, 18 and 33,
    # each come twice.  A band is taken to hold 1/_BANDS of all three
    # routes' records, 386 P + 179 E + 99 C, so a budget of 23 names 2
    # bands; an estimate without E's count would name all 3.
    module = importlib.import_module("triple_lattice.classify")
    source = module._lattice_records

    def repeated(c_max):
        for band in source(c_max):
            yield [r for r in band for _ in range(1 + (r[0] in (65, 145, 265)))]

    monkeypatch.setattr(module, "_lattice_records", repeated)
    monkeypatch.setattr(module, "_NAMING_BUDGET", 23)
    assert verify_chain(500).discrepancies == (
        "4 duplicate records in the lattice stream, e.g. (33, 56, 65)",
        "1 c-bands with differing hashes left unnamed, the first starting at c = 259",
    )


def test_naming_pass_walks_no_further_than_its_highest_band(monkeypatch):
    # The dropped record (33, 56, 65) lies in band 8, whose top c is 71.
    module = importlib.import_module("triple_lattice.classify")
    bounds = []

    def logged(name, source):
        def stream(c_max):
            bounds.append((name, c_max))
            return source(c_max)

        return stream

    for name in ("_tree_multiples", "_extended_records", "_lattice_records"):
        monkeypatch.setattr(module, name, logged(name, getattr(module, name)))
    monkeypatch.setattr(module, "_lattice_records", _drop_11th(module._lattice_records))
    assert verify_chain(500).discrepancies == (
        "1 primitive triples missing from the lattice set, e.g. (33, 56, 65)",
        "1 Euclid-minus-all-even triples missing from the lattice, e.g. (33, 56, 65)",
    )
    assert bounds == [
        ("_tree_multiples", 500),
        ("_extended_records", 500),
        ("_lattice_records", 500),
        ("_tree_multiples", 71),
        ("_lattice_records", 71),
        ("_extended_records", 71),
    ]


@pytest.mark.parametrize(
    "name,fault",
    [
        ("_lattice_records", _drop_11th),
        ("_is_primitive_at", lambda f: lambda r, n: f(r, n) != ((r, n) == (3, 3))),
    ],
    ids=["lattice-drop", "primitivity-flip"],
)
def test_faulted_verify_chain_builds_a_triple_only_per_witness(name, fault, monkeypatch):
    # The first pass checks every record on plain ints and the naming pass
    # compares those same plain tuples, so only the witnesses become Triples.
    module = importlib.import_module("triple_lattice.classify")
    built = []

    def counting(*args):
        built.append(args)
        return Triple(*args)

    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    monkeypatch.setattr(module, "Triple", counting)
    assert verify_chain(500).discrepancies
    assert len(built) <= 3


@pytest.mark.parametrize(
    "name,corrupt,message",
    [
        # k = 5 lies outside E, so only the record's own check can see it.
        ("_tree_multiples", lambda a, b, c, k, e: (a, b, c + (k == 5), k, e),
         "not a Pythagorean triple: 15^2 + 20^2 != 26^2"),
        ("_lattice_records", lambda c, a, b, m, n: (c + 2 * (c == 65), a, b, m, n),
         "not a Pythagorean triple: 33^2 + 56^2 != 67^2"),
        # An index is hashed nowhere, so only its check can see it.
        ("_lattice_records", lambda c, a, b, m, n: (c, a, b, m * (c != 65), n),
         "m must be >= 1, got 0"),
        ("_extended_records", lambda c, a, b, mu, n: (c, a, b, mu, n * (c != 40)),
         "n must be >= 1, got 0"),
    ],
)
def test_verify_chain_checks_every_record(name, corrupt, message, monkeypatch):
    module = importlib.import_module("triple_lattice.classify")
    source = getattr(module, name)
    if name == "_tree_multiples":
        monkeypatch.setattr(module, name, lambda c_max: (corrupt(*r) for r in source(c_max)))
    else:
        monkeypatch.setattr(module, name, _per_record(lambda i, r: [corrupt(*r)])(source))
    with pytest.raises(ValueError) as info:
        verify_chain(500)
    assert str(info.value) == message
