"""Unit tests for the lattice maps, inverses and triple algebra."""

import copy
import dataclasses
import importlib
import pickle
import weakref
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import triple_lattice
from triple_lattice.classify import brute_force_triples, classify, verify_chain
from triple_lattice.core import (
    U64_MAX,
    Decomposition,
    EuclidParams,
    ExtendedIndex,
    InvalidDecomposition,
    LatticeIndex,
    NotInClassC,
    Triple,
    _abc,
    _is_primitive_at,
    canonicalize,
    compose_def,
    decompose,
    euclid_params_from_triple,
    euclid_triple,
    extended_triple,
    is_perfect_square,
    is_primitive_lattice,
    lattice_from_triple,
    triple_from_lattice,
)
from triple_lattice.series import lattice_enumerate

idx = st.integers(min_value=1, max_value=400)


def slot_values(value):
    # vars() for a slotted value: its fields by slot, in slot order.  An
    # unset slot raises AttributeError, so this is as strict as vars().
    assert not hasattr(value, "__dict__")
    return {name: getattr(value, name) for name in type(value).__slots__}


# -------------------------------------------------------------- public surface


def test_package_exports_exactly_the_submodule_names():
    # triple_lattice.classify is the function, so fetch modules by path.
    modules = [
        importlib.import_module(f"triple_lattice.{name}")
        for name in ("classify", "core", "series")
    ]
    names = triple_lattice.__all__
    assert len(names) == len(set(names))
    assert names == [name for module in modules for name in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(triple_lattice, name) is getattr(module, name), name
    namespace: dict = {}
    exec("from triple_lattice import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(names)


# ---------------------------------------------------------------- domain types


def test_triple_rejects_non_pythagorean():
    with pytest.raises(ValueError, match="not a Pythagorean triple"):
        Triple(3, 4, 6)


def test_triple_rejects_nonpositive():
    with pytest.raises(ValueError):
        Triple(0, 4, 5)


def test_triple_rejects_floats():
    with pytest.raises(TypeError):
        Triple(3.0, 4, 5)


def test_triple_rejects_oversized_components():
    # 2^33 * (3,4,5) scaled squarely: (3k, 4k, 5k) with 5k > U64_MAX
    k = 2**62
    with pytest.raises(OverflowError):
        Triple(3 * k, 4 * k, 5 * k)


@pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-2, 3)])
def test_lattice_index_requires_positive(m, n):
    with pytest.raises(ValueError):
        LatticeIndex(m, n)


# The constructors' error contract: which exception, with which message, for
# each kind of bad field, and that the first bad field in check order (each
# field's type and sign, then Triple's 64-bit width) is the one named.
_CONSTRUCTORS = [
    (Triple, ("a", "b", "c"), (3, 4, 5)),
    (LatticeIndex, ("m", "n"), (1, 1)),
    (ExtendedIndex, ("mu", "n"), (1, 1)),
]
_BAD_FIELDS = [
    (1.5, TypeError, "{} must be an int, got float"),
    ("3", TypeError, "{} must be an int, got str"),
    (None, TypeError, "{} must be an int, got NoneType"),
    (0, ValueError, "{} must be >= 1, got 0"),
    (-1, ValueError, "{} must be >= 1, got -1"),
    (False, ValueError, "{} must be >= 1, got False"),
]
_WIDE = U64_MAX + 1
_K = 2**62
_CONTRACT_CASES = [
    (cls, (*valid[:i], bad, *valid[i + 1 :]), exc, text.format(name))
    for cls, names, valid in _CONSTRUCTORS
    for i, name in enumerate(names)
    for bad, exc, text in _BAD_FIELDS
] + [
    (Triple, (_WIDE, 4, "5"), TypeError, "c must be an int, got str"),
    (Triple, (_WIDE, 0, 5), ValueError, "b must be >= 1, got 0"),
    (Triple, (3, _WIDE, _WIDE + 1), OverflowError,
     f"component {_WIDE} exceeds the checked 64-bit width"),
    (Triple, (3, 4, 6), ValueError, "not a Pythagorean triple: 3^2 + 4^2 != 6^2"),
    (Triple, (3 * _K, 4 * _K, 5 * _K), OverflowError,
     f"component {4 * _K} exceeds the checked 64-bit width"),
    (Triple, (True, 4, 5), ValueError, "not a Pythagorean triple: True^2 + 4^2 != 5^2"),
    (LatticeIndex, (_WIDE, None), TypeError, "n must be an int, got NoneType"),
    (LatticeIndex, (_WIDE, -1), ValueError, "n must be >= 1, got -1"),
    (ExtendedIndex, (_WIDE, 0.5), TypeError, "n must be an int, got float"),
    (ExtendedIndex, (_WIDE, 0), ValueError, "n must be >= 1, got 0"),
    # A negated leg keeps the identity, so only the fast test's sign clauses
    # send these to the per-field path.
    (Triple, (-3, 4, 5), ValueError, "a must be >= 1, got -3"),
    (Triple, (3, -4, 5), ValueError, "b must be >= 1, got -4"),
]


@pytest.mark.parametrize("cls,args,exc,message", _CONTRACT_CASES)
def test_constructor_error_contract(cls, args, exc, message):
    with pytest.raises(exc) as info:
        cls(*args)
    assert type(info.value) is exc
    assert str(info.value) == message


class _Int(int):
    # An int subclass: it fails Triple's inline test and takes the per-field
    # path, which accepts it.
    pass


# c = 2^64 - 1 exactly, 3 times a primitive triple.
_TOP = (10624282968577761639, 15080019175204220148, U64_MAX)


@pytest.mark.parametrize(
    "cls,args",
    [
        (Triple, (3 * 2**61, 4 * 2**61, 5 * 2**61)),
        (LatticeIndex, (True, 1)),
        (LatticeIndex, (_WIDE, _WIDE)),
        (ExtendedIndex, (1, True)),
        (ExtendedIndex, (_WIDE, 1)),
        (Triple, _TOP),
        (Triple, (_Int(_TOP[0]), *_TOP[1:])),
    ],
)
def test_constructor_accepts_int_subclasses_and_wide_indices(cls, args):
    # bool is an int, so True passes as 1; the width bound is Triple's alone,
    # and c may reach it.
    assert tuple(slot_values(cls(*args)).values()) == args


@pytest.mark.parametrize(
    "value",
    [
        Triple(3, 4, 5),
        LatticeIndex(2, 3),
        ExtendedIndex(2, 3),
        EuclidParams(2, 1),
        Decomposition(2, 6, 9),
        classify(27, 36, 45),
        verify_chain(100),
    ],
    ids=lambda value: type(value).__name__,
)
def test_every_dataclass_is_slotted(value):
    cls = type(value)
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
    with pytest.raises(TypeError):
        vars(value)
    with pytest.raises(TypeError):
        weakref.ref(value)
    for copied in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
        dataclasses.replace(value),
    ):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)
        assert slot_values(copied) == slot_values(value)


@pytest.mark.parametrize("u,v", [(2, 2), (1, 2), (3, 0)])
def test_euclid_params_require_descending(u, v):
    with pytest.raises(ValueError):
        EuclidParams(u, v)


@pytest.mark.parametrize("e,f,d", [(3, 2, 1), (2, 2, 2), (2, 0, 1)])
def test_decomposition_parity_validation(e, f, d):
    with pytest.raises(ValueError):
        Decomposition(e, f, d)


# Each value type with a valid instance's fields, its repr, and one field
# change that dataclasses.replace must reject with the constructor's error.
_VALUE_TYPES = [
    (Triple, {"a": 3, "b": 4, "c": 5}, "Triple(a=3, b=4, c=5)",
     {"c": 6}, ValueError, "not a Pythagorean triple: 3^2 + 4^2 != 6^2"),
    (LatticeIndex, {"m": 2, "n": 3}, "LatticeIndex(m=2, n=3)",
     {"n": 0}, ValueError, "n must be >= 1, got 0"),
    (ExtendedIndex, {"mu": 2, "n": 3}, "ExtendedIndex(mu=2, n=3)",
     {"mu": 1.0}, TypeError, "mu must be an int, got float"),
    (EuclidParams, {"u": 2, "v": 1}, "EuclidParams(u=2, v=1)",
     {"v": 2}, ValueError, "u must exceed v, got u=2, v=2"),
    (Decomposition, {"e": 2, "f": 6, "d": 9}, "Decomposition(e=2, f=6, d=9)",
     {"e": 3}, ValueError, "e must be even, got 3"),
]


@pytest.mark.parametrize(
    "cls,fields,text,change,exc,message", _VALUE_TYPES, ids=[c[0].__name__ for c in _VALUE_TYPES]
)
def test_value_type_contract(cls, fields, text, change, exc, message):
    value = cls(*fields.values())
    assert [f.name for f in dataclasses.fields(cls)] == list(fields)
    assert dataclasses.asdict(value) == fields
    assert repr(value) == text
    twin = cls(**fields)
    assert twin == value and hash(twin) == hash(value)
    assert twin is not value
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert dataclasses.asdict(value) == fields
    assert dataclasses.replace(value) == value
    with pytest.raises(exc) as info:
        dataclasses.replace(value, **change)
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize(
    "before,after",
    [
        ((3, 4, 5), (3, 4, 5)),
        ((4, 3, 5), (3, 4, 5)),
        ((8, 6, 10), (6, 8, 10)),
        ((6, 8, 10), (6, 8, 10)),
    ],
)
def test_canonicalize(before, after):
    got = canonicalize(Triple(*before))
    assert (got.a, got.b, got.c) == after


# ------------------------------------------------------------------ forward map


@pytest.mark.parametrize(
    "m,n,expected",
    [
        (1, 1, (3, 4, 5)),
        (2, 3, (27, 36, 45)),
        (5, 5, (171, 140, 221)),
        (3, 2, (45, 28, 53)),
    ],
)
def test_triple_from_lattice_golden(m, n, expected):
    t = triple_from_lattice(LatticeIndex(m, n))
    assert (t.a, t.b, t.c) == expected


@given(m=idx, n=idx)
def test_forward_residues_and_parity(m, n):
    t = triple_from_lattice(LatticeIndex(m, n))
    assert t.c - t.b == (2 * m - 1) ** 2
    assert t.c - t.a == 2 * n * n
    assert t.a % 2 == 1 and t.b % 2 == 0 and t.c % 2 == 1


def test_forward_overflow_boundary():
    ok = triple_from_lattice(LatticeIndex(2**31 - 1, 1))
    assert ok.c <= U64_MAX
    with pytest.raises(OverflowError):
        triple_from_lattice(LatticeIndex(2**31, 1))


# ------------------------------------------------------------------ inverse map


@pytest.mark.parametrize(
    "triple,expected",
    [((45, 28, 53), (3, 2)), ((3, 4, 5), (1, 1)), ((27, 36, 45), (2, 3))],
)
def test_lattice_from_triple_golden(triple, expected):
    got = lattice_from_triple(Triple(*triple))
    assert (got.m, got.n) == expected


@pytest.mark.parametrize(
    "triple,condition",
    [
        ((8, 6, 10), "is even"),
        ((9, 12, 15), "not a perfect square"),
        ((15, 20, 25), "not a perfect square"),
    ],
)
def test_lattice_from_triple_rejects_outsiders(triple, condition):
    with pytest.raises(NotInClassC, match=condition):
        lattice_from_triple(Triple(*triple))


def test_inverse_contract_over_every_triple_to_2000():
    lattice = set(lattice_enumerate(2000))
    for found in brute_force_triples(2000):
        for t in (found, Triple(found.b, found.a, found.c)):
            if t in lattice:
                assert triple_from_lattice(lattice_from_triple(t)) == t
            else:
                with pytest.raises(NotInClassC) as info:
                    lattice_from_triple(t)
                assert str(info.value) in (
                    f"a = {t.a} is even; lattice triples have a odd",
                    f"c - b = {t.c - t.b} is not a perfect square",
                )
            if t.a % 2:
                decompose(t)
            else:
                with pytest.raises(NotInClassC):
                    decompose(t)


@given(m=idx, n=idx)
def test_round_trip(m, n):
    t = triple_from_lattice(LatticeIndex(m, n))
    assert lattice_from_triple(t) == LatticeIndex(m, n)


# ----------------------------------------------------------------- primitivity


@pytest.mark.parametrize(
    "m,n,expected", [(2, 3, False), (1, 2, True), (1, 1, True), (3, 5, False)]
)
def test_is_primitive_lattice_golden(m, n, expected):
    assert is_primitive_lattice(LatticeIndex(m, n)) is expected


@given(m=st.integers(1, 150), n=st.integers(1, 150))
def test_primitivity_matches_component_gcd(m, n):
    t = triple_from_lattice(LatticeIndex(m, n))
    assert is_primitive_lattice(LatticeIndex(m, n)) == (
        gcd(gcd(t.a, t.b), t.c) == 1
    )


def test_column_primitivity_rule_matches_component_gcd_on_both_parities():
    # The paper's rule on column r, r odd (the lattice) and r even (the
    # extended form's all-even columns) alike; always a bool.
    for r in range(1, 201):
        for n in range(1, 201):
            got = _is_primitive_at(r, n)
            assert type(got) is bool
            assert got == (gcd(*_abc(r, n)) == 1), (r, n)


def test_column_form_matches_euclid_substitution_on_both_parities():
    # Column r at row n is Euclid's (u, v) = (n + r, n), by its own formula.
    for r in range(1, 201):
        for n in range(1, 201):
            t = euclid_triple(EuclidParams(n + r, n))
            assert _abc(r, n) == (t.a, t.b, t.c), (r, n)


# -------------------------------------------------------------- extended lattice


@pytest.mark.parametrize(
    "mu,n,expected",
    [(2, 1, (8, 6, 10)), (4, 2, (32, 24, 40)), (1, 1, (3, 4, 5))],
)
def test_extended_triple_golden(mu, n, expected):
    t = extended_triple(ExtendedIndex(mu, n))
    assert (t.a, t.b, t.c) == expected


@given(mu=st.integers(1, 200), n=st.integers(1, 200))
def test_extended_matches_euclid_substitution(mu, n):
    assert extended_triple(ExtendedIndex(mu, n)) == euclid_triple(
        EuclidParams(n + mu, n)
    )


def test_extended_triple_overflow_text():
    with pytest.raises(OverflowError) as info:
        extended_triple(ExtendedIndex(2**33, 2**33))
    assert str(info.value) == (
        "component 221360928884514619392 exceeds the checked 64-bit width"
    )


@given(mu=st.integers(1, 200), n=st.integers(1, 200))
def test_extended_parity_split(mu, n):
    t = extended_triple(ExtendedIndex(mu, n))
    if mu % 2:
        assert t.a % 2 == 1 and t.c % 2 == 1
        assert lattice_from_triple(t) == LatticeIndex((mu + 1) // 2, n)
    else:
        assert t.a % 2 == 0 and t.b % 2 == 0 and t.c % 2 == 0
        with pytest.raises(NotInClassC):
            lattice_from_triple(t)


# ---------------------------------------------------------------- Euclid's form


@pytest.mark.parametrize(
    "u,v,expected",
    [(2, 1, (3, 4, 5)), (6, 3, (27, 36, 45)), (3, 2, (5, 12, 13))],
)
def test_euclid_triple_golden(u, v, expected):
    t = euclid_triple(EuclidParams(u, v))
    assert (t.a, t.b, t.c) == expected


def test_euclid_triple_overflow():
    with pytest.raises(OverflowError):
        euclid_triple(EuclidParams(2**32, 1))


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((9, 12, 15), None),
        ((8, 6, 10), (3, 1)),
        ((3, 4, 5), (2, 1)),
        ((4, 3, 5), (2, 1)),
        ((12, 16, 20), (4, 2)),
        ((15, 20, 25), None),
    ],
)
def test_euclid_params_from_triple(triple, expected):
    got = euclid_params_from_triple(Triple(*triple))
    if expected is None:
        assert got is None
    else:
        assert (got.u, got.v) == expected


@given(u=st.integers(2, 300), v=st.integers(1, 299))
def test_euclid_params_reconstruction(u, v):
    if v >= u:
        u, v = v + 1, u
    t = euclid_triple(EuclidParams(u, v))
    assert euclid_params_from_triple(t) == EuclidParams(u, v)


@given(a=idx, b=idx)
def test_pythagorean_identity_everywhere(a, b):
    for t in (
        triple_from_lattice(LatticeIndex(a, b)),
        extended_triple(ExtendedIndex(a, b)),
        euclid_triple(EuclidParams(a + b, b)),
    ):
        assert t.a * t.a + t.b * t.b == t.c * t.c


# ---------------------------------------------------------------- decomposition


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((3, 4, 5), (2, 2, 1)),
        ((27, 36, 45), (18, 18, 9)),
        ((45, 28, 53), (8, 20, 25)),
    ],
)
def test_decompose_golden(triple, expected):
    got = decompose(Triple(*triple))
    assert (got.e, got.f, got.d) == expected


def test_decompose_requires_lattice_orientation():
    with pytest.raises(NotInClassC):
        decompose(Triple(8, 6, 10))


@pytest.mark.parametrize(
    "e,f,d,expected",
    [(2, 2, 1, (3, 4, 5)), (8, 20, 25, (45, 28, 53)), (18, 18, 9, (27, 36, 45))],
)
def test_compose_def_golden(e, f, d, expected):
    t = compose_def(e, f, d)
    assert (t.a, t.b, t.c) == expected


@pytest.mark.parametrize(
    "e,f,d",
    [
        (3, 2, 1),  # e not twice a square
        (4, 2, 1),  # e/2 = 2 is not a square
        (2, 2, 4),  # d an even square
        (2, 2, 3),  # d not a square
        (2, 4, 1),  # f inconsistent with e, d
        (0, 2, 1),  # e zero
        (-2, 2, 1),  # e negative
        (2, 2, 0),  # d zero
        (2, 2, -9),  # d negative
    ],
)
def test_compose_def_rejects_bad_vectors(e, f, d):
    with pytest.raises(InvalidDecomposition):
        compose_def(e, f, d)


@pytest.mark.parametrize("at", range(3), ids=["e", "f", "d"])
@pytest.mark.parametrize(
    "bad,kind", [(2.0, "float"), ("x", "str"), (None, "NoneType")], ids=["float", "str", "None"]
)
def test_compose_def_rejects_non_int_arguments(at, bad, kind):
    # Types are checked in order e, f, d before any value: the first non-int
    # argument is named, though the ones before it hold bad values and the
    # ones after it may be non-ints too.
    for later in (0, 1.5):
        with pytest.raises(TypeError) as info:
            compose_def(*[0] * at, bad, *[later] * (2 - at))
        assert str(info.value) == f"{'efd'[at]} must be an int, got {kind}"


@pytest.mark.parametrize(
    "e,f,d,text",
    [
        (3, 2, 1, "e = 3 is not twice a positive perfect square"),
        (0, 2, 1, "e = 0 is not twice a positive perfect square"),
        (-2, 2, 1, "e = -2 is not twice a positive perfect square"),
        (2, 2, 4, "d = 4 is not an odd perfect square"),
        (2, 2, -9, "d = -9 is not an odd perfect square"),
        (2, 4, 1, "f = 4 does not equal 2*sqrt(e/2)*sqrt(d) = 2"),
    ],
)
def test_compose_def_value_error_texts(e, f, d, text):
    with pytest.raises(InvalidDecomposition) as info:
        compose_def(e, f, d)
    assert str(info.value) == text


def test_compose_def_accepts_bool_as_int():
    # bool is an int here as in every other check: True is 1, a valid d.
    assert compose_def(2, 2, True) == Triple(3, 4, 5)
    with pytest.raises(InvalidDecomposition, match="e = True is not twice"):
        compose_def(True, 2, 1)


@given(m=idx, n=idx)
def test_compose_inverts_decompose(m, n):
    t = triple_from_lattice(LatticeIndex(m, n))
    parts = decompose(t)
    assert parts.e == 2 * n * n and parts.d == (2 * m - 1) ** 2
    assert compose_def(parts.e, parts.f, parts.d) == t


# -------------------------------------------------------------------- utilities


@pytest.mark.parametrize(
    "x,expected",
    [(0, True), (1, True), (2, False), (25, True), (26, False), (-4, False)],
)
def test_is_perfect_square(x, expected):
    assert is_perfect_square(x) is expected


@given(u=st.integers(2, 120), v=st.integers(1, 119))
def test_euclid_primitivity_rule(u, v):
    if v >= u:
        u, v = v + 1, u
    t = euclid_triple(EuclidParams(u, v))
    primitive = gcd(gcd(t.a, t.b), t.c) == 1
    assert primitive == (gcd(u, v) == 1 and (u - v) % 2 == 1)
