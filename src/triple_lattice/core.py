"""Exact integer arithmetic for Pythagorean triples on an (m, n) lattice.

A triple (a, b, c) with a odd, b even and c odd sits at exactly one lattice
point: c - b is an odd perfect square (2m-1)^2 and c - a is twice a perfect
square 2n^2.  This module holds the forward map, its exact inverse, the
classic two-parameter (u, v) form, the primitivity test, and the side
decomposition (e, f, d) = (c-a, a+b-c, c-b).

The lattice and the extended (mu, n) form are one column form: column r
holds (r(r + 2n), 2n(n + r), r(r + 2n) + 2n^2) at row n, with r = 2m - 1 on
the lattice and r = mu in the extended form.  _abc is that quadratic and
_is_primitive_at the paper's primitivity rule on it, r odd and
gcd(n, r) = 1; every lattice and extended triple and primitive flag in the
package comes from these two.  euclid_triple stays an independent route to
the same triples, and classify's gcd scale an independent test.

Everything is pure integer arithmetic: square roots come from math.isqrt
with an exact r*r == x verification, never floating point.  Components are
range-checked against a 64-bit bound so oversized results surface as
OverflowError instead of silently growing (Python integers never wrap;
the check keeps behaviour aligned with fixed-width ports).

The value types (Triple, LatticeIndex, ExtendedIndex, EuclidParams,
Decomposition) are slotted frozen dataclasses: each field lives in a slot,
and there is no instance __dict__.  Their own __init__ checks its
arguments first and only then writes each slot, so a valid value costs its
checks and its stores and nothing more.  dataclasses.replace goes through
the same __init__, so it checks too.  series._valid applies the index and
Triple checks to every plain record of the lattice and extended streams,
the CLI's rows and verify_chain; the indexed streams then write the same
slots for their index and Triple objects without a constructor call per
object.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

__all__ = [
    "U64_MAX",
    "Triple",
    "LatticeIndex",
    "ExtendedIndex",
    "EuclidParams",
    "Decomposition",
    "NotInClassC",
    "InvalidDecomposition",
    "is_perfect_square",
    "canonicalize",
    "triple_from_lattice",
    "lattice_from_triple",
    "is_primitive_lattice",
    "extended_triple",
    "euclid_triple",
    "euclid_params_from_triple",
    "decompose",
    "compose_def",
]

#: Largest value any triple component may take.
U64_MAX = 2**64 - 1

#: How the value types store a field on their frozen instances.
_set = object.__setattr__


class NotInClassC(ValueError):
    """The triple is not in the lattice class: a is even or c - b is not a square."""


class InvalidDecomposition(ValueError):
    """The (e, f, d) values do not describe any lattice triple."""


def is_perfect_square(x: int) -> bool:
    """True iff x is k*k for some integer k >= 0.  Exact, no floating point."""
    if x < 0:
        return False
    r = isqrt(x)
    return r * r == x


def _require_int(name: str, value: int) -> None:
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _require_positive_int(name: str, value: int, minimum: int = 1) -> None:
    _require_int(name, value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_triple(a: int, b: int, c: int) -> None:
    """Run every test Triple(a, b, c) makes, raising what it raises.

    A valid triple pays one inline test, the record rule's: series._valid
    runs the same text with the index on stream records, and every other
    triple, verify's tree multiples among them, comes here.  a and b lie
    below c once the identity holds, so only c meets U64_MAX.
    Only when that test fails do the per-field checks run, in order a, b,
    c, then the width and then the identity, so invalid input gets the
    error naming its first bad field.
    """
    if (
        type(a) is type(b) is type(c) is int
        and a > 0 and b > 0 and 0 < c <= U64_MAX and a * a + b * b == c * c
    ):
        return
    _require_positive_int("a", a)
    _require_positive_int("b", b)
    _require_positive_int("c", c)
    for v in (a, b, c):
        if v > U64_MAX:
            raise OverflowError(f"component {v} exceeds the checked 64-bit width")
    if a * a + b * b != c * c:
        raise ValueError(f"not a Pythagorean triple: {a}^2 + {b}^2 != {c}^2")


def _check_index(name: str, i: int, n: int) -> None:
    """Run every test an index (i, n) makes, its first field called name."""
    if not (type(i) is int and i > 0 and type(n) is int and n > 0):
        _require_positive_int(name, i)
        _require_positive_int("n", n)


@dataclass(frozen=True, slots=True)
class Triple:
    """An ordered Pythagorean triple: a*a + b*b == c*c, all components >= 1.

    Construction of a non-Pythagorean triple raises ValueError; components
    above U64_MAX raise OverflowError.  c > a and c > b follow from the
    identity.  Instances are immutable and hashable.  The tests live in
    _check_triple, which series._valid also runs on a plain record it rejects.
    """

    a: int
    b: int
    c: int

    def __init__(self, a: int, b: int, c: int) -> None:
        _check_triple(a, b, c)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)


@dataclass(frozen=True, slots=True)
class LatticeIndex:
    """Lattice point (m, n), m >= 1, n >= 1, addressing one triple."""

    m: int
    n: int

    def __init__(self, m: int, n: int) -> None:
        _check_index("m", m, n)
        _set(self, "m", m)
        _set(self, "n", n)


@dataclass(frozen=True, slots=True)
class ExtendedIndex:
    """Extended lattice point (mu, n) where mu replaces the odd value 2m-1.

    mu ranges over all positive integers: odd mu lands back on the (m, n)
    lattice, even mu produces triples whose components are all even.
    """

    mu: int
    n: int

    def __init__(self, mu: int, n: int) -> None:
        _check_index("mu", mu, n)
        _set(self, "mu", mu)
        _set(self, "n", n)


@dataclass(frozen=True, slots=True)
class EuclidParams:
    """Parameters (u, v), u > v >= 1, of the form (u^2-v^2, 2uv, u^2+v^2)."""

    u: int
    v: int

    def __init__(self, u: int, v: int) -> None:
        _require_positive_int("u", u)
        _require_positive_int("v", v)
        if u <= v:
            raise ValueError(f"u must exceed v, got u={u}, v={v}")
        _set(self, "u", u)
        _set(self, "v", v)


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Side differences (e, f, d) = (c - a, a + b - c, c - b) of a triple.

    For a lattice triple, e = 2n^2 and d = (2m-1)^2 and f = 2n(2m-1); the
    type itself only pins the parities: e positive even, f positive,
    d positive odd.
    """

    e: int
    f: int
    d: int

    def __init__(self, e: int, f: int, d: int) -> None:
        _require_positive_int("e", e)
        _require_positive_int("f", f)
        _require_positive_int("d", d)
        if e % 2:
            raise ValueError(f"e must be even, got {e}")
        if d % 2 == 0:
            raise ValueError(f"d must be odd, got {d}")
        _set(self, "e", e)
        _set(self, "f", f)
        _set(self, "d", d)


def canonicalize(t: Triple) -> Triple:
    """Return t with the odd leg in position a when leg parities differ.

    When both legs share a parity (necessarily both even) the legs are
    ordered ascending instead.
    """
    return t if _in_order(t.a, t.b) else Triple(t.b, t.a, t.c)


def _in_order(a: int, b: int) -> bool:
    """True iff legs (a, b) are canonically oriented, on plain ints: the odd
    leg first when the parities differ, else ascending."""
    return a % 2 == 1 if (a + b) % 2 else a <= b


def triple_from_lattice(idx: LatticeIndex) -> Triple:
    """Map lattice point (m, n) to its triple: column r = 2m - 1 of _abc.

    a = 4m^2 + 4nm - 4m - 2n + 1
    b = 2n^2 + 4nm - 2n
    c = a + 2n^2

    The result always has a odd, b even, c odd, with c - b = (2m-1)^2 and
    c - a = 2n^2.  Raises OverflowError past the 64-bit width.
    """
    return Triple(*_abc(2 * idx.m - 1, idx.n))


def _abc(r: int, n: int) -> tuple[int, int, int]:
    """Unvalidated (a, b, c) = (r(r + 2n), 2n(n + r), r(r + 2n) + 2n^2).

    The one column form: column r = 2m - 1 at row n is lattice point (m, n),
    and column r = mu is extended point (mu, n).  Its sides are
    (d, e, f) = (r^2, 2n^2, 2nr), so c - b = r^2 and c - a = 2n^2; an even r
    makes every component even.
    """
    twice_n = 2 * n
    a = r * (r + twice_n)
    return a, twice_n * (n + r), a + twice_n * n


def lattice_from_triple(t: Triple) -> LatticeIndex:
    """Recover the unique (m, n) with triple_from_lattice(m, n) == t.

    Raises NotInClassC unless a is odd and d = c - b is a square r^2; no
    other condition can fail once a^2 + b^2 = c^2 holds.  Two odd legs give
    c^2 = 2 (mod 4), so b is even, c, d and r are odd, and m = (r + 1)/2.
    With e = c - a and f = a + b - c > 0 the identity reads f^2 = 2ed, so
    the rational f/r has the even integer square 2e and is an even integer
    2n: f = 2nr, e = 2n^2, and (m, n) maps to (d + f, e + f, d + e + f) = t.
    """
    if t.a % 2 == 0:
        raise NotInClassC(f"a = {t.a} is even; lattice triples have a odd")
    d = t.c - t.b
    r = isqrt(d)
    if r * r != d:
        raise NotInClassC(f"c - b = {d} is not a perfect square")
    return LatticeIndex((1 + r) // 2, (t.a + t.b - t.c) // (2 * r))


def is_primitive_lattice(idx: LatticeIndex) -> bool:
    """True iff the triple at (m, n) is primitive: gcd(n, 2m-1) == 1.

    The paper's rule, _is_primitive_at on column r = 2m - 1.  2m-1 is odd,
    so even factors of n can never defeat the test; no special-casing is
    needed for even n.
    """
    return _is_primitive_at(2 * idx.m - 1, idx.n)


def _is_primitive_at(r: int, n: int) -> bool:
    """True iff _abc(r, n) is primitive: r odd and gcd(n, r) == 1, a bool.

    The paper's rule on plain ints, for the lattice (r = 2m - 1) and the
    extended form (r = mu) alike.  An even r makes every component even.
    With r odd, a is odd, so a prime divides all three components iff it
    divides c - a = 2n^2 and c - b = r^2, that is n and r.
    """
    return r % 2 == 1 and gcd(n, r) == 1


def extended_triple(idx: ExtendedIndex) -> Triple:
    """Map extended point (mu, n) to its triple: column r = mu of _abc.

    a = mu(2n + mu), b = 2n(n + mu), c = 2n^2 + mu(2n + mu); the same
    components, in the same order, as euclid_triple(u=n+mu, v=n), which
    reaches them by its own formula.
    """
    return Triple(*_abc(idx.mu, idx.n))


def euclid_triple(p: EuclidParams) -> Triple:
    """The triple (u^2 - v^2, 2uv, u^2 + v^2)."""
    u, v = p.u, p.v
    return Triple(u * u - v * v, 2 * u * v, u * u + v * v)


def euclid_params_from_triple(t: Triple) -> EuclidParams | None:
    """Recover (u, v) with euclid_triple(u, v) matching t's leg set, if any.

    Tries both leg orientations, solving u^2 = (c + x) / 2 and
    v^2 = (c - x) / 2 for the leg x placed in position a.  Returns None
    when no orientation works (the triple is outside the Euclid form).
    """
    for x in (t.a, t.b):
        if (t.c + x) % 2:
            continue
        us, vs = (t.c + x) // 2, (t.c - x) // 2
        u = isqrt(us)
        # us * vs = (c^2 - x^2) / 4 = (y/2)^2 for the other leg y, so once
        # us = u^2, vs is the square of the rational number (y/2)/u, and an
        # integer that is the square of a rational number is a perfect
        # square: vs = v^2, and 2uv = y.
        if u * u == us:
            return EuclidParams(u, isqrt(vs))
    return None


def decompose(t: Triple) -> Decomposition:
    """Split a lattice-oriented triple into (e, f, d) = (c-a, a+b-c, c-b).

    Requires a odd, else raises NotInClassC; b is then even, since two odd
    legs would give c^2 = 2 (mod 4).  Inverse of compose_def.
    """
    if t.a % 2 == 0:
        raise NotInClassC(f"a = {t.a} is even; decompose needs a odd")
    return Decomposition(e=t.c - t.a, f=t.a + t.b - t.c, d=t.c - t.b)


def compose_def(e: int, f: int, d: int) -> Triple:
    """Rebuild the triple (f+d, e+f, e+d+f) from a verified decomposition.

    Accepts only e = 2n^2, d = (2m-1)^2 and f = 2n(2m-1) for some positive
    integers m, n, and returns _abc(2m - 1, n); anything else raises
    InvalidDecomposition.  Each argument must be an int (bool included),
    checked in order e, f, d before any value, else TypeError.
    """
    for name, value in (("e", e), ("f", f), ("d", d)):
        _require_int(name, value)
    n = isqrt(max(e, 0) // 2)
    if n < 1 or 2 * n * n != e:
        raise InvalidDecomposition(f"e = {e} is not twice a positive perfect square")
    r = isqrt(max(d, 0))
    if r % 2 == 0 or r * r != d:
        raise InvalidDecomposition(f"d = {d} is not an odd perfect square")
    if f != 2 * n * r:
        raise InvalidDecomposition(
            f"f = {f} does not equal 2*sqrt(e/2)*sqrt(d) = {2 * n * r}"
        )
    return Triple(*_abc(r, n))
