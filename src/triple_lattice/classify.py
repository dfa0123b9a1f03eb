"""Membership classification against the chain P > E > C > P0.

P is the set of all Pythagorean triples, E those of the Euclid form
(u^2-v^2, 2uv, u^2+v^2), C the Euclid triples with one odd leg and odd
hypotenuse (the lattice domain), and P0 the primitive triples.  Each
inclusion is strict.

P and P0 are rebuilt without the lattice or the Euclid formula.
berggren_triples, verify_chain's route to them, walks the ternary tree of
primitive triples of Berggren (1934) and Hall (1970) from (3, 4, 5) and
adds every multiple up to the bound, in near-linear time.
brute_force_triples, a plain double loop over legs with an exact square
lookup for the hypotenuse, is kept as the trusted small-bound ground truth
that the tests and the acceptance criteria compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import (
    EuclidParams,
    LatticeIndex,
    Triple,
    _require_positive_int,
    canonicalize,
    euclid_params_from_triple,
    is_primitive_lattice,
    lattice_from_triple,
)
from .series import MIN_HYPOTENUSE, extended_enumerate, lattice_enumerate_indexed

__all__ = [
    "DEFAULT_ORACLE_CEILING",
    "BoundTooLarge",
    "ClassReport",
    "ChainReport",
    "classify",
    "berggren_triples",
    "brute_force_triples",
    "verify_chain",
]

#: Largest hypotenuse bound the oracles accept by default.  Both build
#: their whole set in memory, which grows with the bound.
DEFAULT_ORACLE_CEILING = 10_000


class BoundTooLarge(ValueError):
    """Requested bound exceeds the configured oracle ceiling."""


@dataclass(frozen=True)
class ClassReport:
    """Membership flags for one candidate triple, plus recovered parameters.

    The flags always satisfy in_P0 => in_C => in_E => in_P.  lattice is
    present iff in_C, euclid iff in_E, and triple/scale iff in_P; triple is
    the canonically oriented input and scale its gcd (1 for primitives).
    """

    in_P: bool
    in_E: bool
    in_C: bool
    in_P0: bool
    lattice: LatticeIndex | None = None
    euclid: EuclidParams | None = None
    scale: int | None = None
    triple: Triple | None = None


def classify(x: int, y: int, z: int) -> ClassReport:
    """Classify three positive integers, in any order, against the chain.

    The largest value is taken as the candidate hypotenuse and both leg
    orientations are tried where orientation matters.  A non-Pythagorean
    candidate yields a report with every flag false, never an exception.
    """
    for name, value in (("x", x), ("y", y), ("z", z)):
        _require_positive_int(name, value)
    lo, mid, hi = sorted((x, y, z))
    if lo * lo + mid * mid != hi * hi:
        return ClassReport(in_P=False, in_E=False, in_C=False, in_P0=False)
    t = canonicalize(Triple(lo, mid, hi))
    scale = gcd(t.a, t.b, t.c)
    params = euclid_params_from_triple(t)
    in_e = params is not None
    in_c = in_e and (t.a + t.b) % 2 == 1
    return ClassReport(
        in_P=True,
        in_E=in_e,
        in_C=in_c,
        in_P0=scale == 1,
        lattice=lattice_from_triple(t) if in_c else None,
        euclid=params,
        scale=scale,
        triple=t,
    )


def _check_oracle_bound(c_max: int, oracle_ceiling: int, minimum: int = 1) -> None:
    _require_positive_int("c_max", c_max, minimum)
    if c_max > oracle_ceiling:
        raise BoundTooLarge(
            f"c_max = {c_max} exceeds the oracle ceiling {oracle_ceiling}"
        )


def brute_force_triples(
    c_max: int, oracle_ceiling: int = DEFAULT_ORACLE_CEILING
) -> set[Triple]:
    """Every Pythagorean triple with c <= c_max, by exhaustive leg search.

    Triples are stored canonically: odd leg in position a when the leg
    parities differ, legs ascending otherwise.  Raises BoundTooLarge when
    c_max exceeds oracle_ceiling.
    """
    _check_oracle_bound(c_max, oracle_ceiling)
    squares = {c * c: c for c in range(1, c_max + 1)}
    limit = c_max * c_max
    found: set[Triple] = set()
    for x in range(1, c_max):
        xx = x * x
        if xx + xx > limit:
            break
        for y in range(x, c_max):
            s = xx + y * y
            if s > limit:
                break
            c = squares.get(s)
            if c is not None:
                found.add(canonicalize(Triple(x, y, c)))
    return found


def _berggren_primitives(c_max: int):
    """Yield each primitive triple with c <= c_max once, as (a, b, c) ints.

    Depth first over the Berggren tree on an explicit stack.  Each of the
    three matrices maps a primitive triple to one with a larger c, so a
    branch is cut at its first node past c_max.
    """
    stack = [(3, 4, 5)]
    while stack:
        a, b, c = stack.pop()
        if c > c_max:
            continue
        yield a, b, c
        stack.append((a - 2 * b + 2 * c, 2 * a - b + 2 * c, 2 * a - 2 * b + 3 * c))
        stack.append((a + 2 * b + 2 * c, 2 * a + b + 2 * c, 2 * a + 2 * b + 3 * c))
        stack.append((2 * b - a + 2 * c, b - 2 * a + 2 * c, 2 * b - 2 * a + 3 * c))


def berggren_triples(
    c_max: int, oracle_ceiling: int = DEFAULT_ORACLE_CEILING
) -> set[Triple]:
    """Every Pythagorean triple with c <= c_max: k times each tree primitive.

    Returns the same set as brute_force_triples, in the same canonical
    orientation (odd leg first for odd k, legs ascending for even k), and
    raises the same errors for the same bounds.  The orientation is set
    directly rather than by canonicalize, which builds a second Triple for
    half of the multiples and made verify slower and its peak RSS larger.
    """
    _check_oracle_bound(c_max, oracle_ceiling)
    found: set[Triple] = set()
    for a, b, c in _berggren_primitives(c_max):
        odd, even = (a, b) if a % 2 else (b, a)
        lo, hi = min(a, b), max(a, b)
        for k in range(1, c_max // c + 1):
            if k % 2:
                found.add(Triple(k * odd, k * even, k * c))
            else:
                found.add(Triple(k * lo, k * hi, k * c))
    return found


@dataclass(frozen=True)
class ChainReport:
    """Outcome of one chain verification run.

    Witnesses are the (c, a)-smallest member of each strict-inclusion gap,
    or None when the bound is too small for the gap to be populated; the
    E-minus-C witness keeps the Euclid formula orientation.  An empty
    discrepancies tuple means every cross-route check agreed.
    """

    c_max: int
    count_P: int
    count_E: int
    count_C: int
    count_P0: int
    witness_P_not_E: Triple | None
    witness_E_not_C: Triple | None
    witness_C_not_P0: Triple | None
    discrepancies: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _smallest(triples) -> Triple | None:
    return min(triples, key=lambda t: (t.c, t.a), default=None)


def verify_chain(
    c_max: int, oracle_ceiling: int = DEFAULT_ORACLE_CEILING
) -> ChainReport:
    """Rebuild the four sets up to c_max by independent routes and compare.

    P comes from the Berggren-tree oracle and P0 is its primitive part; E
    comes from the extended enumeration and C from the lattice enumeration.
    brute_force_triples builds the same P by an O(c_max^2) search and is
    what the tests check the tree against at small bounds.  Any inclusion
    failure, repeated stream record or cross-route disagreement lands in
    the discrepancy list rather than raising; only bound errors raise.
    """
    _check_oracle_bound(c_max, oracle_ceiling, MIN_HYPOTENUSE)
    p_set = berggren_triples(c_max, oracle_ceiling)
    p0_set = {t for t in p_set if gcd(t.a, t.b, t.c) == 1}
    c_pairs = list(lattice_enumerate_indexed(c_max))
    c_set = {t for _, t in c_pairs}
    # One pass over the Euclid stream.  It runs by c ascending, then a, so
    # its first triple outside C is the (c, a)-smallest one.
    e_set: set[Triple] = set()
    e_count = 0
    witness_e_not_c = None
    for e_count, t in enumerate(extended_enumerate(c_max), 1):
        canon = canonicalize(t)
        e_set.add(canon)
        if witness_e_not_c is None and canon not in c_set:
            witness_e_not_c = t

    discrepancies: list[str] = []

    def leak(kind: str, extras, sample: Triple | None = None) -> None:
        if extras:
            sample = sample or _smallest(extras)
            discrepancies.append(
                f"{len(extras)} {kind}, e.g. ({sample.a}, {sample.b}, {sample.c})"
            )

    def repeats(stream: str, count: int, distinct: int, records) -> None:
        if count > distinct:  # walk the stream again for its first repeat
            seen: set[Triple] = set()
            rep = [t for t in records if (k := canonicalize(t)) in seen or seen.add(k)]
            leak(f"duplicate records in the {stream} stream", rep, rep[0])

    leak("Euclid triples missing from the oracle set", e_set - p_set)
    leak("lattice triples missing from the Euclid set", c_set - e_set)
    leak("primitive triples missing from the lattice set", p0_set - c_set)
    # The lattice set must be exactly the Euclid set minus its all-even
    # members (an all-even member keeps both legs even after canonicalizing).
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
        witness_P_not_E=_smallest(p_set - e_set),
        witness_E_not_C=witness_e_not_c,
        witness_C_not_P0=_smallest(c_set - p0_set),
        discrepancies=tuple(discrepancies),
    )
