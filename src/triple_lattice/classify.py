"""Membership classification against the chain P > E > C > P0.

P is the set of all Pythagorean triples, E those of the Euclid form
(u^2-v^2, 2uv, u^2+v^2), C the Euclid triples with one odd leg and odd
hypotenuse (the lattice domain), and P0 the primitive triples.  Each
inclusion is strict.

verify_chain checks the chain up to a bound by three routes, each walked
once on plain ints: the lattice stream, the Euclid stream, and the ternary
tree of primitive triples of Berggren (1934) and Hall (1970) from
(3, 4, 5) with every multiple up to the bound, which uses neither the
lattice nor the Euclid formula.  It folds each set into a count and
per-c-band multiset hashes, so its memory stays flat, and builds sets only
over the bands whose hashes disagree.  berggren_triples is the tree walk
as a set.  brute_force_triples, a plain double loop over legs with an
exact square lookup for the hypotenuse, is kept as the trusted small-bound
ground truth that the tests and the acceptance criteria compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import (
    EuclidParams,
    LatticeIndex,
    Triple,
    _check_triple,
    _in_order,
    _is_primitive_at,
    _require_positive_int,
    canonicalize,
    euclid_params_from_triple,
    lattice_from_triple,
)
from .series import MIN_HYPOTENUSE, _check_bound, _extended_records, _lattice_records, _valid

__all__ = [
    "DEFAULT_ORACLE_CEILING",
    "DEFAULT_VERIFY_CEILING",
    "BoundTooLarge",
    "ClassReport",
    "ChainReport",
    "classify",
    "berggren_triples",
    "brute_force_triples",
    "verify_chain",
]

#: Largest hypotenuse bound brute_force_triples and berggren_triples
#: accept by default.  Both return a whole set, which grows with the bound.
DEFAULT_ORACLE_CEILING = 10_000

#: Largest hypotenuse bound verify_chain accepts by default.  Its memory is
#: flat, so the bound only limits its run time, which grows with the bound.
DEFAULT_VERIFY_CEILING = 1_000_000

#: verify_chain hashes each set per band of this many equal slices of
#: (0, c_max] (c lies in band (c - 1) * _BANDS // c_max), plus an overflow
#: band _BANDS for any record past c_max, and builds sets only over the
#: bands that disagree.
_BANDS = 64

#: Most records, summed over the three routes, whose bands verify_chain
#: rebuilds as sets to name discrepancies; any further bad bands are only
#: counted.  Every band fits up to c_max = 10^5.
_NAMING_BUDGET = 250_000


class BoundTooLarge(ValueError):
    """Requested bound exceeds the configured oracle ceiling."""


@dataclass(frozen=True, slots=True)
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


#: classify's report on every non-triple; immutable, so one serves all.
_NOT_A_TRIPLE = ClassReport(in_P=False, in_E=False, in_C=False, in_P0=False)


def classify(x: int, y: int, z: int) -> ClassReport:
    """Classify three positive integers, in any order, against the chain.

    The largest value is taken as the candidate hypotenuse and both leg
    orientations are tried where orientation matters.  A non-Pythagorean
    candidate yields a report with every flag false, never an exception;
    every such call returns the same immutable report, so callers must
    compare reports with ==, not rely on their identity.
    """
    # One combined test; the per-argument checks run only when it fails, so
    # bad input still gets the error naming its first bad argument.
    if not (type(x) is int and type(y) is int and type(z) is int and x > 0 and y > 0 and z > 0):
        for name, value in (("x", x), ("y", y), ("z", z)):
            _require_positive_int(name, value)
    lo, mid, hi = sorted((x, y, z))
    if lo * lo + mid * mid != hi * hi:
        return _NOT_A_TRIPLE
    if not _in_order(lo, mid):
        lo, mid = mid, lo
    t = Triple(lo, mid, hi)
    scale = gcd(lo, mid, hi)
    params = euclid_params_from_triple(t)
    in_e = params is not None
    in_c = in_e and (lo + mid) % 2 == 1
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
    _require_positive_int("oracle_ceiling", oracle_ceiling)
    if c_max > oracle_ceiling:
        raise BoundTooLarge(
            f"c_max = {c_max} exceeds the oracle ceiling {oracle_ceiling}"
        )
    _check_bound(c_max)


def brute_force_triples(
    c_max: int, oracle_ceiling: int = DEFAULT_ORACLE_CEILING
) -> set[Triple]:
    """Every Pythagorean triple with c <= c_max, by exhaustive leg search.

    Triples are stored canonically: odd leg in position a when the leg
    parities differ, legs ascending otherwise.  Raises BoundTooLarge when
    c_max exceeds oracle_ceiling, and OverflowError when a ceiling that
    high lets through a c_max above U64_MAX.
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
    branch is cut at its first node past c_max, which is never pushed.
    """
    stack = [(3, 4, 5)] if c_max >= 5 else []
    push = stack.append
    while stack:
        a, b, c = stack.pop()
        yield a, b, c
        if (z := 2 * a - 2 * b + 3 * c) <= c_max:
            push((a - 2 * b + 2 * c, 2 * a - b + 2 * c, z))
        if (z := 2 * a + 2 * b + 3 * c) <= c_max:
            push((a + 2 * b + 2 * c, 2 * a + b + 2 * c, z))
        if (z := 2 * b - 2 * a + 3 * c) <= c_max:
            push((2 * b - a + 2 * c, b - 2 * a + 2 * c, z))


def _tree_multiples(c_max: int):
    """Yield (a, b, c, k, euclid) for k times each tree primitive, c <= c_max.

    euclid marks the Euclid triples: k p = (u^2 - v^2, 2uv, u^2 + v^2)
    needs k = s^2 (u, v = s times p's pair) or k = 2 s^2 (u, v = s times
    the sum and difference of p's pair); k p has an odd leg, so lies in the
    lattice set, iff k is odd.  The triples come out as plain tuples,
    unchecked: berggren_triples builds each as a Triple, and verify_chain
    runs core._check_triple on each, as a multiple carries no index for
    series._valid.
    """
    for a, b, c in _berggren_primitives(c_max):
        # core._in_order's orientation, settled once per primitive: an odd k
        # keeps one leg odd, so it goes first; an even k makes both legs
        # even, so they ascend.
        odd, even = (a, b) if a % 2 else (b, a)
        lo, hi = (a, b) if a < b else (b, a)
        # sq is the least s^2 at or above k and, on even k, tw the least
        # 2 t^2.  One step each keeps up: squares lie at least 3 apart and
        # twice-squares at least 6, further than k moves between steps.
        s, sq, t, tw = 1, 1, 1, 2
        for k in range(1, c_max // c + 1):
            if sq < k:
                s += 1
                sq = s * s
            if k & 1:
                yield k * odd, k * even, k * c, k, k == sq
            else:
                if tw < k:
                    t += 1
                    tw = 2 * t * t
                yield k * lo, k * hi, k * c, k, k == sq or k == tw


def berggren_triples(
    c_max: int, oracle_ceiling: int = DEFAULT_ORACLE_CEILING
) -> set[Triple]:
    """Every Pythagorean triple with c <= c_max: k times each tree primitive.

    Returns the same set as brute_force_triples, in the same canonical
    orientation, and raises the same errors for the same bounds.
    """
    _check_oracle_bound(c_max, oracle_ceiling)
    return {Triple(a, b, c) for a, b, c, _, _ in _tree_multiples(c_max)}


@dataclass(frozen=True, slots=True)
class ChainReport:
    """Outcome of one chain verification run.

    Witnesses are the (c, a)-smallest member of each strict-inclusion gap,
    or None when the bound is too small for the gap to be populated; the
    E-minus-C witness keeps the Euclid formula orientation.  Each count is
    the number of records its route yielded, which is the size of the set
    when the routes agree.  An empty discrepancies tuple means every
    cross-route check agreed.
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


def verify_chain(
    c_max: int, oracle_ceiling: int = DEFAULT_VERIFY_CEILING
) -> ChainReport:
    """Check the chain up to c_max by three independent routes, compared
    through per-band multiset hashes.

    The routes are each walked once on plain ints: the Berggren tree
    multiples (P, and P0 at k = 1), the Euclid stream (E) and the lattice
    stream (C, and its rows with gcd(n, 2m - 1) = 1).  The tree also
    predicts E from k alone: _tree_multiples marks each multiple whose k
    is s^2 or 2 s^2, with four ints however far k runs.  Each set folds
    into a count and, per c-band, a multiset hash: the sum of
    hash((a, b, c)) over its canonically oriented triples, so their memory
    stays flat.  Three pairs of sets must have equal sums in every band: E
    and the tree's prediction of it, C and E's odd-leg records (C is E
    minus its all-even triples), and the primitive lattice rows and P0.  A
    dropped, repeated or extra record changes its band's sum; a record
    past c_max lands in the overflow band.
    Only the bands where a pair differs are rebuilt as sets, by
    _name_discrepancies, to name what differs, and only the lowest of them
    that fit _NAMING_BUDGET records, so a fault in every band still runs in
    bounded memory; one more text counts the bands left unnamed, or every
    bad band when none of them yields a text.  P is also counted by a
    second route: each primitive lattice row at c has c_max // c multiples
    up to c_max, so when every hash agrees their sum must equal the tree's
    count; if it does not, and no other text was produced, one text says
    so.  Every stream record passes series._valid, and every tree multiple
    _check_triple: the tests their constructors make, so an invalid record
    raises; so do bound errors.
    """
    _check_oracle_bound(c_max, oracle_ceiling, MIN_HYPOTENUSE)
    # Each pair's sums as one signed sum per band: E minus its prediction,
    # C minus E's odd legs, primitive lattice rows minus P0.
    e_gap, c_gap, p0_gap = ([0] * (_BANDS + 1) for _ in range(3))

    count_p = count_p0 = 0
    witness_p_not_e = least = None
    for a, b, c, k, euclid in _tree_multiples(c_max):
        _check_triple(a, b, c)
        count_p += 1
        if euclid:
            i = (c - 1) * _BANDS // c_max if c <= c_max else _BANDS
            h = hash((a, b, c))
            e_gap[i] -= h
            if k == 1:
                p0_gap[i] -= h
                count_p0 += 1
        elif k == 3 and (least is None or (c, a) < least):
            # No k below 3 falls outside E, so some 3p is the least of P - E.
            least, witness_p_not_e = (c, a), (a, b, c)

    count_e = 0
    witness_e_not_c = None
    for band in _valid(_extended_records(c_max), "mu"):
        # Each band's enumerate counts on from the last band's count.
        for count_e, (c, a, b, mu, n) in enumerate(band, count_e + 1):
            i = (c - 1) * _BANDS // c_max if c <= c_max else _BANDS
            if a % 2:
                h = hash((a, b, c))
                c_gap[i] -= h
            else:
                h = hash((a, b, c) if _in_order(a, b) else (b, a, c))
                if witness_e_not_c is None:
                    witness_e_not_c = (a, b, c)
            e_gap[i] += h

    count_c = multiples = 0
    witness_c_not_p0 = None
    for band in _valid(_lattice_records(c_max), "m"):
        for count_c, (c, a, b, m, n) in enumerate(band, count_c + 1):
            i = (c - 1) * _BANDS // c_max if c <= c_max else _BANDS
            h = hash((a, b, c))
            c_gap[i] += h
            if _is_primitive_at(2 * m - 1, n):
                p0_gap[i] += h
                multiples += c_max // c
            elif witness_c_not_p0 is None:
                witness_c_not_p0 = (a, b, c)

    bad = [i for i in range(_BANDS + 1) if e_gap[i] or c_gap[i] or p0_gap[i]]
    texts: tuple[str, ...] = ()
    if bad:
        # A band holds about 1/_BANDS of each route's records.
        named = max(1, _NAMING_BUDGET * _BANDS // (count_p + count_e + count_c + 1))
        texts = _name_discrepancies(c_max, set(bad[:named]))
        rest = bad[named:] if texts else bad
        if rest:
            start = -(-rest[0] * c_max // _BANDS) + 1
            texts += (
                f"{len(rest)} c-bands with differing hashes left unnamed, "
                f"the first starting at c = {start}",
            )
    if not texts and multiples != count_p:
        texts = (
            f"{count_p} tree multiples, but the primitive lattice rows have "
            f"{multiples} multiples up to c = {c_max}",
        )
    return ChainReport(
        c_max=c_max,
        count_P=count_p,
        count_E=count_e,
        count_C=count_c,
        count_P0=count_p0,
        witness_P_not_E=witness_p_not_e and Triple(*witness_p_not_e),
        witness_E_not_C=witness_e_not_c and Triple(*witness_e_not_c),
        witness_C_not_P0=witness_c_not_p0 and Triple(*witness_c_not_p0),
        discrepancies=texts,
    )


def _name_discrepancies(c_max: int, bands: set[int]) -> tuple[str, ...]:
    """Walk the routes again, build sets over the given c-bands only, and
    name what differs there, in the order and words of a whole-set compare.

    The sets hold the routes' plain (a, b, c) tuples, which verify_chain's
    first pass has already checked, each compared in core._in_order's
    orientation.  A band whose sums agree holds no discrepancy of any kind
    below, so the texts (counts, samples, the first repeat or mismatch in
    stream order) are those a compare of the whole sets would give.  The
    last three checks, against the tree's prediction of E and for repeated
    tree multiples, name only triples no earlier check names.  Each route is
    walked only up to top, the highest named band's upper c (c_max for the
    overflow band), as below any bound it yields the same records in the
    same order: the streams run in (c, a) order, the tree cuts a branch at
    its first node past the bound and children only grow, and multiples
    run k upward.  Bands are still taken against c_max.  The tree's
    prediction of E is the multiples _tree_multiples marks, as in the
    first pass.
    """
    top = c_max if _BANDS in bands else -(-(max(bands) + 1) * c_max // _BANDS)

    def inside(c: int) -> bool:
        return ((c - 1) * _BANDS // c_max if c <= c_max else _BANDS) in bands

    def oriented(t: tuple[int, int, int]) -> tuple[int, int, int]:
        a, b, c = t
        return t if _in_order(a, b) else (b, a, c)

    tree = [((a, b, c), k, e) for a, b, c, k, e in _tree_multiples(top) if inside(c)]
    p_set = {t for t, _, _ in tree}
    p0_set = {t for t, k, _ in tree if k == 1}
    e_predicted = {t for t, _, e in tree if e}
    c_pairs = [((m, n), (a, b, c)) for band in _lattice_records(top)
               for c, a, b, m, n in band if inside(c)]
    c_set = {t for _, t in c_pairs}
    e_records = [(a, b, c) for band in _extended_records(top)
                 for c, a, b, _, _ in band if inside(c)]
    e_set = set(map(oriented, e_records))

    discrepancies: list[str] = []
    named: set[tuple[int, int, int]] = set()

    def leak(kind: str, extras, sample: tuple[int, int, int] | None = None) -> None:
        if extras:
            sample = sample or min(extras, key=lambda t: (t[2], t[0]))
            discrepancies.append(f"{len(extras)} {kind}, e.g. {sample}")
            named.update(map(oriented, extras))

    def repeats(stream: str, records) -> None:
        seen: set[tuple[int, int, int]] = set()
        rep = [t for t in records if (k := oriented(t)) in seen or seen.add(k)]
        leak(f"duplicate records in the {stream} stream", rep, rep and rep[0])

    leak("Euclid triples missing from the oracle set", e_set - p_set)
    leak("lattice triples missing from the Euclid set", c_set - e_set)
    leak("primitive triples missing from the lattice set", p0_set - c_set)
    # The lattice set must be exactly the Euclid set minus its all-even
    # members (an all-even member keeps both legs even when oriented).
    not_all_even = {t for t in e_set if t[0] % 2 or t[1] % 2}
    leak("lattice triples outside Euclid-minus-all-even", c_set - not_all_even)
    leak("Euclid-minus-all-even triples missing from the lattice", not_all_even - c_set)
    repeats("lattice", (t for _, t in c_pairs))
    repeats("Euclid", e_records)
    for (m, n), t in c_pairs:
        if _is_primitive_at(2 * m - 1, n) != (t in p0_set):
            discrepancies.append(f"primitivity mismatch at (m={m}, n={n}): {t}")
            named.add(t)
            break
    # What the checks above left unnamed, such as a dropped all-even record.
    leak("tree-predicted Euclid triples missing from the Euclid stream",
         e_predicted - e_set - named)
    leak("Euclid triples outside the tree's prediction", e_set - e_predicted - named)
    repeats("tree", (t for t, _, _ in tree if t not in named))
    return tuple(discrepancies)
