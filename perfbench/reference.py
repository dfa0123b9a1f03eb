"""Independent references the correctness gate compares the package against.

Nothing here imports triple_lattice.  Every lattice triple is reached
through the Euclid pair u = n + 2m - 1, v = n, with (a, b, c) =
(u^2 - v^2, 2uv, u^2 + v^2): a different route from the package's column
walk, so a defect in one is not repeated in the other.
"""

from __future__ import annotations

from math import gcd, isqrt

U64_MAX = 2**64 - 1

#: sha256 of `triple-lattice enum` stdout, recorded from the first commit
#: of the package: (mode, format, c_max) -> hex digest.  The output bytes
#: must never change, so these stay pinned.
PINNED_ENUM_DIGESTS = {
    ('lattice', 'json-lines', 100000): "faae47b57273260fc5ae809e9abfa7091d24adbb0aa3097d242a76e10547abdb",
    ('lattice', 'json-lines', 99903): "0ff3de7d4792299d6a7b1d76d4b7532b959497641d4522cc196d472abf15d3ec",
    ('lattice', 'json-lines', 99806): "9e50821c0331d9a15c06530ce2e275be528fd40ae65ac3e26f791645fbd75f21",
    ('lattice', 'json-lines', 99709): "4179a70bcdce202d72a12991c1219d353154f376e623c4badb1cf446cb032c07",
    ('lattice', 'json-lines', 99612): "7f2dc720b11ac05adede1ace2a5fc650ef58a6ef6b9f1470ca82e5d3a51133bf",
    ('lattice', 'json-lines', 99515): "47ea164c791bc75be08e1d73664ad8aac91a7aab58108d6714f52e254d726e3d",
    ('lattice', 'json-lines', 99418): "ec94f272dc7c894e0378857cfcb21a7ea9671657f07a2b47cbc20e1da8694cd7",
    ('lattice', 'json-lines', 99321): "f7193eaaed05bfc2057f7c70bad3861dbcda7585f0be96f2cdd48eb3dd3d5f80",
    ('lattice', 'json-lines', 2000): "a853900d51a214116784b37ddef082d4f18bbf0a5641f5ed8ad4e0aba0d1822d",
    ('extended', 'csv', 50000): "d61e5143c8fda0b61948a318fa6a4603e3db85b039fab83e856d4d8c7a302e7f",
    ('extended', 'csv', 49911): "fe9199338303fec9f8f763f36cd072d533abeeca90cf045382638336b6b11245",
    ('extended', 'csv', 49822): "30dd603d03e7d11be569f2dcc8e891eb10b6c5e90d27c71de45e30d73fc731c7",
    ('extended', 'csv', 49733): "6dd40357d0ec5b377100188ee8276d16cacca50cd26c425b2c7dda62355298fc",
    ('extended', 'csv', 49644): "9e4200212ddd187ab2fa0c27d9cae6d874a6e89a376e9c941fc8db6d9a0e2318",
    ('extended', 'csv', 49555): "1dc495b5be17abc75e8b0aaca8d203f64b5f8e084c37e0389d59bdfbd4fa3121",
    ('extended', 'csv', 49466): "f227890f8e14c7e18b2cd2f99fa3eab40fea54e3ddb6beb77166a32f13246310",
    ('extended', 'csv', 49377): "b6a903f8077d7bfc567f394e730c12334c015847c4882e32130b1d813db25f74",
    ('extended', 'csv', 1000): "4f354115442207c6a4599a75ecf7277f435dec18176a39d81b9c7bf3ee924dcf",
}

#: Bounds the enum-stream workload draws from; each has a pinned digest.
LATTICE_BOUNDS = tuple(100_000 - 97 * i for i in range(8))
EXTENDED_BOUNDS = tuple(50_000 - 89 * i for i in range(8))
TINY_LATTICE_BOUND = 2_000
TINY_EXTENDED_BOUND = 1_000

#: verify_chain counts (P, E, C, P0) at the oracle ceiling, as published
#: with the package; the independent counts below must reproduce them.
PINNED_CHAIN_COUNTS = {10_000: (12_471, 3_842, 1_939, 1_593)}


def lattice_triple(m: int, n: int) -> tuple[int, int, int]:
    """(a, b, c) at lattice point (m, n), through its Euclid pair."""
    u, v = n + 2 * m - 1, n
    return u * u - v * v, 2 * u * v, u * u + v * v


def lattice_primitive(m: int, n: int) -> bool:
    return gcd(n + 2 * m - 1, n) == 1


def lattice_point(a: int, b: int, c: int) -> tuple[int, int] | None:
    """The (m, n) whose triple is (a, b, c), or None if there is none."""
    if a % 2 == 0 or b % 2 or c <= b:
        return None
    r = isqrt(c - b)  # r = u - v = 2m - 1
    if r * r != c - b:
        return None
    v = isqrt((c - a) // 2)  # c - a = 2v^2
    m = (r + 1) // 2
    if v < 1 or lattice_triple(m, v) != (a, b, c):
        return None
    return m, v


def _euclid_pairs(c_max: int, odd_gap: bool):
    """Every (u, v), u > v >= 1, with u^2 + v^2 <= c_max, v ascending.

    With odd_gap only pairs with u - v odd (the lattice points) are made.
    """
    v = 1
    while v * v + (v + 1) ** 2 <= c_max:
        top = isqrt(c_max - v * v)
        yield from ((u, v) for u in range(v + 1, top + 1, 2 if odd_gap else 1))
        v += 1


def lattice_count(c_max: int) -> int:
    """Number of lattice triples with c <= c_max."""
    total, v = 0, 1
    while v * v + (v + 1) ** 2 <= c_max:
        total += (isqrt(c_max - v * v) - v + 1) // 2
        v += 1
    return total


def extended_count(c_max: int) -> int:
    """Number of Euclid-form (mu, n) points with c <= c_max."""
    total, v = 0, 1
    while v * v + (v + 1) ** 2 <= c_max:
        total += isqrt(c_max - v * v) - v
        v += 1
    return total


def chain_counts(c_max: int) -> tuple[int, int, int, int]:
    """(|P|, |E|, |C|, |P0|) up to c_max, counted from primitive Euclid pairs.

    Every Pythagorean triple is k times exactly one primitive triple, and
    every primitive one comes from one coprime (u, v) of opposite parity.
    A triple is in E iff its own Euclid pair exists, so |E| is the number
    of pairs and |C| the number with u - v odd.
    """
    p = p0 = 0
    for u, v in _euclid_pairs(c_max, odd_gap=True):
        if gcd(u, v) == 1:
            p0 += 1
            p += c_max // (u * u + v * v)
    return p, extended_count(c_max), lattice_count(c_max), p0


def first_lattice_records(k: int) -> list[tuple[int, int, int, int, int]]:
    """The k (c, a)-smallest lattice records (m, n, a, b, c)."""
    bound = 8 * k + 64
    while lattice_count(bound) < k:
        bound *= 2
    records = []
    for u, v in _euclid_pairs(bound, odd_gap=True):
        m, n = (u - v + 1) // 2, v
        a, b, c = lattice_triple(m, n)
        records.append((m, n, a, b, c))
    records.sort(key=lambda r: (r[4], r[2]))
    return records[:k]
