"""Pythagorean triples as an exact (m, n) integer lattice.

Forward generation, exact inversion, primitivity, bounded series
enumeration, and classification against the chain P > E > C > P0, all in
pure integer arithmetic.
"""

from .classify import (
    DEFAULT_ORACLE_CEILING,
    BoundTooLarge,
    ChainReport,
    ClassReport,
    berggren_triples,
    brute_force_triples,
    classify,
    verify_chain,
)
from .core import (
    U64_MAX,
    Decomposition,
    EuclidParams,
    ExtendedIndex,
    InvalidDecomposition,
    LatticeIndex,
    NotInClassC,
    Triple,
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
from .series import (
    MIN_HYPOTENUSE,
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

__version__ = "0.1.0"

__all__ = [
    "U64_MAX",
    "MIN_HYPOTENUSE",
    "DEFAULT_ORACLE_CEILING",
    "Triple",
    "LatticeIndex",
    "ExtendedIndex",
    "EuclidParams",
    "Decomposition",
    "ClassReport",
    "ChainReport",
    "NotInClassC",
    "InvalidDecomposition",
    "BoundTooLarge",
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
    "odd_series",
    "even_series",
    "lattice_enumerate",
    "lattice_enumerate_indexed",
    "extended_enumerate",
    "extended_enumerate_indexed",
    "pythagorean_family",
    "platonic_family",
    "diagonal_multiples",
    "classify",
    "berggren_triples",
    "brute_force_triples",
    "verify_chain",
]
