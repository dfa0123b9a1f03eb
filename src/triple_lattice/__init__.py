"""Pythagorean triples as an exact (m, n) integer lattice.

Forward generation, exact inversion, primitivity, bounded series
enumeration, and classification against the chain P > E > C > P0, all in
pure integer arithmetic.

The public names are declared once, in the __all__ of classify, core and
series; the package exports exactly those lists, concatenated in that order.
"""

from .classify import *
from .classify import __all__ as _classify_names
from .core import *
from .core import __all__ as _core_names
from .series import *
from .series import __all__ as _series_names

__version__ = "0.1.0"

__all__ = _classify_names + _core_names + _series_names
