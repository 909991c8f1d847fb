"""Exact Stirling-number computation of Bernoulli/Euler-type families.

Everything is computed twice, by independent routes: closed forms built
from Stirling numbers on one side, coefficient extraction from truncated
generating series on the other.  All arithmetic is exact rational; there
are no tolerances anywhere.

The package exports ``__version__`` and the ``__all__`` of each of its
six library modules, in the order below; each public name is listed once,
in the module that defines it.  The command line (``stirnum.cli``) is not
re-exported.
"""

from . import errors, identities, rationals, sequences, series, stirling
from .errors import *
from .identities import *
from .rationals import *
from .sequences import *
from .series import *
from .stirling import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *identities.__all__,
    *rationals.__all__,
    *sequences.__all__,
    *series.__all__,
    *stirling.__all__,
]
