"""Exact laboratory for character sums and equidistribution over F_q[t]."""

__version__ = "0.1.0"

from .algebra import (NEG_INF, Field, Poly, enumerate_GN, irreducibles,
                      is_irreducible, parse_poly, poly_crt, poly_from_index,
                      roots_mod)
from .errors import (BudgetError, DomainError, FFWeylError, HypothesisError,
                     PrecisionError)
from .expsum import CharSum, ExpPoly, e_of, orthogonality, twisted_sum, weyl_sum
from .kinfty import (RationalK, TruncSeries, kernel_element, ord_norm,
                     parse_kelem, tmap)

__all__ = [
    "__version__",
    "NEG_INF", "Field", "Poly", "enumerate_GN", "irreducibles",
    "is_irreducible", "parse_poly", "poly_crt", "poly_from_index", "roots_mod",
    "BudgetError", "DomainError", "FFWeylError", "HypothesisError",
    "PrecisionError",
    "CharSum", "ExpPoly", "e_of", "orthogonality", "twisted_sum", "weyl_sum",
    "RationalK", "TruncSeries", "kernel_element", "ord_norm", "parse_kelem",
    "tmap",
]
