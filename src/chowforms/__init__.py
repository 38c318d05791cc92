"""Exact Chow forms, Hurwitz forms and resultants over the integers."""

from .chow import Form, chow_bounds, chow_form, chow_form_ci
from .dimension import MultiprojVariety, RandomGrid, dim_projection
from .errors import (ChowformsError, DegenerateError, IndeterminateError,
                     InternalError, ParseError, UsageError)
from .hurwitz import hurwitz_form
from .mixedres import MultiResSystem
from .mpoly import (MPoly, VarTable, divexact, gcd, parse_poly,
                    square_free_part)
from .multiproj import (chow_hypersurface_formats, dim_table,
                        hurwitz_hypersurface_formats, multi_bounds,
                        multi_chow_form, multi_chow_form_ci, multidegree,
                        support)
from .polydet import PolyMatrix, det_bareiss, det_integer
from .polymatroid import Polymatroid, from_dim_table
from .resultant import MacaulaySystem, gcp_resultant, resultant_dense

__all__ = [
    "Form", "chow_bounds", "chow_form", "chow_form_ci",
    "MultiprojVariety", "RandomGrid", "dim_projection",
    "ChowformsError", "DegenerateError", "IndeterminateError",
    "InternalError", "ParseError", "UsageError",
    "hurwitz_form",
    "MultiResSystem",
    "MPoly", "VarTable", "divexact", "gcd",
    "parse_poly", "square_free_part",
    "chow_hypersurface_formats",
    "dim_table", "hurwitz_hypersurface_formats", "multi_bounds",
    "multi_chow_form", "multi_chow_form_ci",
    "multidegree", "support",
    "PolyMatrix", "det_bareiss", "det_integer",
    "Polymatroid", "from_dim_table",
    "MacaulaySystem", "gcp_resultant", "resultant_dense",
]
