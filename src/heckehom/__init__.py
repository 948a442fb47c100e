"""Exact straightening of tableau homomorphisms for Hecke-algebra modules.

The library writes any tableau map between a Specht module and a
permutation module as an explicit combination of semistandard ones, with
coefficients in exact Laurent polynomials, and verifies every relation it
uses against a brute-force model of the algebra at small degree.

The names below are the public API that README lists; everything else
lives in its submodule.
"""

from .errors import (
    OracleCapError,
    ParseError,
    StraighteningError,
)
from .qcoeff import (
    LaurentPoly,
    quantum_binomial,
    quantum_int,
)
from .combinat import (
    Composition,
    Multiset,
    Partition,
    Tableau,
    enumerate_semistandard,
    is_semistandard,
    iter_fillings,
    iter_partitions,
    parse_tableau,
)
from .garnir import (
    GarnirDatum,
    LinComb,
    garnir_relation,
    iter_valid_data,
)
from .straighten import (
    semistandardize,
    semistandardize_lincomb,
    two_row_straighten_step,
)
from .hecke_oracle import (
    PropsReport,
    TabloidVector,
    image_h3,
    specht_check,
    verify_composition_props,
)

__version__ = "0.1.0"

__all__ = [
    "Composition",
    "GarnirDatum",
    "LaurentPoly",
    "LinComb",
    "Multiset",
    "OracleCapError",
    "ParseError",
    "Partition",
    "PropsReport",
    "StraighteningError",
    "Tableau",
    "TabloidVector",
    "enumerate_semistandard",
    "garnir_relation",
    "image_h3",
    "is_semistandard",
    "iter_fillings",
    "iter_partitions",
    "iter_valid_data",
    "parse_tableau",
    "quantum_binomial",
    "quantum_int",
    "semistandardize",
    "semistandardize_lincomb",
    "specht_check",
    "two_row_straighten_step",
    "verify_composition_props",
]
