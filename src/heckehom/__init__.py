"""Exact straightening of tableau homomorphisms for Hecke-algebra modules.

The library writes any tableau map between a Specht module and a
permutation module as an explicit combination of semistandard ones, with
coefficients in exact Laurent polynomials, and verifies every relation it
uses against a brute-force model of the algebra at small degree.
"""

from .errors import (
    OracleCapError,
    ParseError,
    StraighteningError,
)
from .qcoeff import (
    LaurentPoly,
    quantum_binomial,
    quantum_factorial,
    quantum_int,
)
from .combinat import (
    Composition,
    Multiset,
    Partition,
    Tableau,
    cross_pairs,
    enumerate_row_standard,
    enumerate_semistandard,
    format_tableau,
    format_tableau_inline,
    inversions,
    is_semistandard,
    iter_compositions,
    iter_fillings,
    iter_multisets,
    iter_partitions,
    length_1A,
    parse_multiset,
    parse_tableau,
    perm_1A,
    perm_inverse,
    perm_mul,
    tableau_from_json,
    tableau_to_json,
    type_composition,
    w_mu,
)
from .garnir import (
    GarnirDatum,
    LinComb,
    garnir_relation,
    iter_valid_data,
    straightening_datum,
    two_row_straighten_step,
)
from .straighten import (
    embed_two_row,
    find_violating_window,
    semistandardize,
    semistandardize_lincomb,
    weight,
)
from .hecke_oracle import (
    PropsReport,
    TabloidVector,
    coset_reps,
    image_h3,
    oracle_cap,
    reduced_word,
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
    "coset_reps",
    "cross_pairs",
    "embed_two_row",
    "enumerate_row_standard",
    "enumerate_semistandard",
    "find_violating_window",
    "format_tableau",
    "format_tableau_inline",
    "garnir_relation",
    "image_h3",
    "inversions",
    "is_semistandard",
    "iter_compositions",
    "iter_fillings",
    "iter_multisets",
    "iter_partitions",
    "iter_valid_data",
    "length_1A",
    "oracle_cap",
    "parse_multiset",
    "parse_tableau",
    "perm_1A",
    "perm_inverse",
    "perm_mul",
    "quantum_binomial",
    "quantum_factorial",
    "quantum_int",
    "reduced_word",
    "semistandardize",
    "semistandardize_lincomb",
    "specht_check",
    "straightening_datum",
    "tableau_from_json",
    "tableau_to_json",
    "two_row_straighten_step",
    "type_composition",
    "verify_composition_props",
    "w_mu",
    "weight",
]
