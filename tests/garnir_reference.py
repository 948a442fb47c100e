"""The two-row relation built one split at a time, and the two-row step
built through its relation datum, as references.

``reference_relation`` is the construction ``garnir_relation`` replaced:
enumerate the sub-multisets of the pool, and for each one add and subtract
multisets to get the rows and compute the coefficient from the multisets
directly.  It shares no code with the count-vector recursion in the
library, so the tests (and ``scripts/sweep_garnir.py --reference``) compare
the two.

``reference_step`` is the path ``two_row_straighten_step`` replaced: build
the validated ``straightening_datum`` and its full ``garnir_relation``, then
drop the input's own term and negate the rest.  The library step now goes
from the row tuples straight to count vectors, and the tests compare it
with this one.
"""

from dataclasses import dataclass
from typing import Iterator

from heckehom import (
    GarnirDatum,
    LaurentPoly,
    LinComb,
    Multiset,
    StraighteningError,
    Tableau,
    cross_pairs,
    garnir_relation,
    quantum_binomial,
    straightening_datum,
    type_composition,
)


@dataclass(frozen=True)
class Split:
    """One division of a datum's pool: ``to_top`` joins the top row,
    ``to_bottom`` the bottom row."""

    to_top: Multiset
    to_bottom: Multiset


def enumerate_splits(datum: GarnirDatum) -> Iterator[Split]:
    """All splits of the datum's pool, in deterministic order.

    Order follows Multiset.sub_multisets on the top part: ascending
    lexicographic in the sorted elements sent to the top row.
    """
    for to_top in datum.pool.sub_multisets(datum.take_size):
        yield Split(to_top, datum.pool - to_top)


def build_tableau(datum: GarnirDatum, split: Split) -> Tableau:
    """The two-row tableau a split produces."""
    return Tableau(datum.shape,
                   [datum.fixed_top + split.to_top,
                    datum.fixed_bottom + split.to_bottom])


def split_from_tableau(datum: GarnirDatum, tab: Tableau) -> Split:
    """Inverse of build_tableau; raises ValueError if tab does not arise."""
    if tab.shape != datum.shape:
        raise ValueError(f"tableau shape {tab.shape} != datum shape {datum.shape}")
    to_top = tab.rows[0] - datum.fixed_top
    to_bottom = tab.rows[1] - datum.fixed_bottom
    if to_top + to_bottom != datum.pool:
        raise ValueError("tableau rows do not split the datum's pool")
    return Split(to_top, to_bottom)


def split_coefficient(datum: GarnirDatum, split: Split) -> LaurentPoly:
    """The coefficient the relation attaches to one split.

    A product over values v of the quantum binomials counting how the v's
    interleave into each row, times q to a power counting how pool elements
    sent to opposite rows cross the fixed parts.
    """
    coeff = LaurentPoly.one()
    for v in datum.fixed_top.support():
        coeff = coeff * quantum_binomial(
            datum.fixed_top.count(v) + split.to_top.count(v), datum.fixed_top.count(v))
    for v in datum.fixed_bottom.support():
        coeff = coeff * quantum_binomial(
            datum.fixed_bottom.count(v) + split.to_bottom.count(v),
            datum.fixed_bottom.count(v))
    exponent = (cross_pairs(datum.fixed_top, split.to_top)
                + cross_pairs(split.to_bottom, datum.fixed_bottom))
    return coeff.shift(exponent)


def reference_relation(datum: GarnirDatum) -> LinComb:
    """The relation as the sum over splits of coefficient times tableau."""
    content = datum.fixed_top + datum.pool + datum.fixed_bottom
    return LinComb(datum.shape, type_composition(content),
                   {build_tableau(datum, split): split_coefficient(datum, split)
                    for split in enumerate_splits(datum)})


def reference_step(tab: Tableau, column_rule: str = "leftmost") -> LinComb:
    """The step through the datum: the relation minus the input's own term,
    negated."""
    rel = garnir_relation(straightening_datum(tab, column_rule))
    if rel.coefficient(tab) != 1:
        raise StraighteningError(f"identity split coefficient is not 1 for {tab!r}")
    return LinComb.single(tab) - rel
