"""The two-row straightening relation and linear combinations of tableaux.

The relation is driven by a datum that fixes part of each row and pools the
rest: a multiset ``fixed_top`` pinned to the top row, a multiset ``pool``
whose elements are distributed between the rows, and a multiset
``fixed_bottom`` pinned to the bottom row.  Every way of splitting the pool
so that the top row reaches its prescribed length yields a tableau, and the
weighted sum of the corresponding homomorphisms vanishes on the Specht
submodule.  Solving that identity for the term that reproduces a given
tableau (whose coefficient is always exactly 1) rewrites one homomorphism
as a combination of strictly smaller ones; iterating is what the
straightening module does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .errors import ParseError, StraighteningError
from .combinat import (
    Composition,
    IntoComposition,
    Multiset,
    Tableau,
    as_composition,
    cross_pairs,
    format_tableau_inline,
    iter_multisets,
    tableau_from_json,
    type_composition,
)
from .qcoeff import LaurentPoly, quantum_binomial

Coeffish = Union[LaurentPoly, int]


def _as_poly(value: Coeffish) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.monomial(0, value)
    raise TypeError(f"expected a Laurent polynomial or int, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# linear combinations of same-shape, same-content tableaux
# ---------------------------------------------------------------------------


class LinComb:
    """A formal linear combination of tableaux with Laurent coefficients.

    All tableaux share one shape and one content; zero coefficients are
    dropped.  The combination denotes the corresponding weighted sum of
    row-multiset homomorphisms.
    """

    __slots__ = ("_shape", "_type", "_terms")

    def __init__(self, shape: IntoComposition, type_: IntoComposition,
                 terms: Mapping[Tableau, Coeffish] = ()):
        self._shape = as_composition(shape)
        self._type = as_composition(type_)
        acc: dict[Tableau, LaurentPoly] = {}
        for tab, coeff in dict(terms).items():
            poly = _as_poly(coeff)
            if not poly:
                continue
            if tab.shape != self._shape:
                raise ValueError(f"term shape {tab.shape} != {self._shape}")
            if tab.type() != self._type:
                raise ValueError(f"term type {tab.type()} != {self._type}")
            acc[tab] = poly
        self._terms = acc

    @classmethod
    def _raw(cls, shape: Composition, type_: Composition,
             terms: dict[Tableau, LaurentPoly]) -> "LinComb":
        # internal: trusted nonzero terms of the given shape and type
        comb = object.__new__(cls)
        comb._shape = shape
        comb._type = type_
        comb._terms = terms
        return comb

    @classmethod
    def zero(cls, shape: IntoComposition, type_: IntoComposition) -> "LinComb":
        return cls(shape, type_, {})

    @classmethod
    def single(cls, tab: Tableau, coeff: Coeffish = 1) -> "LinComb":
        return cls(tab.shape, tab.type(), {tab: coeff})

    @property
    def shape(self) -> Composition:
        return self._shape

    @property
    def type(self) -> Composition:
        return self._type

    def items(self) -> list[tuple[Tableau, LaurentPoly]]:
        """(tableau, coefficient) pairs in the deterministic tableau order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, tab: Tableau) -> LaurentPoly:
        return self._terms.get(tab, LaurentPoly.zero())

    def support(self) -> list[Tableau]:
        return [tab for tab, _ in self.items()]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def _compatible(self, other: "LinComb") -> None:
        if self._shape != other._shape or self._type != other._type:
            raise ValueError(
                f"cannot combine shape {self._shape} type {self._type} "
                f"with shape {other._shape} type {other._type}")

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        self._compatible(other)
        acc = dict(self._terms)
        for tab, poly in other._terms.items():
            if tab in acc:
                poly = acc[tab] + poly
                if not poly:
                    del acc[tab]
                    continue
            acc[tab] = poly
        return LinComb._raw(self._shape, self._type, acc)

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return self.scale(-1)

    def scale(self, factor: Coeffish) -> "LinComb":
        poly = _as_poly(factor)
        if not poly:
            return LinComb._raw(self._shape, self._type, {})
        return LinComb._raw(self._shape, self._type,
                            {tab: c * poly for tab, c in self._terms.items()})

    def add_term(self, tab: Tableau, coeff: Coeffish) -> "LinComb":
        return self + LinComb.single(tab, coeff)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return (self._shape == other._shape and self._type == other._type
                and self._terms == other._terms)

    def __repr__(self) -> str:
        return (f"LinComb({list(self._shape.stripped)}, {list(self._type.stripped)}, "
                f"{len(self._terms)} terms)")

    def to_text(self) -> str:
        """One term per line: (coefficient) * row / row / ..."""
        if self.is_zero:
            return "0"
        return "\n".join(f"({coeff}) * {format_tableau_inline(tab)}"
                         for tab, coeff in self.items())

    def to_json(self) -> dict:
        return {
            "shape": list(self._shape.stripped),
            "type": list(self._type.stripped),
            "terms": [{"coeff": str(coeff), "rows": [list(r) for r in tab.row_lists()]}
                      for tab, coeff in self.items()],
        }

    @classmethod
    def from_json(cls, data: object) -> "LinComb":
        if not isinstance(data, dict):
            raise ParseError("linear combination JSON must be an object")
        for key in ("shape", "type", "terms"):
            if key not in data:
                raise ParseError(f"linear combination JSON needs {key!r}")
        shape, type_, raw_terms = data["shape"], data["type"], data["terms"]
        if not isinstance(raw_terms, list):
            raise ParseError("'terms' must be a list")
        terms: dict[Tableau, LaurentPoly] = {}
        for entry in raw_terms:
            if not isinstance(entry, dict) or "coeff" not in entry or "rows" not in entry:
                raise ParseError("each term needs 'coeff' and 'rows'")
            tab = tableau_from_json({"shape": shape, "rows": entry["rows"]})
            poly = LaurentPoly.parse(str(entry["coeff"]))
            if tab in terms:
                terms[tab] = terms[tab] + poly
            else:
                terms[tab] = poly
        try:
            return cls(Composition(shape), Composition(type_), terms)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad linear combination: {exc}") from exc


# ---------------------------------------------------------------------------
# relation data and splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GarnirDatum:
    """Data for one two-row relation.

    ``fixed_top`` stays in the top row, ``fixed_bottom`` stays in the bottom
    row, and ``pool`` is divided between them so that the top row has
    exactly ``top_len`` entries.  Validity demands that the pool be strictly
    larger than the top row, that the fixed top part fit inside the top row,
    and that the top row be at least as long as the bottom one.
    """

    fixed_top: Multiset
    pool: Multiset
    fixed_bottom: Multiset
    top_len: int

    def __post_init__(self) -> None:
        if self.top_len < 1:
            raise ValueError(f"top row length must be positive, got {self.top_len}")
        if self.pool.size <= self.top_len:
            raise ValueError(
                f"pool size {self.pool.size} must exceed top row length {self.top_len}")
        if self.fixed_top.size > self.top_len:
            raise ValueError(
                f"fixed top part has {self.fixed_top.size} entries, "
                f"more than the top row length {self.top_len}")
        if 2 * self.top_len < self.n:
            raise ValueError(
                f"top row length {self.top_len} shorter than bottom "
                f"row length {self.n - self.top_len}")

    @property
    def n(self) -> int:
        return self.fixed_top.size + self.pool.size + self.fixed_bottom.size

    @property
    def bottom_len(self) -> int:
        return self.n - self.top_len

    @property
    def take_size(self) -> int:
        """How many pool elements the top row receives."""
        return self.top_len - self.fixed_top.size

    @property
    def shape(self) -> Composition:
        return Composition((self.top_len, self.bottom_len))


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
    sent to opposite rows cross the fixed parts:

    >>> from .combinat import Multiset
    >>> d = GarnirDatum(Multiset(), Multiset([1, 1, 2, 2, 3, 4]), Multiset([3, 3, 3]), 5)
    >>> s = Split(Multiset([1, 1, 2, 2, 3]), Multiset([4]))
    >>> str(split_coefficient(d, s))
    'q^3'
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


def garnir_relation(datum: GarnirDatum) -> LinComb:
    """The full relation: a combination that vanishes on the Specht submodule.

    The sum runs over every split.  Distinct splits give distinct
    tableaux, since the top row determines the split by multiset
    subtraction, and no coefficient vanishes, since each is a product of
    quantum binomials and a power of q.
    """
    content = datum.fixed_top + datum.pool + datum.fixed_bottom
    terms = {build_tableau(datum, split): split_coefficient(datum, split)
             for split in enumerate_splits(datum)}
    return LinComb._raw(datum.shape, type_composition(content), terms)


def iter_valid_data(n_cap: int, value_cap: int) -> Iterator[GarnirDatum]:
    """All valid data with at most n_cap entries over values 1..value_cap.

    Deterministic order: by total size, then top row length, then the sizes
    and contents of the three multisets.
    """
    for n in range(2, n_cap + 1):
        for top_len in range((n + 1) // 2, n):
            for r_size in range(0, top_len + 1):
                for s_size in range(top_len + 1, n - r_size + 1):
                    t_size = n - r_size - s_size
                    for fixed_top in iter_multisets(r_size, value_cap):
                        for pool in iter_multisets(s_size, value_cap):
                            for fixed_bottom in iter_multisets(t_size, value_cap):
                                yield GarnirDatum(fixed_top, pool, fixed_bottom, top_len)


# ---------------------------------------------------------------------------
# one straightening step
# ---------------------------------------------------------------------------


def _violating_columns(tab: Tableau) -> list[int]:
    top, bottom = tab.row_lists()
    return [c for c in range(len(bottom)) if bottom[c] <= top[c]]


def straightening_datum(tab: Tableau, column_rule: str = "leftmost") -> GarnirDatum:
    """The relation datum that rewrites a non-semistandard two-row tableau.

    A violating column is one where the bottom entry fails to exceed the top
    entry; ``column_rule`` picks which violating column to target, and the
    pivot is the top entry there.  Entries strictly below the pivot stay in
    the top row, entries strictly above it stay in the bottom row, and
    everything else is pooled.
    """
    if tab.nrows != 2:
        raise ValueError(f"need exactly two rows, got {tab.nrows}")
    if not tab.shape.is_partition:
        raise ValueError(f"top row must be at least as long: shape {tab.shape}")
    columns = _violating_columns(tab)
    if not columns:
        raise ValueError("tableau is already semistandard; nothing to rewrite")
    if column_rule == "leftmost":
        col = columns[0]
    elif column_rule == "rightmost":
        col = columns[-1]
    else:
        raise ValueError(f"unknown column rule {column_rule!r}")
    pivot = tab.row_lists()[0][col]
    top, bottom = tab.rows
    fixed_top = Multiset(a for a in top.elements() if a < pivot)
    pool = (Multiset(a for a in top.elements() if a >= pivot)
            + Multiset(a for a in bottom.elements() if a <= pivot))
    fixed_bottom = Multiset(a for a in bottom.elements() if a > pivot)
    return GarnirDatum(fixed_top, pool, fixed_bottom, tab.shape.part(0))


def two_row_straighten_step(tab: Tableau, column_rule: str = "leftmost") -> LinComb:
    """Rewrite one non-semistandard two-row tableau via its relation.

    Returns the combination equal to the given tableau's homomorphism on the
    Specht submodule: the relation of its datum with the input's own term
    dropped and every other term negated.  The split reproducing the input
    always carries coefficient exactly 1, so no division is ever needed;
    StraighteningError is raised if it does not.
    """
    rel = garnir_relation(straightening_datum(tab, column_rule))
    terms = dict(rel._terms)
    if terms.pop(tab, None) != 1:
        raise StraighteningError(f"identity split coefficient is not 1 for {tab!r}")
    return LinComb._raw(rel.shape, rel.type, {t: -c for t, c in terms.items()})
