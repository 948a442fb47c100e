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

A relation is built from multiplicity vectors alone.  Write a_v, p_v and
b_v for the number of copies of the value v in the fixed top part, the pool
and the fixed bottom part.  A split sends x_v of the pooled v's to the top
row, and its coefficient factorises over values: the quantum binomials
[a_v + x_v choose a_v] and [b_v + p_v - x_v choose b_v], times q to the
power x_v * (sum of a_u over u > v) + (p_v - x_v) * (sum of b_u over u < v).
So each pooled value gets one table indexed by its take x_v, holding that
factor, its L1 norm (the value at q = 1) and the value's pieces of the two
sorted rows.  The splits are built level by level, one list comprehension
per pooled value extending every partial split by each take it allows,
largest first: no call per term and no multiset arithmetic.

Each factor is packed as one int, its value at q = 2**bits (see
``qcoeff``), shifted by bits times its exponent, so a term's coefficient is
the sign times a product of table entries.  The traversal in
``straighten`` takes the packed terms as they are; ``garnir_relation`` and
``two_row_straighten_step`` unpack them into ``LaurentPoly`` at a width of
the degree plus 2, where every relation coefficient is exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Mapping

from .errors import ParseError, StraighteningError
from .combinat import (
    Composition,
    IntoComposition,
    Multiset,
    Tableau,
    as_composition,
    format_tableau_inline,
    iter_multisets,
    tableau_from_json,
)
from .qcoeff import IntoPoly, LaurentPoly, _as_poly, _packed_binomial, _unpack

Rows = tuple[tuple[int, ...], ...]


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
                 terms: Mapping[Tableau, IntoPoly] = ()):
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
    def single(cls, tab: Tableau, coeff: IntoPoly = 1) -> "LinComb":
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

    def scale(self, factor: IntoPoly) -> "LinComb":
        poly = _as_poly(factor)
        if not poly:
            return LinComb._raw(self._shape, self._type, {})
        return LinComb._raw(self._shape, self._type,
                            {tab: c * poly for tab, c in self._terms.items()})

    def add_term(self, tab: Tableau, coeff: IntoPoly) -> "LinComb":
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
# relation data and the relation
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


def garnir_relation(datum: GarnirDatum) -> LinComb:
    """The full relation: a combination that vanishes on the Specht submodule.

    The sum runs over every split of the pool, in ascending lexicographic
    order of the sorted elements sent to the top row.  Distinct splits give
    distinct tableaux, since the top row determines the split, and no
    coefficient vanishes, since each is a product of quantum binomials and
    a power of q.
    """
    top = max(datum.fixed_top.max_value(), datum.pool.max_value(),
              datum.fixed_bottom.max_value())
    a, p, b = (_count_vector(ms.elements(), top)
               for ms in (datum.fixed_top, datum.pool, datum.fixed_bottom))
    shape = datum.shape
    type_ = Composition([a[i] + p[i] + b[i] for i in range(top)])
    bits = _edge_bits(datum.n)
    return LinComb._raw(shape, type_, {
        Tableau._raw(shape, rows, type_): _unpack(coeff, bits)
        for rows, (coeff, _) in _relation_from_counts(a, p, b, datum.top_len, bits).items()})


def _edge_bits(n: int) -> int:
    # Every relation coefficient of degree n is a product of quantum
    # binomials whose top entries sum to n, so its L1 norm is below 2**n
    # and it unpacks exactly at this width.
    return n + 2


def _count_vector(values: Iterable[int], top: int) -> list[int]:
    # Entry i counts the copies of the value i + 1.
    counts = [0] * top
    for v in values:
        counts[v - 1] += 1
    return counts


def _relation_from_counts(a: list[int], p: list[int], b: list[int], top_len: int,
                          bits: int, sign: int = 1) -> dict[Rows, tuple[int, int]]:
    """sign times the relation of the datum whose fixed top part, pool and
    fixed bottom part have the count vectors a, p and b; trusted to be
    valid.  Maps each term's two rows to its coefficient packed at
    q = 2**bits and that coefficient's L1 norm."""
    pooled = [i for i in range(len(a)) if p[i]]
    uppers, lowers = ([(v,) * n for v, n in enumerate(c, 1)] for c in (a, b))
    room = sum(p)  # pool entries at or after the current pooled value
    # Partial splits: (pool entries the top row still needs, packed
    # coefficient, norm, top row so far, bottom row so far).
    splits = [(top_len - sum(a), sign, 1,
               sum(uppers[:pooled[0]], ()), sum(lowers[:pooled[0]], ()))]
    for i, end in zip(pooled, pooled[1:] + [len(a)]):
        a_i, p_i, b_i = a[i], p[i], b[i]
        # Fixed top entries above the value i + 1; fixed bottom ones below it.
        above, below = sum(a[i + 1:]), sum(b[:i])
        room -= p_i
        up_tail, low_tail = sum(uppers[i + 1:end], ()), sum(lowers[i + 1:end], ())
        # One entry per take x, from p_i down: the factor of the value
        # i + 1, its norm (binomials have nonnegative coefficients, so the
        # value at q = 1), and the row pieces up to the next pooled value.
        table = [(x, _packed_binomial(a_i + x, a_i, bits)
                  * _packed_binomial(b_i + p_i - x, b_i, bits)
                  << bits * (x * above + (p_i - x) * below),
                  comb(a_i + x, a_i) * comb(b_i + p_i - x, b_i),
                  (i + 1,) * (a_i + x) + up_tail, (i + 1,) * (b_i + p_i - x) + low_tail)
                 for x in range(p_i, -1, -1)]
        # A split that still needs `need` entries takes x from
        # min(p_i, need) down to max(0, need - room): rows p_i - x of table.
        splits = [(need - x, coeff * factor, norm * factor_norm, upper + up, lower + low)
                  for need, coeff, norm, upper, lower in splits
                  for x, factor, factor_norm, up, low
                  in table[p_i - need if need < p_i else 0:
                           p_i + 1 - need + room if need > room else p_i + 1]]
    return {(upper, lower): (coeff, norm) for _, coeff, norm, upper, lower in splits}


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


def _two_rows(tab: Tableau) -> Rows:
    """The rows of a tableau, checked to be two rows of partition shape."""
    if tab.nrows != 2:
        raise ValueError(f"need exactly two rows, got {tab.nrows}")
    if not tab.shape.is_partition:
        raise ValueError(f"top row must be at least as long: shape {tab.shape}")
    return tab.row_lists()


def _pivot_cuts(top: tuple[int, ...], bottom: tuple[int, ...],
                column_rule: str) -> tuple[int, int]:
    """Where the pivot cuts the sorted rows of a non-semistandard two-row
    tableau: entries of the top row before the first cut and of the bottom
    row from the second cut on stay put; everything between is pooled."""
    if column_rule == "leftmost":
        columns = range(len(bottom))
    elif column_rule == "rightmost":
        columns = range(len(bottom) - 1, -1, -1)
    else:
        raise ValueError(f"unknown column rule {column_rule!r}")
    col = next((c for c in columns if bottom[c] <= top[c]), None)
    if col is None:
        raise ValueError("tableau is already semistandard; nothing to rewrite")
    pivot = top[col]
    # Rows are sorted, so each part is a slice at the pivot.
    return bisect_left(top, pivot), bisect_right(bottom, pivot)


def _packed_step(top: tuple[int, ...], bottom: tuple[int, ...], column_rule: str,
                 bits: int) -> list[tuple[Rows, int, int, int]]:
    """The rewrite of the two-row window with sorted rows top and bottom,
    trusted to be of partition shape, packed at q = 2**bits: per term, the
    new window rows, the weight change, the packed coefficient and its L1
    norm.  The input's own term is dropped."""
    cut_top, cut_bottom = _pivot_cuts(top, bottom, column_rule)
    largest = max(top[-1], bottom[-1])
    # Built negated: dropping the input's own term, -1, leaves the rewrite.
    terms = _relation_from_counts(
        _count_vector(top[:cut_top], largest),
        _count_vector(top[cut_top:] + bottom[:cut_bottom], largest),
        _count_vector(bottom[cut_bottom:], largest), len(top), bits, -1)
    # Norm 1 and value -1 pin the polynomial to -1 at any width.
    if terms.pop((top, bottom), None) != (-1, 1):
        window = Tableau._raw(Composition((len(top), len(bottom))), (top, bottom), None)
        raise StraighteningError(f"identity split coefficient is not 1 for {window!r}")
    upper_sum = sum(top)
    return [(rows, upper_sum - sum(rows[0]), coeff, norm)
            for rows, (coeff, norm) in terms.items()]


def two_row_straighten_step(tab: Tableau, column_rule: str = "leftmost") -> LinComb:
    """Rewrite one non-semistandard two-row tableau via its relation.

    Returns the combination equal to the given tableau's homomorphism on the
    Specht submodule: a relation with the input's own term dropped and every
    other term negated.  ``column_rule`` picks the violating column, where
    the bottom entry fails to exceed the top one, and the pivot is the top
    entry there.  Entries strictly below the pivot stay in the top row,
    entries strictly above it stay in the bottom row, and everything else is
    pooled.  The relation is built straight from the row tuples cut at the
    pivot, without a ``GarnirDatum``.
    The split reproducing the input always carries coefficient exactly 1, so
    no division is ever needed; StraighteningError is raised if it does not.
    """
    top, bottom = _two_rows(tab)
    shape, type_ = Composition((len(top), len(bottom))), tab.type()
    bits = _edge_bits(len(top) + len(bottom))
    return LinComb._raw(shape, type_, {
        Tableau._raw(shape, rows, type_): _unpack(coeff, bits)
        for rows, _, coeff, _ in _packed_step(top, bottom, column_rule, bits)})
