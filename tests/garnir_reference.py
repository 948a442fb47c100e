"""The two-row relation built one split at a time, and the two-row step
built through its relation datum, as references.

``reference_relation`` is the construction ``garnir_relation`` replaced:
enumerate the sub-multisets of the pool, and for each one add and subtract
multisets to get the rows and compute the coefficient from the multisets
directly.  It shares no code with the count-vector builder in the
library, so the tests (and ``scripts/sweep.py garnir --reference``) compare
the two.

``reference_relation_from_counts`` is the count-vector recursion with
``LaurentPoly`` coefficients that the packed core ``garnir.
_relation_from_counts`` replaced, multiplying and shifting polynomials
where the packed core multiplies and shifts their values at q = 2**bits.
The tests compare the two term by term.

``reference_packed_relation`` is the packed recursion that the level-wise
builder ``garnir._relation_from_counts`` replaced: one recursive call per
node of the tree of takes, and every leaf's rows written again from the
full count vectors.  The tests compare the two, key order included.

``reference_relation_terms`` is the level-wise builder that
``vector_relation_terms`` replaced: the same levels, but every level, the
last one included, slices its value's table, and the fixed entries above
and below each pooled value are summed afresh.  The tests compare the two,
and the library builder with it, term order included.

``vector_relation_terms`` is the builder that ``garnir._relation_terms``
replaced: the same levels, walked off full count vectors a, p and b with a
piece per value, keeping running totals of the fixed entries around each
value, every value visited.  The library builder takes only the pooled
values' levels, each with its counts, its totals and its piece, and reads
the last level's factor table as it is.  The tests compare the two, term
order included.

``reference_step`` is the path ``two_row_straighten_step`` replaced: build
the validated ``straightening_datum`` (kept here) and its full
``garnir_relation``, then
drop the input's own term and negate the rest.  The library step is now
the worklist's window rewrite (``straighten._window_moves``) on the packed
tableau, and the tests compare it with this one.

``cut_values`` is the library's cut rule read off the row tuples, where
the library reads it off prefix counts and guard bits
(``straighten._window_cut``): the broken values at the ends, the bottom
entry of the first broken column and the top entry of the last, found by
scanning the columns, and the widest top cut for each, found by counting.
``pivot_cuts``, ``straightening_datum`` and ``reference_step`` cut the
rows there, so the tests compare the library step with a datum built
without prefix counts.

``cross_pairs`` counts the pairs of entries, one from each of two
multisets, that stand in decreasing order: the q-exponent of a split's
coefficient here and of the merge scalar in ``tests/hecke_reference.py``.

``reference_from_json`` is the JSON reader that ``LinComb.from_json``
replaced: every term read as a tableau JSON object of its own
(``reference_tableau_from_json``, its shape checked again per term), then
every term checked again by the rules of ``LinComb``'s constructor as they
were before it compared the sizes of the shape and the type, each term's
type counted from a validated ``Multiset`` of its content
(``type_composition``).  The tests compare the two readers on valid and
corrupted objects.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from math import comb
from typing import Iterator

from heckehom import (
    Composition,
    GarnirDatum,
    LaurentPoly,
    LinComb,
    Multiset,
    ParseError,
    StraighteningError,
    Tableau,
    garnir_relation,
    quantum_binomial,
)
from heckehom.combinat import _json_ints
from heckehom.garnir import Rows, _factor_table
from heckehom.qcoeff import _packed_binomial


def cross_pairs(upper: Multiset, lower: Multiset) -> int:
    """Number of pairs (a, b) with a from upper, b from lower and a > b,
    counted with multiplicity: the exponent bookkeeping of the relation's
    coefficients here and of the merge scalar in tests/hecke_reference.py.
    The library counts the same pairs on sorted row tuples instead."""
    total = 0
    for a, ma in upper.counts():
        for b, mb in lower.counts():
            if a > b:
                total += ma * mb
    return total


def type_composition(content: Multiset) -> Composition:
    """The composition recording how many copies of each value 1..max occur."""
    top = content.max_value()
    return Composition(tuple(content.count(v) for v in range(1, top + 1)))


def reference_tableau_from_json(data: object) -> Tableau:
    if not isinstance(data, dict) or "shape" not in data or "rows" not in data:
        raise ParseError("tableau JSON needs 'shape' and 'rows' keys")
    shape, rows = data["shape"], data["rows"]
    if not isinstance(rows, list):
        raise ParseError("tableau JSON 'rows' must be a list")
    _json_ints(shape, "tableau JSON 'shape'")
    for row in rows:
        _json_ints(row, "each tableau JSON row")
    try:
        return Tableau(Composition(shape), [Multiset(r) for r in rows])
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad tableau JSON: {exc}") from exc


def reference_from_json(data: object) -> LinComb:
    if not isinstance(data, dict):
        raise ParseError("linear combination JSON must be an object")
    for key in ("shape", "type", "terms"):
        if key not in data:
            raise ParseError(f"linear combination JSON needs {key!r}")
    if "q" in data:
        raise ParseError("linear combination JSON with 'q' has coefficients "
                         "specialised at a number, not Laurent polynomials in q")
    shape, type_, raw_terms = data["shape"], data["type"], data["terms"]
    _json_ints(shape, "linear combination JSON 'shape'")
    _json_ints(type_, "linear combination JSON 'type'")
    if not isinstance(raw_terms, list):
        raise ParseError("'terms' must be a list")
    terms: dict[Tableau, LaurentPoly] = {}
    for entry in raw_terms:
        if not isinstance(entry, dict) or "coeff" not in entry or "rows" not in entry:
            raise ParseError("each term needs 'coeff' and 'rows'")
        tab = reference_tableau_from_json({"shape": shape, "rows": entry["rows"]})
        poly = LaurentPoly.parse(str(entry["coeff"]))
        if tab in terms:
            terms[tab] = terms[tab] + poly
        else:
            terms[tab] = poly
    try:
        return _reference_lincomb(Composition(shape), Composition(type_), terms)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad linear combination: {exc}") from exc


def _reference_lincomb(shape: Composition, type_: Composition,
                       terms: dict[Tableau, LaurentPoly]) -> LinComb:
    # LinComb's constructor before it compared the sizes of the shape and
    # the type.
    acc = {}
    for tab, poly in terms.items():
        if not poly:
            continue
        if tab.shape != shape:
            raise ValueError(f"term shape {tab.shape} != {shape}")
        tab_type = type_composition(tab.content())
        if tab_type != type_:
            raise ValueError(f"term type {tab_type} != {type_}")
        acc[tab] = poly
    return LinComb._raw(shape, type_, acc)


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


def cut_values(top: tuple[int, ...], bottom: tuple[int, ...], column_rule: str,
               both_ends: bool = True) -> tuple[int, int]:
    """The cut (t, s) of the sorted rows of a non-semistandard two-row
    tableau, as values: its bottom entries at most s and its top entries at
    least t are pooled.  Under "rightmost" t = s is the top entry of the
    last broken column.  Under "leftmost" s is the bottom entry of the first
    broken column or, when both_ends holds, the top entry of the last,
    whichever cut has fewer splits (the first on a tie); for each, t is the
    largest top entry with fewer top entries below it than there are
    bottom entries at most s, so that the pool is larger than the top row."""
    if column_rule not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown column rule {column_rule!r}")
    broken = [c for c in range(len(bottom)) if bottom[c] <= top[c]]
    if not broken:
        raise ValueError("tableau is already semistandard; nothing to rewrite")
    last = top[broken[-1]]
    if column_rule == "rightmost":
        return last, last

    def widest(s: int) -> tuple[int, int]:
        pooled = sum(y <= s for y in bottom)
        return max(x for x in top if sum(u < x for u in top) < pooled), s

    def splits(t: int, s: int) -> int:
        pooled = sum(y <= s for y in bottom)
        return comb(pooled + sum(x >= t for x in top), pooled)

    cuts = [widest(bottom[broken[0]])] + ([widest(last)] if both_ends else [])
    return min(cuts, key=lambda cut: splits(*cut))


def pivot_cuts(top: tuple[int, ...], bottom: tuple[int, ...], column_rule: str,
               both_ends: bool = True) -> tuple[int, int]:
    """Where the cut (``cut_values``) cuts the sorted rows of a
    non-semistandard two-row tableau: entries of the top row before the
    first cut and of the bottom row from the second cut on stay put;
    everything between is pooled."""
    t, s = cut_values(top, bottom, column_rule, both_ends)
    # Rows are sorted, so each part is a slice at the cut.
    return bisect_left(top, t), bisect_right(bottom, s)


def straightening_datum(tab: Tableau, column_rule: str = "leftmost") -> GarnirDatum:
    """The relation datum that rewrites a non-semistandard two-row tableau.

    A violating column is one where the bottom entry fails to exceed the top
    entry.  The datum pools the bottom entries at most s and the top
    entries at least t, for the cut (t, s) that ``cut_values`` picks, and
    fixes the rest.
    """
    if tab.nrows != 2:
        raise ValueError(f"need exactly two rows, got {tab.nrows}")
    if not tab.shape.is_partition:
        raise ValueError(f"top row must be at least as long: shape {tab.shape}")
    top, bottom = tab.row_lists()
    cut_top, cut_bottom = pivot_cuts(top, bottom, column_rule)
    return GarnirDatum(Multiset(top[:cut_top]),
                       Multiset(top[cut_top:] + bottom[:cut_bottom]),
                       Multiset(bottom[cut_bottom:]), len(top))


def reference_step(tab: Tableau, column_rule: str = "leftmost") -> LinComb:
    """The step through the datum: the relation minus the input's own term,
    negated."""
    rel = garnir_relation(straightening_datum(tab, column_rule))
    if rel.coefficient(tab) != 1:
        raise StraighteningError(f"identity split coefficient is not 1 for {tab!r}")
    return LinComb.single(tab) - rel


def reference_relation_from_counts(a: list[int], p: list[int], b: list[int],
                                   top_len: int, sign: int = 1) -> LinComb:
    """sign times the relation of the datum whose fixed top part, pool and
    fixed bottom part have the count vectors a, p and b, built with
    ``LaurentPoly`` coefficients."""
    top = len(a)
    shape = Composition((top_len, sum(a) + sum(p) + sum(b) - top_len))
    type_ = Composition([a[i] + p[i] + b[i] for i in range(top)])
    # above[i]: fixed top entries larger than the value i + 1; below[i]:
    # fixed bottom entries smaller than it.
    above, below = [0] * top, [0] * top
    for i in range(top - 2, -1, -1):
        above[i] = above[i + 1] + a[i + 1]
    for i in range(1, top):
        below[i] = below[i - 1] + b[i - 1]
    pooled = [i for i in range(top) if p[i]]
    room = [0] * (len(pooled) + 1)  # pool entries at or after each pooled value
    for k in range(len(pooled) - 1, -1, -1):
        room[k] = room[k + 1] + p[pooled[k]]
    # Row counts of the current split; each level writes its own value's.
    upper, lower = list(a), list(b)
    values = range(1, top + 1)
    terms: dict[Tableau, LaurentPoly] = {}

    def rec(k: int, remaining: int, coeff: LaurentPoly, exponent: int) -> None:
        if k == len(pooled):
            rows = (tuple(chain.from_iterable(map(repeat, values, upper))),
                    tuple(chain.from_iterable(map(repeat, values, lower))))
            terms[Tableau._raw(shape, rows, type_)] = coeff.shift(exponent)
            return
        i = pooled[k]
        a_i, p_i, b_i = a[i], p[i], b[i]
        for take in range(min(p_i, remaining), max(0, remaining - room[k + 1]) - 1, -1):
            term = coeff
            if a_i and take:
                term = term * quantum_binomial(a_i + take, a_i)
            if b_i and take < p_i:
                term = term * quantum_binomial(b_i + p_i - take, b_i)
            upper[i], lower[i] = a_i + take, b_i + p_i - take
            rec(k + 1, remaining - take, term,
                exponent + take * above[i] + (p_i - take) * below[i])

    rec(0, top_len - sum(a), LaurentPoly.monomial(0, sign), 0)
    return LinComb._raw(shape, type_, terms)


def reference_packed_relation(a: list[int], p: list[int], b: list[int], top_len: int,
                              bits: int, sign: int = 1) -> dict[Rows, tuple[int, int]]:
    """The same relation as ``reference_relation_from_counts``, each term's
    coefficient packed at q = 2**bits with its L1 norm, built by the
    recursion with one call per node."""
    top = len(a)
    above, below = [0] * top, [0] * top
    for i in range(top - 2, -1, -1):
        above[i] = above[i + 1] + a[i + 1]
    for i in range(1, top):
        below[i] = below[i - 1] + b[i - 1]
    pooled = [i for i in range(top) if p[i]]
    room = [0] * (len(pooled) + 1)
    for k in range(len(pooled) - 1, -1, -1):
        room[k] = room[k + 1] + p[pooled[k]]
    upper, lower = list(a), list(b)
    values = range(1, top + 1)
    terms: dict[Rows, tuple[int, int]] = {}

    def rec(k: int, remaining: int, coeff: int, norm: int, exponent: int) -> None:
        if k == len(pooled):
            rows = (tuple(chain.from_iterable(map(repeat, values, upper))),
                    tuple(chain.from_iterable(map(repeat, values, lower))))
            terms[rows] = (coeff << bits * exponent, norm)
            return
        i = pooled[k]
        a_i, p_i, b_i = a[i], p[i], b[i]
        for take in range(min(p_i, remaining), max(0, remaining - room[k + 1]) - 1, -1):
            term, term_norm = coeff, norm
            if a_i and take:
                term *= _packed_binomial(a_i + take, a_i, bits)
                term_norm *= comb(a_i + take, a_i)
            if b_i and take < p_i:
                term *= _packed_binomial(b_i + p_i - take, b_i, bits)
                term_norm *= comb(b_i + p_i - take, b_i)
            upper[i], lower[i] = a_i + take, b_i + p_i - take
            rec(k + 1, remaining - take, term, term_norm,
                exponent + take * above[i] + (p_i - take) * below[i])

    rec(0, top_len - sum(a), sign, 1, 0)
    return terms


def reference_relation_terms(a: list[int], p: list[int], b: list[int], top_len: int,
                             bits: int, pieces: list[int], start: int,
                             sign: int) -> list[tuple[int, int, int]]:
    """sign times the relation of the datum whose fixed top part, pool and
    fixed bottom part have the count vectors a, p and b; trusted to be
    valid.  Per term, in order: start plus x_v * pieces[v - 1] summed over
    the pooled values v, where x_v is how many pooled v's the split sends
    to the top row; its coefficient packed at q = 2**bits; and that
    coefficient's L1 norm."""
    room = sum(p)  # pool entries at or after the current pooled value
    # Partial splits: (pool entries the top row still needs, piece sum,
    # packed coefficient, norm).
    splits = [(top_len - sum(a), start, sign, 1)]
    for i, p_i in enumerate(p):
        if not p_i:
            continue
        room -= p_i
        piece = pieces[i]
        table = [(x, x * piece, factor, factor_norm) for x, factor, factor_norm
                 in _factor_table(a[i], p_i, b[i], sum(a[i + 1:]), sum(b[:i]), bits)]
        # A split that still needs `need` entries takes x from
        # min(p_i, need) down to max(0, need - room): rows p_i - x of table.
        splits = [(need - x, total + part, coeff * factor, norm * factor_norm)
                  for need, total, coeff, norm in splits
                  for x, part, factor, factor_norm
                  in table[p_i - need if need < p_i else 0:
                           p_i + 1 - need + room if need > room else p_i + 1]]
    return [(total, coeff, norm) for _, total, coeff, norm in splits]


def vector_relation_terms(a: list[int], p: list[int], b: list[int], top_len: int,
                          bits: int, pieces: list[int], start: int,
                          sign: int) -> list[tuple[int, int, int]]:
    """sign times the relation of the datum whose fixed top part, pool and
    fixed bottom part have the count vectors a, p and b; trusted to be
    valid.  Per term, in order: start plus x_v * pieces[v - 1] summed over
    the pooled values v, where x_v is how many pooled v's the split sends
    to the top row; its coefficient packed at q = 2**bits; and that
    coefficient's L1 norm."""
    room = sum(p)  # pool entries at or after the current pooled value
    above, below = sum(a), 0  # fixed top entries above it, bottom ones below
    # Partial splits: (pool entries the top row still needs, piece sum,
    # packed coefficient, norm).
    splits = [(top_len - above, start, sign, 1)]
    for a_i, p_i, b_i, piece in zip(a, p, b, pieces):
        above -= a_i
        if p_i:
            room -= p_i
            table = [(x, x * piece, factor, factor_norm) for x, factor, factor_norm
                     in _factor_table(a_i, p_i, b_i, above, below, bits)]
            if not room:
                # The last pooled value: its take is what the split still
                # needs, one row of the table.
                return [(total + part, coeff * factor, norm * factor_norm)
                        for need, total, coeff, norm in splits
                        for _, part, factor, factor_norm in [table[p_i - need]]]
            # A split that still needs `need` entries takes x from
            # min(p_i, need) down to max(0, need - room): rows p_i - x of
            # table.
            splits = [(need - x, total + part, coeff * factor, norm * factor_norm)
                      for need, total, coeff, norm in splits
                      for x, part, factor, factor_norm
                      in table[p_i - need if need < p_i else 0:
                               p_i + 1 - need + room if need > room else p_i + 1]]
        below += b_i
    return [(start, sign, 1)]  # an empty pool has one split, the empty one
