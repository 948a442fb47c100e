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
factor and its L1 norm (the value at q = 1); tables are cached on the
value's counts and the fixed entries around it.  The builder
(``_relation_terms``) takes the relation as its levels, one per pooled
value in increasing order: (a_v, p_v, b_v, above, below, piece), the
value's counts, the fixed top entries above it, the fixed bottom entries
below it, and its piece.  No level exists for a value that is not pooled.
The worklist reads the levels straight off a window's prefix counts
(``straighten._window_moves``); ``_relation_from_counts`` builds them from
its count vectors (``_count_levels``).  The splits are built level by
level, one list comprehension per level extending every partial split by
each take it allows, largest first: no call per term and no multiset
arithmetic.  No pool entry follows the last level, so its take is forced,
the number the split still needs: that level reads one row of the cached
table per split, as it is.  A split carries no rows either, only one int:
each take x_v adds x_v times the level's piece.  Both callers pack
tableaux as one int, a field per row and per value that occurs
(``_Packing``), with pieces that move one copy of a value up a row:
``garnir_relation`` starts at the key of (fixed top | everything else)
and decodes each term's key, and the worklist in ``straighten`` starts at
minus the input's own split, so each sum is the change to its tableau.  A
packing decodes each distinct row once: it memoizes rows on the bits of
their groups for its own lifetime, one call.

Each factor is packed as one int, its value at q = 2**bits (see
``qcoeff``), shifted by bits times its exponent, so a term's coefficient is
the sign times a product of table entries.  The traversal in
``straighten`` takes the packed terms as they are; ``garnir_relation`` and
``straighten.two_row_straighten_step`` unpack them into ``LaurentPoly`` at
a width of the degree plus 2 (``_edge_bits``), where every relation
coefficient is exact.

A ``LinComb`` read from JSON (``LinComb.from_json``, the edge ``verify``
reads through) is checked once: each term is built once as a ``Tableau``
of the declared shape, its type compared once with the declared type, and
the combination built trusted.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import chain, repeat
from math import comb
from operator import index, sub
from typing import Iterable, Iterator, Mapping

from .errors import ParseError
from .combinat import (
    Composition,
    IntoComposition,
    Multiset,
    Tableau,
    _count_vector,
    _Frozen,
    _json_ints,
    as_composition,
    format_tableau_inline,
    iter_multisets,
)
from .qcoeff import IntoPoly, LaurentPoly, _add_into, _as_poly, _packed_binomial, _unpack

Rows = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# linear combinations of same-shape, same-content tableaux
# ---------------------------------------------------------------------------


class LinComb:
    """A formal linear combination of tableaux with Laurent coefficients.

    All tableaux share one shape and one content, and the shape and the
    type have the same size; zero coefficients are dropped.  The
    combination denotes the corresponding weighted sum of row-multiset
    homomorphisms.
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
        _require_same_size(self._shape, self._type)
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
            _add_into(acc, tab, poly)
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
        return _terms_text(self.items())

    def to_json(self) -> dict:
        return {
            "shape": list(self._shape.stripped),
            "type": list(self._type.stripped),
            "terms": [{"coeff": str(coeff), "rows": [list(r) for r in tab.row_lists()]}
                      for tab, coeff in self.items()],
        }

    @classmethod
    def from_json(cls, data: object) -> "LinComb":
        """The combination that ``to_json`` writes, duplicate terms added
        up; ParseError on anything else.

        Each check runs once.  Per term, in order: its layout, the shape (at
        the first term), its tableau and its coefficient.  After the terms:
        the shape if there were none, the type, the type of each term whose
        sum is nonzero (in the order the terms first appear), and the sizes.
        """
        if not isinstance(data, dict):
            raise ParseError("linear combination JSON must be an object")
        for key in ("shape", "type", "terms"):
            if key not in data:
                raise ParseError(f"linear combination JSON needs {key!r}")
        if "q" in data:
            # The CLI's --q output: its coefficients are numbers at that q,
            # which would read as constant polynomials.
            raise ParseError("linear combination JSON with 'q' has coefficients "
                             "specialised at a number, not Laurent polynomials in q")
        shape, type_, raw_terms = data["shape"], data["type"], data["terms"]
        _json_ints(shape, "linear combination JSON 'shape'")
        _json_ints(type_, "linear combination JSON 'type'")
        if not isinstance(raw_terms, list):
            raise ParseError("'terms' must be a list")
        shape_c: Composition | None = None
        tabs: list[Tableau] = []
        terms: dict[Tableau, LaurentPoly] = {}
        for entry in raw_terms:
            if not isinstance(entry, dict) or "coeff" not in entry or "rows" not in entry:
                raise ParseError("each term needs 'coeff' and 'rows'")
            rows = entry["rows"]
            if not isinstance(rows, list):
                raise ParseError("tableau JSON 'rows' must be a list")
            for row in rows:
                _json_ints(row, "each tableau JSON row")
            try:
                # A Composition is always true, so the shape is built once.
                shape_c = shape_c or Composition(shape)
                tab = Tableau(shape_c, rows)
            except ValueError as exc:
                raise ParseError(f"bad tableau JSON: {exc}") from exc
            tabs.append(tab)
            _add_into(terms, tab, LaurentPoly.parse(str(entry["coeff"])))
        try:
            shape_c = shape_c or Composition(shape)
            type_c = Composition(type_)
            for tab in tabs:
                if tab in terms and tab.type() != type_c:
                    raise ValueError(f"term type {tab.type()} != {type_c}")
            _require_same_size(shape_c, type_c)
        except ValueError as exc:
            raise ParseError(f"bad linear combination: {exc}") from exc
        return cls._raw(shape_c, type_c, terms)


def _terms_text(terms: Iterable[tuple[Tableau, object]]) -> str:
    """One line per (tableau, coefficient) term, (coefficient) * row / row
    / ..., or "0" when there are none."""
    return "\n".join(f"({coeff}) * {format_tableau_inline(tab)}"
                     for tab, coeff in terms) or "0"


def _require_same_size(shape: Composition, type_: Composition) -> None:
    # Checked after the terms: a term of the right shape and type has
    # both sizes, so this rejects only a combination with no terms.
    if shape.n != type_.n:
        raise ValueError(f"shape size {shape.n} != type size {type_.n}")


# ---------------------------------------------------------------------------
# relation data and the relation
# ---------------------------------------------------------------------------


class GarnirDatum(_Frozen):
    """Data for one two-row relation.

    ``fixed_top`` stays in the top row, ``fixed_bottom`` stays in the bottom
    row, and ``pool`` is divided between them so that the top row has
    exactly ``top_len`` entries.  Validity demands that the pool be strictly
    larger than the top row, that the fixed top part fit inside the top row,
    and that the top row be at least as long as the bottom one.  A datum is
    immutable and hashable.
    """

    __slots__ = ("fixed_top", "pool", "fixed_bottom", "top_len")

    def __init__(self, fixed_top: Multiset, pool: Multiset, fixed_bottom: Multiset,
                 top_len: int) -> None:
        super().__init__(fixed_top, pool, fixed_bottom, index(top_len))
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


_FACTOR_TABLE_CACHE_SIZE = 1024


@lru_cache(maxsize=_FACTOR_TABLE_CACHE_SIZE)
def _factor_table(a_v: int, p_v: int, b_v: int, above: int, below: int,
                  bits: int) -> tuple[tuple[int, int, int], ...]:
    """Per take x of a pooled value, from p_v down to 0: x, the value's
    packed factor and its L1 norm (binomials have nonnegative coefficients,
    so the value at q = 1).  above counts the fixed top entries above the
    value, below the fixed bottom entries below it."""
    return tuple((x, _packed_binomial(a_v + x, a_v, bits)
                  * _packed_binomial(b_v + p_v - x, b_v, bits)
                  << bits * (x * above + (p_v - x) * below),
                  comb(a_v + x, a_v) * comb(b_v + p_v - x, b_v))
                 for x in range(p_v, -1, -1))


def _relation_terms(levels: list[tuple[int, int, int, int, int, int]], need: int,
                    bits: int, start: int, sign: int) -> list[tuple[int, int, int]]:
    """sign times the relation of a datum given as its levels, one per
    pooled value in increasing order: (a_v, p_v, b_v, above, below, piece),
    the value's counts in the fixed top part, the pool and the fixed bottom
    part, the fixed top entries above it and the fixed bottom entries below
    it, and its piece; need is how many pool entries the top row takes.
    Trusted to be valid.  Per term, in order: start plus x_v * piece summed
    over the levels, where x_v is how many pooled v's the split sends to
    the top row; its coefficient packed at q = 2**bits; and that
    coefficient's L1 norm."""
    room = sum([level[1] for level in levels])  # pool entries at or after a level
    # Partial splits: (pool entries the top row still needs, piece sum,
    # packed coefficient, norm).
    splits = [(need, start, sign, 1)]
    for a_v, p_v, b_v, above, below, piece in levels:
        room -= p_v
        factors = _factor_table(a_v, p_v, b_v, above, below, bits)
        if not room:
            # The last level: its take is what the split still needs, one
            # row of the factor table, read as it is.
            return [(total + need * piece, coeff * factor, norm * factor_norm)
                    for need, total, coeff, norm in splits
                    for _, factor, factor_norm in [factors[p_v - need]]]
        table = [(x, x * piece, factor, factor_norm) for x, factor, factor_norm in factors]
        # A split that still needs `need` entries takes x from min(p_v, need)
        # down to max(0, need - room): rows p_v - x of table.
        splits = [(need - x, total + part, coeff * factor, norm * factor_norm)
                  for need, total, coeff, norm in splits
                  for x, part, factor, factor_norm
                  in table[p_v - need if need < p_v else 0:
                           p_v + 1 - need + room if need > room else p_v + 1]]
    return [(start, sign, 1)]  # an empty pool has one split, the empty one


def _count_levels(a: list[int], p: list[int], b: list[int],
                  pieces: list[int]) -> list[tuple[int, int, int, int, int, int]]:
    """The levels of ``_relation_terms`` for the datum whose parts have the
    count vectors a, p and b, with pieces[v - 1] the piece of the value v."""
    above, below = sum(a), 0
    levels = []
    for a_v, p_v, b_v, piece in zip(a, p, b, pieces):
        above -= a_v
        if p_v:
            levels.append((a_v, p_v, b_v, above, below, piece))
        below += b_v
    return levels


def _relation_from_counts(a: list[int], p: list[int], b: list[int], top_len: int,
                          bits: int, sign: int = 1) -> dict[Rows, tuple[int, int]]:
    """``_relation_terms`` with each term keyed by its two rows.  The piece
    of a value is the two-row packing's lift of its rank, which moves one
    copy up, and the sum starts at the key of the rows (fixed top |
    everything else).  That start's bottom row can be longer than the
    shape's, but keys add like their counts, so every term's key is exact."""
    content = [a_v + p_v + b_v for a_v, p_v, b_v in zip(a, p, b)]
    pack = _Packing(Composition((top_len, sum(content) - top_len)), Composition(content))
    lifts = iter(pack.lifts)
    pieces = [next(lifts) if count else 0 for count in content]
    values = range(1, len(a) + 1)
    start = pack.key((tuple(chain.from_iterable(map(repeat, values, a))),
                      tuple(chain.from_iterable(map(repeat, values, map(sub, content, a))))))
    return {pack.rows(total): (coeff, norm) for total, coeff, norm
            in _relation_terms(_count_levels(a, p, b, pieces), top_len - sum(a), bits,
                               start, sign)}


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
# a tableau packed into one int
# ---------------------------------------------------------------------------


def _weight(rows: Rows) -> int:
    """Sum over rows of (row index) times (sum of row entries), top row 1.

    Each rewrite pushes entry mass strictly downward, so this weight
    strictly increases; it is bounded on the finitely many tableaux of a
    given shape and content, which forces termination.
    """
    return sum(r * sum(row) for r, row in enumerate(rows, start=1))


class _Packing:
    """How a tableau of one shape and type packs into one int, its key.

    Only the values that occur get a field: ``values`` lists them, and the
    value of rank k (from 1) is values[k - 1].  Row r (from 0) owns a group
    of S = V * w bits at bit r * S, V being the number of distinct values.
    Field k - 1 of the group, w bits wide, holds how many entries of the
    row are at most the value of rank k.  No value lies between two
    consecutive ones, so the entries below the value of rank k are those at
    most the value of rank k - 1, and the prefix counts by rank take the
    place of those by value everywhere: the column check, the cut and
    the levels.  A count is at most the longest row, below
    2**(w - 1), so the top bit of every field, its guard, is 0.  The
    weight, in the values themselves, sits at bit B, above one spare
    group: keys order by weight first, and the row part of a move, which
    spans two groups, never reaches it.  Keys add like their counts, so a
    key plus the changes that a rewrite makes is the key of the result.
    """

    __slots__ = ("shape", "type", "values", "width", "group", "weight_at", "guards",
                 "shifted", "windows", "lifts", "count_mask", "pair_fields", "decoded")

    def __init__(self, shape: Composition, type_: Composition):
        nrows = len(shape.stripped)
        self.shape, self.type = shape, type_
        self.values = [v for v, count in enumerate(type_.stripped, 1) if count]
        self.width = w = shape.part(0).bit_length() + 1
        self.group = S = len(self.values) * w
        self.weight_at = (nrows + 1) * S
        ones = sum(1 << at for at in range(0, S, w))  # 1 in every field of a group
        pairs = sum(1 << r * S for r in range(nrows - 1))  # 1 per upper row of a pair
        # The guard bits, and every field but the first, of each upper row.
        self.guards = (ones << w - 1) * pairs
        self.shifted = ((1 << S) - (1 << w)) * pairs
        # The bits of rows r and r + 1: a window, which a memo entry acts on.
        self.windows = [((1 << 2 * S) - 1) << r * S for r in range(nrows - 1)]
        # Moving one value of rank k from row r + 1 up to row r, at r = 0:
        # the counts from rank k on grow by 1 in the upper group, shrink in
        # the lower one.
        self.lifts = [(ones >> at << at) * (1 - (1 << S)) for at in range(0, S, w)]
        # A field's count, below its guard.
        self.count_mask = (1 << w - 1) - 1
        # The shifts that read both rows' prefix counts off a window's bits,
        # shifted down to 0 (``straighten._window_moves``): each row's led by
        # a shift past the window, which reads the leading 0.
        self.pair_fields = [2 * S, *range(0, S, w), 2 * S, *range(S, 2 * S, w)]
        # The rows decoded so far, on the bits of their groups (see ``rows``).
        self.decoded: dict[int, tuple[int, ...]] = {}

    def key(self, rows: Rows) -> int:
        w, S = self.width, self.group
        return sum(bisect_right(row, v) << r * S + k * w
                   for r, row in enumerate(rows)
                   for k, v in enumerate(self.values)) \
            + (_weight(rows) << self.weight_at)

    def broken(self, key: int) -> int:
        """Nonzero iff the packed tableau breaks a column.

        Rows r and r + 1 break a column iff, for some value v, the lower row
        has more entries at most v than the upper row has below v.  Field
        k - 1 of row r's group, v being the value of rank k, then computes,
        as one guarded subtraction, 2**(w - 1) + (entries of row r below v)
        - (entries of row r + 1 at most v), which clears its guard; the
        guards keep fields from borrowing from each other.  The result has
        a guard bit set for each such v of each pair of rows.
        """
        return self.guards & ~((key << self.width & self.shifted | self.guards)
                               - (key >> self.group))

    def prefixes(self, bits: int) -> list[int]:
        """[0, entries at most the value of rank 1, ..., entries at most the
        value of rank V] of the row whose group is at the low end of bits:
        its prefix counts by rank."""
        mask = self.count_mask
        return [0] + [bits >> at & mask for at in range(0, self.group, self.width)]

    def rows(self, key: int) -> Rows:
        """The rows of a key, each distinct row decoded once per packing.

        The keys a multi-row traversal emits share most of their rows (81%
        of W18's row decodes are repeats), and the tableaux then share the
        row tuples too.  Distinct keys of a two-row packing, its content
        fixed, have distinct top rows, so there the memo hardly ever hits
        (never on the two_row benchmark batch)."""
        values, decoded, S = self.values, self.decoded, self.group
        mask = (1 << S) - 1
        rows = []
        for at in range(0, len(self.shape.stripped) * S, S):
            bits = key >> at & mask
            row = decoded.get(bits)
            if row is None:
                prefix = self.prefixes(bits)
                row = decoded[bits] = tuple(chain.from_iterable(
                    map(repeat, values, map(sub, prefix[1:], prefix))))
            rows.append(row)
        return tuple(rows)
