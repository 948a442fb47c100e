"""Compositions, partitions, multisets, tableaux with multiset rows, and the
permutations attached to them.

Conventions used throughout the package:

* Permutations of {1, ..., n} act on the right and are stored in one-line
  form as tuples: ``w[k-1]`` is the image of k.  Products compose left to
  right, so ``perm_mul(v, w)`` sends k to w(v(k)).
* A tableau of shape mu and type lam holds lam_i copies of the value i,
  with row r holding exactly mu_r entries.  Rows are multisets; written out,
  each row is read in weakly increasing order.
* The row-reading filling of a shape places 1..n left to right along
  successive rows; the column-reading filling (partitions only) places 1..n
  down successive columns.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Iterable, Iterator, Sequence, Union

from .errors import ParseError

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# compositions and partitions
# ---------------------------------------------------------------------------


class Composition:
    """A finite sequence of nonnegative integers.

    Trailing zero parts are retained for display but ignored by equality
    and hashing: (2, 1, 0) == (2, 1).
    """

    __slots__ = ("_parts", "_stripped")

    def __init__(self, parts: Iterable[int]):
        t = tuple(int(p) for p in parts)
        if any(p < 0 for p in t):
            raise ValueError(f"composition parts must be nonnegative, got {t}")
        self._parts = t
        k = len(t)
        while k and t[k - 1] == 0:
            k -= 1
        self._stripped = t[:k]

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def stripped(self) -> tuple[int, ...]:
        """Parts with trailing zeros removed."""
        return self._stripped

    @property
    def n(self) -> int:
        return sum(self._parts)

    def part(self, i: int) -> int:
        """The i-th part (0-based); parts beyond the end are 0."""
        return self._parts[i] if 0 <= i < len(self._parts) else 0

    @property
    def is_partition(self) -> bool:
        s = self._stripped
        return all(s[i] >= s[i + 1] for i in range(len(s) - 1))

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Composition):
            return NotImplemented
        return self._stripped == other._stripped

    def __hash__(self) -> int:
        return hash(self._stripped)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._parts)})"


class Partition(Composition):
    """A composition whose parts weakly decrease."""

    __slots__ = ()

    def __init__(self, parts: Iterable[int]):
        super().__init__(parts)
        if not super().is_partition:
            raise ValueError(f"parts do not weakly decrease: {self._parts}")

    def conjugate(self) -> "Partition":
        """Transpose: part c of the conjugate is the height of column c."""
        s = self._stripped
        if not s:
            return Partition(())
        return Partition(tuple(sum(1 for p in s if p >= c) for c in range(1, s[0] + 1)))


IntoComposition = Union[Composition, Iterable[int]]


def as_composition(value: IntoComposition) -> Composition:
    return value if isinstance(value, Composition) else Composition(value)


def iter_compositions(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """All length-tuples of nonnegative integers summing to n."""
    if length == 0:
        if n == 0:
            yield ()
        return
    if length == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in iter_compositions(n - first, length - 1):
            yield (first,) + rest


def iter_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n in decreasing lexicographic order."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# multisets
# ---------------------------------------------------------------------------


class Multiset:
    """An immutable multiset of positive integers."""

    __slots__ = ("_counts", "_elements")

    def __init__(self, values: Iterable[int] | Mapping[int, int] = ()):
        counts: dict[int, int] = {}
        if isinstance(values, Mapping):
            for v, m in values.items():
                v, m = int(v), int(m)
                if m < 0:
                    raise ValueError(f"negative multiplicity for {v}")
                if v < 1:
                    raise ValueError(f"multiset values must be >= 1, got {v}")
                if m:
                    counts[v] = counts.get(v, 0) + m
        else:
            for v in values:
                v = int(v)
                if v < 1:
                    raise ValueError(f"multiset values must be >= 1, got {v}")
                counts[v] = counts.get(v, 0) + 1
        self._counts = counts
        self._elements = _sorted_elements(counts)

    @classmethod
    def _raw(cls, counts: dict[int, int]) -> "Multiset":
        # internal: trusted counts, values >= 1 with positive multiplicities
        ms = object.__new__(cls)
        ms._counts = counts
        ms._elements = _sorted_elements(counts)
        return ms

    @property
    def size(self) -> int:
        return len(self._elements)

    def count(self, value: int) -> int:
        return self._counts.get(value, 0)

    def support(self) -> tuple[int, ...]:
        """Distinct values present, ascending."""
        return tuple(sorted(self._counts))

    def counts(self) -> tuple[tuple[int, int], ...]:
        """(value, multiplicity) pairs, ascending by value."""
        return tuple(sorted(self._counts.items()))

    def elements(self) -> tuple[int, ...]:
        """All elements with multiplicity, ascending."""
        return self._elements

    def max_value(self) -> int:
        return max(self._counts) if self._counts else 0

    def element_sum(self) -> int:
        return sum(self._elements)

    def __contains__(self, value: int) -> bool:
        return value in self._counts

    def __add__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        acc = dict(self._counts)
        for v, m in other._counts.items():
            acc[v] = acc.get(v, 0) + m
        return Multiset._raw(acc)

    def __sub__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        acc = dict(self._counts)
        for v, m in other._counts.items():
            have = acc.get(v, 0)
            if have < m:
                raise ValueError(f"cannot remove {m} copies of {v}: only {have} present")
            if have == m:
                del acc[v]
            else:
                acc[v] = have - m
        return Multiset._raw(acc)

    def contains_submultiset(self, other: "Multiset") -> bool:
        return all(self.count(v) >= m for v, m in other._counts.items())

    def sub_multisets(self, size: int) -> Iterator["Multiset"]:
        """All sub-multisets of a given size.

        Enumeration is deterministic: results ascend in the lexicographic
        order of their sorted element tuples, which is descending
        lexicographic order on multiplicity vectors.
        """
        items = self.counts()
        suffix = [0] * (len(items) + 1)
        for i in range(len(items) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + items[i][1]

        def rec(idx: int, remaining: int, chosen: list[tuple[int, int]]) -> Iterator[Multiset]:
            if remaining == 0:
                yield Multiset._raw(dict(chosen))
                return
            if idx == len(items):
                return
            value, avail = items[idx]
            hi = min(avail, remaining)
            lo = max(0, remaining - suffix[idx + 1])
            for take in range(hi, lo - 1, -1):
                if take:
                    chosen.append((value, take))
                yield from rec(idx + 1, remaining - take, chosen)
                if take:
                    chosen.pop()

        if not 0 <= size <= self.size:
            return iter(())
        return rec(0, size, [])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"Multiset({list(self._elements)})"


def _sorted_elements(counts: dict[int, int]) -> tuple[int, ...]:
    return tuple(sorted(itertools.chain.from_iterable(
        itertools.repeat(v, m) for v, m in counts.items())))


def iter_multisets(size: int, max_value: int) -> Iterator[Multiset]:
    """All multisets of the given size over values 1..max_value."""
    for combo in itertools.combinations_with_replacement(range(1, max_value + 1), size):
        yield Multiset(combo)


def type_composition(content: Multiset) -> Composition:
    """The composition recording how many copies of each value 1..max occur."""
    top = content.max_value()
    return Composition(tuple(content.count(v) for v in range(1, top + 1)))


def cross_pairs(upper: Multiset, lower: Multiset) -> int:
    """Number of pairs (a, b) with a from upper, b from lower and a > b.

    Counted with multiplicity; this is the exponent bookkeeping used by the
    straightening coefficients and by the length of the tableau permutation.
    """
    total = 0
    for a, ma in upper.counts():
        for b, mb in lower.counts():
            if a > b:
                total += ma * mb
    return total


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------


class Tableau:
    """A filling of a composition shape with multiset rows.

    The shape is normalized by stripping trailing zero parts (together with
    the corresponding empty rows), so equality and hashing see only the
    meaningful rows.  Internal zero parts are kept: they matter for shapes
    like (0, 2).
    """

    __slots__ = ("_shape", "_rows", "_type", "_row_lists", "_hash")

    def __init__(self, shape: IntoComposition, rows: Iterable[Iterable[int] | Multiset]):
        shape = as_composition(shape)
        row_ms = tuple(r if isinstance(r, Multiset) else Multiset(r) for r in rows)
        parts = shape.stripped
        if len(row_ms) < len(parts):
            raise ValueError(f"shape {parts} needs {len(parts)} rows, got {len(row_ms)}")
        for extra in row_ms[len(parts):]:
            if extra.size:
                raise ValueError("nonempty row beyond the last nonzero shape part")
        row_ms = row_ms[: len(parts)]
        for i, (width, row) in enumerate(zip(parts, row_ms)):
            if row.size != width:
                raise ValueError(
                    f"row {i + 1} has {row.size} entries but shape part is {width}")
        self._shape = Composition(parts)
        self._rows = row_ms
        self._type: Composition | None = None
        self._row_lists: tuple[tuple[int, ...], ...] | None = None
        self._hash: int | None = None

    @classmethod
    def _raw(cls, shape: Composition, rows: tuple[Multiset, ...],
             type_: Composition) -> "Tableau":
        # internal: trusted rows that fill the already-stripped shape, and
        # the type of their content
        tab = object.__new__(cls)
        tab._shape = shape
        tab._rows = rows
        tab._type = type_
        tab._row_lists = None
        tab._hash = None
        return tab

    @property
    def shape(self) -> Composition:
        return self._shape

    @property
    def rows(self) -> tuple[Multiset, ...]:
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def n(self) -> int:
        return self._shape.n

    def content(self) -> Multiset:
        acc = Multiset()
        for row in self._rows:
            acc = acc + row
        return acc

    def type(self) -> Composition:
        if self._type is None:
            self._type = type_composition(self.content())
        return self._type

    def row_lists(self) -> tuple[tuple[int, ...], ...]:
        """Rows written out in weakly increasing order."""
        if self._row_lists is None:
            self._row_lists = tuple(r.elements() for r in self._rows)
        return self._row_lists

    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        """Deterministic ordering key: the tuple of sorted rows."""
        return self.row_lists()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return self._shape == other._shape and self.row_lists() == other.row_lists()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._shape, self.row_lists()))
        return self._hash

    def __repr__(self) -> str:
        return f"Tableau({list(self._shape.stripped)}, {[list(r.elements()) for r in self._rows]})"


def is_semistandard(tab: Tableau) -> bool:
    """Rows weakly increase (automatic) and columns strictly increase.

    Only defined for partition shapes; other shapes raise ValueError.
    """
    if not tab.shape.is_partition:
        raise ValueError(f"semistandardness needs a partition shape, got {tab.shape}")
    rows = tab.row_lists()
    for upper, lower in zip(rows, rows[1:]):
        for c in range(len(lower)):
            if lower[c] <= upper[c]:
                return False
    return True


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_mul(first: Perm, second: Perm) -> Perm:
    """Compose left to right: k goes to second(first(k))."""
    return tuple(second[v - 1] for v in first)


def perm_inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for k, v in enumerate(w, start=1):
        out[v - 1] = k
    return tuple(out)


def inversions(w: Perm) -> int:
    """Coxeter length: the number of pairs i < j with w(i) > w(j)."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def _perm_of_filling(cell_values: Sequence[int], type_length: int) -> Perm:
    """Permutation attached to an explicit cell-by-cell filling.

    Cell p of the row-reading filling holds the number p; the result sends
    the row-reading filling of the type shape to the tableau whose row r
    lists, in increasing order, the cells holding value r.
    """
    cells_by_value: list[list[int]] = [[] for _ in range(type_length)]
    for p, v in enumerate(cell_values, start=1):
        cells_by_value[v - 1].append(p)
    images: list[int] = []
    for cells in cells_by_value:
        images.extend(cells)
    return tuple(images)


def perm_1A(tab: Tableau) -> Perm:
    """The distinguished coset representative attached to a tableau.

    Reading the shape's row-reading filling cell by cell, the number in a
    cell is sent into the type-shape row named by the tableau's value in
    that cell; each row of the image is increasing.
    """
    cells = [v for row in tab.row_lists() for v in row]
    return _perm_of_filling(cells, len(tab.type().stripped))


def length_1A(tab: Tableau) -> int:
    """Closed form for inversions(perm_1A(tab)), purely from row contents.

    Counts, over all row pairs g < h, the pairs of entries (j in row g,
    i in row h) with i < j.
    """
    rows = tab.rows
    total = 0
    for g in range(len(rows)):
        for h in range(g + 1, len(rows)):
            total += cross_pairs(rows[g], rows[h])
    return total


def w_mu(shape: IntoComposition) -> Perm:
    """Permutation taking the row-reading filling to the column-reading one.

    Defined for partition shapes only.
    """
    shape = as_composition(shape)
    if not shape.is_partition:
        raise ValueError(f"column reading needs a partition shape, got {shape}")
    parts = Partition(shape.stripped)
    cols = parts.conjugate().stripped
    col_offset = [0] * (len(cols) + 1)
    for c, height in enumerate(cols):
        col_offset[c + 1] = col_offset[c] + height
    images: list[int] = []
    for r, width in enumerate(parts.stripped):
        for c in range(width):
            images.append(col_offset[c] + r + 1)
    return tuple(images)


def row_reading_composition(tab: Tableau) -> Composition:
    """Per-row multiplicity vectors, concatenated row after row.

    Zero entries are retained positionally up to the maximum value of the
    type, so the result refines the shape blockwise.
    """
    top = len(tab.type().stripped)
    parts: list[int] = []
    for row in tab.rows:
        parts.extend(row.count(v) for v in range(1, top + 1))
    return Composition(parts)


def column_reading_composition(tab: Tableau) -> Composition:
    """Per-value multiplicity vectors, concatenated value after value.

    For each value 1..max, lists its multiplicity in row 1, row 2, ...;
    the result refines the type blockwise.
    """
    top = len(tab.type().stripped)
    parts: list[int] = []
    for v in range(1, top + 1):
        parts.extend(row.count(v) for row in tab.rows)
    return Composition(parts)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_row_standard(shape: IntoComposition, type_: IntoComposition) -> list[Tableau]:
    """All tableaux of the given shape and type, in deterministic order.

    Rows are chosen top to bottom, each row running through the available
    sub-multisets in ascending order of sorted element tuples; the overall
    order is lexicographic in the resulting row sequences.
    """
    shape = as_composition(shape)
    type_ = as_composition(type_)
    if shape.n != type_.n:
        return []
    pool = Multiset({v: m for v, m in enumerate(type_.parts, start=1) if m})
    parts = shape.stripped
    out: list[Tableau] = []

    def rec(idx: int, remaining: Multiset, rows: list[Multiset]) -> None:
        if idx == len(parts):
            out.append(Tableau(shape, list(rows)))
            return
        for choice in remaining.sub_multisets(parts[idx]):
            rows.append(choice)
            rec(idx + 1, remaining - choice, rows)
            rows.pop()

    rec(0, pool, [])
    return out


def enumerate_semistandard(shape: IntoComposition, type_: IntoComposition) -> list[Tableau]:
    """The semistandard subsequence of enumerate_row_standard."""
    shape = as_composition(shape)
    if not shape.is_partition:
        raise ValueError(f"semistandard enumeration needs a partition shape, got {shape}")
    return [t for t in enumerate_row_standard(shape, type_) if is_semistandard(t)]


def iter_fillings(shape: IntoComposition, max_value: int) -> Iterator[Tableau]:
    """All tableaux of the given shape with entries bounded by max_value."""
    shape = as_composition(shape)
    parts = shape.stripped
    for rows in itertools.product(*(iter_multisets(p, max_value) for p in parts)):
        yield Tableau(shape, rows)


# ---------------------------------------------------------------------------
# text and JSON forms
# ---------------------------------------------------------------------------


def format_tableau(tab: Tableau) -> str:
    """One row per line, entries space-separated, weakly increasing."""
    return "\n".join(" ".join(map(str, row)) for row in tab.row_lists())


def format_tableau_inline(tab: Tableau) -> str:
    """Single line with rows separated by ' / '."""
    return " / ".join(" ".join(map(str, row)) for row in tab.row_lists())


def rows_are_sorted(text: str) -> bool:
    """Whether every row of a textual tableau is already weakly increasing."""
    try:
        rows = _split_rows(text)
    except ParseError:
        return True
    return all(list(r) == sorted(r) for r in rows)


def _split_rows(text: str) -> list[list[int]]:
    pieces = [p for chunk in text.split("\n") for p in chunk.split("/")]
    rows: list[list[int]] = []
    for piece in pieces:
        entries = piece.split()
        if not entries:
            if piece.strip():
                raise ParseError(f"bad tableau row: {piece!r}")
            continue
        try:
            row = [int(e) for e in entries]
        except ValueError as exc:
            raise ParseError(f"bad tableau entry in {piece!r}") from exc
        if any(e < 1 for e in row):
            raise ParseError(f"tableau entries must be positive: {row}")
        rows.append(row)
    if not rows:
        raise ParseError("no tableau rows found")
    return rows


def parse_tableau(text: str, *, strict: bool = False) -> Tableau:
    """Parse rows separated by '/' or newlines, entries space-separated.

    Rows are multisets, so unsorted input is accepted and sorted; with
    strict=True unsorted rows raise ParseError instead.
    """
    rows = _split_rows(text)
    if strict and any(list(r) != sorted(r) for r in rows):
        raise ParseError("rows are not weakly increasing (strict mode)")
    return Tableau(Composition(len(r) for r in rows), [Multiset(r) for r in rows])


def tableau_to_json(tab: Tableau) -> dict:
    return {
        "shape": list(tab.shape.stripped),
        "rows": [list(row) for row in tab.row_lists()],
    }


def tableau_from_json(data: object) -> Tableau:
    if not isinstance(data, dict) or "shape" not in data or "rows" not in data:
        raise ParseError("tableau JSON needs 'shape' and 'rows' keys")
    shape, rows = data["shape"], data["rows"]
    if not isinstance(shape, list) or not isinstance(rows, list):
        raise ParseError("tableau JSON 'shape' and 'rows' must be lists")
    try:
        return Tableau(Composition(shape), [Multiset(r) for r in rows])
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad tableau JSON: {exc}") from exc


def parse_multiset(text: str) -> Multiset:
    """Parse comma- or space-separated positive integers; empty means empty."""
    cleaned = text.replace(",", " ").split()
    try:
        values = [int(v) for v in cleaned]
    except ValueError as exc:
        raise ParseError(f"bad multiset {text!r}") from exc
    if any(v < 1 for v in values):
        raise ParseError(f"multiset values must be positive: {text!r}")
    return Multiset(values)
