"""Compositions, partitions, multisets, tableaux with multiset rows, and the
column-reading permutation of a shape.

Conventions used throughout the package:

* Permutations of {1, ..., n} act on the right and are stored in one-line
  form as tuples: ``w[k-1]`` is the image of k.  Products compose left to
  right: v then w sends k to w(v(k)).
* A tableau of shape mu and type lam holds lam_i copies of the value i,
  with row r holding exactly mu_r entries.  Rows are multisets.  A
  ``Multiset`` is held only as the tuple of its elements in weakly
  increasing order, and a ``Tableau`` only as the tuple of such row tuples;
  ``Tableau.rows`` wraps them as ``Multiset`` views when asked.
* The row-reading filling of a shape places 1..n left to right along
  successive rows; the column-reading filling (partitions only) places 1..n
  down successive columns.

Each value is checked once, at the public edge.  The public constructors
read every integer with ``operator.index`` (a float raises TypeError) and
check its range; each class's ``_raw`` takes parts that are valid by
construction and checks nothing, and the enumerators (``iter_multisets``,
``iter_fillings``, ``enumerate_semistandard``) build through it.  Text
read from the command line is checked where it is split: a tableau's rows
by ``_split_rows``, any other list of integers by ``_parse_ints``.  A
tableau's type is counted from its own sorted rows.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from operator import index
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
        t = tuple(map(index, parts))
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


# The largest entry a multiset, and so a tableau, may hold.  A tableau's
# type has one part per value up to its largest entry, so the entries are
# bounded to keep that list, and the JSON that carries it, bounded.
MAX_ENTRY = 10**6


class Multiset:
    """An immutable multiset of integers from 1 to ``MAX_ENTRY``.

    Its one piece of state is the tuple of its elements in ascending order:
    equality, hashing and every query read that tuple.
    """

    __slots__ = ("_elements",)

    def __init__(self, values: Iterable[int] | Mapping[int, int] = ()):
        entries: list[int] = []
        pairs = values.items() if isinstance(values, Mapping) else zip(values, itertools.repeat(1))
        for v, m in pairs:
            v, m = index(v), index(m)
            if m < 0:
                raise ValueError(f"negative multiplicity for {v}")
            if not 1 <= v <= MAX_ENTRY:
                raise ValueError(f"multiset values must be from 1 to {MAX_ENTRY}, got {v}")
            entries += [v] * m
        self._elements = tuple(sorted(entries))

    @classmethod
    def _raw(cls, elements: tuple[int, ...]) -> "Multiset":
        # internal: a trusted tuple of entries from 1 to MAX_ENTRY, ascending
        ms = object.__new__(cls)
        ms._elements = elements
        return ms

    @property
    def size(self) -> int:
        return len(self._elements)

    def count(self, value: int) -> int:
        return self._elements.count(value)

    def support(self) -> tuple[int, ...]:
        """Distinct values present, ascending."""
        return tuple(dict.fromkeys(self._elements))

    def counts(self) -> tuple[tuple[int, int], ...]:
        """(value, multiplicity) pairs, ascending by value."""
        elements = self._elements
        return tuple((v, elements.count(v)) for v in dict.fromkeys(elements))

    def elements(self) -> tuple[int, ...]:
        """All elements with multiplicity, ascending."""
        return self._elements

    def max_value(self) -> int:
        return self._elements[-1] if self._elements else 0

    def __contains__(self, value: int) -> bool:
        return value in self._elements

    def __add__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        return Multiset._raw(tuple(sorted(self._elements + other._elements)))

    def __sub__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        rest = list(self._elements)
        for v, m in other.counts():
            # the run of v's copies in the sorted rest
            i = bisect_left(rest, v)
            have = bisect_right(rest, v, i) - i
            if have < m:
                raise ValueError(f"cannot remove {m} copies of {v}: only {have} present")
            del rest[i:i + m]
        return Multiset._raw(tuple(rest))

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

        # Values are visited in ascending order, so the chosen elements
        # grow already sorted; remaining never exceeds suffix[idx].
        def rec(idx: int, remaining: int, elements: tuple[int, ...]) -> Iterator[Multiset]:
            if remaining == 0:
                yield Multiset._raw(elements)
                return
            value, avail = items[idx]
            hi = min(avail, remaining)
            lo = max(0, remaining - suffix[idx + 1])
            for take in range(hi, lo - 1, -1):
                yield from rec(idx + 1, remaining - take, elements + (value,) * take)

        if not 0 <= size <= self.size:
            return iter(())
        return rec(0, size, ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"Multiset({list(self._elements)})"


def _ascending_tuples(size: int, max_value: int) -> Iterator[tuple[int, ...]]:
    """Every ascending tuple of size entries from 1 to max_value."""
    if size and max_value > MAX_ENTRY:
        # the error of the first entry above the limit
        raise ValueError(f"multiset values must be from 1 to {MAX_ENTRY}, got {MAX_ENTRY + 1}")
    return itertools.combinations_with_replacement(range(1, max_value + 1), size)


def iter_multisets(size: int, max_value: int) -> Iterator[Multiset]:
    """All multisets of the given size over values 1..max_value."""
    return map(Multiset._raw, _ascending_tuples(size, max_value))


def _count_vector(values: Iterable[int], top: int) -> list[int]:
    # Entry i counts the copies of the value i + 1.
    counts = [0] * top
    for v in values:
        counts[v - 1] += 1
    return counts


# ---------------------------------------------------------------------------
# frozen value classes
# ---------------------------------------------------------------------------


class _Frozen:
    """A value class whose fields are its ``__slots__``: set once, in
    order, by ``__init__``, then compared, hashed, pickled and shown field
    by field.  A subclass keeps its own typed ``__init__`` and validation;
    a field that cannot be hashed makes the value unhashable."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other: object) -> bool:
        # A subclass compares with its base both ways: the reflected call
        # runs the base's check.
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------


class Tableau:
    """A filling of a composition shape with multiset rows.

    The shape is normalized by stripping trailing zero parts (together with
    the corresponding empty rows), so equality and hashing see only the
    meaningful rows.  Internal zero parts are kept: they matter for shapes
    like (0, 2).  The rows are held only as sorted tuples of entries, and
    ``rows`` wraps them as ``Multiset`` views when asked; the stripped
    shape is their tuple of lengths, so the rows alone decide equality.
    """

    __slots__ = ("_shape", "_row_tuples", "_type", "_hash")

    def __init__(self, shape: IntoComposition, rows: Iterable[Iterable[int] | Multiset]):
        shape = as_composition(shape)
        row_tuples = tuple((r if isinstance(r, Multiset) else Multiset(r))._elements
                           for r in rows)
        parts = shape.stripped
        if len(row_tuples) < len(parts):
            raise ValueError(f"shape {parts} needs {len(parts)} rows, got {len(row_tuples)}")
        if any(row_tuples[len(parts):]):
            raise ValueError("nonempty row beyond the last nonzero shape part")
        row_tuples = row_tuples[: len(parts)]
        for i, (width, row) in enumerate(zip(parts, row_tuples)):
            if len(row) != width:
                raise ValueError(
                    f"row {i + 1} has {len(row)} entries but shape part is {width}")
        self._shape = Composition(parts)
        self._row_tuples = row_tuples
        self._type: Composition | None = None
        self._hash: int | None = None

    @classmethod
    def _raw(cls, shape: Composition, rows: tuple[tuple[int, ...], ...],
             type_: Composition | None) -> "Tableau":
        # internal: trusted sorted rows of entries from 1 to MAX_ENTRY that
        # fill the already-stripped shape, and the type of their content
        # (None: work it out when first asked)
        tab = object.__new__(cls)
        tab._shape = shape
        tab._row_tuples = rows
        tab._type = type_
        tab._hash = None
        return tab

    @property
    def shape(self) -> Composition:
        return self._shape

    @property
    def rows(self) -> tuple[Multiset, ...]:
        return tuple(map(Multiset._raw, self._row_tuples))

    @property
    def nrows(self) -> int:
        return len(self._row_tuples)

    @property
    def n(self) -> int:
        return self._shape.n

    def content(self) -> Multiset:
        return Multiset._raw(tuple(sorted(itertools.chain.from_iterable(self._row_tuples))))

    def type(self) -> Composition:
        if self._type is None:
            rows = self._row_tuples
            top = max((row[-1] for row in rows if row), default=0)
            self._type = Composition(_count_vector(itertools.chain.from_iterable(rows), top))
        return self._type

    def row_lists(self) -> tuple[tuple[int, ...], ...]:
        """Rows written out in weakly increasing order."""
        return self._row_tuples

    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        """Deterministic ordering key: the tuple of sorted rows."""
        return self._row_tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return self._row_tuples == other._row_tuples

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._row_tuples)
        return self._hash

    def __repr__(self) -> str:
        return f"Tableau({list(self._shape.stripped)}, {[list(r) for r in self._row_tuples]})"


def is_semistandard(tab: Tableau) -> bool:
    """Rows weakly increase (automatic) and columns strictly increase.

    Only defined for partition shapes; other shapes raise ValueError.
    """
    if not tab.shape.is_partition:
        raise ValueError(f"semistandardness needs a partition shape, got {tab.shape}")
    rows = tab.row_lists()
    return not any(_breaks_columns(upper, lower) for upper, lower in zip(rows, rows[1:]))


def _breaks_columns(upper: Sequence[int], lower: Sequence[int]) -> bool:
    """Whether two adjacent sorted rows, the lower no longer than the upper,
    fail to increase strictly down some column."""
    return any(b <= a for a, b in zip(upper, lower))


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


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


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_semistandard(shape: IntoComposition, type_: IntoComposition) -> list[Tableau]:
    """All semistandard tableaux of the given shape and type, in
    deterministic order.

    Rows are chosen top to bottom, each row running through the available
    sub-multisets in ascending order of sorted element tuples; a choice that
    breaks a column with the row above is skipped together with every
    completion of it.  The order is lexicographic in the row sequences.
    """
    shape = as_composition(shape)
    type_ = as_composition(type_)
    if not shape.is_partition:
        raise ValueError(f"semistandard enumeration needs a partition shape, got {shape}")
    # A tableau is held, and written, entry by entry, so its size is
    # bounded like its entries.
    for what, comp in (("shape", shape), ("type", type_)):
        if comp.n > MAX_ENTRY:
            raise ValueError(f"{what} size {comp.n} is above the limit {MAX_ENTRY}")
    if shape.n != type_.n:
        return []
    pool = Multiset({v: m for v, m in enumerate(type_.parts, start=1) if m})
    parts = shape.stripped
    shape, type_ = Composition(parts), Composition(type_.stripped)
    out: list[Tableau] = []

    def rec(idx: int, remaining: Multiset, rows: list[tuple[int, ...]]) -> None:
        if idx == len(parts):
            out.append(Tableau._raw(shape, tuple(rows), type_))
            return
        for choice in remaining.sub_multisets(parts[idx]):
            row = choice._elements
            if rows and _breaks_columns(rows[-1], row):
                continue
            rows.append(row)
            rec(idx + 1, remaining - choice, rows)
            rows.pop()

    rec(0, pool, [])
    return out


def iter_fillings(shape: IntoComposition, max_value: int) -> Iterator[Tableau]:
    """All tableaux of the given shape with entries bounded by max_value."""
    shape = Composition(as_composition(shape).stripped)
    for rows in itertools.product(*(_ascending_tuples(p, max_value) for p in shape.parts)):
        yield Tableau._raw(shape, rows, None)


# ---------------------------------------------------------------------------
# text and JSON forms
# ---------------------------------------------------------------------------


def format_tableau_inline(tab: Tableau) -> str:
    """Single line with rows separated by ' / '."""
    return " / ".join(" ".join(map(str, row)) for row in tab.row_lists())


def _split_rows(text: str) -> list[list[int]]:
    """The rows of a textual tableau as written, each a list of positive
    entries; blank rows are skipped."""
    pieces = [p for chunk in text.split("\n") for p in chunk.split("/")]
    rows: list[list[int]] = []
    for piece in pieces:
        entries = piece.split()
        if not entries:
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
    return _rows_tableau(_split_rows(text), strict)


def _rows_tableau(rows: list[list[int]], strict: bool) -> Tableau:
    # The tableau of rows that _split_rows read.
    if strict and any(row != sorted(row) for row in rows):
        raise ParseError("rows are not weakly increasing (strict mode)")
    return Tableau(Composition(map(len, rows)), rows)


def _json_ints(value: object, what: str) -> None:
    """Reject anything but a parsed JSON list of integers; a float or a
    bool is not one."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ParseError(f"{what} must be a list of integers, got {value!r}")


def _parse_ints(text: str, label: str, least: int, rule: str) -> list[int]:
    """Comma- or space-separated integers, each at least least; a
    ParseError names the label, or the rule that an entry broke."""
    try:
        values = [int(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad {label} {text!r}") from exc
    if any(v < least for v in values):
        raise ParseError(f"{rule}: {text!r}")
    return values


def parse_multiset(text: str) -> Multiset:
    """Parse comma- or space-separated positive integers; empty means empty."""
    return Multiset(_parse_ints(text, "multiset", 1, "multiset values must be positive"))
