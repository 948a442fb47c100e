"""Exact model of the permutation modules of the Hecke algebra at small degree.

Tableau maps land in permutation modules, and everything here works in
their tabloid basis: for a composition, the basis element at a minimal
coset representative d is the composition's x element times the basis
element of d (Dipper and James, Proc. LMS 52, 1986).  That is
n!/|Young subgroup| coordinates instead of the algebra's n!.

* A tabloid is keyed by its block-label word, packed into one int with a
  few bits per position, and a coefficient is one int, its value at
  q = 2**bits, as in the straightening engine (see ``qcoeff``).  No
  coordinate carries a bound: each check carries one scalar bound on the
  L1 norm of every coordinate of its result and reads it once, only when
  every value of that result is 0.  ``_mul_gen`` is the right action of
  one generator.
* The map of a tableau C sends x T_d to image(C) T_d, which is its one
  image rule.  image(C) is the sum of the tabloids row-equivalent to C,
  each with coefficient 1: ``_image_words`` lists their words straight
  from C's sorted row tuples, ``_apply_hom`` applies the map to a packed
  vector, and ``image_h3`` unpacks an image into a ``TabloidVector``.
* The Specht test (``specht_check``) and the four composition identities
  (``verify_composition_props``) run on that kernel.  Each identity is
  data, tableau maps composed on the left and a combination of them on
  the right, for one evaluator, ``_identity_holds``; every tableau there
  is its sorted row tuples (``garnir.Rows``), never a ``Tableau``.  A
  zero that its width cannot certify restarts the computation wider.
* The one shortcut: the Specht test does not multiply by the alternating
  element y of the conjugate shape.  Since T_i y = -y for s_i in y's
  column group, x T_d y is 0 or ± x T_u y for u the column-sorted word of
  d, and those are independent.  The test multiplies by the letters of
  w_mu in turn and folds each column block onto its sorted words as soon
  as no later letter touches it (``_fold_plan``, ``_fold_columns``), which
  keeps the support far below the module's dimension.

``HeckeElem``, an algebra element in the standard basis, is not used by
any library or command-line path.  The standard-basis model that the tests
compare this module with is ``tests/hecke_reference.py``; it also keeps the
generator-by-generator product by y that the fold replaced, and the
one-pass fold after all of w_mu that the staged folds replaced.

Apart from the folds, every step applies the algebra's defining rules one
generator at a time.  The fast combinatorial straightening in the other
modules is verified against this model at small sizes.

A degree cap (default 8, overridable through the HECKEHOM_ORACLE_CAP
environment variable) guards against accidentally asking for a basis with
billions of elements.
"""

from __future__ import annotations

import itertools
import os
import random
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import OracleCapError
from .combinat import (
    Composition,
    Multiset,
    Partition,
    Perm,
    Tableau,
    _Frozen,
    identity_perm,
    iter_multisets,
    w_mu,
)
from .garnir import (
    GarnirDatum,
    LinComb,
    Rows,
    garnir_relation,
    iter_valid_data,
)
from .qcoeff import (
    MAX_EXPONENT_SPAN,
    IntoPoly,
    LaurentPoly,
    _add_into,
    _as_poly,
    _lowest_exponent,
    _norm,
    _pack,
    _Widen,
    _widening,
    _wider,
    quantum_binomial,
)

DEFAULT_CAP = 8
CAP_ENV_VAR = "HECKEHOM_ORACLE_CAP"

_ONE = LaurentPoly.one()
_Q_MINUS_1 = LaurentPoly.parse("q - 1")

def oracle_cap() -> int:
    """The current degree cap: the environment override or the default."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be at least 1, got {raw!r}")
    return cap


def _require_within_cap(n: int) -> None:
    cap = oracle_cap()
    if n > cap:
        raise OracleCapError(
            f"degree {n} exceeds the oracle cap {cap}; "
            f"raise {CAP_ENV_VAR} to override")


# ---------------------------------------------------------------------------
# algebra elements
# ---------------------------------------------------------------------------


class HeckeElem:
    """A sparse element of the degree-n Hecke algebra in the standard basis.

    Stored as a map from permutations (one-line tuples) to nonzero Laurent
    polynomial coefficients.  No library or command-line path uses it; it
    stays in this module because perfbench/tracer.py imports it and patches
    ``mul_t`` and ``mul_right_gen``, and the standard-basis reference in
    tests/hecke_reference.py is built on it.
    """

    __slots__ = ("_n", "_terms")

    def __init__(self, n: int, terms: Mapping[Perm, IntoPoly] = ()):
        self._n = n
        acc: dict[Perm, LaurentPoly] = {}
        for w, coeff in dict(terms).items():
            if len(w) != n or sorted(w) != list(range(1, n + 1)):
                raise ValueError(f"{w} is not a permutation of 1..{n}")
            poly = _as_poly(coeff)
            if poly:
                acc[tuple(w)] = poly
        self._terms = acc

    @classmethod
    def _raw(cls, n: int, terms: dict[Perm, LaurentPoly]) -> "HeckeElem":
        elem = object.__new__(cls)
        elem._n = n
        elem._terms = terms
        return elem

    @classmethod
    def zero(cls, n: int) -> "HeckeElem":
        return cls._raw(n, {})

    @classmethod
    def one(cls, n: int) -> "HeckeElem":
        return cls._raw(n, {identity_perm(n): LaurentPoly.one()})

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> list[tuple[Perm, LaurentPoly]]:
        """(permutation, coefficient) pairs in lexicographic order."""
        return sorted(self._terms.items())

    def coefficient(self, w: Perm) -> LaurentPoly:
        return self._terms.get(tuple(w), LaurentPoly.zero())

    def support(self) -> set[Perm]:
        return set(self._terms)

    def _check_degree(self, other: "HeckeElem") -> None:
        if self._n != other._n:
            raise ValueError(f"degree mismatch: {self._n} vs {other._n}")

    def __add__(self, other: "HeckeElem") -> "HeckeElem":
        if not isinstance(other, HeckeElem):
            return NotImplemented
        self._check_degree(other)
        acc = dict(self._terms)
        for w, poly in other._terms.items():
            _add_into(acc, w, poly)
        return HeckeElem._raw(self._n, acc)

    def __sub__(self, other: "HeckeElem") -> "HeckeElem":
        if not isinstance(other, HeckeElem):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self) -> "HeckeElem":
        return self.scale(-1)

    def scale(self, factor: IntoPoly) -> "HeckeElem":
        poly = _as_poly(factor)
        if not poly:
            return HeckeElem.zero(self._n)
        return HeckeElem._raw(
            self._n, {w: c * poly for w, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElem):
            return NotImplemented
        return self._n == other._n and self._terms == other._terms

    def __repr__(self) -> str:
        return f"HeckeElem(n={self._n}, {len(self._terms)} terms)"

    def mul_right_gen(self, i: int) -> "HeckeElem":
        """Right multiplication by the i-th generator, 1 <= i <= n-1.

        For a basis term indexed by w: if swapping the values i, i+1
        lengthens w, the term moves there; otherwise the quadratic relation
        contributes (q-1) times the old term plus q times the shortened one.
        """
        if not 1 <= i <= self._n - 1:
            raise ValueError(f"generator index {i} out of range 1..{self._n - 1}")
        acc: dict[Perm, LaurentPoly] = {}
        for w, coeff in self._terms.items():
            pos_lo = w.index(i)
            pos_hi = w.index(i + 1)
            swapped = list(w)
            swapped[pos_lo], swapped[pos_hi] = i + 1, i
            ws = tuple(swapped)
            if pos_lo < pos_hi:
                _add_into(acc, ws, coeff)
            else:
                _add_into(acc, w, coeff * _Q_MINUS_1)
                _add_into(acc, ws, coeff.shift(1))
        return HeckeElem._raw(self._n, acc)

    def mul_t(self, w: Perm) -> "HeckeElem":
        """Right multiplication by the standard basis element of w."""
        elem = self
        for i in reduced_word(tuple(w)):
            elem = elem.mul_right_gen(i)
        return elem

    def mul(self, other: "HeckeElem") -> "HeckeElem":
        """Full product, distributing over the right factor's basis terms."""
        self._check_degree(other)
        total = HeckeElem.zero(self._n)
        for w, coeff in other._terms.items():
            total = total + self.mul_t(w).scale(coeff)
        return total


# One oracle benchmark pass asks for 9 distinct words, one per shape, and
# verify --props 5 --values 3 for 55.  The tests' reference walk over all
# 71715 tableaux to degree 7 asks for 4586, more than the limit, which then
# only caps memory.
@lru_cache(maxsize=4096)
def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced word for w, found by repeatedly stripping a right descent,
    the largest first.

    If the value i appears after i+1 in one-line form, then w ends with the
    i-th generator; stripping it shortens w by one.  The collected letters,
    reversed, multiply out to w, and their count is the Coxeter length of
    w, its number of pairs i < j with w(i) > w(j).

    The largest descent is stripped first because then, in the word of
    ``w_mu``, the letters that touch each column block of the conjugate
    shape end no later than those of the next block (the tests check every
    partition up to degree 8).  The Specht test folds each block right
    after its last letter (``_fold_plan``), so the blocks fold early and
    from left to right.
    """
    letters: list[int] = []
    cur = list(w)
    n = len(cur)
    pos = [0] * (n + 1)
    for p, v in enumerate(cur):
        pos[v] = p
    while True:
        descent = next((i for i in range(n - 1, 0, -1) if pos[i] > pos[i + 1]), None)
        if descent is None:
            break
        letters.append(descent)
        p_lo, p_hi = pos[descent], pos[descent + 1]
        cur[p_lo], cur[p_hi] = cur[p_hi], cur[p_lo]
        pos[descent], pos[descent + 1] = p_hi, p_lo
    return tuple(reversed(letters))


# ---------------------------------------------------------------------------
# the tabloid kernel: images, maps and the Specht test
# ---------------------------------------------------------------------------


# A tabloid, the basis element x T_d of the permutation module of a
# composition, is keyed by its block-label word: the label of position p
# (0-based) is the index of the block of positions of d that holds the value
# p + 1.  Words and minimal coset representatives determine each other,
# because d increases along each block.  A word is one int, with the label
# of position p in bits [s*p, s*p + s), where s is ``_label_bits`` of the
# composition's number of parts.
Word = int
# Per word: its coefficient's value at q = 2**bits, with no bound of its
# own.  Evaluation is a ring map, so every value stays exact, 0 included;
# the check that reads a vector carries one norm bound for all of it.
Packed = dict[Word, int]
Image = tuple[list[Word], LaurentPoly, int]


def _label_bits(blocks: int) -> int:
    """The bits per position of a word over this many blocks: the bit
    length of the largest label, blocks - 1, and at least 1."""
    return max(1, (blocks - 1).bit_length())


# One table per label width and generator; a degree-8 check needs at most 7
# per width.
@lru_cache(maxsize=256)
def _swap_deltas(s: int, i: int) -> tuple[int, ...]:
    """What swapping positions i - 1 and i adds to a word of s-bit labels,
    indexed by the two labels' bits: d << lo minus d << hi, for d = z - a,
    so positive exactly when a > z, and 0 when a == z."""
    lo = s * (i - 1)
    mask = (1 << s) - 1
    step = (1 << lo) - (1 << (lo + s))
    return tuple(((pair >> s) - (pair & mask)) * step for pair in range(1 << 2 * s))


def _certified_zero(vec: Packed, bound: int, bits: int) -> bool:
    """Whether vec, a check's result at q = 2**bits, proves that result 0.

    A nonzero value proves a nonzero polynomial at any width, so the answer
    is False.  With every value 0, bound must cover the L1 norm of every
    coordinate's polynomial: below 2**(bits - 1), the balanced base-2**bits
    digits of 0 pin each coefficient to 0.  A larger bound raises _Widen.
    """
    if any(vec.values()):
        return False
    if bound >> (bits - 1):
        raise _Widen(_wider(bits, bound))
    return True


def _mul_gen(vec: Packed, i: int, s: int, bits: int) -> Packed:
    """Right multiplication by the i-th generator, at q = 2**bits.

    T_i reads the labels a and z at positions i - 1 and i.  Equal labels
    put both values in one block of d, where the x element absorbs T_i as
    q.  With a < z, i comes before i + 1 in d, and the term moves to the
    swapped word, the one of d s_i.  With a > z, the quadratic relation
    gives (q - 1) times the term plus q times the term at the swapped word.
    A word and its swap thus feed only each other, so only the pair's
    shared coordinate needs adding up.  What the swap adds to the word
    comes from one table over the pair's bits (``_swap_deltas``).

    A coordinate's L1 norm at most triples: the shared one is its own term
    plus (q - 1) times the other's.  Nothing is dropped, so a word whose
    value cancels to 0 stays, which keeps every word of the true support.
    """
    lo = s * (i - 1)
    pair_mask = (1 << 2 * s) - 1
    deltas = _swap_deltas(s, i)
    out: Packed = {}
    for word, coeff in vec.items():
        delta = deltas[word >> lo & pair_mask]
        if not delta:
            out[word] = coeff << bits
            continue
        swapped = word + delta
        other = vec.get(swapped)
        if delta > 0:
            if other is None:
                out[word] = (coeff << bits) - coeff
                out[swapped] = coeff << bits
        elif other is None:
            out[swapped] = coeff
        else:
            # This word moves onto its swap, which also keeps (q - 1) times
            # its own term and sends q times it here.
            out[word] = other << bits
            out[swapped] = coeff + (other << bits) - other
    return out


# Every image is built from these; one oracle benchmark pass asks for 124
# distinct rows.
@lru_cache(maxsize=1024)
def _arrangements(row: tuple[int, ...], s: int) -> tuple[Word, ...]:
    """Every distinct ordering of a sorted row of values, as a word of
    s-bit labels, value - 1, starting at bit 0."""
    if not row:
        return (0,)
    out: list[Word] = []
    for k, first in enumerate(row):
        if k and row[k - 1] == first:
            continue
        out.extend(first - 1 + (tail << s)
                   for tail in _arrangements(row[:k] + row[k + 1:], s))
    return tuple(out)


def _image_words(rows: Rows, s: int) -> list[Word]:
    """The image of the map of a tableau with these sorted rows, the image
    of the generator of the permutation module of its shape, in the tabloid
    basis of its type's module: the words of the tabloids row-equivalent to
    the tableau, each with coefficient 1 (Dipper and James's definition of
    the map), with s-bit labels.

    The label at position p of such a word is the label, value - 1, in
    cell p of the shape's row-reading order of a filling whose rows
    rearrange the tableau's, so the words are the products of one distinct
    arrangement of each row's labels, each shifted to its row's first cell.
    The route through the tableau's permutation, x T_1A times the sum of
    T_d over the coset representatives d of the row-reading composition in
    the shape's subgroup, gives the same words (``walk_image_words`` in
    tests/hecke_reference.py): 1A is the shortest element of its double
    coset, so l(1A d) = l(1A) + l(d), and no letter of a reduced word of
    1A d meets two equal labels or shortens the term.
    """
    words: list[Word] = [0]
    shift = 0
    for row in rows:
        if row:
            arranged = _arrangements(row, s)
            if shift:
                arranged = [a << shift for a in arranged]
            words = [w + a for w in words for a in arranged]
            shift += s * len(row)
    return words


def _rep_of(word: Word, sizes: Sequence[int], s: int) -> Perm:
    """The minimal coset representative with the given s-bit word, over
    blocks of these sizes: each block of positions holds its values in
    increasing order."""
    mask = (1 << s) - 1
    blocks: list[list[int]] = [[] for _ in sizes]
    for v in range(1, sum(sizes) + 1):
        blocks[word & mask].append(v)
        word >>= s
    return tuple(v for block in blocks for v in block)


def _apply_hom(vec: Packed, rows: Rows, s: int, bits: int) -> tuple[Packed, int]:
    """The map of the tableau with these sorted rows on a packed vector of
    the permutation module of its shape, landing in the module of its type,
    with s-bit words on both sides; and the factor by which the map can
    raise a norm bound.

    The map sends the tabloid x T_d to image(rows) T_d, so the result is the
    sum over the vector's words of the coefficient times the image
    multiplied, letter by letter, by a reduced word of the word's d.  Each
    letter at most triples a coordinate's norm (see ``_mul_gen``), so a
    bound B on the input's coordinates gives B times the sum over its words
    of 3**l(d) on the output's.
    """
    image = dict.fromkeys(_image_words(rows, s), 1)
    sizes = tuple(map(len, rows))
    out: Packed = {}
    growth = 0
    for word, coeff in vec.items():
        term = image
        letters = reduced_word(_rep_of(word, sizes, s))
        growth += 3 ** len(letters)
        for i in letters:
            term = _mul_gen(term, i, s, bits)
        for image_word, c in term.items():
            out[image_word] = out.get(image_word, 0) + c * coeff
    return out, growth


class TabloidVector(_Frozen):
    """An element of a permutation module written in the tabloid basis.

    coords maps each minimal coset representative d to its coefficient;
    the basis element at d is the composition's x element times the basis
    element of d.  ``image_h3`` returns one.  Its fields cannot be
    reassigned, and it is not hashable.
    """

    __slots__ = ("composition", "coords")

    def __init__(self, composition: Composition, coords: dict[Perm, LaurentPoly]) -> None:
        super().__init__(composition, coords)

    @property
    def is_zero(self) -> bool:
        return not self.coords


def image_h3(tab: Tableau) -> TabloidVector:
    """Image of the permutation-module generator under the tableau's map,
    in the tabloid basis of the module of the tableau's type.

    The image is the sum of the tabloids row-equivalent to the tableau,
    each with coefficient 1 (see ``_image_words``).
    """
    _require_within_cap(tab.n)
    comp = tab.type()
    s = _label_bits(len(comp.parts))
    return TabloidVector(comp, {_rep_of(word, comp.parts, s): _ONE
                                for word in _image_words(tab.row_lists(), s)})


def _sorted_block(block: Word, size: int, s: int) -> tuple[int, int] | None:
    """For a block of size s-bit labels: what sorting it adds to it, and
    the parity of the sort; None when two labels are equal."""
    mask = (1 << s) - 1
    labels = [block >> s * k & mask for k in range(size)]
    if len(set(labels)) < size:
        return None
    odd = sum(a > b for k, a in enumerate(labels) for b in labels[k + 1:]) & 1
    ordered = sum(label << s * k for k, label in enumerate(sorted(labels)))
    return ordered - block, odd


Block = tuple[int, int]


def _column_blocks(conj: Composition) -> list[Block]:
    """The blocks of positions of conj that hold two or more, as 0-based
    ranges [lo, hi)."""
    cuts = list(itertools.accumulate(conj.parts, initial=0))
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]


def _fold_columns(vec: Packed, blocks: Sequence[Block], s: int) -> tuple[Packed, int]:
    """vec with each word folded onto its word with these blocks sorted,
    and the largest number of words folded onto one word.

    Let y be the alternating element of a column group whose blocks
    include these, and T_rest the product of the letters of w_mu still to
    come, none of which touches these blocks.  Then every letter of T_rest
    commutes with every generator s_i of these blocks, so
    T_i T_rest y = T_rest T_i y = -T_rest y.  If two positions of a block
    hold equal labels, move them next to each other by swaps of distinct
    labels (below); at that pair, x T_d T_i = q x T_d, so
    (1 + q) x T_d T_rest y = 0, which makes x T_d T_rest y = 0 because the
    module is free.  A swap of distinct labels at positions i, i + 1 of a
    block turns d into d s_i or back, so x T_d T_rest y =
    -x T_(d s_i) T_rest y.  Hence x T_d T_rest y = ±x T_u T_rest y, where u
    is d's word with these blocks sorted and the sign is the parity of that
    sort, and the folded vector times T_rest y equals vec times T_rest y.

    A word with a repeated label in a block is dropped, which is exact;
    every other word adds ±its value at its u, so a coordinate's norm is at
    most the most words at one u times the largest norm in vec.  Sorts are
    memoised per block size, since a block's int alone does not tell
    (1, 0) from (1, 0, 0).
    """
    memos: dict[int, dict[Word, tuple[int, int] | None]] = {}
    cases = [(s * lo, (1 << s * (hi - lo)) - 1, hi - lo,
              memos.setdefault(hi - lo, {})) for lo, hi in blocks]
    out: Packed = {}
    landed: list[Word] = []
    for word, coeff in vec.items():
        folded = word
        odd = 0
        for shift, mask, size, memo in cases:
            block = word >> shift & mask
            try:
                hit = memo[block]
            except KeyError:
                hit = memo[block] = _sorted_block(block, size, s)
            if hit is None:
                break
            folded += hit[0] << shift
            odd ^= hit[1]
        else:
            out[folded] = out.get(folded, 0) + (-coeff if odd else coeff)
            landed.append(folded)
    return out, max(Counter(landed).values(), default=0)


def _add_images(vec: Packed, images: Iterable[Image], bits: int) -> int:
    """For each (image words, coefficient, norm) triple, add the
    coefficient, a polynomial packed at q = 2**bits, times the sum of the
    words to vec; returns the sum of the norms, which bounds the norm of
    every coordinate added to."""
    total = 0
    for words, coeff, norm in images:
        packed = _pack(coeff, bits)
        total += norm
        for word in words:
            vec[word] = vec.get(word, 0) + packed
    return total


# One plan per shape; one oracle benchmark pass asks for 9.
@lru_cache(maxsize=64)
def _fold_plan(shape: Composition) -> tuple[tuple[int, ...], tuple[tuple[Block, ...], ...]]:
    """The Specht test's plan for a partition shape: the reduced word of
    w_mu, and for each k from 0 to its length the column blocks of the
    conjugate shape to fold right after its first k letters.

    Letter i swaps the 1-based positions i and i + 1, so it touches the
    block [lo, hi) when lo <= i <= hi.  Each block of two or more positions
    is folded after the last letter that touches it, or before any letter
    when none does; every later letter then commutes with the block's
    generators, which is what ``_fold_columns`` needs.
    """
    letters = reduced_word(w_mu(shape))
    folds: list[list[Block]] = [[] for _ in range(len(letters) + 1)]
    for lo, hi in _column_blocks(Partition(shape.stripped).conjugate()):
        folds[max((k for k, i in enumerate(letters, 1) if lo <= i <= hi),
                  default=0)].append((lo, hi))
    return letters, tuple(map(tuple, folds))


def _specht_vector(images: list[Image], shape: Composition, s: int,
                   bits: int) -> tuple[Packed, int]:
    """The Specht test's folded vector at q = 2**bits on images for
    _add_images, with a bound on the norm of each of its coordinates.

    The image sum is multiplied by the letters of w_mu in turn, and each
    column block is folded as soon as no later letter touches it
    (``_fold_plan``).  Each fold leaves the product by the rest of w_mu and
    then by y unchanged (``_fold_columns``).  After the last letter every
    block is sorted, so the vector is the sum over column-sorted words u of
    its values times x T_u y.  Each x T_u y has x T_u with coefficient 1
    and its support in u's orbit under the column group, so those are
    independent, and the product by y is zero exactly when every value of
    the vector is.  The bound is the images' norms, times 3 per letter (see
    ``_mul_gen``), times, per fold, the most words it collects at one word.
    """
    total: Packed = {}
    bound = _add_images(total, images, bits)
    letters, folds = _fold_plan(shape)
    for k, blocks in enumerate(folds):
        if k:
            total = _mul_gen(total, letters[k - 1], s, bits)
        if blocks:
            total, most = _fold_columns(total, blocks, s)
            bound *= most
    return total, bound * 3 ** len(letters)


def _packed_specht(images: list[Image], shape: Composition, s: int, bits: int) -> bool:
    """The Specht test at q = 2**bits on images for _add_images; raises
    _Widen when a zero cannot be certified at this width."""
    return _certified_zero(*_specht_vector(images, shape, s, bits), bits)


def specht_check(comb: LinComb) -> bool:
    """Whether a combination of tableau maps vanishes on the Specht module.

    The Specht module inside the shape's permutation module is generated by
    one element, so the combination vanishes exactly when the weighted sum
    of images, multiplied by the basis element of the shape's column-reading
    permutation and then by the alternating element y of the conjugate
    shape, is zero.  The images all lie in the permutation module of the
    common type, so the whole computation runs there, in tabloid
    coordinates.  The product by y is never formed: a word with a repeated
    label in one column block contributes 0, every other word contributes
    ± the y-multiple of its column-sorted word, and those multiples are
    independent.  So the test folds each column block of each word onto
    its sorted order, with the sign of the sort, as soon as no later letter
    of w_mu touches that block, and asks whether every sum is zero (see
    ``_specht_vector``).

    The coefficients, shifted by their smallest exponent, are packed at
    q = 2**bits.  Evaluation there is a ring map, so a value left nonzero
    proves the answer False at any width.  Only the folds drop words, and
    only words that contribute 0, so each fold sees every word of the true
    support, and one scalar bound covers the norm of every coordinate of
    the result: when every value is 0 and that bound is below
    2**(bits - 1), the answer is True; otherwise the test restarts at a
    wider width.  A span of exponents above
    ``MAX_EXPONENT_SPAN`` raises ValueError before anything is packed.
    """
    shape = comb.shape
    if not shape.is_partition:
        raise ValueError(f"Specht modules need partition shapes, got {shape}")
    n = shape.n
    _require_within_cap(n)
    if n == 0 or comb.is_zero:
        return True
    terms = comb.items()
    low = _lowest_exponent(coeff for _, coeff in terms)
    s = _label_bits(len(comb.type.parts))
    images = [(_image_words(tab.row_lists(), s), coeff.shift(-low), _norm(coeff))
              for tab, coeff in terms]
    # Called through the module global so that the tests can wrap it.
    return _widening(lambda bits: _packed_specht(images, shape, s, bits))


# ---------------------------------------------------------------------------
# composition-identity sweeps
# ---------------------------------------------------------------------------


class PropsReport:
    """Outcome of a composition-identity sweep, per identity kind."""

    __slots__ = ("checked", "failures")

    def __init__(self, checked: dict[str, int] | None = None,
                 failures: dict[str, list[str]] | None = None) -> None:
        self.checked = {} if checked is None else checked
        self.failures = {} if failures is None else failures

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.checked, self.failures) == (other.checked, other.failures)

    def __repr__(self) -> str:
        return f"PropsReport(checked={self.checked!r}, failures={self.failures!r})"

    @property
    def ok(self) -> bool:
        return not any(self.failures.values())

    def lines(self) -> list[str]:
        out = []
        for kind in sorted(self.checked):
            bad = self.failures.get(kind, [])
            status = "ok" if not bad else f"{len(bad)} FAILED"
            out.append(f"{kind}: {self.checked[kind]} checked, {status}")
            out.extend(f"  counterexample: {msg}" for msg in bad[:5])
        return out


Instance = tuple[str, tuple]
Terms = list[tuple[Rows, LaurentPoly]]
# An identity as data: the sorted rows of the tableaux whose maps compose
# to its left-hand side, its right-hand side as (rows, coefficient) pairs,
# its failure message.
Identity = tuple[list[Rows], Terms, str]


def _iter_row_merge(n_cap: int, value_cap: int) -> Iterator[Instance]:
    for m in range(1, n_cap + 1):
        for r in range(0, m + 1):
            for top in iter_multisets(r, value_cap):
                for bottom in iter_multisets(m - r, value_cap):
                    yield ("row_merge", (top.elements(), bottom.elements(), m))


def _iter_pair_merge(n_cap: int, value_cap: int) -> Iterator[Instance]:
    for n in range(1, n_cap + 1):
        for sizes in itertools.product(range(n + 1), repeat=3):
            r, u, v = sizes
            t = n - r - u - v
            if t < 0:
                continue
            pools = [iter_multisets(k, value_cap) for k in (r, u, v, t)]
            for rows in itertools.product(*pools):
                yield ("pair_merge", (tuple(row.elements() for row in rows),))


def _iter_row_split(n_cap: int, value_cap: int) -> Iterator[Instance]:
    for n in range(1, n_cap + 1):
        for r in range(n + 1):
            for w in range(n - r + 1):
                t = n - r - w
                for u in range(w + 1):
                    pools = [iter_multisets(k, value_cap) for k in (r, w, t)]
                    for rows in itertools.product(*pools):
                        yield ("row_split",
                               (tuple(row.elements() for row in rows), u))


def _iter_garnir_factorization(n_cap: int, value_cap: int) -> Iterator[Instance]:
    for datum in iter_valid_data(n_cap, value_cap):
        yield ("garnir_factorization",
               (datum.fixed_top.elements(), datum.pool.elements(),
                datum.fixed_bottom.elements(), datum.top_len))


def _merge_map(sizes: Sequence[int]) -> Rows:
    """The map that merges each consecutive pair of rows of a tableau with
    these row sizes: row k holds 2k + 1 sizes[2k] times, then 2k + 2
    sizes[2k + 1] times."""
    return tuple((2 * k + 1,) * a + (2 * k + 2,) * b
                 for k, (a, b) in enumerate(zip(sizes[::2], sizes[1::2])))


def _split_map(r: int, u: int, v: int, t: int) -> Rows:
    """The map that splits the middle row of a tableau with row sizes
    (r, u + v, t) into rows of u and v entries."""
    return ((1,) * r, (2,) * u, (2,) * v, (3,) * t)


def _merge(rows: Rows) -> tuple[list[Rows], Terms]:
    """Merging each consecutive (upper, lower) pair of rows: the merge map
    followed by the map of these rows is a scalar times the map of the
    merged rows.  The scalar is the product over the pairs of q to the
    number of pairs a > b with a in upper and b in lower, and, per value v
    of upper, the quantum binomial [upper_v + lower_v choose upper_v]."""
    scalar, merged = _ONE, []
    for upper, lower in zip(rows[::2], rows[1::2]):
        for v in dict.fromkeys(upper):
            count = upper.count(v)
            scalar *= quantum_binomial(count + lower.count(v), count)
        scalar = scalar.shift(sum(bisect_left(lower, a) for a in upper))
        merged.append(tuple(sorted(upper + lower)))
    return [_merge_map([len(row) for row in rows]), rows], [(tuple(merged), scalar)]


def _row_merge(params: tuple) -> Identity:
    top, bottom, m = params
    return (*_merge((top, bottom)), f"row merge failed for rows {top}/{bottom}, m={m}")


def _pair_merge(params: tuple) -> Identity:
    (rows,) = params
    return (*_merge(rows), f"pair merge failed for rows {rows}")


def _row_split(params: tuple) -> Identity:
    """The split map followed by the map of the rows is the sum of the maps
    of every way to split the middle row into u and w - u entries."""
    rows, u = params
    (r, w, t), middle = map(len, rows), Multiset._raw(rows[1])
    rhs = [((rows[0], part.elements(), (middle - part).elements(), rows[2]), _ONE)
           for part in middle.sub_multisets(u)]
    return ([_split_map(r, u, w - u, t), rows], rhs,
            f"row split failed for rows {rows}, split size {u}")


def _garnir_factorization(params: tuple) -> Identity:
    """The merge map, then the split map, then the map of (fixed top | pool
    | fixed bottom) is the two-row relation of the datum."""
    top, pool, bottom, top_len = params
    datum = GarnirDatum(*map(Multiset._raw, (top, pool, bottom)), top_len)
    quad = (len(top), datum.take_size, datum.bottom_len - len(bottom), len(bottom))
    maps = [_merge_map(quad), _split_map(*quad), (top, pool, bottom)]
    return (maps, [(tab.row_lists(), c) for tab, c in garnir_relation(datum).items()],
            f"relation factorisation failed for {top}|{pool}|{bottom}, "
            f"top length {top_len}")


# Per identity: its instances up to the caps, and the builder of its data.
_IDENTITIES = {
    "row_merge": (_iter_row_merge, _row_merge),
    "pair_merge": (_iter_pair_merge, _pair_merge),
    "row_split": (_iter_row_split, _row_split),
    "garnir_factorization": (_iter_garnir_factorization, _garnir_factorization),
}

PROP_KINDS = tuple(_IDENTITIES)


def _identity_vector(maps: list[Rows], rhs: Terms, bits: int) -> tuple[Packed, int]:
    """An identity's two sides subtracted at q = 2**bits, with a bound on
    the norm of each coordinate: the image of maps[0], carried through the
    map of each later tableau in turn, minus each right-hand coefficient
    (quantum binomials times q^k, k >= 0, so it packs as it stands) times
    the image of its tableau.  One label width serves every module on the
    way, since a type has one part per value up to its largest entry.  The
    bound starts at 1, the image's norm, is multiplied by each map's factor
    (see ``_apply_hom``) and then grows by the right-hand side's norms.
    Nothing is dropped on the way, so the bound covers every coordinate
    that the result leaves out as well."""
    s = _label_bits(max(row[-1] for rows in maps for row in rows if row))
    diff = dict.fromkeys(_image_words(maps[0], s), 1)
    bound = 1
    for rows in maps[1:]:
        diff, growth = _apply_hom(diff, rows, s, bits)
        bound *= growth
    bound += _add_images(diff, [(_image_words(rows, s), -c, _norm(c)) for rows, c in rhs], bits)
    return diff, bound


def _identity_holds(maps: list[Rows], rhs: Terms, bits: int) -> bool:
    """Whether an identity holds at q = 2**bits (see ``_identity_vector``);
    raises _Widen when a zero cannot be certified at this width."""
    return _certified_zero(*_identity_vector(maps, rhs, bits), bits)


def _check_instance(item: Instance) -> tuple[str, str | None]:
    kind, params = item
    maps, rhs, message = _IDENTITIES[kind][1](params)
    # Looked up as a module global, which the tests wrap.
    holds = _widening(lambda bits: _identity_holds(maps, rhs, bits))
    return kind, None if holds else message


def _reservoir(stream: Iterator[Instance], k: int,
               rng: random.Random) -> list[Instance]:
    """Uniform sample of k items from a stream of unknown length."""
    sample: list[Instance] = []
    for i, item in enumerate(stream):
        if i < k:
            sample.append(item)
        else:
            j = rng.randrange(i + 1)
            if j < k:
                sample[j] = item
    return sample


def _pool_size(jobs: int, tasks: int) -> int:
    """How many worker processes to start for a sweep: the number asked
    for, but never more than there are tasks or CPUs."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


_A = TypeVar("_A")
_R = TypeVar("_R")


def _map_unordered(fn: Callable[[_A], _R], work: list[_A], jobs: int) -> Iterator[_R]:
    """fn over every item of work, results in any order: in this process
    when _pool_size allows one worker, otherwise over that many worker
    processes, 16 items per message.  This is the one place that starts
    worker processes, for verify_composition_props and scripts/sweep.py.
    It is also the one place that imports multiprocessing, which is slow to
    import and which no single-process call needs."""
    workers = _pool_size(jobs, len(work))
    if workers == 1:
        yield from map(fn, work)
        return
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap_unordered(fn, work, chunksize=16)


def _prop_instances(n_cap: int, value_cap: int, samples: int | None,
                    seed: int) -> dict[str, list[Instance]]:
    """The instances a sweep checks, per identity: every one up to the caps,
    or a seeded uniform sample of that many of each."""
    out = {}
    for kind in PROP_KINDS:
        stream = _IDENTITIES[kind][0](n_cap, value_cap)
        if samples is None:
            out[kind] = list(stream)
        else:
            out[kind] = _reservoir(stream, samples, random.Random(f"{seed}:{kind}"))
    return out


def verify_composition_props(n_cap: int, value_cap: int = 4,
                             samples: int | None = None, seed: int = 0,
                             jobs: int = 1) -> PropsReport:
    """Check the four composition identities (row merge, pair merge, row
    split and relation factorisation) in the tabloid basis.  A builder per
    identity turns each instance into data that ``_identity_holds`` checks.

    With samples=None every instance up to the caps is checked; otherwise a
    seeded uniform sample of that many instances per identity.  jobs > 1
    distributes the checks over worker processes, at most one per task and
    per CPU.  Every count must be at least 1: a sweep that checks nothing
    raises ValueError instead of reporting success.
    """
    for name, value in (("n_cap", n_cap), ("value_cap", value_cap),
                        ("samples", samples), ("jobs", jobs)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    _require_within_cap(n_cap)
    instances = _prop_instances(n_cap, value_cap, samples, seed)
    report = PropsReport({kind: len(chosen) for kind, chosen in instances.items()},
                         {kind: [] for kind in instances})
    work = [item for chosen in instances.values() for item in chosen]
    for kind, failure in _map_unordered(_check_instance, work, jobs):
        if failure is not None:
            report.failures[kind].append(failure)
    for kind in PROP_KINDS:
        report.failures[kind].sort()
    return report
