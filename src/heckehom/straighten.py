"""Rewriting a tableau homomorphism in the semistandard basis.

A tableau of partition shape indexes a homomorphism; when some column fails
to increase strictly, the two-row relation applied to an offending adjacent
pair of rows rewrites the homomorphism as a combination of tableaux that
are strictly later in a monotone weight order.  Iterating terminates with a
combination of semistandard tableaux, the canonical form.

One traversal does the iterating.  A worklist holds each tableau still to
be rewritten with its pending coefficient and hands out the lightest first.
A tableau it hands out is either emitted, being semistandard, or rewritten
once, its coefficient times the rewrite being added onto its children.
Every child is heavier than its parent, so a tableau is handed out only
after every contribution to it has arrived: children shared by several
parents are merged, and a coefficient that cancels to zero prunes the whole
subtree below it.  Rewrites are memoized on the two-row window they act on,
for the length of one call.

Inside the traversal a tableau is one int, its key (``garnir._Packing``):
each row owns a group of fields, one per value v that occurs, counting the
row's entries that are at most v, and the weight sits above the rows, so
the heap orders plain ints.  The work per window grows with the number of
distinct values, not with the largest.
Guard bits on the fields let one subtraction check every pair of adjacent
rows for a broken column.  A window's rewrite (``_window_moves``) is
memoized on the window's bits as moves: an int to add to the key, which
changes the two rows and the weight together, with the move's coefficient.
The broken values at both ends are read off the lowest and the highest
guard bit of the check that found the pair, and both rows' prefix counts
off the window's bits in one pass.  The cut (``_window_cut``) comes from
those counts, and so does one level per pooled value, with its piece: no
per-value count vector is built.  ``garnir._relation_terms`` walks only
those levels, summing one int per level and take, the last level's take
being forced.  Only the emitted keys are decoded into rows, each distinct
row once per call.
``two_row_straighten_step`` is the same rewrite on a two-row tableau, with
each move's key decoded.

A combination whose coefficients' exponents span more than
``qcoeff.MAX_EXPONENT_SPAN`` raises ValueError before anything is packed.

A coefficient is one int, its value at q = 2**bits after the inputs are
shifted by their smallest exponent, carried with an upper bound on its L1
norm: children get the product of the parent's coefficient and the step's,
and the product of the bounds, and merging adds both.  While a bound stays below 2**(bits - 1),
the zero test and the final unpacking into ``LaurentPoly`` are exact; a
tableau popped with a larger bound restarts the call at a wider width, and
one about to be rewritten with a bound near that gets its true norm as its
bound instead.

Two knobs choose which violation to attack first; every choice yields the
same canonical form, which the test suite checks by comparing strategies.
The pair rule picks the adjacent pair of rows and defaults to
``DEFAULT_PAIR_RULE``, ``"bottommost"``: on multi-row inputs it rewrites
far fewer tableaux than ``"topmost"`` (README gives the counts).  The
column rule picks the relation inside that pair.  A relation pools the
lower row's entries up to a broken value s, one that some broken column
spans, and the upper row's from some t >= s on (``_window_cut``).
``"leftmost"``, the default, takes s the smallest broken value, the bottom
entry of the leftmost broken column, and the largest t that keeps the pool
larger than the upper row; at the bottom pair of rows it also tries s the
largest broken value and keeps the cut with fewer splits.  ``"rightmost"``
pools both rows around the largest broken value, the top entry of the
rightmost broken column.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from math import comb
from typing import Iterable

from .combinat import Composition, Tableau, _breaks_columns
from .errors import StraighteningError
from .garnir import LinComb, Rows, _edge_bits, _Packing, _relation_terms
from .qcoeff import (
    LaurentPoly,
    _lowest_exponent,
    _norm,
    _pack,
    _unpack,
    _Widen,
    _widening,
    _wider,
)

PAIR_RULES = ("topmost", "bottommost")
DEFAULT_PAIR_RULE = "bottommost"
COLUMN_RULES = ("leftmost", "rightmost")


def find_violating_window(tab: Tableau, pair_rule: str = DEFAULT_PAIR_RULE) -> int | None:
    """1-based index of the upper row of an adjacent pair breaking
    column-strictness, or None when the tableau is semistandard.

    The pairs are scanned from the end the pair rule names, and the scan
    stops at the first that breaks.  A shape that is not a partition raises
    ValueError, as in ``is_semistandard``.
    """
    if not tab.shape.is_partition:
        raise ValueError(f"semistandardness needs a partition shape, got {tab.shape}")
    if pair_rule == "topmost":
        uppers = range(1, tab.nrows)
    elif pair_rule == "bottommost":
        uppers = range(tab.nrows - 1, 0, -1)
    else:
        raise ValueError(f"unknown pair rule {pair_rule!r}")
    rows = tab.row_lists()
    return next((l for l in uppers if _breaks_columns(rows[l - 1], rows[l])), None)


def embed_two_row(tab: Tableau, upper_row: int, rel: LinComb) -> LinComb:
    """Substitute a two-row combination for rows upper_row, upper_row + 1.

    The combination must live on exactly the window's shape and content.
    Fixing every other row turns a two-row identity into an identity for
    the full tableau.
    """
    l = upper_row
    if not 1 <= l < tab.nrows:
        raise ValueError(f"row {l} is not the upper row of an adjacent pair")
    rows = tab.row_lists()
    window = Tableau((tab.shape.part(l - 1), tab.shape.part(l)), rows[l - 1: l + 1])
    if rel.shape != window.shape or rel.type != window.type():
        raise ValueError(
            f"combination on shape {rel.shape} type {rel.type} does not fit "
            f"window shape {window.shape} type {window.type()}")
    # Distinct window tableaux give distinct children: the other rows are fixed.
    shape, type_ = tab.shape, tab.type()
    before, after = rows[: l - 1], rows[l + 1:]
    return LinComb._raw(shape, type_, {
        Tableau._raw(shape, before + window_tab.row_lists() + after, type_): coeff
        for window_tab, coeff in rel._terms.items()})


def _check_rules(shape: Composition, pair_rule: str, column_rule: str) -> None:
    if not shape.is_partition:
        raise ValueError(f"straightening needs a partition shape, got {shape}")
    if pair_rule not in PAIR_RULES:
        raise ValueError(f"unknown pair rule {pair_rule!r}")
    if column_rule not in COLUMN_RULES:
        raise ValueError(f"unknown column rule {column_rule!r}")


def _straighten(terms: Iterable[tuple[Tableau, LaurentPoly]], shape: Composition,
                type_: Composition, pair_rule: str, column_rule: str) -> LinComb:
    """Canonical form of a combination given as nonzero (tableau, coefficient)
    pairs with distinct tableaux, all of one shape and type."""
    terms = list(terms)
    if not terms:
        return LinComb._raw(shape, type_, {})
    # Shifted by the smallest exponent, every coefficient is a polynomial,
    # which packs.
    low = _lowest_exponent(coeff for _, coeff in terms)

    def run(bits: int) -> LinComb:
        out = _traverse([(tab, _pack(coeff.shift(-low), bits), _norm(coeff))
                         for tab, coeff in terms],
                        shape, type_, pair_rule, column_rule, bits)
        return LinComb._raw(shape, type_, {
            Tableau._raw(shape, rows, type_): _unpack(coeff, bits).shift(low)
            for rows, coeff in out.items()})

    return _widening(run)


def _window_cut(upper: list[int], lower: list[int], low: int, high: int,
                column_rule: str, both_ends: bool) -> tuple[int, int]:
    """The cut (s, t) of the relation that rewrites a two-row window whose
    columns break: the relation pools the bottom entries of rank at most s
    and the top entries of rank at least t, and fixes the rest.  upper and
    lower are the prefix counts of the rows by rank: upper[v] entries of
    the top row are of rank at most v, for v from 0 (none) to the number
    of values.  low and high are the smallest and the largest broken rank.

    The columns from upper[v - 1] + 1 to lower[v] (from 1) are those whose
    bottom entry is at most v and whose top entry is at least v, so v is a
    broken value, spanned by some broken column, when lower[v] > upper[v - 1].
    A cut s <= t makes a valid relation whenever lower[s] > upper[t - 1]:
    the pool is larger than the top row, the input's own split, which
    sends every pooled top entry to the top, has coefficient 1, and every
    other split moves entries at most s up and entries at least t down.
    So s must be broken, and t at most bisect_left(upper, lower[s]), which
    pools the fewest top entries.  "rightmost" cuts at (high, high).
    "leftmost" cuts at low with that widest t and, when both_ends holds,
    also at high, keeping the cut with fewer splits (comb(pool, lower[s]),
    low on ties).  The worklist asks for both ends only at the bottom pair
    of rows: a cut at high pushes large entries down, where they can break
    the pair below.
    """
    if column_rule == "rightmost":
        return high, high
    t = bisect_left(upper, lower[low])
    if both_ends and high > low:
        end = bisect_left(upper, lower[high])
        if (comb(lower[high] + upper[-1] - upper[end - 1], lower[high])
                < comb(lower[low] + upper[-1] - upper[t - 1], lower[low])):
            return high, end
    return low, t


def _window_moves(pack: _Packing, key: int, broken: int, r: int, column_rule: str,
                  bits: int) -> list[tuple[int, int, int]]:
    """The rewrite of rows r and r + 1 (from 0) of a packed tableau whose
    column check gave broken, at q = 2**bits: per term other than the
    input's own, the change to the key, the packed coefficient and its L1
    norm.

    The relation's levels (``garnir._relation_terms``) are read straight
    off the rows' prefix counts, one per pooled rank, in one pass over the
    cut (s, t) of ``_window_cut``.  Ranks up to s pool their lower row
    entries and fix their upper row ones, of which upper[t - 1] - upper[v]
    lie above rank v.  Ranks from t on pool their upper row entries and fix
    their lower row ones, of which lower[v - 1] - lower[s] lie below rank
    v.  At s = t that rank pools both.  No rank between s and t is pooled,
    and no level or piece is built for it.
    """
    at = r * pack.group
    V = len(pack.values)
    # Rows r and r + 1 alone, shifted down: no field read shifts a wider int.
    pair = key >> at & pack.windows[0]
    counts = [pair >> shift & pack.count_mask for shift in pack.pair_fields]
    upper, lower = counts[:V + 1], counts[V + 1:]
    # Row r's guard bits flag its broken ranks, rank k at bit k * w - 1.
    guards = broken >> at & (1 << pack.group) - 1
    s, t = _window_cut(upper, lower, (guards & -guards).bit_length() // pack.width,
                       guards.bit_length() // pack.width, column_rule,
                       r + 1 == len(pack.windows))
    # Moving a v up changes the rows by the lift of its rank and the weight
    # by -v: the piece of a pooled rank.  Started at minus the input's own
    # split, which pools every top entry of rank t on, the piece sum of each
    # term is the change to the key; built negated, so that dropping the
    # input's own term, -1, leaves the rewrite.
    values, lifts, weight_at = pack.values, pack.lifts, pack.weight_at
    fixed = upper[t - 1]
    lower_levels = [(upper[v] - upper[v - 1], n, 0, fixed - upper[v], 0,
                     (lifts[v - 1] << at) - (values[v - 1] << weight_at))
                    for v in range(1, s + 1 if s < t else s)
                    if (n := lower[v] - lower[v - 1])]
    upper_levels = [(0, n, lower[v] - lower[v - 1], 0, lower[v - 1] - lower[s],
                     (lifts[v - 1] << at) - (values[v - 1] << weight_at))
                    for v in range(t if s < t else s + 1, V + 1)
                    if (n := upper[v] - upper[v - 1])]
    start = -sum([level[1] * level[5] for level in upper_levels])
    if s == t:
        # A cut at one rank pools the top entry of a broken column there.
        n = upper[s] - upper[s - 1]
        piece = (lifts[s - 1] << at) - (values[s - 1] << weight_at)
        lower_levels.append((0, n + lower[s] - lower[s - 1], 0, 0, 0, piece))
        start -= n * piece
    # Called through module globals so that the tests can wrap it.
    terms = _relation_terms(lower_levels + upper_levels, upper[-1] - fixed, bits, start, -1)
    moves = [term for term in terms if term[0]]
    # Norm 1 and value -1 pin the input's own term to -1 at any width.
    if len(moves) != len(terms) - 1 or (0, -1, 1) not in terms:
        top, bottom = pack.rows(key)[r: r + 2]
        window = Tableau._raw(Composition((len(top), len(bottom))), (top, bottom), None)
        raise StraighteningError(f"identity split coefficient is not 1 for {window!r}")
    # A change of weight of at least 1 is a change of the key of at least
    # 2**(B - 1), its row part being far smaller.  This check is also what
    # makes the heap order sound: nothing can add to a tableau once it has
    # been popped.
    if moves and min(moves)[0] < 1 << pack.weight_at - 1:
        tab = Tableau._raw(pack.shape, pack.rows(key), pack.type)
        raise StraighteningError(f"rewrite failed to increase weight at {tab!r}")
    return moves


def two_row_straighten_step(tab: Tableau, column_rule: str = "leftmost") -> LinComb:
    """Rewrite one non-semistandard two-row tableau via its relation.

    Returns the combination equal to the given tableau's homomorphism on the
    Specht submodule: a relation with the input's own term dropped and every
    other term negated.  A violating column is one where the bottom entry
    fails to exceed the top one, and a broken value is one that some
    violating column spans.  The relation pools the bottom row's entries
    at most s and the top row's at least t, for a cut t >= s, and fixes the
    rest.  ``column_rule`` picks the cut.  "rightmost" takes t = s the
    largest broken value, the top entry of the rightmost violating column.
    "leftmost" takes, of the cuts from the smallest broken value (the bottom
    entry of the leftmost violating column) and from the largest, each with
    the largest t that keeps the pool longer than the top row, the one
    with fewer splits, the smaller on a tie.  Any such cut gives a valid
    relation, so both rules give steps that agree on the Specht module.
    This is the worklist's rewrite of the tableau's one window, which is
    the bottom pair of rows, unpacked: each move's key is decoded into
    rows.
    The split reproducing the input always carries coefficient exactly 1, so
    no division is ever needed; StraighteningError is raised if it does not.
    """
    if tab.nrows != 2:
        raise ValueError(f"need exactly two rows, got {tab.nrows}")
    if not tab.shape.is_partition:
        raise ValueError(f"top row must be at least as long: shape {tab.shape}")
    if column_rule not in COLUMN_RULES:
        raise ValueError(f"unknown column rule {column_rule!r}")
    if not _breaks_columns(*tab.row_lists()):
        raise ValueError("tableau is already semistandard; nothing to rewrite")
    shape, type_ = tab.shape, tab.type()
    pack = _Packing(shape, type_)
    key = pack.key(tab.row_lists())
    bits = _edge_bits(tab.n)
    return LinComb._raw(shape, type_, {
        Tableau._raw(shape, pack.rows(key + change), type_): _unpack(coeff, bits)
        for change, coeff, _ in _window_moves(pack, key, pack.broken(key), 0,
                                               column_rule, bits)})


def _traverse(terms: list[tuple[Tableau, int, int]], shape: Composition,
              type_: Composition, pair_rule: str, column_rule: str,
              bits: int) -> dict[Rows, int]:
    """The worklist on (tableau, packed coefficient, norm bound) inputs, at
    q = 2**bits: the packed output; raises _Widen when some bound reaches
    half the width.

    A bound below 2**(bits - 1) bounds every coefficient of the polynomial
    below that too, so the packed value determines the polynomial; a bound
    above 2**(bits - 25) is then replaced by the polynomial's own L1 norm,
    read back with ``_unpack``, before the children multiply it.  The true
    norm is at most the bound, and the bounds of the children and of every
    later merge are built from it as before, so each stays an upper bound
    on its coefficient's norm; it only grows more slowly.
    """
    pack = _Packing(shape, type_)
    limit = 1 << (bits - 1)
    exact = limit >> 24
    # Per key: (packed coefficient, bound on its L1 norm).
    pending: dict[int, tuple[int, int]] = {
        pack.key(tab.row_lists()): (coeff, bound) for tab, coeff, bound in terms}
    heap = list(pending)
    heapq.heapify(heap)
    # Per window: (change to the key, packed coefficient, norm) per term of
    # its rewrite.
    moves: dict[int, list[tuple[int, int, int]]] = {}
    out: dict[int, int] = {}
    broken_columns, group, windows = pack.broken, pack.group, pack.windows
    topmost = pair_rule == "topmost"
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        key = heappop(heap)
        coeff, bound = pending.pop(key)
        # Below the limit, the zero test and the final unpacking are exact.
        if bound >= limit:
            raise _Widen(_wider(bits, bound))
        if not coeff:
            continue
        broken = broken_columns(key)
        if not broken:
            out[key] = coeff
            continue
        r = ((broken & -broken if topmost else broken).bit_length() - 1) // group
        window = key & windows[r]
        window_moves = moves.get(window)
        if window_moves is None:
            window_moves = moves[window] = _window_moves(pack, key, broken, r,
                                                              column_rule, bits)
        if bound > exact:
            bound = _norm(_unpack(coeff, bits))
        for change, step_coeff, norm in window_moves:
            child = key + change
            earlier = pending.get(child)
            if earlier is None:
                pending[child] = (coeff * step_coeff, bound * norm)
                heappush(heap, child)
            else:
                pending[child] = (earlier[0] + coeff * step_coeff,
                                  earlier[1] + bound * norm)
    return {pack.rows(key): coeff for key, coeff in out.items()}


def semistandardize(tab: Tableau, pair_rule: str = DEFAULT_PAIR_RULE,
                    column_rule: str = "leftmost") -> LinComb:
    """Canonical form: the equal combination of semistandard tableaux.

    The input must have partition shape.  A semistandard input returns
    itself with coefficient 1.
    """
    _check_rules(tab.shape, pair_rule, column_rule)
    return _straighten([(tab, LaurentPoly.one())], tab.shape, tab.type(),
                       pair_rule, column_rule)


def semistandardize_lincomb(comb: LinComb, pair_rule: str = DEFAULT_PAIR_RULE,
                            column_rule: str = "leftmost") -> LinComb:
    """Canonical form of a combination, straightened in one traversal.

    All input terms enter the worklist together, so a tableau reached from
    several terms is rewritten once, on its summed coefficient.
    """
    _check_rules(comb.shape, pair_rule, column_rule)
    return _straighten(comb._terms.items(), comb.shape, comb.type,
                       pair_rule, column_rule)
