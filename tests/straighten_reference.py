"""Two earlier straightening traversals, as references.

``memo_of_expansions`` is the traversal the weight-ordered worklist in ``heckehom.straighten``
replaced: every tableau's full expansion is stored, and each parent's is
built by summing scaled copies of its children's.  It shares no traversal
code with the library, only the rewrite primitives (``find_violating_window``,
``two_row_straighten_step`` and ``embed_two_row``), so the tests (and
``scripts/sweep.py straighten --reference``) compare the two.

``laurent_worklist`` is the weight-ordered worklist with ``LaurentPoly``
coefficients that the packed worklist replaced: the same traversal, with
each pending coefficient a polynomial and each step taken from the public
``two_row_straighten_step``.  The tests compare the two, on inputs whose
coefficients have negative exponents, huge magnitudes and cancellations.

``tuple_worklist`` is the packed-coefficient worklist as it was before each
tableau became one int: a tableau is its rows, a tuple of sorted int
tuples, the heap orders (weight, rows) pairs, a pair of rows is checked
with ``find_violating_window`` on a ``Tableau`` built per pop, and a
window's rewrite (``tuple_step``) cuts its row tuples at the library's cut
(``garnir_reference.pivot_cuts``) and keys the relation's terms by their
rows.  The tests compare it with the
library, ``items()`` order included.

``window_counts`` is how ``straighten._window_moves`` built a window's
relation before it read the levels straight off the prefix counts: the
cut and the full count vectors a, p and b of the datum, one entry per rank
of the tableau, sliced and joined from the rows' counts per rank, for
``garnir_reference.vector_relation_terms``.  The library keeps the cut
(``straighten._window_cut``) and builds one level per pooled rank.  The
tests compare the levels with these vectors.

``uncompressed_window_moves`` is the window rewrite before
``straighten._window_moves`` built pieces only for the pooled values: one
key-wide piece for every value of the tableau, the start summed over
every rank from the top cut on, and the relation built from
``window_counts``.  The tests compare the two, move lists equal, order
included.

``broken_value_window_cut`` and ``top_entry_window_cut`` are the two cut
rules ``straighten._window_cut`` replaced, each a cut (k, k) that pools
the top and the bottom entries around one value k.  The first took the
smallest (or, under "rightmost", the largest) broken value; the one
before it took the top entry of the column the column rule picks.  The
library cuts at (s, t) with the widest top cut t for s, and at the bottom
pair of rows it may start from either end.  Patched into the library,
either must give the same canonical forms, and each two-row step it
changes must differ from the library's by a combination that vanishes on
the Specht module; the tests check both.

``weight`` is the order both worklists pop by, read off a ``Tableau``; the
library computes it only as part of a packed key (``garnir._Packing``).
"""

import heapq
from bisect import bisect_left
from math import comb
from operator import mul, sub

import heckehom.straighten

from heckehom import (
    Composition,
    LinComb,
    StraighteningError,
    Tableau,
    two_row_straighten_step,
)
from heckehom.garnir import _count_vector, _relation_from_counts
from heckehom.qcoeff import _norm, _pack, _unpack, _Widen, _widening, _wider
from heckehom.straighten import embed_two_row, find_violating_window

from .garnir_reference import pivot_cuts, vector_relation_terms


def weight(tab):
    """Sum over rows of (row index) times (sum of row entries), top row 1.

    Each rewrite pushes entry mass strictly downward, so this weight
    strictly increases; it is bounded on the finitely many tableaux of a
    given shape and content, which forces termination.
    """
    return sum(r * sum(row) for r, row in enumerate(tab.row_lists(), start=1))


def memo_of_expansions(tab, pair_rule, column_rule, memo):
    """Reference traversal: the full expansion of every tableau, memoized,
    each built from its children's expansions."""
    if tab in memo:
        return memo[tab]
    l = find_violating_window(tab, pair_rule)
    if l is None:
        total = LinComb.single(tab)
    else:
        window = Tableau(Composition((tab.shape.part(l - 1), tab.shape.part(l))),
                         tab.rows[l - 1: l + 1])
        step = embed_two_row(tab, l, two_row_straighten_step(window, column_rule))
        total = LinComb.zero(tab.shape, tab.type())
        for child, coeff in step.items():
            total = total + memo_of_expansions(
                child, pair_rule, column_rule, memo).scale(coeff)
    memo[tab] = total
    return total


def laurent_worklist(comb, pair_rule, column_rule):
    """Reference traversal: the canonical form of a combination, with a
    weight-ordered worklist of ``LaurentPoly`` coefficients."""
    shape, type_ = comb.shape, comb.type
    pending = {}
    heap = []
    for tab, coeff in comb.items():
        pending[tab.row_lists()] = coeff
        heap.append((weight(tab), tab.row_lists()))
    heapq.heapify(heap)
    # Per window: (new window rows, weight change, coefficient) per term of
    # its rewrite.
    moves = {}
    out = {}
    while heap:
        tab_weight, rows = heapq.heappop(heap)
        coeff = pending.pop(rows)
        if not coeff:
            continue
        tab = Tableau._raw(shape, rows, type_)
        l = find_violating_window(tab, pair_rule)
        if l is None:
            out[tab] = coeff
            continue
        key = rows[l - 1: l + 1]
        window_moves = moves.get(key)
        if window_moves is None:
            window = Tableau._raw(Composition((len(key[0]), len(key[1]))), key, None)
            upper_sum = sum(key[0])
            window_moves = moves[key] = [
                (pair.row_lists(), upper_sum - sum(pair.row_lists()[0]), step_coeff)
                for pair, step_coeff
                in two_row_straighten_step(window, column_rule)._terms.items()]
        before, after = rows[: l - 1], rows[l + 1:]
        for pair, change, step_coeff in window_moves:
            child = before + pair + after
            child_weight = tab_weight + change
            if child_weight <= tab_weight:
                raise StraighteningError(
                    f"rewrite failed to increase weight at {tab!r}")
            contribution = coeff * step_coeff
            earlier = pending.get(child)
            if earlier is None:
                pending[child] = contribution
                heapq.heappush(heap, (child_weight, child))
            else:
                pending[child] = earlier + contribution
    return LinComb._raw(shape, type_, out)


def tuple_step(top, bottom, column_rule, bits, both_ends):
    """The rewrite of the two-row window with sorted rows top and bottom,
    packed at q = 2**bits: per term, the new window rows, the weight change,
    the packed coefficient and its L1 norm.  The input's own term is
    dropped.  both_ends says whether the window is the bottom pair of rows,
    where the cut may come from either end."""
    cut_top, cut_bottom = pivot_cuts(top, bottom, column_rule, both_ends)
    largest = max(top[-1], bottom[-1])
    terms = _relation_from_counts(
        _count_vector(top[:cut_top], largest),
        _count_vector(top[cut_top:] + bottom[:cut_bottom], largest),
        _count_vector(bottom[cut_bottom:], largest), len(top), bits, -1)
    if terms.pop((top, bottom), None) != (-1, 1):
        window = Tableau._raw(Composition((len(top), len(bottom))), (top, bottom), None)
        raise StraighteningError(f"identity split coefficient is not 1 for {window!r}")
    upper_sum = sum(top)
    return [(rows, upper_sum - sum(rows[0]), coeff, norm)
            for rows, (coeff, norm) in terms.items()]


def _tuple_traverse(terms, shape, type_, pair_rule, column_rule, bits):
    limit = 1 << (bits - 1)
    # Per row tuple: (packed coefficient, bound on its L1 norm).
    pending = {}
    heap = []
    for tab, coeff, bound in terms:
        pending[tab.row_lists()] = (coeff, bound)
        heap.append((weight(tab), tab.row_lists()))
    heapq.heapify(heap)
    # Per window and whether it is the bottom pair: (new window rows, weight
    # change, packed coefficient, norm) per term of its rewrite.
    moves = {}
    out = {}
    while heap:
        tab_weight, rows = heapq.heappop(heap)
        coeff, bound = pending.pop(rows)
        if bound >= limit:
            raise _Widen(_wider(bits, bound))
        if not coeff:
            continue
        tab = Tableau._raw(shape, rows, type_)
        l = find_violating_window(tab, pair_rule)
        if l is None:
            out[rows] = coeff
            continue
        key = rows[l - 1: l + 1]
        # The cut depends on whether the pair is the bottom one, so the memo
        # is keyed by that too, as the library's is by the window's bits.
        both_ends = l == tab.nrows - 1
        window_moves = moves.get((both_ends, key))
        if window_moves is None:
            window_moves = moves[both_ends, key] = tuple_step(key[0], key[1], column_rule,
                                                              bits, both_ends)
        before, after = rows[: l - 1], rows[l + 1:]
        for pair, change, step_coeff, norm in window_moves:
            child = before + pair + after
            child_weight = tab_weight + change
            if child_weight <= tab_weight:
                raise StraighteningError(
                    f"rewrite failed to increase weight at {tab!r}")
            earlier = pending.get(child)
            if earlier is None:
                pending[child] = (coeff * step_coeff, bound * norm)
                heapq.heappush(heap, (child_weight, child))
            else:
                pending[child] = (earlier[0] + coeff * step_coeff,
                                  earlier[1] + bound * norm)
    return out


def tuple_worklist(comb, pair_rule, column_rule):
    """Reference traversal: the canonical form of a combination, with the
    packed-coefficient worklist on row tuples, started at the library's
    ``_START_BITS`` and restarted wider by the library's rule."""
    shape, type_ = comb.shape, comb.type
    terms = list(comb._terms.items())
    if not terms:
        return LinComb._raw(shape, type_, {})
    low = min(coeff.min_exponent() for _, coeff in terms)

    def run(bits):
        out = _tuple_traverse([(tab, _pack(coeff.shift(-low), bits), _norm(coeff))
                               for tab, coeff in terms],
                              shape, type_, pair_rule, column_rule, bits)
        return LinComb._raw(shape, type_, {
            Tableau._raw(shape, rows, type_): _unpack(coeff, bits).shift(low)
            for rows, coeff in out.items()})

    return _widening(run)


def window_counts(upper, lower, low, high, column_rule, both_ends):
    """The rank t at which the top row's pooled entries start, and the count
    vectors a, p and b of the relation that rewrites a two-row window whose
    columns break, from the prefix counts of its rows by rank (upper and
    lower), low and high being the smallest and the largest broken rank:
    the cut of ``straighten._window_cut``, with every rank's counts sliced
    out of the rows' counts per rank."""
    if column_rule == "rightmost":
        s = t = high
    else:
        s, t = low, bisect_left(upper, lower[low])
        if both_ends and high > low:
            end = bisect_left(upper, lower[high])
            if (comb(lower[high] + upper[-1] - upper[end - 1], lower[high])
                    < comb(lower[low] + upper[-1] - upper[t - 1], lower[low])):
                s, t = high, end
    tops, bottoms = list(map(sub, upper[1:], upper)), list(map(sub, lower[1:], lower))
    # Top entries of rank below t are fixed, bottom ones above s too.
    a = tops[:t - 1] + [0] * (len(tops) - t + 1)
    b = [0] * s + bottoms[s:]
    if s < t:
        p = bottoms[:s] + [0] * (t - 1 - s) + tops[t - 1:]
    else:
        p = bottoms[:s - 1] + [bottoms[s - 1] + tops[s - 1]] + tops[s:]
    return t, a, p, b


def broken_value_window_cut(upper, lower, low, high, column_rule, both_ends):
    """``straighten._window_cut`` with the cut (k, k) at the broken value k
    the column rule picks, the smallest or the largest: the same cut under
    "rightmost", a narrower one or the same under "leftmost"."""
    k = low if column_rule == "leftmost" else high
    return k, k


def top_entry_window_cut(upper, lower, low, high, column_rule, both_ends):
    """``straighten._window_cut`` with the cut (k, k) at the top entry k of
    the picked broken column: the same cut under "rightmost", a narrower
    one or the same under "leftmost"."""
    if column_rule == "leftmost":
        v, column = low, upper[low - 1] + 1
    else:
        v, column = high, lower[high]
    # upper is nondecreasing and upper[v - 1] < column.
    k = bisect_left(upper, column, v)
    return k, k


def uncompressed_window_moves(pack, key, broken, r, column_rule, bits):
    """``straighten._window_moves`` before it built pieces only for the
    pooled ranks, without its checks: a piece as wide as the key for every
    value of the tableau, and the relation built from the full count
    vectors of ``window_counts``."""
    at = r * pack.group
    upper, lower = pack.prefixes(key >> at), pack.prefixes(key >> at + pack.group)
    guards = broken >> at & (1 << pack.group) - 1
    t, a, p, b = window_counts(upper, lower, (guards & -guards).bit_length() // pack.width,
                               guards.bit_length() // pack.width, column_rule,
                               r + 1 == len(pack.windows))
    pieces = [(lift << at) - (v << pack.weight_at) for v, lift in zip(pack.values, pack.lifts)]
    start = -sum(map(mul, map(sub, upper[t:], upper[t - 1:]), pieces[t - 1:]))
    return [term for term in vector_relation_terms(a, p, b, upper[-1], bits, pieces, start, -1)
            if term[0]]
