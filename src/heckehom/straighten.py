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

Inside the traversal a tableau is its rows, a tuple of sorted int tuples: a
child is its parent's rows with one window swapped, and its weight is the
parent's plus a change read off the window once.  A coefficient is one int,
its value at q = 2**bits after the inputs are shifted by their smallest
exponent, carried with an upper bound on its L1 norm: children get the
product of the parent's coefficient and the step's, and the product of the
bounds, and merging adds both.  While a bound stays below 2**(bits - 1),
the zero test and the final unpacking into ``LaurentPoly`` are exact; a
tableau popped with a larger bound restarts the call at a wider width.

Two knobs choose which violation to attack first; every choice yields the
same canonical form, which the test suite checks by comparing strategies.
The pair rule picks the adjacent pair of rows and defaults to
``DEFAULT_PAIR_RULE``, ``"bottommost"``: on multi-row inputs it rewrites
far fewer tableaux than ``"topmost"`` (README gives the counts).  The
column rule picks the pivot column inside that pair and defaults to
``"leftmost"``.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from .combinat import Composition, Tableau, _breaks_columns
from .errors import StraighteningError
# two_row_straighten_step is not called here; it is imported so that code
# that looks it up in this module (perfbench/tracer.py) finds it.
from .garnir import LinComb, Rows, _packed_step, two_row_straighten_step  # noqa: F401
from .qcoeff import (
    _START_BITS,
    LaurentPoly,
    _norm,
    _pack,
    _unpack,
    _Widen,
    _widening,
    _wider,
)

PAIR_RULES = ("topmost", "bottommost")
COLUMN_RULES = ("leftmost", "rightmost")
DEFAULT_PAIR_RULE = "bottommost"


def weight(tab: Tableau) -> int:
    """Sum over rows of (row index) times (sum of row entries), top row 1.

    Each rewrite pushes entry mass strictly downward, so this weight
    strictly increases; it is bounded on the finitely many tableaux of a
    given shape and content, which forces termination.
    """
    return sum(r * sum(row) for r, row in enumerate(tab.row_lists(), start=1))


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
    low = min(coeff.min_exponent() for _, coeff in terms)

    def run(bits: int) -> LinComb:
        out = _traverse([(tab, _pack(coeff.shift(-low), bits), _norm(coeff))
                         for tab, coeff in terms],
                        shape, type_, pair_rule, column_rule, bits)
        return LinComb._raw(shape, type_, {
            Tableau._raw(shape, rows, type_): _unpack(coeff, bits).shift(low)
            for rows, coeff in out.items()})

    return _widening(run, _START_BITS)


def _traverse(terms: list[tuple[Tableau, int, int]], shape: Composition,
              type_: Composition, pair_rule: str, column_rule: str,
              bits: int) -> dict[Rows, int]:
    """The worklist on (tableau, packed coefficient, norm bound) inputs, at
    q = 2**bits: the packed output; raises _Widen when some bound reaches
    half the width."""
    limit = 1 << (bits - 1)
    # Per row tuple: (packed coefficient, bound on its L1 norm).
    pending: dict[Rows, tuple[int, int]] = {}
    heap: list[tuple[int, Rows]] = []
    for tab, coeff, bound in terms:
        pending[tab.row_lists()] = (coeff, bound)
        heap.append((weight(tab), tab.row_lists()))
    heapq.heapify(heap)
    # Per window: (new window rows, weight change, packed coefficient, norm)
    # per term of its rewrite.
    moves: dict[Rows, list[tuple[Rows, int, int, int]]] = {}
    out: dict[Rows, int] = {}
    while heap:
        tab_weight, rows = heapq.heappop(heap)
        coeff, bound = pending.pop(rows)
        # Below the limit, the zero test and the final unpacking are exact.
        if bound >= limit:
            raise _Widen(_wider(bits, bound))
        if not coeff:
            continue
        tab = Tableau._raw(shape, rows, type_)
        # Called through module globals so that perfbench/tracer.py and the
        # tests can wrap them.
        l = find_violating_window(tab, pair_rule)
        if l is None:
            out[rows] = coeff
            continue
        key = rows[l - 1: l + 1]
        window_moves = moves.get(key)
        if window_moves is None:
            window_moves = moves[key] = _packed_step(key[0], key[1], column_rule, bits)
        before, after = rows[: l - 1], rows[l + 1:]
        for pair, change, step_coeff, norm in window_moves:
            child = before + pair + after
            # This check is also what makes the heap order sound: nothing
            # can add to a tableau once it has been popped.
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
