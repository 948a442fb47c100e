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

Two knobs choose which violation to attack first; every choice yields the
same canonical form, which the test suite checks by comparing strategies.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from .combinat import Composition, Tableau, type_composition
from .errors import StraighteningError
from .garnir import LinComb, two_row_straighten_step
from .qcoeff import LaurentPoly

PAIR_RULES = ("topmost", "bottommost")
COLUMN_RULES = ("leftmost", "rightmost")


def weight(tab: Tableau) -> int:
    """Sum over rows of (row index) times (sum of row entries), top row 1.

    Each rewrite pushes entry mass strictly downward, so this weight
    strictly increases; it is bounded on the finitely many tableaux of a
    given shape and content, which forces termination.
    """
    return sum(r * row.element_sum() for r, row in enumerate(tab.rows, start=1))


def _pair_violates(upper: tuple[int, ...], lower: tuple[int, ...]) -> bool:
    return any(lower[c] <= upper[c] for c in range(len(lower)))


def find_violating_window(tab: Tableau, pair_rule: str = "topmost") -> int | None:
    """1-based index of the upper row of an adjacent pair breaking
    column-strictness, or None when the tableau is semistandard."""
    if pair_rule not in PAIR_RULES:
        raise ValueError(f"unknown pair rule {pair_rule!r}")
    rows = tab.row_lists()
    hits = [l for l in range(1, tab.nrows)
            if _pair_violates(rows[l - 1], rows[l])]
    if not hits:
        return None
    return hits[0] if pair_rule == "topmost" else hits[-1]


def embed_two_row(tab: Tableau, upper_row: int, rel: LinComb) -> LinComb:
    """Substitute a two-row combination for rows upper_row, upper_row + 1.

    The combination must live on exactly the window's shape and content.
    Fixing every other row turns a two-row identity into an identity for
    the full tableau.
    """
    l = upper_row
    if not 1 <= l < tab.nrows:
        raise ValueError(f"row {l} is not the upper row of an adjacent pair")
    window_shape = Composition((tab.shape.part(l - 1), tab.shape.part(l)))
    window_type = type_composition(tab.rows[l - 1] + tab.rows[l])
    if rel.shape != window_shape or rel.type != window_type:
        raise ValueError(
            f"combination on shape {rel.shape} type {rel.type} does not fit "
            f"window shape {window_shape} type {window_type}")
    # Distinct window tableaux give distinct children: the other rows are fixed.
    shape, type_ = tab.shape, tab.type()
    before, after = tab.rows[: l - 1], tab.rows[l + 1:]
    return LinComb._raw(shape, type_, {
        Tableau._raw(shape, before + window_tab.rows + after, type_): coeff
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
    pending: dict[Tableau, LaurentPoly] = {}
    # Tableaux of one shape have distinct sort keys, so entries never
    # compare their third items.
    heap: list[tuple[int, tuple, Tableau]] = []
    for tab, coeff in terms:
        pending[tab] = coeff
        heap.append((weight(tab), tab.sort_key(), tab))
    heapq.heapify(heap)
    steps: dict[tuple[tuple[int, ...], tuple[int, ...]], LinComb] = {}
    out: dict[Tableau, LaurentPoly] = {}
    while heap:
        tab_weight, _, tab = heapq.heappop(heap)
        coeff = pending.pop(tab)
        if not coeff:
            continue
        # Called through module globals so that perfbench/tracer.py can wrap them.
        l = find_violating_window(tab, pair_rule)
        if l is None:
            out[tab] = coeff
            continue
        rows = tab.row_lists()
        key = (rows[l - 1], rows[l])
        step = steps.get(key)
        if step is None:
            window = Tableau(Composition((len(key[0]), len(key[1]))),
                             tab.rows[l - 1: l + 1])
            step = steps[key] = two_row_straighten_step(window, column_rule)
        for child, child_coeff in embed_two_row(tab, l, step)._terms.items():
            # This check is also what makes the heap order sound: nothing
            # can add to a tableau once it has been popped.
            child_weight = weight(child)
            if child_weight <= tab_weight:
                raise StraighteningError(
                    f"rewrite failed to increase weight at {tab!r}")
            contribution = coeff * child_coeff
            earlier = pending.get(child)
            if earlier is None:
                pending[child] = contribution
                heapq.heappush(heap, (child_weight, child.sort_key(), child))
            else:
                pending[child] = earlier + contribution
    return LinComb._raw(shape, type_, out)


def semistandardize(tab: Tableau, pair_rule: str = "topmost",
                    column_rule: str = "leftmost") -> LinComb:
    """Canonical form: the equal combination of semistandard tableaux.

    The input must have partition shape.  A semistandard input returns
    itself with coefficient 1.
    """
    _check_rules(tab.shape, pair_rule, column_rule)
    return _straighten([(tab, LaurentPoly.one())], tab.shape, tab.type(),
                       pair_rule, column_rule)


def semistandardize_lincomb(comb: LinComb, pair_rule: str = "topmost",
                            column_rule: str = "leftmost") -> LinComb:
    """Canonical form of a combination, straightened in one traversal.

    All input terms enter the worklist together, so a tableau reached from
    several terms is rewritten once, on its summed coefficient.
    """
    _check_rules(comb.shape, pair_rule, column_rule)
    return _straighten(comb._terms.items(), comb.shape, comb.type,
                       pair_rule, column_rule)
