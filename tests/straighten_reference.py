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
"""

import heapq


from heckehom import (
    Composition,
    LinComb,
    StraighteningError,
    Tableau,
    two_row_straighten_step,
)
from heckehom.straighten import embed_two_row, find_violating_window, weight


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
