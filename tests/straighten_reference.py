"""The straightening traversal as a memo of full expansions, as a reference.

This is the traversal the weight-ordered worklist in ``heckehom.straighten``
replaced: every tableau's full expansion is stored, and each parent's is
built by summing scaled copies of its children's.  It shares no traversal
code with the library, only the rewrite primitives (``find_violating_window``,
``two_row_straighten_step`` and ``embed_two_row``), so the tests (and
``scripts/sweep_straighten.py --reference``) compare the two.
"""

from heckehom import (
    Composition,
    LinComb,
    Tableau,
    embed_two_row,
    find_violating_window,
    two_row_straighten_step,
)


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
