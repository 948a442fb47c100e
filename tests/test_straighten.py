"""The full semistandardisation loop over arbitrary partition shapes."""

import inspect
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import heckehom.garnir
import heckehom.straighten
from heckehom import (
    Composition,
    LaurentPoly,
    LinComb,
    Multiset,
    Partition,
    StraighteningError,
    Tableau,
    embed_two_row,
    enumerate_semistandard,
    find_violating_window,
    garnir_relation,
    is_semistandard,
    iter_valid_data,
    parse_tableau,
    semistandardize,
    semistandardize_lincomb,
    two_row_straighten_step,
    weight,
)

from heckehom.cli import build_parser
from perfbench.workloads import two_row_base, w18_base

from .straighten_reference import laurent_worklist, memo_of_expansions
from .strategies import tableaux

RULES = list(itertools.product(("topmost", "bottommost"), ("leftmost", "rightmost")))


class TestWeight:
    def test_pinned_values(self):
        assert weight(parse_tableau("1 2 2 3 4 / 1 3 3 3")) == 32
        assert weight(Tableau(Composition(()), [])) == 0
        assert weight(parse_tableau("1 1")) == 2

    @given(tableaux(max_n=6))
    def test_every_step_child_is_heavier(self, tab):
        upper = find_violating_window(tab, "topmost")
        if upper is None:
            return
        rows = tab.row_lists()
        window = Tableau(Composition((tab.shape.part(upper - 1),
                                      tab.shape.part(upper))),
                        [Multiset(rows[upper - 1]), Multiset(rows[upper])])
        rel = two_row_straighten_step(window)
        out = embed_two_row(tab, upper, rel)
        for child, _ in out.items():
            assert weight(child) > weight(tab)


class TestViolatingWindow:
    def test_none_for_semistandard(self):
        assert find_violating_window(parse_tableau("1 1 / 2 2"), "topmost") is None

    def test_topmost_vs_bottommost(self):
        tab = parse_tableau("1 2 / 1 2 / 1 2")
        assert find_violating_window(tab, "topmost") == 1
        assert find_violating_window(tab, "bottommost") == 2

    def test_single_row_never_violates(self):
        assert find_violating_window(parse_tableau("3 3 3"), "topmost") is None

    def test_rejects_non_partition_shape(self):
        tab = Tableau((1, 2), [[1], [2, 3]])
        with pytest.raises(ValueError, match="needs a partition shape"):
            is_semistandard(tab)
        for rule in ("topmost", "bottommost"):
            with pytest.raises(ValueError, match="needs a partition shape"):
                find_violating_window(tab, rule)


class TestEmbed:
    def test_whole_tableau_window_is_identity_embedding(self):
        tab = parse_tableau("1 2 / 1 2")
        rel = two_row_straighten_step(tab)
        assert embed_two_row(tab, 1, rel) == rel

    def test_other_rows_copied_verbatim(self):
        tab = parse_tableau("1 1 2 / 1 2 / 1 2")
        rel = two_row_straighten_step(parse_tableau("1 2 / 1 2"))
        out = embed_two_row(tab, 2, rel)
        for child, _ in out.items():
            assert child.row_lists()[0] == (1, 1, 2)

    def test_type_mismatch_rejected(self):
        tab = parse_tableau("1 1 2 / 1 2 / 1 2")
        rel = two_row_straighten_step(parse_tableau("1 3 / 1 3"))
        with pytest.raises(ValueError):
            embed_two_row(tab, 2, rel)


class TestSemistandardize:
    def test_worked_example_final(self):
        result = semistandardize(parse_tableau("1 2 2 3 4 / 1 3 3 3"))
        expect = {
            parse_tableau("1 1 2 2 3 / 3 3 3 4"): LaurentPoly.parse("1 + q - q^3"),
            parse_tableau("1 1 2 2 4 / 3 3 3 3"): LaurentPoly.parse("-q^2 - q^3"),
            parse_tableau("1 1 2 3 3 / 2 3 3 4"): LaurentPoly.one(),
        }
        assert dict(result.items()) == expect

    def test_tiny_column_swap(self):
        result = semistandardize(parse_tableau("2 / 1"))
        assert dict(result.items()) == {
            parse_tableau("1 / 2"): LaurentPoly.parse("-1")}

    def test_three_row_example(self):
        result = semistandardize(parse_tableau("1 2 / 1 2 / 3"))
        assert dict(result.items()) == {
            parse_tableau("1 1 / 2 2 / 3"): LaurentPoly.parse("-1 - q")}

    @given(tableaux(max_n=6))
    def test_fixpoint_on_semistandard(self, tab):
        if not is_semistandard(tab):
            return
        assert semistandardize(tab) == LinComb.single(tab)

    @given(tableaux(max_n=6, max_value=4))
    @settings(deadline=None)
    def test_support_is_semistandard_and_enumerated(self, tab):
        result = semistandardize(tab)
        basis = set(enumerate_semistandard(tab.shape, tab.type()))
        for out_tab, coeff in result.items():
            assert is_semistandard(out_tab)
            assert out_tab in basis
            assert coeff

    @given(tableaux(max_n=6, max_value=4))
    @settings(deadline=None)
    def test_strategy_independence(self, tab):
        a = semistandardize(tab, pair_rule="topmost", column_rule="leftmost")
        b = semistandardize(tab, pair_rule="bottommost", column_rule="rightmost")
        assert a == b

    def test_rejects_non_partition_shape(self):
        with pytest.raises(ValueError):
            semistandardize(parse_tableau("1 / 2 2"))

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            semistandardize(parse_tableau("1 1 / 2 2"), pair_rule="sideways")
        with pytest.raises(ValueError):
            semistandardize_lincomb(LinComb.single(parse_tableau("2 / 1")),
                                    column_rule="middle")

    @pytest.mark.parametrize("pair_rule,column_rule", RULES)
    @given(tableaux(max_n=7, max_value=4))
    @settings(deadline=None)
    def test_matches_memo_of_expansions(self, pair_rule, column_rule, tab):
        want = memo_of_expansions(tab, pair_rule, column_rule, {})
        assert semistandardize(tab, pair_rule, column_rule) == want

    def test_default_pair_rule_is_shared(self):
        default = heckehom.straighten.DEFAULT_PAIR_RULE
        assert default == "bottommost"
        for fn in (find_violating_window, semistandardize, semistandardize_lincomb):
            assert inspect.signature(fn).parameters["pair_rule"].default == default
        assert build_parser().parse_args(["straighten", "2 / 1"]).pair_rule == default

    def test_default_matches_topmost_on_w18(self):
        for rows in w18_base():
            tab = Tableau([len(row) for row in rows], rows)
            assert semistandardize(tab) == semistandardize(tab, "topmost", "leftmost")

    @given(tableaux(max_n=7, max_value=4))
    @settings(deadline=None)
    def test_default_matches_topmost(self, tab):
        assert semistandardize(tab) == semistandardize(tab, "topmost", "leftmost")

    def test_weight_not_increasing_raises(self, monkeypatch):
        # A rewrite that gives the window back makes a child equal to its parent.
        monkeypatch.setattr(heckehom.straighten, "_packed_step",
                            lambda top, bottom, column_rule, bits: [((top, bottom), 0, 1, 1)])
        with pytest.raises(StraighteningError):
            semistandardize(parse_tableau("2 / 1"))

    def test_identity_coefficient_not_one_raises(self, monkeypatch):
        # The step builds its relation with the count-vector core that
        # garnir_relation also uses; doubling the input's own term there
        # breaks the identity coefficient.
        relation = heckehom.garnir._relation_from_counts

        def doubled(*args):
            terms = relation(*args)
            coeff, norm = terms[(2,), (1,)]
            terms[(2,), (1,)] = (2 * coeff, 2 * norm)
            return terms

        monkeypatch.setattr(heckehom.garnir, "_relation_from_counts", doubled)
        with pytest.raises(StraighteningError):
            semistandardize(parse_tableau("2 / 1"))


@st.composite
def laurent_combinations(draw, max_n: int = 7, max_value: int = 4) -> LinComb:
    """Combinations of tableaux of one shape and content, with random-sign
    Laurent coefficients (negative exponents, magnitudes up to 10**30), and
    sometimes a term and the expansion of another that cancel."""
    tab = draw(tableaux(max_n=max_n, max_value=max_value))
    coefficient = st.dictionaries(
        st.integers(-5, 5), st.integers(-9, 9) | st.integers(-10**30, 10**30),
        min_size=1, max_size=3).map(LaurentPoly)
    others = draw(st.lists(st.permutations(tab.content().elements()), max_size=3))
    comb = LinComb.single(tab, draw(coefficient))
    for values in others:
        rows, start = [], 0
        for part in tab.shape.stripped:
            rows.append(Multiset(values[start: start + part]))
            start += part
        other, coeff = Tableau(tab.shape, rows), draw(coefficient)
        comb = comb + LinComb.single(other, coeff)
        if draw(st.booleans()):
            # Straightens to zero together with the term just added.
            comb = comb - semistandardize(other).scale(coeff)
    return comb


class TestPackedWorklist:
    """The packed worklist against the LaurentPoly worklist it replaced."""

    @given(laurent_combinations())
    @settings(deadline=None)
    def test_lincomb_matches_laurent_worklist(self, comb):
        assert semistandardize_lincomb(comb) == laurent_worklist(
            comb, heckehom.straighten.DEFAULT_PAIR_RULE, "leftmost")

    @pytest.mark.parametrize("base", [w18_base, two_row_base])
    def test_matches_laurent_worklist_on_benchmark_batches(self, base):
        for rows in base():
            tab = Tableau([len(row) for row in rows], rows)
            assert semistandardize(tab) == laurent_worklist(
                LinComb.single(tab), heckehom.straighten.DEFAULT_PAIR_RULE, "leftmost")

    @pytest.fixture
    def widths(self, monkeypatch):
        """The packing width of every traversal run while the test runs."""
        widths = []
        traverse = heckehom.straighten._traverse

        def recorded(*args):
            widths.append(args[-1])
            return traverse(*args)

        monkeypatch.setattr(heckehom.straighten, "_traverse", recorded)
        return widths

    def test_narrow_start_restarts_with_identical_answers(self, monkeypatch, widths):
        tabs = [Tableau([len(row) for row in rows], rows) for rows in w18_base()]
        comb = LinComb.single(tabs[0], LaurentPoly.parse("3q^-2 - 5"))
        want = [semistandardize(tab) for tab in tabs] + [semistandardize_lincomb(comb)]
        widths.clear()
        monkeypatch.setattr(heckehom.straighten, "_START_BITS", 2)
        got = [semistandardize(tab) for tab in tabs] + [semistandardize_lincomb(comb)]
        assert got == want
        assert widths[0] == 2 and len(widths) > len(got)

    def test_huge_coefficient_restarts(self, widths):
        tab = parse_tableau("2 3 4 / 1 2 4 / 1 3")
        coeff = LaurentPoly.monomial(-3, 10**30)
        want = semistandardize(tab).scale(coeff)
        widths.clear()
        assert semistandardize_lincomb(LinComb.single(tab, coeff)) == want
        assert widths[0] == heckehom.straighten._START_BITS and len(widths) > 1
        assert 10**30 < 2 ** (widths[-1] - 1)


class TestSemistandardizeLincomb:
    def test_zero_in_zero_out(self):
        zero = LinComb.zero(Composition((2, 1)), Composition((2, 1)))
        assert semistandardize_lincomb(zero).is_zero

    def test_garnir_relation_straightens_to_zero(self):
        for datum in iter_valid_data(5, 3):
            rel = garnir_relation(datum)
            assert semistandardize_lincomb(rel).is_zero, datum

    @given(tableaux(max_n=6, max_value=4))
    @settings(deadline=None)
    def test_idempotent(self, tab):
        once = semistandardize(tab)
        assert semistandardize_lincomb(once) == once

    def test_combines_like_terms(self):
        tab = parse_tableau("2 / 1")
        comb = LinComb(tab.shape, tab.type(),
                       {tab: LaurentPoly.one(),
                        parse_tableau("1 / 2"): LaurentPoly.one()})
        result = semistandardize_lincomb(comb)
        assert result.is_zero

    def test_input_minus_expansion_cancels(self):
        tab = parse_tableau("2 3 4 / 1 2 4 / 1 3")
        expansion = semistandardize(tab)
        assert len(expansion) > 1
        assert semistandardize_lincomb(LinComb.single(tab) - expansion).is_zero

    def test_shared_children_merge(self):
        # The second tableau is also a child of the first one's rewrite, so
        # the traversal merges their contributions before rewriting it.
        first = parse_tableau("1 2 2 3 4 / 1 3 3 3")
        l = find_violating_window(first)
        window = Tableau(Composition((first.shape.part(l - 1), first.shape.part(l))),
                         first.rows[l - 1: l + 1])
        children = embed_two_row(first, l, two_row_straighten_step(window)).support()
        second = next(c for c in children if not is_semistandard(c))
        comb = LinComb.single(first) + LinComb.single(second, LaurentPoly.parse("q - 2"))
        want = (semistandardize(first)
                + semistandardize(second).scale(LaurentPoly.parse("q - 2")))
        assert semistandardize_lincomb(comb) == want
