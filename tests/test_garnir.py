"""Two-row relation data, splits, coefficients, and linear combinations.

Split-level properties are checked on the per-split reference in
``garnir_reference``, and ``garnir_relation`` is checked against it.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from heckehom import (
    Composition,
    GarnirDatum,
    LaurentPoly,
    LinComb,
    Multiset,
    ParseError,
    Partition,
    Tableau,
    garnir_relation,
    is_semistandard,
    iter_fillings,
    iter_valid_data,
    parse_tableau,
    straightening_datum,
    two_row_straighten_step,
)

from heckehom.garnir import _relation_from_counts

from .garnir_reference import (
    Split,
    build_tableau,
    enumerate_splits,
    reference_relation,
    reference_relation_from_counts,
    reference_step,
    split_coefficient,
    split_from_tableau,
)
from .strategies import multisets


def small_data():
    return st.sampled_from(list(iter_valid_data(6, 4)))


@st.composite
def large_data(draw, max_n: int = 16, max_value: int = 6) -> GarnirDatum:
    """Valid data up to degree max_n: any sizes iter_valid_data would visit."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    top_len = draw(st.integers(min_value=(n + 1) // 2, max_value=n - 1))
    r_size = draw(st.integers(min_value=0, max_value=min(top_len, n - top_len - 1)))
    s_size = draw(st.integers(min_value=top_len + 1, max_value=n - r_size))
    parts = [draw(multisets(max_size=k, min_size=k, max_value=max_value))
             for k in (r_size, s_size, n - r_size - s_size)]
    return GarnirDatum(*parts, top_len)


class TestDatumValidation:
    def test_pool_must_exceed_top_length(self):
        with pytest.raises(ValueError):
            GarnirDatum(Multiset(()), Multiset((1, 2)), Multiset(()), 2)

    def test_fixed_top_must_fit(self):
        with pytest.raises(ValueError):
            GarnirDatum(Multiset((1, 1, 1)), Multiset((1, 2, 3)), Multiset(()), 2)

    def test_top_row_must_be_at_least_half(self):
        # rows would be (2, 3): not a partition shape
        with pytest.raises(ValueError):
            GarnirDatum(Multiset(()), Multiset((1, 2, 2)), Multiset((1, 1)), 2)

    def test_shape_pinned(self):
        datum = GarnirDatum(Multiset((1,)), Multiset((2, 2, 3, 3)), Multiset(()), 3)
        assert datum.shape == Composition((3, 2))
        assert datum.take_size == 2
        assert datum.n == 5


class TestSplits:
    @given(small_data())
    def test_split_count_is_binomial(self, datum):
        splits = list(enumerate_splits(datum))
        pool = datum.pool.elements()
        expected = len(set(
            tuple(sorted(c))
            for c in itertools.combinations(pool, datum.take_size)))
        assert len(splits) == expected

    @given(small_data())
    def test_split_tableau_round_trip(self, datum):
        for split in enumerate_splits(datum):
            tab = build_tableau(datum, split)
            assert split_from_tableau(datum, tab) == split

    @given(small_data())
    def test_coefficients_are_polynomials_with_positive_coeffs(self, datum):
        for split in enumerate_splits(datum):
            coeff = split_coefficient(datum, split)
            assert coeff.min_exponent() >= 0
            assert all(c > 0 for _, c in coeff.items())

    def test_split_coefficient_worked_example(self):
        d = GarnirDatum(Multiset(), Multiset([1, 1, 2, 2, 3, 4]), Multiset([3, 3, 3]), 5)
        s = Split(Multiset([1, 1, 2, 2, 3]), Multiset([4]))
        assert str(split_coefficient(d, s)) == "q^3"


class TestRelation:
    def test_worked_small_example(self):
        datum = GarnirDatum(Multiset(()), Multiset((1, 1, 2)), Multiset((2,)), 2)
        rel = garnir_relation(datum)
        expect = {
            parse_tableau("1 1 / 2 2"): LaurentPoly.parse("1 + q"),
            parse_tableau("1 2 / 1 2"): LaurentPoly.one(),
        }
        assert dict(rel.items()) == expect

    @given(small_data())
    def test_one_term_per_split(self, datum):
        rel = garnir_relation(datum)
        assert len(rel) == len(list(enumerate_splits(datum)))

    @staticmethod
    def _assert_matches_reference(datum):
        rel, ref = garnir_relation(datum), reference_relation(datum)
        assert (rel.shape, rel.type) == (ref.shape, ref.type), datum
        assert rel.items() == ref.items(), datum

    def test_relation_matches_per_split_reference(self):
        data = list(iter_valid_data(7, 4))
        assert len(data) == 6780
        for datum in data:
            self._assert_matches_reference(datum)

    @given(large_data())
    @settings(deadline=None)
    def test_relation_matches_per_split_reference_up_to_degree_16(self, datum):
        self._assert_matches_reference(datum)

    def test_relation_never_empty(self):
        datum = GarnirDatum(Multiset(()), Multiset((1, 2)), Multiset(()), 1)
        rel = garnir_relation(datum)
        assert not rel.is_zero

    def test_valid_data_count_small(self):
        data = list(iter_valid_data(4, 3))
        assert all(d.n <= 4 for d in data)
        assert all(d.pool.size > d.top_len for d in data)
        assert len(data) == len(set(data))


class TestPackedCore:
    """The packed relation core against the LaurentPoly recursion it replaced:
    each coefficient packed at q = 2**bits, each norm its value at q = 1."""

    @staticmethod
    def _assert_matches_reference(datum):
        top = max(ms.max_value() for ms in (datum.fixed_top, datum.pool, datum.fixed_bottom))
        a, p, b = ([ms.count(v) for v in range(1, top + 1)]
                   for ms in (datum.fixed_top, datum.pool, datum.fixed_bottom))
        for sign in (1, -1):
            ref = reference_relation_from_counts(a, p, b, datum.top_len, sign)
            for bits in (datum.n + 2, 64):
                core = _relation_from_counts(a, p, b, datum.top_len, bits, sign)
                assert list(core) == [tab.row_lists() for tab in ref._terms], datum
                for tab, coeff in ref._terms.items():
                    packed, norm = core[tab.row_lists()]
                    assert packed == coeff.specialize(2 ** bits), (datum, bits)
                    assert norm == sign * coeff.specialize(1), datum

    def test_matches_laurent_reference(self):
        for datum in iter_valid_data(7, 4):
            self._assert_matches_reference(datum)

    @given(large_data())
    @settings(deadline=None)
    def test_matches_laurent_reference_up_to_degree_16(self, datum):
        self._assert_matches_reference(datum)

    def test_edge_width_unpacks_large_coefficients(self):
        # Coefficients of 26 and 32 bits at degrees 36 and 42: far wider
        # than half the degree, so the width must grow with the degree.
        for k in (8, 10):
            datum = GarnirDatum(Multiset([1] * k), Multiset([1] * (k + 2) + [2] * (k + 2)),
                                Multiset([2] * k), 2 * k + 2)
            ref = reference_relation_from_counts([k, 0], [k + 2, k + 2], [0, k],
                                                 datum.top_len)
            assert garnir_relation(datum).items() == ref.items()
            assert max(abs(c) for _, coeff in ref.items() for _, c in coeff.items()) > 2 ** 25


class TestStraighteningDatum:
    def test_rejects_semistandard(self):
        with pytest.raises(ValueError):
            straightening_datum(parse_tableau("1 1 / 2 2"))

    def test_rejects_more_than_two_rows(self):
        with pytest.raises(ValueError):
            straightening_datum(parse_tableau("1 2 / 1 2 / 1"))

    def test_worked_example_datum(self):
        tab = parse_tableau("1 2 2 3 4 / 1 3 3 3")
        datum = straightening_datum(tab)
        assert datum.fixed_top == Multiset(())
        assert datum.pool == Multiset((1, 1, 2, 2, 3, 4))
        assert datum.fixed_bottom == Multiset((3, 3, 3))
        assert datum.top_len == 5

    def test_rightmost_column_rule(self):
        tab = parse_tableau("1 2 2 3 4 / 1 3 3 3")
        datum = straightening_datum(tab, column_rule="rightmost")
        # rightmost violating column holds 3 above and 3 below
        assert datum.fixed_top == Multiset((1, 2, 2))
        assert datum.pool == Multiset((1, 3, 3, 3, 3, 4))
        assert datum.fixed_bottom == Multiset(())

    def test_identity_split_has_unit_coefficient(self):
        tab = parse_tableau("1 2 2 3 4 / 1 3 3 3")
        for rule in ("leftmost", "rightmost"):
            datum = straightening_datum(tab, column_rule=rule)
            split = split_from_tableau(datum, tab)
            assert split_coefficient(datum, split) == LaurentPoly.one()


@st.composite
def two_row_tableaux(draw, max_n: int = 16, max_value: int = 6) -> Tableau:
    """Two-row tableaux of partition shape up to degree max_n."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    top_len = draw(st.integers(min_value=(n + 1) // 2, max_value=n - 1))
    rows = [draw(st.lists(st.integers(min_value=1, max_value=max_value),
                          min_size=k, max_size=k))
            for k in (top_len, n - top_len)]
    return Tableau((top_len, n - top_len), rows)


class TestTwoRowStep:
    @staticmethod
    def _assert_matches_reference(tab, column_rule):
        step, ref = two_row_straighten_step(tab, column_rule), reference_step(tab, column_rule)
        assert (step.shape, step.type) == (ref.shape, ref.type), (tab, column_rule)
        assert step.items() == ref.items(), (tab, column_rule)

    def test_matches_datum_reference(self):
        tabs = [tab for n in range(2, 9) for top_len in range((n + 1) // 2, n)
                for tab in iter_fillings(Partition((top_len, n - top_len)), 4)
                if not is_semistandard(tab)]
        assert len(tabs) == 4620
        for tab in tabs:
            for rule in ("leftmost", "rightmost"):
                self._assert_matches_reference(tab, rule)

    @given(two_row_tableaux(), st.sampled_from(("leftmost", "rightmost")))
    @settings(deadline=None)
    def test_matches_datum_reference_up_to_degree_16(self, tab, column_rule):
        if is_semistandard(tab):
            return
        self._assert_matches_reference(tab, column_rule)

    def test_worked_example_first_step(self):
        tab = parse_tableau("1 2 2 3 4 / 1 3 3 3")
        step = two_row_straighten_step(tab)
        expect = {
            parse_tableau("1 1 2 2 3 / 3 3 3 4"): LaurentPoly.parse("-q^3"),
            parse_tableau("1 1 2 2 4 / 3 3 3 3"):
                LaurentPoly.parse("-1 - q - q^2 - q^3"),
            parse_tableau("1 1 2 3 4 / 2 3 3 3"): LaurentPoly.parse("-1"),
        }
        assert dict(step.items()) == expect

    def test_single_column_swap(self):
        step = two_row_straighten_step(parse_tableau("2 / 1"))
        assert dict(step.items()) == {
            parse_tableau("1 / 2"): LaurentPoly.parse("-1")}

    def test_never_returns_input(self):
        tab = parse_tableau("1 2 / 1 2")
        step = two_row_straighten_step(tab)
        assert tab not in step.support()


class TestLinComb:
    def test_constructor_checks_shape_and_type(self):
        tab = parse_tableau("1 1 / 2")
        with pytest.raises(ValueError):
            LinComb(Composition((2, 1)), Composition((1, 1, 1)), {tab: 1})
        with pytest.raises(ValueError):
            LinComb(Composition((3,)), Composition((2, 1)), {tab: 1})

    def test_zero_terms_dropped(self):
        tab = parse_tableau("1 1 / 2")
        comb = LinComb.single(tab) - LinComb.single(tab)
        assert comb.is_zero
        assert len(comb) == 0

    def test_scale_and_add(self):
        tab = parse_tableau("1 1 / 2")
        comb = LinComb.single(tab).scale(LaurentPoly.parse("q"))
        assert comb.coefficient(tab) == LaurentPoly.parse("q")
        total = comb + comb
        assert total.coefficient(tab) == LaurentPoly.parse("2q")

    def test_text_rendering_pinned(self):
        datum = GarnirDatum(Multiset(()), Multiset((1, 1, 2)), Multiset((2,)), 2)
        rel = garnir_relation(datum)
        assert rel.to_text() == "(1 + q) * 1 1 / 2 2\n(1) * 1 2 / 1 2"

    @given(small_data())
    def test_json_round_trip(self, datum):
        rel = garnir_relation(datum)
        assert LinComb.from_json(rel.to_json()) == rel

    def test_from_json_rejects_garbage(self):
        for bad in ({}, {"shape": [2]}, [1], {"shape": [2], "type": [2],
                                             "terms": [{}]}):
            with pytest.raises(ParseError):
                LinComb.from_json(bad)

    def test_from_json_accumulates_duplicates(self):
        data = {
            "shape": [1], "type": [1],
            "terms": [{"coeff": "q", "rows": [[1]]},
                      {"coeff": "1", "rows": [[1]]}],
        }
        comb = LinComb.from_json(data)
        assert comb.coefficient(parse_tableau("1")) == LaurentPoly.parse("1 + q")
