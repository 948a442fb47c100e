"""Compositions, multisets, tableaux, permutations, and enumeration order."""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from heckehom import (
    Composition,
    LinComb,
    Multiset,
    ParseError,
    Partition,
    Tableau,
    enumerate_semistandard,
    is_semistandard,
    iter_fillings,
    iter_partitions,
    parse_tableau,
)
from heckehom.combinat import (
    MAX_ENTRY,
    format_tableau_inline,
    iter_multisets,
    parse_multiset,
    w_mu,
)

from .garnir_reference import cross_pairs, type_composition
from .hecke_reference import inversions, length_1A, perm_1A, perm_inverse, perm_mul
from .strategies import compositions, iter_compositions, multisets, tableaux


def contains_submultiset(big, small):
    """Whether every value occurs in big at least as often as in small."""
    return all(big.count(v) >= m for v, m in small.counts())


def enumerate_row_standard(shape, type_):
    """All tableaux of the given shape and type, in deterministic order.

    Rows are chosen top to bottom, each row running through the available
    sub-multisets in ascending order of sorted element tuples; the overall
    order is lexicographic in the resulting row sequences.
    """
    shape, type_ = Composition(shape), Composition(type_)
    if shape.n != type_.n:
        return []
    parts = shape.stripped
    out = []

    def rec(remaining, rows):
        if len(rows) == len(parts):
            out.append(Tableau(shape, rows))
            return
        for choice in remaining.sub_multisets(parts[len(rows)]):
            rec(remaining - choice, rows + [choice])

    rec(Multiset({v: m for v, m in enumerate(type_.parts, start=1) if m}), [])
    return out


class TestComposition:
    def test_trailing_zeros_ignored_for_equality(self):
        assert Composition((2, 1, 0, 0)) == Composition((2, 1))
        assert hash(Composition((2, 1, 0))) == hash(Composition((2, 1)))
        assert Composition((2, 0, 1)) != Composition((2, 1))

    def test_internal_zeros_kept(self):
        c = Composition((2, 0, 1))
        assert c.stripped == (2, 0, 1)
        assert c.n == 3

    def test_is_partition(self):
        assert Composition((3, 1)).is_partition
        assert Composition(()).is_partition
        assert not Composition((1, 3)).is_partition
        assert not Composition((2, 0, 1)).is_partition

    def test_conjugate_pinned(self):
        assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))
        assert Partition(()).conjugate() == Partition(())
        assert Partition((2, 2)).conjugate() == Partition((2, 2))

    def test_iter_compositions_counts(self):
        # weak compositions of n into k parts: C(n+k-1, k-1)
        assert len(list(iter_compositions(4, 3))) == 15
        assert len(list(iter_partitions(6))) == 11


class TestMultiset:
    @given(multisets(), multisets())
    def test_add_sub_round_trip(self, a, b):
        assert (a + b) - b == a
        assert (a + b).size == a.size + b.size

    @given(multisets(max_size=5))
    def test_sub_multisets_complete_and_sorted(self, m):
        for k in range(0, m.size + 1):
            subs = list(m.sub_multisets(k))
            keys = [s.elements() for s in subs]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))
            expected = set(
                tuple(sorted(c))
                for c in itertools.combinations(m.elements(), k))
            assert set(keys) == expected

    def test_entries_are_bounded(self):
        assert Multiset([1, MAX_ENTRY]).max_value() == MAX_ENTRY
        for values in ([MAX_ENTRY + 1], {MAX_ENTRY + 1: 1}, [0], {0: 2}, [-1]):
            with pytest.raises(ValueError, match=f"from 1 to {MAX_ENTRY}"):
                Multiset(values)

    def test_sub_multisets_order_pinned(self):
        m = Multiset((1, 1, 2))
        assert [s.elements() for s in m.sub_multisets(2)] == [(1, 1), (1, 2)]

    @given(multisets(max_size=4), multisets(max_size=4))
    def test_cross_pairs_counts_inversions(self, a, b):
        expected = sum(1 for x in a.elements() for y in b.elements() if x > y)
        assert cross_pairs(a, b) == expected

    def test_iter_multisets_matches_combinations(self):
        got = [m.elements() for m in iter_multisets(3, 3)]
        expected = sorted(itertools.combinations_with_replacement((1, 2, 3), 3))
        assert got == expected

    def test_containment(self):
        assert contains_submultiset(Multiset((1, 2)), Multiset((1,)))
        assert not contains_submultiset(Multiset((1, 2)), Multiset((1, 1)))

    def test_parse_multiset(self):
        assert parse_multiset("1, 2 2").elements() == (1, 2, 2)
        assert parse_multiset("").size == 0
        with pytest.raises(ParseError):
            parse_multiset("1 0")


class TestNonIntegers:
    """A float where an integer belongs raises TypeError, as int's own
    constructors do, instead of being truncated."""

    def test_composition(self):
        for parts in ([2.5], [1, 2.0]):
            with pytest.raises(TypeError):
                Composition(parts)
            with pytest.raises(TypeError):
                Partition(parts)

    @pytest.mark.parametrize("values", [[1.5], [1, 2.0], {1.5: 1}, {1: 1.5}, ["1"]])
    def test_multiset(self, values):
        with pytest.raises(TypeError):
            Multiset(values)

    @pytest.mark.parametrize("shape,rows", [((2,), [[1.5, 2]]), ((2.0,), [[1, 2]]),
                                            ((1, 1), [[1], [2.5]])])
    def test_tableau(self, shape, rows):
        with pytest.raises(TypeError):
            Tableau(shape, rows)


value_lists = st.lists(st.integers(min_value=1, max_value=5), max_size=7)
count_maps = st.dictionaries(st.integers(min_value=1, max_value=5),
                             st.integers(min_value=0, max_value=3), max_size=5)


class TestMultisetAgainstCounter:
    """Every query and operation of ``Multiset`` against
    ``collections.Counter``, on multisets built from lists and from
    mappings, and equality and hashing across every way of building one."""

    @given(st.one_of(value_lists, count_maps))
    def test_queries(self, values):
        ms, ref = Multiset(values), +Counter(values)
        for v in range(7):
            assert ms.count(v) == ref[v]
            assert (v in ms) == (v in ref)
        assert ms.support() == tuple(sorted(ref))
        assert ms.counts() == tuple(sorted(ref.items()))
        assert ms.elements() == tuple(sorted(ref.elements()))
        assert ms.size == sum(ref.values())
        assert ms.max_value() == max(ref, default=0)

    @given(st.one_of(value_lists, count_maps), st.one_of(value_lists, count_maps))
    def test_add_and_sub(self, a, b):
        ma, mb, ra, rb = Multiset(a), Multiset(b), +Counter(a), +Counter(b)
        assert (ma + mb).counts() == tuple(sorted((ra + rb).items()))
        if all(ra[v] >= m for v, m in rb.items()):
            assert (ma - mb).counts() == tuple(sorted((ra - rb).items()))
            return
        with pytest.raises(ValueError) as info:
            ma - mb
        found = re.fullmatch(r"cannot remove (\d+) copies of (\d+): only (\d+) present",
                             str(info.value))
        assert found, info.value
        m, v, have = map(int, found.groups())
        assert (m, have) == (rb[v], ra[v]) and have < m

    @given(value_lists, value_lists)
    def test_every_construction_is_equal_and_hashes_alike(self, values, extra):
        whole = Multiset(values + extra)
        k = len(values) // 2
        ref = Multiset(values)
        built = [
            Multiset(reversed(values)),
            Multiset({**Counter(values), 6: 0}),
            Multiset(values[:k]) + Multiset(values[k:]),
            whole - Multiset(extra),
            next(s for s in whole.sub_multisets(len(values)) if s == ref),
            parse_multiset(" ".join(map(str, values))),
            Tableau((k, len(values) - k), [values[:k], values[k:]]).content(),
        ]
        if values:
            built.append(Tableau((len(values),), [values]).rows[0])
            built.append(next(m for m in iter_multisets(len(values), max(values))
                              if m.elements() == ref.elements()))
        for ms in built:
            assert ms == ref and ref == ms
            assert hash(ms) == hash(ref)
            assert ms.elements() == ref.elements() and repr(ms) == repr(ref)
        assert Multiset(values + [1]) != ref

    @given(st.one_of(value_lists, count_maps))
    def test_sub_multisets_are_the_distinct_combinations(self, values):
        ms = Multiset(values)
        for k in range(-1, ms.size + 2):
            want = sorted(set(itertools.combinations(ms.elements(), k))) if k >= 0 else []
            assert [s.elements() for s in ms.sub_multisets(k)] == want


class TestTableau:
    def test_type_pinned(self):
        tab = parse_tableau("1 2 3 / 1 1 2")
        assert tab.type() == Composition((3, 2, 1))
        assert parse_tableau("1 3 / 1").type() == Composition((2, 0, 1))

    def test_row_size_must_match_shape(self):
        with pytest.raises(ValueError):
            Tableau(Composition((2, 1)), [Multiset((1,)), Multiset((2,))])

    def test_empty_tableau(self):
        tab = Tableau(Composition(()), [])
        assert tab.n == 0
        assert tab.type() == Composition(())

    def test_is_semistandard(self):
        assert is_semistandard(parse_tableau("1 1 2 / 2 3"))
        assert not is_semistandard(parse_tableau("1 1 / 1 2"))
        assert is_semistandard(parse_tableau("1 1"))

    @given(tableaux())
    def test_json_round_trip(self, tab):
        assert LinComb.from_json(LinComb.single(tab).to_json()).support() == [tab]

    @given(tableaux())
    def test_text_round_trip(self, tab):
        if tab.n == 0:
            return
        assert parse_tableau(format_tableau_inline(tab)) == tab

    @given(tableaux(max_n=7, partition_shape=False))
    @example(Tableau((0, 2), [[], [1, 2]]))
    @example(Tableau((2, 0, 1, 0), [[1, 3], [], [2]]))
    def test_trusted_constructor_matches_public(self, tab):
        raw = Tableau._raw(tab.shape, tab.row_lists(), None)
        assert raw == tab and tab == raw
        assert hash(raw) == hash(tab)
        assert raw.rows == tab.rows
        assert raw.type() == tab.type() == type_composition(tab.content())
        assert raw.content() == tab.content()
        assert raw.sort_key() == tab.sort_key()
        assert repr(raw) == repr(tab)

    def test_shape_zero_parts_and_equality(self):
        assert Tableau((2, 1), [[1, 1], [2]]) == Tableau((2, 1, 0), [[1, 1], [2], []])
        assert Tableau((2,), [[1, 2]]) != Tableau((0, 2), [[], [1, 2]])

    def test_parse_auto_sorts(self):
        assert parse_tableau("2 1 / 3") == parse_tableau("1 2 / 3")
        with pytest.raises(ParseError):
            parse_tableau("2 1 / 3", strict=True)


class TestPermutations:
    def test_perm_mul_is_left_to_right(self):
        # apply (2,1,3) first, then (1,3,2)
        assert perm_mul((2, 1, 3), (1, 3, 2)) == (3, 1, 2)

    @given(st.permutations(range(1, 6)))
    def test_inverse(self, w):
        w = tuple(w)
        n = len(w)
        assert perm_mul(w, perm_inverse(w)) == tuple(range(1, n + 1))

    @given(st.permutations(range(1, 6)))
    def test_inversions_of_inverse(self, w):
        w = tuple(w)
        assert inversions(w) == inversions(perm_inverse(w))

    def test_w_mu_pinned(self):
        assert w_mu(Partition((2, 2))) == (1, 3, 2, 4)
        assert w_mu(Partition((3, 3))) == (1, 3, 5, 2, 4, 6)
        assert w_mu(Partition((3,))) == (1, 2, 3)


class TestTableauPermutation:
    def test_worked_example(self):
        tab = parse_tableau("1 2 3 / 1 1 2")
        assert perm_1A(tab) == (1, 4, 5, 2, 6, 3)
        assert length_1A(tab) == 5
        assert inversions(perm_1A(tab)) == 5

    @given(tableaux(max_n=7, partition_shape=False))
    def test_length_formula_matches_inversions(self, tab):
        assert inversions(perm_1A(tab)) == length_1A(tab)

    def test_identity_like_tableau_gives_identity(self):
        tab = parse_tableau("1 1 1 / 2 2")
        assert perm_1A(tab) == (1, 2, 3, 4, 5)

    def test_injective_across_fillings(self):
        shape = Composition((2, 2))
        seen = {}
        for tab in iter_fillings(shape, 4):
            key = (perm_1A(tab), tab.type())
            assert key not in seen, (tab, seen[key])
            seen[key] = tab


class TestEnumeration:
    def test_row_standard_order_pinned(self):
        tabs = enumerate_row_standard(Composition((2, 1)), Composition((2, 1)))
        listed = [format_tableau_inline(t) for t in tabs]
        assert listed == ["1 1 / 2", "1 2 / 1"]

    def test_semistandard_subsequence_of_row_standard(self):
        shape, type_ = Partition((3, 2)), Composition((2, 2, 1))
        all_tabs = enumerate_row_standard(shape, type_)
        ssyt = enumerate_semistandard(shape, type_)
        positions = [all_tabs.index(t) for t in ssyt]
        assert positions == sorted(positions)
        assert set(ssyt) == {t for t in all_tabs if is_semistandard(t)}

    def test_semistandard_pinned(self):
        ssyt = enumerate_semistandard(Partition((2, 1)), Composition((2, 1)))
        assert [format_tableau_inline(t) for t in ssyt] == ["1 1 / 2"]
        none = enumerate_semistandard(Partition((1, 1)), Composition((2,)))
        assert none == []

    def test_semistandard_size_is_bounded(self):
        for shape, type_, what in (((MAX_ENTRY + 1,), (MAX_ENTRY + 1,), "shape"),
                                   ((1,), (1, MAX_ENTRY), "type")):
            with pytest.raises(ValueError, match=f"^{what} size {MAX_ENTRY + 1} is above"):
                enumerate_semistandard(shape, type_)
        # At the limit, sizes that differ still list nothing at once.
        assert enumerate_semistandard((MAX_ENTRY,), (1,)) == []
        assert enumerate_semistandard((1,), (MAX_ENTRY,)) == []

    def test_semistandard_matches_filtered_row_standard(self):
        for n in range(7):
            for parts in iter_partitions(n):
                for type_ in iter_compositions(n, 4):
                    want = [t for t in enumerate_row_standard(parts, type_)
                            if is_semistandard(t)]
                    assert enumerate_semistandard(parts, type_) == want, (parts, type_)

    def test_fillings_cover_all_types(self):
        shape = Composition((2, 1))
        tabs = list(iter_fillings(shape, 3))
        # one tableau per (multiset for row 1, multiset for row 2)
        assert len(tabs) == 6 * 3
        assert len(set(tabs)) == len(tabs)

    @pytest.mark.parametrize("tabs", [
        lambda: enumerate_semistandard(Partition((3, 2, 1)), Composition((2, 2, 1, 1, 0))),
        lambda: enumerate_semistandard(Composition((2, 2, 0)), Composition((1, 0, 2, 1))),
        lambda: enumerate_semistandard((), ()),
        lambda: list(iter_fillings(Composition((2, 0, 1, 0)), 3)),
        lambda: list(iter_fillings(Partition((2, 2)), 2)),
    ])
    def test_trusted_tableaux_match_public(self, tabs):
        # The enumerators build through the trusted constructor; every
        # field reads as the public constructor's.
        tabs = tabs()
        assert tabs
        for tab in tabs:
            public = Tableau(tab.shape, tab.row_lists())
            assert tab == public and hash(tab) == hash(public)
            assert tab.shape.parts == public.shape.parts
            assert tab.type().parts == public.type().parts
            assert tab.rows == public.rows and repr(tab) == repr(public)

    def test_enumerators_check_the_largest_value_at_once(self):
        message = f"^multiset values must be from 1 to {MAX_ENTRY}, got {MAX_ENTRY + 1}$"
        with pytest.raises(ValueError, match=message):
            iter_multisets(1, MAX_ENTRY + 1)
        with pytest.raises(ValueError, match=message):
            next(iter_fillings((1, 1), MAX_ENTRY + 1))
        assert [m.elements() for m in iter_multisets(0, MAX_ENTRY + 1)] == [()]
        assert list(iter_multisets(1, MAX_ENTRY))[-1] == Multiset([MAX_ENTRY])

    @given(tableaux(max_n=5))
    def test_enumeration_finds_every_tableau(self, tab):
        tabs = enumerate_row_standard(tab.shape, tab.type())
        assert tab in tabs
