"""The brute-force algebra model and everything verified against it."""

import hashlib
import importlib
import itertools
import json
import math
import os
import pickle
import pkgutil
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import heckehom.hecke_oracle
import heckehom.qcoeff
from heckehom import (
    Composition,
    GarnirDatum,
    LaurentPoly,
    LinComb,
    Multiset,
    OracleCapError,
    Partition,
    TabloidVector,
    image_h3,
    iter_fillings,
    iter_partitions,
    iter_valid_data,
    garnir_relation,
    parse_tableau,
    quantum_binomial,
    semistandardize,
    specht_check,
    two_row_straighten_step,
    verify_composition_props,
)
from heckehom.cli import main as cli_main
from heckehom.combinat import Tableau, identity_perm, w_mu
from heckehom.hecke_oracle import (
    MAX_EXPONENT_SPAN,
    PROP_KINDS,
    HeckeElem,
    PropsReport,
    _apply_hom,
    _column_blocks,
    _fold_columns,
    _identity_vector,
    _image_words,
    _label_bits,
    _mul_gen,
    _pool_size,
    _prop_instances,
    _specht_vector,
    oracle_cap,
    reduced_word,
)
from heckehom.qcoeff import _Widen, _norm, _pack, _unpack, _widening
from heckehom.straighten import embed_two_row, find_violating_window

from . import hecke_reference
from .garnir_reference import cross_pairs
from .hecke_reference import (
    ReferenceTabloidVector,
    TabloidMembershipError,
    algebra_image,
    apply_hom,
    chains_specht_check,
    coset_reps,
    image_h2,
    image_h4,
    image_vector,
    int_vector,
    int_word,
    inversions,
    is_min_coset_rep,
    merge_scalar,
    mul_x_blocks,
    mul_y_blocks,
    mul_y_chains,
    one_pass_specht_vector,
    perm_1A,
    perm_mul,
    reference_check,
    specht_check_tabloid,
    t_from_word,
    t_of_perm,
    tabloid_coords,
    tuple_add_term,
    tuple_fold_columns,
    tuple_mul_gen,
    tuple_values,
    tuple_word,
    vector_of_packed,
    walk_image_words,
    word_of,
    x_elem,
    y_elem,
    young_subgroup,
)
from .strategies import iter_compositions, tableaux
from .test_acceptance import SEED, every_filling

ONE = LaurentPoly.one()
Q = LaurentPoly.monomial(1)


def perms(n):
    return itertools.permutations(range(1, n + 1))


class TestGeneratorRelations:
    def test_quadratic_relation(self):
        t1 = t_of_perm((2, 1))
        assert t1.mul_right_gen(1) == (
            t1.scale(LaurentPoly.parse("q - 1"))
            + HeckeElem.one(2).scale(Q))

    def test_length_increase_moves_basis_element(self):
        assert HeckeElem.one(2).mul_right_gen(1) == t_of_perm((2, 1))

    def test_braid_relation(self):
        assert t_from_word(3, (1, 2, 1)) == t_from_word(3, (2, 1, 2))

    def test_reduced_words_agree_up_to_degree_5(self):
        for n in range(1, 6):
            for w in perms(n):
                word = reduced_word(w)
                assert len(word) == inversions(w)
                assert t_from_word(n, word) == t_of_perm(w)

    def test_lengths_add_exhaustive_degree_4(self):
        for v in perms(4):
            tv = t_of_perm(v)
            for d in perms(4):
                if inversions(perm_mul(v, d)) == inversions(v) + inversions(d):
                    assert tv.mul_t(d) == t_of_perm(perm_mul(v, d))

    @given(st.permutations(range(1, 5)), st.permutations(range(1, 5)),
           st.permutations(range(1, 5)))
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, a, b, c):
        ta, tb, tc = (t_of_perm(tuple(w)) for w in (a, b, c))
        assert ta.mul(tb).mul(tc) == ta.mul(tb.mul(tc))

    def test_generator_index_range(self):
        with pytest.raises(ValueError):
            HeckeElem.one(3).mul_right_gen(3)
        with pytest.raises(ValueError):
            HeckeElem.one(3).mul_right_gen(0)


class TestSubgroupElements:
    def test_trivial_composition_gives_unit(self):
        assert x_elem((1, 1, 1)) == HeckeElem.one(3)
        assert y_elem((1, 1, 1)) == HeckeElem.one(3)

    def test_pinned_degree_two(self):
        assert x_elem((2,)).items() == [((1, 2), ONE), ((2, 1), ONE)]
        y = y_elem((2,))
        assert y.coefficient((1, 2)) == ONE
        assert y.coefficient((2, 1)) == LaurentPoly.monomial(-1, -1)

    def test_x_absorbs_inner_generators(self):
        for comp in ((2,), (3,), (2, 2), (1, 2, 1)):
            x = x_elem(comp)
            offset = 0
            for size in comp:
                for i in range(offset + 1, offset + size):
                    assert x.mul_right_gen(i) == x.scale(Q), (comp, i)
                offset += size

    def test_block_multiplication_matches_subgroup_sum(self):
        for comp in ((2,), (3,), (2, 2), (3, 1), (1, 3), (2, 1, 2)):
            c = Composition(comp)
            for w in perms(c.n):
                h = t_of_perm(w)
                assert mul_x_blocks(h, c) == h.mul(x_elem(c))
                assert mul_y_blocks(h, c) == h.mul(y_elem(c))

    def test_young_subgroup_size(self):
        assert len(young_subgroup((2, 2))) == 4
        assert len(young_subgroup((3,))) == 6
        assert young_subgroup(()) == (identity_perm(0),)


class TestCosetReps:
    def test_equal_compositions_give_identity(self):
        assert coset_reps((2, 1), (2, 1)) == (identity_perm(3),)

    def test_full_group(self):
        reps = coset_reps((1, 1), (2,))
        assert sorted(reps) == [(1, 2), (2, 1)]

    def test_quantum_binomial_identity(self):
        for n in range(0, 9):
            for r in range(0, n + 1):
                total = LaurentPoly.zero()
                for d in coset_reps((r, n - r), (n,)):
                    total = total + LaurentPoly.monomial(inversions(d))
                assert total == quantum_binomial(n, r), (n, r)

    def test_refinement_required(self):
        with pytest.raises(ValueError):
            coset_reps((2, 1), (1, 2))

    def test_matches_filter_definition_up_to_degree_7(self):
        # Every blockwise refinement with positive parts of every
        # composition with positive parts, and each again with a zero part
        # at the front of every group, against filtering all arrangements.
        pairs = 0
        for n in range(1, 8):
            for length in range(1, n + 1):
                for coarse in iter_compositions(n, length):
                    if 0 in coarse:
                        continue
                    groups = [[g for k in range(1, c + 1)
                               for g in iter_compositions(c, k) if 0 not in g]
                              for c in coarse]
                    for choice in itertools.product(*groups):
                        for lead in ((), (0,)):
                            fine = tuple(p for g in choice for p in lead + g)
                            assert coset_reps(fine, coarse) == _filtered_reps(fine, coarse)
                            pairs += 1
        assert pairs == 2 * sum(3 ** (n - 1) for n in range(1, 8))

    def test_cosets_partition_the_subgroup(self):
        fine, coarse = Composition((1, 1, 2)), Composition((2, 2))
        reps = coset_reps(fine, coarse)
        cosets = set()
        for d in reps:
            for v in young_subgroup(fine):
                w = perm_mul(v, d)
                assert w not in cosets
                cosets.add(w)
        assert cosets == set(young_subgroup(coarse))


def _filtered_reps(fine, coarse):
    """Coset representatives by definition: per block of the coarse
    composition, every arrangement of its values that increases along the
    blocks of the fine composition inside it, in lexicographic order."""
    per_block, rest, offset = [], list(fine), 0
    for target in coarse:
        group, got = [], 0
        while got < target or (rest and rest[0] == 0 and not group):
            got += rest[0]
            group.append(rest.pop(0))
        values = range(offset + 1, offset + target + 1)
        per_block.append([p for p in itertools.permutations(values)
                          if is_min_coset_rep(p, group)])
        offset += target
    return tuple(tuple(itertools.chain.from_iterable(combo))
                 for combo in itertools.product(*per_block))


class TestImages:
    def test_single_row_image_is_full_subgroup_sum(self):
        # one row of any type: the coset sum fills the whole group back in
        for text in ("1 1 2", "1 1 1"):
            tab = parse_tableau(text)
            assert algebra_image(tab) == x_elem((3,))
            assert image_h3(tab) == tabloid_coords(x_elem((3,)), tab.type())

    def test_identity_like_tableau_gives_x_of_shape(self):
        tab = parse_tableau("1 1 1 / 2 2")
        assert algebra_image(tab) == x_elem((3, 2))
        assert image_h3(tab) == TabloidVector(Composition((3, 2)), {identity_perm(5): ONE})

    def test_two_arrangements_example(self):
        # rows {1,2}/{1}: h2 sums over the two orderings of row one
        tab = parse_tableau("1 2 / 1")
        assert image_h2(tab) == algebra_image(tab)

    def test_all_forms_agree_up_to_degree_5(self):
        # The three standard-basis forms against each other, and image_h3,
        # unpacked from the tabloid kernel, against their tabloid
        # coordinates: every filling of a composition shape with three
        # parts, then every filling of every partition shape.
        count = 0
        for n in range(1, 6):
            for parts in iter_compositions(n, 3):
                for tab in iter_fillings(Composition(parts), 3):
                    h3 = algebra_image(tab)
                    assert image_h2(tab) == h3
                    assert image_h4(tab) == h3
                    assert image_h3(tab) == tabloid_coords(h3, tab.type()), tab
                    count += 1
            for parts in iter_partitions(n):
                for tab in iter_fillings(Partition(parts), 3):
                    assert image_h3(tab) == tabloid_coords(algebra_image(tab), tab.type()), tab
        assert count > 1000

    @pytest.mark.slow
    def test_all_forms_agree_at_degree_6(self):
        for parts in iter_compositions(6, 3):
            for tab in iter_fillings(Composition(parts), 3):
                h3 = algebra_image(tab)
                assert image_h2(tab) == h3, tab
                assert image_h4(tab) == h3, tab
                assert image_h3(tab) == tabloid_coords(h3, tab.type()), tab

    def test_cap_enforced(self):
        tab = parse_tableau("1 1 1 1 1 / 2 2 2 2")
        assert tab.n == 9
        with pytest.raises(OracleCapError):
            image_h3(tab)

    def test_cap_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("HECKEHOM_ORACLE_CAP", "3")
        assert oracle_cap() == 3
        with pytest.raises(OracleCapError):
            image_h3(parse_tableau("1 1 / 2 2"))
        monkeypatch.setenv("HECKEHOM_ORACLE_CAP", "not a number")
        with pytest.raises(ValueError):
            oracle_cap()
        for raw in ("0", "-2"):
            monkeypatch.setenv("HECKEHOM_ORACLE_CAP", raw)
            with pytest.raises(ValueError, match="HECKEHOM_ORACLE_CAP"):
                oracle_cap()
            assert cli_main(["verify", "--props", "2"]) == 3
            assert "HECKEHOM_ORACLE_CAP" in capsys.readouterr().err

    def test_every_cache_is_bounded(self):
        # Every lru_cache defined in any module of the package.
        caches = {}
        for info in pkgutil.iter_modules(heckehom.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"heckehom.{info.name}")
            caches.update({f"{module.__name__}.{name}": obj
                           for name, obj in vars(module).items()
                           if hasattr(obj, "cache_parameters")
                           and obj.__module__ == module.__name__})
        assert {"heckehom.hecke_oracle.reduced_word",
                "heckehom.qcoeff.quantum_binomial",
                "heckehom.qcoeff._packed_binomial"} <= set(caches)
        for name, cached in caches.items():
            assert cached.cache_parameters()["maxsize"] is not None, name


class TestTabloidCoords:
    def test_x_itself(self):
        vec = tabloid_coords(x_elem((2, 1)), (2, 1))
        assert vec.coords == {identity_perm(3): ONE}

    def test_translated_basis_element(self):
        for d in coset_reps((2, 1), (3,)):
            vec = tabloid_coords(x_elem((2, 1)).mul_t(d), (2, 1))
            assert vec.coords == {d: ONE}, d

    def test_membership_failure(self):
        with pytest.raises(TabloidMembershipError):
            tabloid_coords(t_of_perm((2, 1)), (2,))

    def test_disjoint_coset_supports_up_to_degree_5(self):
        for n in range(1, 6):
            for parts in itertools.product(range(n + 1), repeat=2):
                if sum(parts) != n:
                    continue
                comp = Composition(parts)
                seen = set()
                for d in coset_reps(comp, (n,)):
                    support = x_elem(comp).mul_t(d).support()
                    assert not (support & seen)
                    seen |= support

    def test_apply_hom_on_generator(self):
        tab = parse_tableau("1 1 / 2")
        vec = tabloid_coords(x_elem((2, 1)), (2, 1))
        assert apply_hom(vec, tab) == algebra_image(tab)
        got, growth = _apply_hom({int_word(word_of(identity_perm(3), (2, 1)), 1): 1},
                                 tab.row_lists(), 1, 8)
        assert vector_of_packed(got, tab.type(), 1, 8) == image_h3(tab)
        assert growth == 1

    def test_packed_apply_hom_matches_reference_up_to_degree_4(self):
        # Every map of a composition shape with three parts, on a vector
        # with a coefficient of its own at every tabloid, unpacked, against
        # the standard-basis map read through tabloid_coords.
        count = 0
        for n in range(1, 5):
            for parts in iter_compositions(n, 3):
                shape = Composition(parts)
                reps = coset_reps(shape, (n,))
                coeffs = [LaurentPoly.monomial(k % 3, (-1) ** k * (k + 1))
                          for k in range(len(reps))]
                vec = TabloidVector(shape, dict(zip(reps, coeffs)))
                packed = {int_word(word_of(d, shape), 2): _pack(c, 16)
                          for d, c in zip(reps, coeffs)}
                for tab in iter_fillings(shape, 3):
                    expect = tabloid_coords(apply_hom(vec, tab), tab.type())
                    got = vector_of_packed(_apply_hom(packed, tab.row_lists(), 2, 16)[0],
                                           tab.type(), 2, 16)
                    assert got == expect, tab
                    count += 1
        assert count > 500

    def test_apply_hom_shape_mismatch(self):
        tab = parse_tableau("1 1 1")
        vec = tabloid_coords(x_elem((2, 1)), (2, 1))
        with pytest.raises(ValueError):
            apply_hom(vec, tab)


class TestTabloidAction:
    def test_generator_rule_matches_algebra_up_to_degree_5(self):
        # x_comp T_d T_i, read off in tabloid coordinates, against the rule
        # on d (the reference) and the rule on words (the library, unpacked)
        cases = 0
        for n in range(1, 6):
            for length in range(1, 4):
                for parts in iter_compositions(n, length):
                    comp = Composition(parts)
                    s = _label_bits(len(comp.parts))
                    for d in coset_reps(comp, (n,)):
                        basis = x_elem(comp).mul_t(d)
                        vec = ReferenceTabloidVector(comp, {d: ONE})
                        packed = {int_word(word_of(d, comp), s): 1}
                        for i in range(1, n):
                            expect = tabloid_coords(basis.mul_right_gen(i), comp)
                            assert vec.mul_right_gen(i) == expect, (comp, d, i)
                            got = vector_of_packed(_mul_gen(packed, i, s, 8), comp, s, 8)
                            assert got == expect, (comp, d, i)
                            cases += 1
        assert cases == 1484

    def test_linear_operations(self):
        comp = Composition((1, 2))
        a = ReferenceTabloidVector(comp, {(1, 2, 3): ONE, (2, 1, 3): Q})
        b = ReferenceTabloidVector(comp, {(2, 1, 3): -Q})
        assert (a + b).coords == {(1, 2, 3): ONE}
        assert a.scale(0).is_zero and not a.is_zero
        assert a.scale(Q).coords == {(1, 2, 3): Q, (2, 1, 3): Q * Q}
        with pytest.raises(ValueError):
            a + ReferenceTabloidVector(Composition((2, 1)), {})
        with pytest.raises(ValueError):
            a.mul_right_gen(3)


def assert_matches_walk(tab):
    """The row-by-row image words against the walk from 1A and each coset
    representative: the same words, each walk with exponent 0, and no word
    twice on either side."""
    s = _label_bits(len(tab.type().parts))
    words = [tuple_word(word, s, tab.n) for word in _image_words(tab.row_lists(), s)]
    walked = walk_image_words(tab)
    assert all(e == 0 for _, e in walked), tab
    assert len(set(words)) == len(words) == len(walked), tab
    assert set(words) == {w for w, _ in walked}, tab


class TestImageWords:
    def test_one_term_per_representative_up_to_degree_7(self):
        # The premise of the walk's proof, checked directly: in 1A, two
        # cells p, p + 1 of one row appear in that order.  The walk itself
        # raises if any of its letters would shorten the product.
        count = 0
        for n in range(1, 8):
            for parts in iter_partitions(n):
                shape = Partition(parts)
                same_row = [p for p in range(1, n)
                            if p not in itertools.accumulate(parts)]
                for tab in iter_fillings(shape, 4):
                    one_a = perm_1A(tab)
                    position = {v: k for k, v in enumerate(one_a)}
                    assert all(position[p] < position[p + 1] for p in same_row), tab
                    assert_matches_walk(tab)
                    count += 1
        assert count == 71715

    def test_matches_walk_on_composition_shapes_up_to_degree_5(self):
        # Every filling of every composition of each length up to its
        # degree, internal and trailing zero parts included.
        count = 0
        for n in range(1, 6):
            for length in range(1, n + 1):
                for parts in iter_compositions(n, length):
                    for tab in iter_fillings(Composition(parts), 3):
                        assert_matches_walk(tab)
                        count += 1
        assert count == 19818

    def test_matches_generator_by_generator_up_to_degree_5(self):
        for n in range(1, 6):
            for parts in iter_partitions(n):
                for tab in iter_fillings(Partition(parts), 3):
                    s = _label_bits(len(tab.type().parts))
                    packed = dict.fromkeys(_image_words(tab.row_lists(), s), 1)
                    assert vector_of_packed(packed, tab.type(), s, 8) == image_vector(tab), tab


class TestAnnihilation:
    def test_wide_middle_block_kills_conjugate_y(self):
        # over two-row shapes, a middle block wider than the top row is fatal
        for n in range(2, 7):
            for m in range((n + 1) // 2, n):
                conj = Partition((m, n - m)).conjugate()
                for r in range(n + 1):
                    for s in range(m + 1, n - r + 1):
                        comp = Composition((r, s, n - r - s))
                        for d in coset_reps(comp, (n,)):
                            elem = mul_y_blocks(x_elem(comp).mul_t(d), conj)
                            assert elem.is_zero, (comp, d, m)


@st.composite
def packed_vectors(draw):
    """A vector of M^λ in the tuple kernel of tests/hecke_reference.py at
    64 bits, n <= 7, up to 4 labels, with the conjugate of a random
    partition of n: words are arrangements of one content, and the vector
    is sometimes multiplied by 1 + T_i for s_i in the column group, which y
    kills."""
    n = draw(st.integers(1, 7))
    conj = Partition(draw(st.sampled_from(list(iter_partitions(n))))).conjugate()
    content = sorted(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    coefficient = st.dictionaries(st.integers(0, 3), st.integers(-9, 9),
                                  min_size=1, max_size=3).map(LaurentPoly).filter(bool)
    vec = {}
    for word in draw(st.lists(st.permutations(content), min_size=1, max_size=30)):
        coeff = draw(coefficient)
        vec[tuple(word)] = (_pack(coeff, 64), sum(abs(c) for _, c in coeff.items()))
    column_letters = [i for i in range(1, n)
                      if i not in itertools.accumulate(conj.parts)]
    if column_letters and draw(st.booleans()):
        killed = tuple_mul_gen(vec, draw(st.sampled_from(column_letters)), 64)
        for word, (coeff, bound) in vec.items():
            tuple_add_term(killed, word, coeff, bound, 64)
        vec = killed
    return vec, conj


class TestFoldColumns:
    def test_matches_y_chains(self):
        # The chains multiply by q**N times y, N = sum of s(s - 1)/2 over
        # the blocks; at each column-sorted word that is q**N times the
        # fold's signed sum, and the two are empty together.
        empty = set()

        @given(packed_vectors())
        @settings(max_examples=300, deadline=None)
        def agree(case):
            vec, conj = case
            chains = mul_y_chains(vec, conj, 64)
            fold = tuple_values(_fold_columns(int_vector(vec, 2), _column_blocks(conj), 2)[0],
                                2, conj.n)
            assert bool(chains) == bool(fold)
            shift = 64 * sum(s * (s - 1) // 2 for s in conj.parts)
            for word, coeff in fold.items():
                assert chains[word][0] == coeff << shift, word
            empty.add(not fold)

        agree()
        assert empty == {True, False}

    def test_repeated_label_in_a_column_is_dropped(self):
        conj = Composition((2, 1))
        blocks = _column_blocks(conj)
        assert _fold_columns({int_word((0, 0, 1), 1): 5}, blocks, 1) == ({}, 0)
        assert _fold_columns({int_word((1, 0, 0), 1): 5, int_word((0, 1, 0), 1): 3},
                             blocks, 1) == ({int_word((0, 1, 0), 1): -2}, 2)


@st.composite
def kernel_cases(draw):
    """A vector of M^λ in the tuple kernel of tests/hecke_reference.py,
    n <= 7, up to 4 labels, at 8 or 64 bits, with the conjugate of a random
    partition of n: words are arrangements of one content, each with a
    nonzero coefficient."""
    n = draw(st.integers(1, 7))
    labels = draw(st.integers(1, 4))
    bits = draw(st.sampled_from((8, 64)))
    content = sorted(draw(st.lists(st.integers(0, labels - 1), min_size=n, max_size=n)))
    coefficient = st.dictionaries(st.integers(0, 3), st.integers(-9, 9),
                                  min_size=1, max_size=3).map(LaurentPoly).filter(bool)
    vec = {}
    for word in draw(st.lists(st.permutations(content), min_size=1, max_size=30)):
        coeff = draw(coefficient)
        vec[tuple(word)] = (_pack(coeff, bits), _norm(coeff))
    conj = Partition(draw(st.sampled_from(list(iter_partitions(n))))).conjugate()
    return vec, _label_bits(labels), bits, conj


def most_per_sorted_word(words, conj):
    """The most tuple words that share one column-sorted word, over the
    words with no repeated label in a block of conj."""
    cuts = list(itertools.accumulate(conj.parts, initial=0))
    counts = Counter()
    for word in words:
        blocks = [word[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        if all(len(set(block)) == len(block) for block in blocks):
            counts[tuple(tuple(sorted(block)) for block in blocks)] += 1
    return max(counts.values(), default=0)


def assert_kernels_agree(vec, s, bits, conj):
    """The int-word kernel's product by every generator, and its fold,
    decoded, against the tuple-word kernel's at the same width; a tuple
    computation that cannot certify a cancellation at that width is
    skipped."""
    n = conj.n
    packed = int_vector(vec, s)
    for i in range(1, n):
        try:
            expect = tuple_mul_gen(vec, i, bits)
        except _Widen:
            continue
        got = tuple_values(_mul_gen(packed, i, s, bits), s, n)
        assert got == {word: coeff for word, (coeff, _) in expect.items()}, i
    folded, most = _fold_columns(packed, _column_blocks(conj), s)
    assert most == most_per_sorted_word(list(vec), conj)
    try:
        expect = tuple_fold_columns(vec, conj, bits)
    except _Widen:
        return
    assert tuple_values(folded, s, n) == {word: coeff for word, (coeff, _) in expect.items()}


class TestIntKernel:
    """The int-word kernel against the tuple-word kernel it replaced."""

    def test_matches_tuple_kernel(self):
        @given(kernel_cases())
        @settings(max_examples=200, deadline=None)
        def agree(case):
            assert_kernels_agree(*case)

        agree()

    def test_unequal_column_blocks(self):
        # The conjugate (3, 2, 1, 1) of (4, 2, 1) has blocks of 3 and 2
        # positions, so one int can be a block of either: (1, 0) and
        # (1, 0, 0) are both 1.  Every arrangement of each content, each
        # with a coefficient of its own.
        conj = Partition((4, 2, 1)).conjugate()
        assert conj.parts == (3, 2, 1, 1)
        for content in [(0, 0, 1, 1, 2, 2, 3), (0, 0, 0, 1, 1, 2, 3), (0, 1, 1, 1, 2, 3, 3)]:
            words = sorted(set(itertools.permutations(content)))
            vec = {word: (k + 1, k + 1) for k, word in enumerate(words)}
            assert_kernels_agree(vec, 2, 64, conj)
            for mixed in (tuple_mul_gen(vec, 3, 64), tuple_mul_gen(vec, 4, 64)):
                assert_kernels_agree(mixed, 2, 64, conj)


def assert_bound_covers(vec, bound, bits):
    """Every coordinate of vec, unpacked at q = 2**bits, has an L1 norm of
    at most bound, which must leave bits wide enough to unpack exactly
    values far above it."""
    assert bound.bit_length() + 32 < bits
    for coeff in vec.values():
        assert _norm(_unpack(coeff, bits)) <= bound


class TestCertificate:
    """The one norm bound a check carries covers every coordinate."""

    def test_bound_formula(self):
        # Specht test of the map of "1 2 / 1": its image's norm, 1, times
        # 3 for the one letter of w_mu, times the two words that the fold
        # sends to one column-sorted word.
        tab = parse_tableau("1 2 / 1")
        s = _label_bits(len(tab.type().parts))
        assert len(reduced_word(w_mu(tab.shape))) == 1
        images = [(_image_words(tab.row_lists(), s), ONE, 1)]
        assert _specht_vector(images, tab.shape, s, 64)[1] == 1 * 3 * 2
        # Row merge of (1) over (2): the image of the merge map, words
        # (0, 1) and (1, 0), through the map of "1 / 2", whose d have
        # lengths 0 and 1, then the right-hand coefficient's norm 1.
        maps, rhs, _ = heckehom.hecke_oracle._row_merge(((1,), (2,), 2))
        diff, bound = _identity_vector(maps, rhs, 64)
        assert not any(diff.values()) and bound == 1 * (3 ** 0 + 3 ** 1) + 1

    def test_bound_has_one_factor_per_fold(self, monkeypatch, specht_runs):
        # Each benchmark combination's bound: its images' norms, times 3
        # per letter of w_mu, times the count of every staged fold.
        runs = benchmark_runs(specht_runs)
        mosts = []
        fold_columns = heckehom.hecke_oracle._fold_columns

        def recorded(*args):
            folded, most = fold_columns(*args)
            mosts.append(most)
            return folded, most

        monkeypatch.setattr(heckehom.hecke_oracle, "_fold_columns", recorded)
        several = 0
        for images, shape, s, bits in runs:
            mosts.clear()
            _, bound = _specht_vector(images, shape, s, bits)
            norm = sum(norm for _, _, norm in images)
            assert bound == norm * 3 ** len(reduced_word(w_mu(shape))) * math.prod(mosts)
            several += sum(most > 1 for most in mosts) > 1
        assert several

    def test_generator_runs_up_to_degree_5(self):
        # Runs from each tabloid that go up and back down, so that words
        # and their swaps meet: 3**k after k letters, and the most words
        # at one column-sorted word times that after the fold.
        letters = {n: [*range(1, n), *range(1, n), *range(n - 1, 0, -1)]
                   for n in range(2, 6)}
        most = 0
        for n in range(2, 6):
            for length in range(1, 4):
                for parts in iter_compositions(n, length):
                    comp = Composition(parts)
                    s = _label_bits(len(comp.parts))
                    for d in coset_reps(comp, (n,)):
                        vec = {int_word(word_of(d, comp), s): 1}
                        for k, i in enumerate(letters[n], start=1):
                            vec = _mul_gen(vec, i, s, 64)
                            assert_bound_covers(vec, 3 ** k, 64)
                            most = max(most, len(vec))
                        folded, per_word = _fold_columns(vec, [(0, n)], s)
                        assert_bound_covers(folded, 3 ** len(letters[n]) * per_word, 64)
        assert most > 10

    def test_packed_specht_cases(self, specht_runs):
        # Each check's arguments as specht_check builds them, rerun wide.
        nonzero = 0

        @given(packed_specht_cases())
        @settings(max_examples=60, deadline=None)
        def covered(comb):
            nonlocal nonzero
            specht_runs.clear()
            specht_check(comb)
            for *args, _ in specht_runs[:1]:
                _, bound = _specht_vector(*args, 64)
                bits = bound.bit_length() + 64
                folded, same = _specht_vector(*args, bits)
                assert same == bound
                assert_bound_covers(folded, bound, bits)
                nonzero += any(folded.values())

        covered()
        assert nonzero

    def test_identity_instances_up_to_degree_5(self):
        # Both sides added instead of subtracted, so that the vector the
        # bound covers is not 0, and the left-hand side alone.
        oracle = heckehom.hecke_oracle
        for kind, chosen in _prop_instances(5, 3, 40, 0).items():
            for _, params in chosen:
                maps, rhs, _ = oracle._IDENTITIES[kind][1](params)
                for right in ([], [(tab, -c) for tab, c in rhs]):
                    _, bound = _identity_vector(maps, right, 64)
                    bits = bound.bit_length() + 64
                    diff, same = _identity_vector(maps, right, bits)
                    assert same == bound and any(diff.values()), (kind, params)
                    assert_bound_covers(diff, bound, bits)


def _specht_check_in_algebra(comb):
    """The Specht test run on standard-basis expansions over the whole
    algebra: the reference the tabloid-coordinate test is compared with."""
    shape = comb.shape
    if shape.n == 0:
        return True
    total = HeckeElem.zero(shape.n)
    for tab, coeff in comb.items():
        total = total + algebra_image(tab).scale(coeff)
    if total.is_zero:
        return True
    total = total.mul_t(w_mu(shape))
    conj = Partition(shape.stripped).conjugate()
    return mul_y_blocks(total, conj).is_zero


GARNIR_DATA_6 = list(iter_valid_data(6, 4))


@st.composite
def specht_combinations(draw):
    """Relations, single maps and straightening differences at degree <= 6,
    values <= 4, optionally with one coefficient times a power of q."""
    kind = draw(st.sampled_from(("relation", "single", "straightened")))
    if kind == "relation":
        comb = garnir_relation(draw(st.sampled_from(GARNIR_DATA_6)))
    else:
        tab = draw(tableaux(max_n=6, max_value=4))
        comb = LinComb.single(tab)
        if kind == "straightened":
            comb = comb - semistandardize(tab)
    if comb.is_zero or not draw(st.booleans()):
        return comb
    tab, coeff = draw(st.sampled_from(comb.items()))
    power = draw(st.sampled_from((-2, -1, 1, 2)))
    return comb.add_term(tab, coeff.shift(power) - coeff)


class TestSpechtCheck:
    def test_tabloid_check_matches_algebra(self):
        verdicts = set()

        @given(specht_combinations())
        @settings(max_examples=100, deadline=None)
        def agree(comb):
            for tab in comb.support():
                expect = tabloid_coords(algebra_image(tab), tab.type())
                assert image_h3(tab) == expect, tab
                assert image_vector(tab) == expect, tab
                s = _label_bits(len(tab.type().parts))
                packed = dict.fromkeys(_image_words(tab.row_lists(), s), 1)
                assert vector_of_packed(packed, tab.type(), s, 8) == expect, tab
            verdict = specht_check(comb)
            assert verdict == _specht_check_in_algebra(comb), comb.to_text()
            assert verdict == specht_check_tabloid(comb), comb.to_text()
            verdicts.add(verdict)

        agree()
        assert verdicts == {True, False}

    def test_small_relation_vanishes(self):
        datum = GarnirDatum(Multiset(()), Multiset((1, 1, 2)), Multiset((2,)), 2)
        assert specht_check(garnir_relation(datum)) is True

    def test_two_element_straightening(self):
        tab = parse_tableau("2 / 1")
        assert specht_check(LinComb.single(tab) - semistandardize(tab)) is True

    def test_semistandard_map_is_nonzero(self):
        tab = parse_tableau("1 1 / 2")
        assert specht_check(LinComb.single(tab)) is False

    def test_relations_vanish_up_to_degree_5(self):
        for datum in iter_valid_data(5, 3):
            assert specht_check(garnir_relation(datum)) is True, datum

    @pytest.mark.slow
    def test_relations_vanish_up_to_degree_6(self):
        for datum in iter_valid_data(6, 4):
            assert specht_check(garnir_relation(datum)) is True, datum

    def test_straightening_sound_up_to_degree_5(self):
        for n in range(1, 6):
            for parts in iter_partitions(n):
                for tab in iter_fillings(Partition(parts), 3):
                    diff = LinComb.single(tab) - semistandardize(tab)
                    assert specht_check(diff) is True, tab

    def test_row_removal_lift(self):
        # one window step on a taller tableau still vanishes on the module
        for text in ("1 2 / 1 2 / 3", "1 1 2 / 1 2 / 3", "2 2 / 1 2 / 1",
                     "1 1 2 / 2 1 / 2"):
            tab = parse_tableau(text)
            upper = find_violating_window(tab, "topmost")
            assert upper is not None
            rows = tab.row_lists()
            window = Tableau(
                Composition((tab.shape.part(upper - 1), tab.shape.part(upper))),
                [Multiset(rows[upper - 1]), Multiset(rows[upper])])
            lifted = embed_two_row(tab, upper, two_row_straighten_step(window))
            assert specht_check(LinComb.single(tab) - lifted) is True, text

    def test_rejects_non_partition_shape(self):
        tab = parse_tableau("1 / 2 2")
        comb = LinComb.single(tab)
        with pytest.raises(ValueError):
            specht_check(comb)


ORACLE_CASES = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json")
    .read_text())["oracle"]


@st.composite
def packed_specht_cases(draw):
    """Relations and straightening differences at degree <= 6, values <= 4,
    sometimes with one term dropped, sometimes with every coefficient times
    a random-sign Laurent polynomial (exponents -5..5, magnitudes up to
    10**30) of its own or all times a common one."""
    if draw(st.booleans()):
        comb = garnir_relation(draw(st.sampled_from(GARNIR_DATA_6)))
    else:
        tab = draw(tableaux(max_n=6, max_value=4))
        comb = LinComb.single(tab) - semistandardize(tab)
    if comb.is_zero:
        return comb
    if draw(st.booleans()):
        tab, coeff = draw(st.sampled_from(comb.items()))
        comb = comb.add_term(tab, -coeff)
    coefficient = st.dictionaries(
        st.integers(-5, 5), st.integers(-9, 9) | st.integers(-10**30, 10**30),
        min_size=1, max_size=3).map(LaurentPoly).filter(bool)
    how = draw(st.sampled_from(("as is", "each", "common")))
    if how == "each":
        comb = LinComb(comb.shape, comb.type,
                       {tab: coeff * draw(coefficient) for tab, coeff in comb.items()})
    elif how == "common":
        comb = comb.scale(draw(coefficient))
    return comb


class TestPackedSpecht:
    @pytest.fixture
    def widths(self, monkeypatch):
        """The packing width of every run of the packed test while the test
        runs."""
        widths = []
        packed_specht = heckehom.hecke_oracle._packed_specht

        def recorded(*args):
            widths.append(args[-1])
            return packed_specht(*args)

        monkeypatch.setattr(heckehom.hecke_oracle, "_packed_specht", recorded)
        return widths

    def test_matches_references(self):
        verdicts = set()

        @given(packed_specht_cases())
        @settings(max_examples=60, deadline=None)
        def agree(comb):
            verdict = specht_check(comb)
            assert verdict == specht_check_tabloid(comb), comb.to_text()
            assert verdict == _specht_check_in_algebra(comb), comb.to_text()
            verdicts.add(verdict)

        agree()
        assert verdicts == {True, False}

    def test_narrow_start_restarts_with_identical_verdicts(self, monkeypatch, widths):
        monkeypatch.setattr(heckehom.qcoeff, "_START_BITS", 2)
        calls = 0

        @given(packed_specht_cases())
        @settings(max_examples=60, deadline=None)
        def agree(comb):
            nonlocal calls
            verdict = specht_check(comb)
            assert verdict == specht_check_tabloid(comb), comb.to_text()
            calls += not comb.is_zero

        agree()
        assert widths.count(2) == calls and len(widths) > calls

    def test_packed_zero_is_not_trusted(self, monkeypatch, widths):
        # q - 4 is 0 at q = 2**2, but its norm, 5, is too large to prove it
        # zero at that width.
        monkeypatch.setattr(heckehom.qcoeff, "_START_BITS", 2)
        comb = LinComb.single(parse_tableau("1 1 / 2"), LaurentPoly.parse("q - 4"))
        assert specht_check(comb) is False
        assert widths[0] == 2 and len(widths) > 1

    def test_huge_coefficient_restarts(self, widths):
        # After T_(w_mu), every word of the first degree-6 relation repeats a
        # label in some column, and the fold drops such words without a
        # bound, so nothing cancels and 64 bits suffice.  The datum below is
        # the first degree-6 one whose check restarts.
        scale = LaurentPoly.monomial(-3, 10**30)
        first = next(d for d in GARNIR_DATA_6 if d.n == 6)
        assert specht_check(garnir_relation(first).scale(scale)) is True
        assert widths == [64]
        widths.clear()
        datum = GarnirDatum(Multiset(), Multiset([1, 1, 1, 2]), Multiset([2, 2]), 3)
        rel = garnir_relation(datum).scale(scale)
        assert specht_check(rel) is True
        assert widths[0] == heckehom.qcoeff._START_BITS and len(widths) > 1
        assert 10**30 < 2 ** (widths[-1] - 1)

    def test_exponent_span_is_bounded(self):
        datum = GarnirDatum(Multiset(), Multiset([1, 1, 1, 2]), Multiset([2, 2]), 3)
        rel = garnir_relation(datum)
        coeffs = [coeff for _, coeff in rel.items()]
        span = max(c.max_exponent() for c in coeffs) - min(c.min_exponent() for c in coeffs)
        assert 0 < span < MAX_EXPONENT_SPAN == 1000
        widest = rel + rel.scale(LaurentPoly.monomial(MAX_EXPONENT_SPAN - span))
        assert specht_check(widest) is True
        too_wide = rel + rel.scale(LaurentPoly.monomial(MAX_EXPONENT_SPAN + 1 - span))
        with pytest.raises(ValueError, match="span 1001, more than the limit 1000"):
            specht_check(too_wide)

    def test_benchmark_combinations(self):
        # Every stored combination of the oracle benchmark (read only), at
        # degree 7 and 8, against its known verdict and the reference.
        assert len(ORACLE_CASES) == 37
        for case in ORACLE_CASES:
            comb = LinComb.from_json(case["comb"])
            expect = case["expect_exit"] == 0
            assert specht_check(comb) is expect, case
            assert specht_check_tabloid(comb) is expect, case


    def test_benchmark_combinations_from_two_bits(self, monkeypatch, widths):
        # At q = 2**2 every benchmark combination's values are tiny, so a
        # zero there is a true zero only if the scalar bound says so.
        monkeypatch.setattr(heckehom.qcoeff, "_START_BITS", 2)
        restarts = 0
        for case in ORACLE_CASES:
            widths.clear()
            expect = case["expect_exit"] == 0
            assert specht_check(LinComb.from_json(case["comb"])) is expect, case
            assert widths.count(2) == 1 and widths[0] == 2, case
            restarts += len(widths) - 1
        assert restarts


@pytest.fixture
def specht_runs(monkeypatch):
    """The arguments of every run of the packed Specht test while the test
    runs, as specht_check builds them."""
    runs = []
    packed_specht = heckehom.hecke_oracle._packed_specht

    def recorded(*args):
        runs.append(args)
        return packed_specht(*args)

    monkeypatch.setattr(heckehom.hecke_oracle, "_packed_specht", recorded)
    return runs


def benchmark_runs(specht_runs):
    """The packed Specht test's arguments for every stored combination of
    the oracle benchmark."""
    for case in ORACLE_CASES:
        specht_check(LinComb.from_json(case["comb"]))
    return list(specht_runs)


GARNIR_DATA_7 = list(iter_valid_data(7, 4))


@st.composite
def degree_7_combinations(draw):
    """Relations and straightening differences at degree <= 7, values <= 4,
    sometimes with one term dropped."""
    if draw(st.booleans()):
        comb = garnir_relation(draw(st.sampled_from(GARNIR_DATA_7)))
    else:
        tab = draw(tableaux(max_n=7, max_value=4))
        comb = LinComb.single(tab) - semistandardize(tab)
    if not comb.is_zero and draw(st.booleans()):
        tab, coeff = draw(st.sampled_from(comb.items()))
        comb = comb.add_term(tab, -coeff)
    return comb


def nonzero_values(vec):
    return {word: value for word, value in vec.items() if value}


class TestStagedFold:
    """The Specht test folds each column block right after the last letter
    of w_mu that touches it; the one-pass fold after all of w_mu that it
    replaced is ``one_pass_specht_vector`` in tests/hecke_reference.py."""

    @staticmethod
    def assert_agrees(runs, comb):
        # The coordinates of the product by y in the independent x T_u y
        # are unique, so both folds give the same nonzero values.
        runs.clear()
        verdict = specht_check(comb)
        for images, shape, s, bits in runs[:1]:
            staged, _ = _specht_vector(images, shape, s, bits)
            one_pass, _ = one_pass_specht_vector(images, shape, s, bits)
            assert nonzero_values(staged) == nonzero_values(one_pass), comb.to_text()
            chains = _widening(lambda wide: chains_specht_check(images, shape, s, wide))
            assert verdict is chains, comb.to_text()
        return verdict

    def test_matches_one_pass_fold_on_benchmark_combinations(self, specht_runs):
        verdicts = [self.assert_agrees(specht_runs, LinComb.from_json(case["comb"]))
                    for case in ORACLE_CASES]
        assert verdicts == [case["expect_exit"] == 0 for case in ORACLE_CASES]

    def test_matches_one_pass_fold_on_criterion_3_sample(self, specht_runs):
        small = list(every_filling(1, 4, 4))
        sample = small + random.Random(SEED).sample(list(every_filling(5, 7, 4)), 250)
        for tab in sample:
            assert self.assert_agrees(specht_runs, LinComb.single(tab) - semistandardize(tab))

    def test_matches_one_pass_fold_up_to_degree_7(self, specht_runs):
        verdicts = set()

        @given(degree_7_combinations())
        @settings(max_examples=150, deadline=None)
        def agree(comb):
            verdicts.add(self.assert_agrees(specht_runs, comb))

        agree()
        assert verdicts == {True, False}

    def test_fewer_words_reach_the_generators(self, monkeypatch, specht_runs):
        runs = benchmark_runs(specht_runs)
        words = 0
        mul_gen = heckehom.hecke_oracle._mul_gen

        def counted(vec, *args):
            nonlocal words
            words += len(vec)
            return mul_gen(vec, *args)

        for module in (heckehom.hecke_oracle, hecke_reference):
            monkeypatch.setattr(module, "_mul_gen", counted)
        counts = []
        for vector in (_specht_vector, one_pass_specht_vector):
            words = 0
            for args in runs:
                vector(*args)
            counts.append(words)
        staged, one_pass = counts
        assert staged < 0.8 * one_pass, counts

    def test_each_block_folds_after_its_last_letter(self, monkeypatch):
        oracle = heckehom.hecke_oracle
        events = []
        mul_gen, fold_columns = oracle._mul_gen, oracle._fold_columns

        def letter(vec, i, s, bits):
            events.append(i)
            return mul_gen(vec, i, s, bits)

        def fold(vec, blocks, s):
            events.append(tuple(blocks))
            return fold_columns(vec, blocks, s)

        monkeypatch.setattr(oracle, "_mul_gen", letter)
        monkeypatch.setattr(oracle, "_fold_columns", fold)
        for n in range(1, 9):
            for parts in iter_partitions(n):
                shape = Composition(parts)
                letters = reduced_word(w_mu(shape))
                events.clear()
                _specht_vector([], shape, 1, 64)
                assert [e for e in events if isinstance(e, int)] == list(letters)
                folded_at = {}
                for k, event in enumerate(events):
                    for block in () if isinstance(event, int) else event:
                        assert block not in folded_at, shape
                        folded_at[block] = sum(isinstance(e, int) for e in events[:k])
                cuts = list(itertools.accumulate(Partition(parts).conjugate().parts,
                                                 initial=0))
                expect = {(lo, hi): max((k for k, i in enumerate(letters, 1)
                                         if lo <= i <= hi), default=0)
                          for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1}
                assert folded_at == expect, shape
                # With the largest descent stripped first, the blocks
                # become final from left to right.
                order = [expect[block] for block in sorted(expect)]
                assert order == sorted(order), shape


class TestValueClasses:
    """TabloidVector and PropsReport keep the equality, repr and
    immutability they had as dataclasses."""

    def test_tabloid_vector(self):
        vec = image_h3(parse_tableau("1 2 / 1"))
        assert repr(vec) == ("TabloidVector(composition=Composition([2, 1]), coords={"
                             "(1, 3, 2): LaurentPoly.parse('1'), "
                             "(2, 3, 1): LaurentPoly.parse('1')})")
        assert vec == TabloidVector(vec.composition, dict(vec.coords))
        assert vec != TabloidVector(vec.composition, {})
        assert vec != TabloidVector(Composition((1, 2)), vec.coords)
        with pytest.raises(AttributeError):
            vec.coords = {}
        with pytest.raises(TypeError):
            hash(vec)
        assert pickle.loads(pickle.dumps(vec)) == vec
        # The subclass in the reference module names itself.
        assert repr(ReferenceTabloidVector(vec.composition, {})).startswith(
            "ReferenceTabloidVector(composition=")

    def test_shared_frozen_base(self):
        # Both classes take their fields by keyword too, and the base keeps
        # each one's equality, hashing and refusal messages.
        top, pool, bottom = Multiset((1,)), Multiset((1, 2, 2)), Multiset(())
        datum = GarnirDatum(fixed_top=top, pool=pool, fixed_bottom=bottom, top_len=2)
        assert datum == GarnirDatum(top, pool, bottom, 2)
        assert datum != (top, pool, bottom, 2) and (top, pool, bottom, 2) != datum
        comp, coords = Composition((2, 1)), {identity_perm(3): ONE}
        vec = TabloidVector(composition=comp, coords=coords)
        assert vec == TabloidVector(comp, dict(coords)) and vec != datum
        # The subclass and its base compare by fields, either way round.
        ref = ReferenceTabloidVector(comp, dict(coords))
        assert ref == vec and vec == ref
        assert ref != ReferenceTabloidVector(comp, {}) and TabloidVector(comp, {}) != ref
        with pytest.raises(TypeError):
            hash(vec)
        for value, name in ((datum, "pool"), (vec, "coords"), (ref, "coords")):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)

    def test_props_report(self):
        empty, other = PropsReport(), PropsReport()
        assert repr(empty) == "PropsReport(checked={}, failures={})"
        assert empty == other and empty.ok
        empty.checked["row_merge"] = 1
        assert other.checked == {} and empty != other
        report = PropsReport({"row_merge": 2}, {"row_merge": ["x"]})
        assert repr(report) == ("PropsReport(checked={'row_merge': 2}, "
                                "failures={'row_merge': ['x']})")
        assert report == PropsReport({"row_merge": 2}, {"row_merge": ["x"]})
        assert not report.ok


class TestCompositionProps:
    def test_exhaustive_tiny(self):
        report = verify_composition_props(3, value_cap=3)
        assert report.ok
        assert set(report.checked) == {
            "row_merge", "pair_merge", "row_split", "garnir_factorization"}
        assert all(count > 0 for count in report.checked.values())

    def test_sampled_is_deterministic(self):
        a = verify_composition_props(4, value_cap=4, samples=25, seed=3)
        b = verify_composition_props(4, value_cap=4, samples=25, seed=3)
        assert a.ok and b.ok
        assert a.checked == b.checked

    def test_parallel_agrees_with_serial(self):
        serial = verify_composition_props(3, value_cap=2)
        parallel = verify_composition_props(3, value_cap=2, jobs=2)
        assert serial.ok and parallel.ok
        assert serial.checked == parallel.checked

    def test_report_lines_format(self):
        report = verify_composition_props(2, value_cap=2)
        lines = report.lines()
        assert len(lines) == 4
        assert all("checked" in line for line in lines)

    def test_cap_rejected(self):
        with pytest.raises(ValueError):
            verify_composition_props(9)

    def test_pool_is_bounded(self, monkeypatch, capsys, pool_sizes):
        tasks = sum(verify_composition_props(2, value_cap=1).checked.values())
        assert tasks > 3
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert verify_composition_props(2, value_cap=1, jobs=10**6).ok
        monkeypatch.setattr(os, "cpu_count", lambda: 10**6)
        assert verify_composition_props(2, value_cap=1, jobs=10**6).ok
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert verify_composition_props(2, value_cap=1, jobs=10**6).ok
        assert cli_main(["verify", "--props", "2", "--values", "1",
                         "--jobs", "1000000"]) == 0
        assert pool_sizes[:2] == [3, tasks] and len(pool_sizes) == 2
        assert _pool_size(10**6, 5) == min(5, os.cpu_count() or 1)

    def test_cap_follows_environment(self, monkeypatch):
        monkeypatch.setenv("HECKEHOM_ORACLE_CAP", "3")
        with pytest.raises(OracleCapError):
            verify_composition_props(4, value_cap=1)
        assert verify_composition_props(3, value_cap=1).ok
        monkeypatch.setenv("HECKEHOM_ORACLE_CAP", "9")
        report = verify_composition_props(9, value_cap=1, samples=1)
        assert report.checked == {kind: 1 for kind in PROP_KINDS}
        assert report.ok and report.lines() == [
            f"{kind}: 1 checked, ok" for kind in sorted(PROP_KINDS)]

    def test_verdicts_match_reference_up_to_degree_4(self):
        instances = _prop_instances(4, 3, None, 0)
        for items in instances.values():
            for item in items:
                kind, failure = heckehom.hecke_oracle._check_instance(item)
                assert failure is None and reference_check(item) is None, item
        assert sum(map(len, instances.values())) > 3000

    def test_perturbed_right_hand_sides_fail(self, monkeypatch):
        # Every real instance passes, so agreement alone would not tell a
        # check from one that always passes: each identity's right-hand side
        # is broken on a few instances, and both checks must object.
        instances = _prop_instances(4, 3, None, 0)
        rng = random.Random(11)

        def both_fail(kind):
            for item in rng.sample(instances[kind], 5):
                assert heckehom.hecke_oracle._check_instance(item)[1] is not None, item
                assert reference_check(item) is not None, item

        def patch_both(name, value):
            monkeypatch.setattr(heckehom.hecke_oracle, name, value)
            monkeypatch.setattr(hecke_reference, name, value)

        # the merge scalar times q (times q^2 for the pair merge): the
        # library's counted on the row tuples, the reference's by cross_pairs
        merge = heckehom.hecke_oracle._merge

        def shifted_merge(rows):
            maps, [(merged, scalar)] = merge(rows)
            return maps, [(merged, scalar.shift(len(rows) // 2))]

        monkeypatch.setattr(heckehom.hecke_oracle, "_merge", shifted_merge)
        monkeypatch.setattr(hecke_reference, "cross_pairs",
                            lambda upper, lower: cross_pairs(upper, lower) + 1)
        both_fail("row_merge")
        both_fail("pair_merge")
        monkeypatch.undo()

        # one term of the row split left out
        sub_multisets = Multiset.sub_multisets
        monkeypatch.setattr(Multiset, "sub_multisets",
                            lambda self, size: list(sub_multisets(self, size))[1:])
        both_fail("row_split")
        monkeypatch.undo()

        # one term of the relation left out
        def short_relation(datum):
            rel = garnir_relation(datum)
            tab, coeff = rel.items()[0]
            return rel.add_term(tab, -coeff)

        patch_both("garnir_relation", short_relation)
        both_fail("garnir_factorization")

    def test_perturbed_left_hand_sides_fail(self, monkeypatch):
        # The merge and split maps each get one entry of their first and last
        # nonempty rows swapped, which keeps their shape and type, and the
        # library check must object on instances whose maps that changes.
        # The standard-basis reference is not patched.
        oracle = heckehom.hecke_oracle
        instances = _prop_instances(4, 3, None, 0)
        rng = random.Random(13)

        def left_side(item):
            return oracle._IDENTITIES[item[0]][1](item[1])[0]

        real = {kind: list(map(left_side, items)) for kind, items in instances.items()}

        def mislabelled(helper):
            # The first row's largest entry and the last row's smallest
            # trade places, so both rows stay sorted.
            def wrong(*args):
                rows = [list(row) for row in helper(*args)]
                full = [row for row in rows if row]
                full[0][-1], full[-1][0] = full[-1][0], full[0][-1]
                return tuple(map(tuple, rows))
            return wrong

        monkeypatch.setattr(oracle, "_merge_map", mislabelled(oracle._merge_map))
        monkeypatch.setattr(oracle, "_split_map", mislabelled(oracle._split_map))
        for kind in ("pair_merge", "row_split", "garnir_factorization"):
            changed = [item for item, maps in zip(instances[kind], real[kind])
                       if left_side(item) != maps]
            assert len(changed) > 100, kind
            for item in rng.sample(changed, 5):
                assert oracle._check_instance(item)[1] is not None, item

    @given(st.sampled_from((2, 4)).flatmap(lambda k: st.tuples(*[st.lists(
        st.integers(1, 5), max_size=4).map(lambda row: tuple(sorted(row)))] * k)))
    def test_merge_scalar_matches_multiset_formula(self, rows):
        # The scalar counted on row tuples against the Multiset and
        # cross_pairs formula it replaced.
        maps, [(merged, scalar)] = heckehom.hecke_oracle._merge(rows)
        assert scalar == merge_scalar(rows)
        assert merged == tuple(tuple(sorted(upper + lower))
                               for upper, lower in zip(rows[::2], rows[1::2]))
        assert maps[1] == rows

    def test_instance_order_is_pinned(self):
        # A full sweep, and criterion 4's seeded sample, keep checking the
        # same instances in the same order.
        for args, digest in [
                ((3, 3, None, 0),
                 "99e45d4ac95f55c9fe1c141688f116a0cb0600f73b8816eff9971819f42714c0"),
                ((6, 4, 60, 20260819),
                 "adea0bda8a8ca9836d7493234cdc39fce1e36284c9329db2ed0e9e7276a2c2b2")]:
            text = repr(_prop_instances(*args)).encode()
            assert hashlib.sha256(text).hexdigest() == digest, args

    def test_narrow_start_restarts_with_identical_report(self, monkeypatch):
        wide = verify_composition_props(4, value_cap=3)
        widths = []
        holds = heckehom.hecke_oracle._identity_holds

        def recorded(maps, rhs, bits):
            widths.append(bits)
            return holds(maps, rhs, bits)

        monkeypatch.setattr(heckehom.hecke_oracle, "_identity_holds", recorded)
        monkeypatch.setattr(heckehom.qcoeff, "_START_BITS", 2)
        narrow = verify_composition_props(4, value_cap=3)
        assert narrow == wide and narrow.ok
        tasks = sum(narrow.checked.values())
        assert widths.count(2) == tasks and len(widths) > tasks

    def test_no_standard_basis_arithmetic(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("standard-basis arithmetic on a library path")

        for name in ("__init__", "_raw", "mul_right_gen"):
            monkeypatch.setattr(HeckeElem, name, refuse)
        with pytest.raises(AssertionError):
            HeckeElem.one(2)
        tab = parse_tableau("1 1 2 / 2 3")
        assert not image_h3(tab).is_zero
        assert specht_check(LinComb.single(tab) - semistandardize(tab)) is True
        assert verify_composition_props(4, value_cap=3).ok
