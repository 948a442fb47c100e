"""The brute-force algebra model and everything verified against it."""

import importlib
import itertools
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

import heckehom.hecke_oracle
from heckehom import (
    Composition,
    GarnirDatum,
    HeckeElem,
    LaurentPoly,
    LinComb,
    Multiset,
    OracleCapError,
    Partition,
    TabloidMembershipError,
    TabloidVector,
    apply_hom,
    coset_reps,
    embed_two_row,
    find_violating_window,
    image_h2,
    image_h3,
    image_h4,
    inversions,
    is_semistandard,
    iter_compositions,
    iter_fillings,
    iter_partitions,
    iter_valid_data,
    garnir_relation,
    oracle_cap,
    parse_tableau,
    perm_mul,
    quantum_binomial,
    reduced_word,
    semistandardize,
    specht_check,
    t_from_word,
    t_of_perm,
    tabloid_coords,
    two_row_straighten_step,
    verify_composition_props,
    w_mu,
    x_elem,
    y_elem,
    young_subgroup,
)
from heckehom.cli import main as cli_main
from heckehom.combinat import Tableau, identity_perm
from heckehom.hecke_oracle import _image_vector, _mul_x_blocks, _mul_y_blocks

from .strategies import tableaux

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
                assert _mul_x_blocks(h, c) == h.mul(x_elem(c))
                assert _mul_y_blocks(h, c) == h.mul(y_elem(c))

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


class TestImages:
    def test_single_row_image_is_full_subgroup_sum(self):
        # one row of any type: the coset sum fills the whole group back in
        assert image_h3(parse_tableau("1 1 2")) == x_elem((3,))
        assert image_h3(parse_tableau("1 1 1")) == x_elem((3,))

    def test_identity_like_tableau_gives_x_of_shape(self):
        tab = parse_tableau("1 1 1 / 2 2")
        assert image_h3(tab) == x_elem((3, 2))

    def test_two_arrangements_example(self):
        # rows {1,2}/{1}: h2 sums over the two orderings of row one
        tab = parse_tableau("1 2 / 1")
        assert image_h2(tab) == image_h3(tab)

    def test_all_forms_agree_up_to_degree_5(self):
        from heckehom import iter_compositions
        count = 0
        for n in range(1, 6):
            for parts in iter_compositions(n, 3):
                for tab in iter_fillings(Composition(parts), 3):
                    h3 = image_h3(tab)
                    assert image_h2(tab) == h3
                    assert image_h4(tab) == h3
                    count += 1
        assert count > 1000

    @pytest.mark.slow
    def test_all_forms_agree_at_degree_6(self):
        from heckehom import iter_compositions
        for parts in iter_compositions(6, 3):
            for tab in iter_fillings(Composition(parts), 3):
                h3 = image_h3(tab)
                assert image_h2(tab) == h3, tab
                assert image_h4(tab) == h3, tab

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
                "heckehom.hecke_oracle._young_subgroup_cached",
                "heckehom.hecke_oracle._coset_reps_cached",
                "heckehom.hecke_oracle._image_h3_cached",
                "heckehom.qcoeff.quantum_factorial",
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
        assert apply_hom(vec, tab) == image_h3(tab)

    def test_apply_hom_shape_mismatch(self):
        tab = parse_tableau("1 1 1")
        vec = tabloid_coords(x_elem((2, 1)), (2, 1))
        with pytest.raises(ValueError):
            apply_hom(vec, tab)


class TestTabloidAction:
    def test_generator_rule_matches_algebra_up_to_degree_5(self):
        # x_comp T_d T_i, read off in tabloid coordinates, against the rule
        cases = 0
        for n in range(1, 6):
            for length in range(1, 4):
                for parts in iter_compositions(n, length):
                    comp = Composition(parts)
                    for d in coset_reps(comp, (n,)):
                        basis = x_elem(comp).mul_t(d)
                        vec = TabloidVector(comp, {d: ONE})
                        for i in range(1, n):
                            expect = tabloid_coords(basis.mul_right_gen(i), comp)
                            assert vec.mul_right_gen(i) == expect, (comp, d, i)
                            cases += 1
        assert cases == 1484

    def test_linear_operations(self):
        comp = Composition((1, 2))
        a = TabloidVector(comp, {(1, 2, 3): ONE, (2, 1, 3): Q})
        b = TabloidVector(comp, {(2, 1, 3): -Q})
        assert (a + b).coords == {(1, 2, 3): ONE}
        assert a.scale(0).is_zero and not a.is_zero
        assert a.scale(Q).coords == {(1, 2, 3): Q, (2, 1, 3): Q * Q}
        with pytest.raises(ValueError):
            a + TabloidVector(Composition((2, 1)), {})
        with pytest.raises(ValueError):
            a.mul_right_gen(3)


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
                            elem = _mul_y_blocks(x_elem(comp).mul_t(d), conj)
                            assert elem.is_zero, (comp, d, m)


def _specht_check_in_algebra(comb):
    """The Specht test run on standard-basis expansions over the whole
    algebra: the reference the tabloid-coordinate test is compared with."""
    shape = comb.shape
    if shape.n == 0:
        return True
    total = HeckeElem.zero(shape.n)
    for tab, coeff in comb.items():
        total = total + image_h3(tab).scale(coeff)
    if total.is_zero:
        return True
    total = total.mul_t(w_mu(shape))
    conj = Partition(shape.stripped).conjugate()
    return _mul_y_blocks(total, conj).is_zero


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
                expect = tabloid_coords(image_h3(tab), tab.type())
                assert _image_vector(tab) == expect, tab
            verdict = specht_check(comb)
            assert verdict == _specht_check_in_algebra(comb), comb.to_text()
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

    def test_cap_follows_environment(self, monkeypatch):
        monkeypatch.setenv("HECKEHOM_ORACLE_CAP", "3")
        with pytest.raises(OracleCapError):
            verify_composition_props(4, value_cap=1)
        assert verify_composition_props(3, value_cap=1).ok
        monkeypatch.setenv("HECKEHOM_ORACLE_CAP", "9")
        # Only the cap is under test here: checking a degree-9 instance
        # takes minutes, so the checks themselves are stubbed out.
        monkeypatch.setattr(heckehom.hecke_oracle, "_check_instance",
                            lambda item: (item[0], None))
        report = verify_composition_props(9, value_cap=1, samples=1)
        assert report.ok and set(report.checked.values()) == {1}
