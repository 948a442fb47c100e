"""The full semistandardisation loop over arbitrary partition shapes."""

import contextlib
import inspect
import itertools
from bisect import bisect_left
from operator import mul, sub

import pytest
from hypothesis import given, settings, strategies as st

import heckehom.qcoeff
import heckehom.straighten
from heckehom import (
    Composition,
    GarnirDatum,
    LaurentPoly,
    LinComb,
    Multiset,
    Partition,
    StraighteningError,
    Tableau,
    enumerate_semistandard,
    garnir_relation,
    is_semistandard,
    iter_fillings,
    iter_valid_data,
    parse_tableau,
    semistandardize,
    semistandardize_lincomb,
    specht_check,
    two_row_straighten_step,
)

from heckehom.cli import build_parser
from heckehom.combinat import _breaks_columns
from heckehom.garnir import (
    _count_levels,
    _count_vector,
    _edge_bits,
    _Packing,
    _relation_terms,
)
from heckehom.qcoeff import MAX_EXPONENT_SPAN
from heckehom.straighten import (
    COLUMN_RULES,
    _window_cut,
    _window_moves,
    embed_two_row,
    find_violating_window,
)
from perfbench.workloads import relabel_rows, relabelling, two_row_base, w18_base

from .garnir_reference import cut_values, pivot_cuts, vector_relation_terms
from .straighten_reference import (
    broken_value_window_cut,
    laurent_worklist,
    memo_of_expansions,
    top_entry_window_cut,
    tuple_worklist,
    uncompressed_window_moves,
    weight,
    window_counts,
)
from .strategies import tableaux, two_row_tableaux

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

    @pytest.mark.parametrize("text,far", [
        ("2 2 / 1 1", {1: 1, 2: 2000}),
        ("1 2 2 3 4 / 1 3 3 3", {1: 1, 2: 2000, 3: 2001, 4: 40000}),
    ])
    def test_gap_in_values_is_the_relabelled_answer(self, text, far):
        # The answer depends on the order of the values only: straightening
        # with gaps between the values is straightening without, mapped back.
        want = {tuple(tuple(far[v] for v in row) for row in tab.row_lists()): coeff
                for tab, coeff in semistandardize(parse_tableau(text)).items()}
        spread = " ".join(str(far[int(v)]) if v != "/" else v for v in text.split())
        got = semistandardize(parse_tableau(spread))
        assert {tab.row_lists(): coeff for tab, coeff in got.items()} == want

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
        # A rewrite that moves entries up instead of down makes children
        # lighter than their parent; the input's own term keeps change 0.
        relation = heckehom.straighten._relation_terms
        monkeypatch.setattr(heckehom.straighten, "_relation_terms", lambda *args: [
            (-change, coeff, norm) for change, coeff, norm in relation(*args)])
        with pytest.raises(StraighteningError, match="failed to increase weight"):
            semistandardize(parse_tableau("2 / 1"))

    def test_identity_coefficient_not_one_raises(self, monkeypatch):
        # The worklist builds each window's rewrite with the relation core
        # that garnir_relation also uses; doubling every term there breaks
        # the identity coefficient.
        relation = heckehom.straighten._relation_terms
        monkeypatch.setattr(heckehom.straighten, "_relation_terms", lambda *args: [
            (change, 2 * coeff, 2 * norm) for change, coeff, norm in relation(*args)])
        with pytest.raises(StraighteningError, match="identity split coefficient"):
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

    def test_narrow_start_restarts_with_identical_answers(self, monkeypatch, widths):
        tabs = [Tableau([len(row) for row in rows], rows) for rows in w18_base()]
        comb = LinComb.single(tabs[0], LaurentPoly.parse("3q^-2 - 5"))
        want = [semistandardize(tab) for tab in tabs] + [semistandardize_lincomb(comb)]
        widths.clear()
        monkeypatch.setattr(heckehom.qcoeff, "_START_BITS", 2)
        got = [semistandardize(tab) for tab in tabs] + [semistandardize_lincomb(comb)]
        assert got == want
        assert widths[0] == 2 and len(widths) > len(got)

    @pytest.mark.parametrize("start", [2, 30])
    @given(comb=laurent_combinations())
    @settings(deadline=None, max_examples=50)
    def test_tightened_bounds_match_laurent_worklist(self, start, comb):
        # From 2 bits up to 25, every popped bound above 0 is tightened; at
        # 30 bits, every one above 2**5.
        want = laurent_worklist(comb, heckehom.straighten.DEFAULT_PAIR_RULE, "leftmost")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heckehom.qcoeff, "_START_BITS", start)
            assert semistandardize_lincomb(comb) == want

    def test_tightening_keeps_the_narrow_width(self, monkeypatch, widths):
        # At 24 bits every popped bound is tightened.  Left untightened, the
        # bounds of these tableaux outgrow the width and restart the call.
        tabs = benchmark_tableaux(w18_base, None)[:20]
        want = [semistandardize(tab) for tab in tabs]
        unpacked = []
        unpack = heckehom.straighten._unpack
        monkeypatch.setattr(heckehom.straighten, "_unpack",
                            lambda *args: unpacked.append(args) or unpack(*args))
        monkeypatch.setattr(heckehom.qcoeff, "_START_BITS", 24)
        widths.clear()
        assert [semistandardize(tab) for tab in tabs] == want
        assert set(widths) == {24}
        assert len(unpacked) > sum(map(len, want))

    def test_huge_coefficient_restarts(self, widths):
        tab = parse_tableau("2 3 4 / 1 2 4 / 1 3")
        coeff = LaurentPoly.monomial(-3, 10**30)
        want = semistandardize(tab).scale(coeff)
        widths.clear()
        assert semistandardize_lincomb(LinComb.single(tab, coeff)) == want
        assert widths[0] == heckehom.qcoeff._START_BITS and len(widths) > 1
        assert 10**30 < 2 ** (widths[-1] - 1)


def benchmark_tableaux(base, seed):
    """A benchmark batch as drawn (seed None) or relabelled by a seed."""
    batch = base()
    if seed is not None:
        phi = relabelling(seed, max(v for rows in batch for row in rows for v in row))
        batch = [relabel_rows(rows, phi) for rows in batch]
    return [Tableau([len(row) for row in rows], rows) for rows in batch]


@pytest.fixture
def widths(monkeypatch):
    """The packing width of every traversal run while the test runs."""
    widths = []
    traverse = heckehom.straighten._traverse

    def recorded(*args):
        widths.append(args[-1])
        return traverse(*args)

    monkeypatch.setattr(heckehom.straighten, "_traverse", recorded)
    return widths


class TestTupleWorklist:
    """The worklist on packed keys against the worklist on row tuples it
    replaced: equal combinations, in equal ``items()`` order."""

    @staticmethod
    def _assert_same(comb, pair_rule, column_rule):
        got = semistandardize_lincomb(comb, pair_rule, column_rule)
        want = tuple_worklist(comb, pair_rule, column_rule)
        assert got == want
        assert got.items() == want.items()

    @pytest.mark.parametrize("seed", [None, 1, 7])
    @pytest.mark.parametrize("base", [w18_base, two_row_base])
    def test_benchmark_batches(self, base, seed):
        for tab in benchmark_tableaux(base, seed):
            self._assert_same(LinComb.single(tab),
                              heckehom.straighten.DEFAULT_PAIR_RULE, "leftmost")

    @pytest.mark.parametrize("pair_rule,column_rule", RULES)
    def test_w18_under_every_rule(self, pair_rule, column_rule):
        for tab in benchmark_tableaux(w18_base, 3)[::4]:
            self._assert_same(LinComb.single(tab), pair_rule, column_rule)

    @pytest.mark.parametrize("pair_rule,column_rule", RULES)
    @given(comb=laurent_combinations())
    @settings(deadline=None, max_examples=50)
    def test_laurent_combinations(self, pair_rule, column_rule, comb):
        self._assert_same(comb, pair_rule, column_rule)

    def test_narrow_start_restarts_with_identical_answers(self, monkeypatch, widths):
        monkeypatch.setattr(heckehom.qcoeff, "_START_BITS", 2)
        tabs = benchmark_tableaux(w18_base, None)[::3]
        combs = [LinComb.single(tab) for tab in tabs]
        combs.append(LinComb.single(tabs[0], LaurentPoly.parse("3q^-2 - 5")))
        for comb in combs:
            widths.clear()
            self._assert_same(comb, heckehom.straighten.DEFAULT_PAIR_RULE, "leftmost")
            assert widths[0] == 2 and len(widths) > 1


def two_row_windows(longest=5, largest=5):
    """Every two-row tableau of sorted rows, the upper of length 1 to
    longest, the lower no longer, with values 1 to largest."""
    for upper_len in range(1, longest + 1):
        for lower_len in range(upper_len + 1):
            for top in itertools.combinations_with_replacement(range(1, largest + 1),
                                                               upper_len):
                for bottom in itertools.combinations_with_replacement(
                        range(1, largest + 1), lower_len):
                    yield Tableau._raw(Composition((upper_len, lower_len) if lower_len
                                                   else (upper_len,)),
                                       (top, bottom) if lower_len else (top,), None)


def broken_ends(pack, key, r=0):
    """The smallest and the largest broken rank of rows r and r + 1, read
    off the guard bits of row r's group, as the library reads them."""
    guards = pack.broken(key) >> r * pack.group & (1 << pack.group) - 1
    return (guards & -guards).bit_length() // pack.width, guards.bit_length() // pack.width


@contextlib.contextmanager
def window_builds(both_ends=None):
    """While open, each ``_window_moves`` call appends to the list yielded
    the cut (s, t) it takes and the levels, need and start it hands
    ``_relation_terms``, and builds no relation: it gets the input's own
    term alone, so it returns no moves.  both_ends, when given, replaces
    the worklist's choice of whether the cut may start from either end."""
    builds = []
    cut = heckehom.straighten._window_cut

    def cut_recorded(upper, lower, low, high, column_rule, ends):
        builds.append(cut(upper, lower, low, high, column_rule,
                          ends if both_ends is None else both_ends))
        return builds[-1]

    def build_recorded(levels, need, bits, start, sign):
        builds[-1] = (builds[-1], levels, need, start)
        return [(0, -1, 1)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heckehom.straighten, "_window_cut", cut_recorded)
        patch.setattr(heckehom.straighten, "_relation_terms", build_recorded)
        yield builds


def vector_levels(a, p, b, pieces):
    """The levels of the datum with the count vectors a, p and b, one per
    pooled value, with the fixed entries around each summed afresh."""
    return [(a[i], p[i], b[i], sum(a[i + 1:]), sum(b[:i]), pieces[i])
            for i in range(len(p)) if p[i]]


def rank_pieces(pack, r=0):
    """The piece of every rank at rows r and r + 1: its lift there, and the
    weight change of moving its value up."""
    return [(lift << r * pack.group) - (v << pack.weight_at)
            for v, lift in zip(pack.values, pack.lifts)]


class TestPackedRows:
    """The packed key, its column check, and the cut and levels read from
    its prefix counts and guard bits, against the row tuples and the cut
    rule that scans them, on every small two-row window.  The packing has
    a field per value that occurs, so the cut and the levels are by rank
    among those values."""

    def test_every_small_window(self):
        checked = 0
        windows = []
        for tab in two_row_windows():
            pack = _Packing(tab.shape, tab.type())
            key = pack.key(tab.row_lists())
            assert pack.rows(key) == tab.row_lists()
            assert key >> pack.weight_at == weight(tab)
            rows = tab.row_lists()
            breaks = len(rows) == 2 and _breaks_columns(*rows)
            assert bool(pack.broken(key)) == breaks, tab
            checked += 1
            if not breaks:
                continue
            windows.append((tab, pack, key, rank_pieces(pack)))
            top, bottom = rows
            upper = pack.prefixes(key)
            assert len(upper) == len(pack.values) + 1
            # The guard bits flag the values that some broken column spans.
            spanned = [v for v in pack.values
                       if any(u <= v <= t for t, u in zip(top, bottom))]
            low, high = broken_ends(pack, key)
            assert (pack.values[low - 1], pack.values[high - 1]) == (spanned[0], spanned[-1])
        broken = len(windows)
        for column_rule, both_ends in itertools.product(COLUMN_RULES, (False, True)):
            with window_builds(both_ends) as builds:
                for tab, pack, key, _ in windows:
                    _window_moves(pack, key, pack.broken(key), 0, column_rule, _edge_bits(tab.n))
            for (tab, pack, key, pieces), ((s, t), levels, need, _) in zip(windows, builds):
                top, bottom = tab.row_lists()
                largest = pack.values[-1]
                cut_top, cut_bottom = pivot_cuts(top, bottom, column_rule, both_ends)
                assert (pack.values[t - 1], pack.values[s - 1]) == cut_values(
                    top, bottom, column_rule, both_ends), (tab, column_rule)
                by_rank = [[counts[v - 1] for v in pack.values] for counts in (
                    _count_vector(top[:cut_top], largest),
                    _count_vector(top[cut_top:] + bottom[:cut_bottom], largest),
                    _count_vector(bottom[cut_bottom:], largest))]
                assert (levels, need) == (vector_levels(*by_rank, pieces), len(top) - cut_top), \
                    (tab, column_rule, both_ends)
        assert broken > 10000 and checked - broken > 1000

    def test_fields_only_for_the_values_that_occur(self):
        for text in ("1 2000", "2 4 5 5 5 / 3 3 4 5", "1 7 9 / 4 4", "30000 / 1"):
            tab = parse_tableau(text)
            pack = _Packing(tab.shape, tab.type())
            distinct = sorted(set(itertools.chain.from_iterable(tab.row_lists())))
            assert pack.values == distinct
            assert pack.group == len(distinct) * pack.width
            assert pack.rows(pack.key(tab.row_lists())) == tab.row_lists()

    @given(st.data())
    @settings(deadline=None)
    def test_memoised_rows_match_a_fresh_decode(self, data):
        # Keys of random fillings of one shape and content, some drawn
        # twice, against their rows and a packing that has decoded nothing.
        tab = data.draw(tableaux(max_n=9, max_value=6))
        pack = _Packing(tab.shape, tab.type())
        entries = list(itertools.chain.from_iterable(tab.row_lists()))
        fillings = []
        for order in data.draw(st.lists(st.permutations(entries), min_size=1, max_size=8)):
            rows, at = [], 0
            for part in tab.shape.stripped:
                rows.append(tuple(sorted(order[at:at + part])))
                at += part
            fillings.append(tuple(rows))
        for rows in data.draw(st.lists(st.sampled_from(fillings), min_size=1, max_size=16)):
            key = pack.key(rows)
            assert pack.rows(key) == rows == _Packing(tab.shape, tab.type()).rows(key)

    def test_pivot_where_equal_lower_entries_straddle_a_good_column(self):
        # The lower row's 3s sit under 2 (fine) and 4 (broken): the
        # smallest broken value is 3, the bottom entry of the broken column
        # 2, not 4 above it.  Cutting there pools the 3s below and the 4 and
        # 5s above, 15 splits; cutting at the largest broken value 5 would
        # pool the whole lower row and the 5s, 35 splits.
        tab = parse_tableau("2 4 5 5 5 / 3 3 4 5")
        pack = _Packing(tab.shape, tab.type())
        key = pack.key(tab.row_lists())
        low, high = broken_ends(pack, key)
        # Ranks among the values 2, 3, 4 and 5.
        assert (pack.values[low - 1], pack.values[high - 1]) == (3, 5)
        pieces = rank_pieces(pack)
        for column_rule, both_ends, want, a, p, b in (
                ("leftmost", False, 4, [1, 0, 0, 0], [0, 2, 1, 3], [0, 0, 1, 1]),
                ("leftmost", True, 4, [1, 0, 0, 0], [0, 2, 1, 3], [0, 0, 1, 1]),
                ("rightmost", True, 5, [1, 0, 1, 0], [0, 2, 1, 4], [0, 0, 0, 0])):
            with window_builds(both_ends) as builds:
                _window_moves(pack, key, pack.broken(key), 0, column_rule, _edge_bits(tab.n))
            (_, t), levels, need, _ = builds[0]
            assert (pack.values[t - 1], levels, need) == (
                want, vector_levels(a, p, b, pieces), len(tab.row_lists()[0]) - sum(a))

    def test_cut_at_the_largest_broken_value_when_it_has_fewer_splits(self):
        # "1 2 2 3 4 / 1 3 3 3" breaks at 1 and 3.  From 1 the cut pools
        # the lower 1 and the whole upper row, 6 choose 1 = 6 splits; from
        # 3, the lower row and the upper 3 and 4, 6 choose 4 = 15.  In
        # "1 2 3 / 1 1 2", from 1 it pools the lower 1s and the upper 2 and
        # 3, 4 choose 2 = 6; from 3 the lower row and the upper 3, 4
        # choose 3 = 4.  Only the bottom pair of rows (both_ends) may cut
        # from the largest value.
        for text, one_end, both in (("1 2 2 3 4 / 1 3 3 3", 1, 1),
                                    ("1 2 3 / 1 1 2", 2, 3)):
            tab = parse_tableau(text)
            pack = _Packing(tab.shape, tab.type())
            key = pack.key(tab.row_lists())
            upper, lower = pack.prefixes(key), pack.prefixes(key >> pack.group)
            low, high = broken_ends(pack, key)
            for both_ends, want in ((False, one_end), (True, both)):
                t = _window_cut(upper, lower, low, high, "leftmost", both_ends)[1]
                assert pack.values[t - 1] == want, (text, both_ends)
                assert cut_values(*tab.row_lists(), "leftmost", both_ends)[0] == want


def window_cuts(tab):
    """Per cut (t, s) of a two-row window, s a broken rank and s <= t <= the
    widest top cut for s, and per cut one past that bound: the datum's
    count vectors by rank, and whether the cut is within the bound, with
    the packing, the key and the pieces and start of the library's
    rewrite."""
    top, bottom = tab.row_lists()
    pack = _Packing(tab.shape, tab.type())
    key = pack.key((top, bottom))
    upper, lower = pack.prefixes(key), pack.prefixes(key >> pack.group)
    tops = [top.count(v) for v in pack.values]
    bottoms = [bottom.count(v) for v in pack.values]
    pieces = rank_pieces(pack)
    for s in range(1, len(pack.values) + 1):
        if lower[s] <= upper[s - 1]:
            continue
        bound = bisect_left(upper, lower[s])
        for t in range(s, bound + 2):
            # Top entries of rank t or more and bottom ones of rank s or
            # less are pooled.
            a = [n if k < t else 0 for k, n in enumerate(tops, 1)]
            b = [m if k > s else 0 for k, m in enumerate(bottoms, 1)]
            p = [n + m - x - y for n, m, x, y in zip(tops, bottoms, a, b)]
            start = -sum(n * piece for k, (n, piece) in enumerate(zip(tops, pieces), 1)
                         if k >= t)
            yield t <= bound, (a, p, b), pack, key, pieces, start


def count_datum(values, a, p, b, top_len):
    """The validated datum whose parts have the count vectors a, p and b,
    by rank among values."""
    return GarnirDatum(*(Multiset([v for v, n in zip(values, counts) for _ in range(n)])
                         for counts in (a, p, b)), top_len)


class TestCompressedWindow:
    """The window rewrite, which builds pieces only for the pooled values,
    against the one that built one for every value of the tableau
    (``straighten_reference.uncompressed_window_moves``): equal move lists,
    order included, on every broken pair of rows."""

    @staticmethod
    def _assert_same_moves(tab):
        pack = _Packing(tab.shape, tab.type())
        key = pack.key(tab.row_lists())
        broken, bits = pack.broken(key), _edge_bits(tab.n)
        pairs = [r for r in range(len(pack.windows))
                 if broken >> r * pack.group & (1 << pack.group) - 1]
        for r, column_rule in itertools.product(pairs, COLUMN_RULES):
            assert (_window_moves(pack, key, broken, r, column_rule, bits)
                    == uncompressed_window_moves(pack, key, broken, r, column_rule, bits)), \
                (tab, r, column_rule)
        return len(pairs)

    @given(tableaux(max_n=14, max_value=20))
    @settings(deadline=None)
    def test_tableaux_with_many_values(self, tab):
        self._assert_same_moves(tab)

    def test_reversed_column(self):
        # Each pair of rows holds 2 of the 40 values.
        tab = parse_tableau(" / ".join(map(str, range(40, 0, -1))))
        assert self._assert_same_moves(tab) == 39

    def test_benchmark_batches(self):
        tabs = benchmark_tableaux(w18_base, None) + benchmark_tableaux(two_row_base, None)
        assert sum(map(self._assert_same_moves, tabs)) > 100


class TestWindowLevels:
    """The levels the window rewrite reads off the prefix counts against
    the count vectors it built before (``straighten_reference.
    window_counts``), on every broken pair of rows under both column rules:
    the same cut, one level per pooled rank, equal to the vectors' with the
    fixed entries around it summed afresh, the same need and the same
    start, and the same relation as the count-vector builder
    (``garnir_reference.vector_relation_terms``) gives."""

    @given(tableaux(max_n=16, max_value=8))
    @settings(deadline=None)
    def test_levels_match_count_vectors_up_to_degree_16(self, tab):
        pack = _Packing(tab.shape, tab.type())
        key = pack.key(tab.row_lists())
        broken, bits = pack.broken(key), _edge_bits(tab.n)
        for r in range(len(pack.windows)):
            if not broken >> r * pack.group & (1 << pack.group) - 1:
                continue
            upper = pack.prefixes(key >> r * pack.group)
            lower = pack.prefixes(key >> (r + 1) * pack.group)
            low, high = broken_ends(pack, key, r)
            pieces = rank_pieces(pack, r)
            for column_rule in COLUMN_RULES:
                with window_builds() as builds:
                    _window_moves(pack, key, broken, r, column_rule, bits)
                (_, t), levels, need, start = builds[0]
                old_t, a, p, b = window_counts(upper, lower, low, high, column_rule,
                                               r + 1 == len(pack.windows))
                assert (t, levels, need, start) == (
                    old_t, vector_levels(a, p, b, pieces), upper[-1] - sum(a),
                    -sum(map(mul, map(sub, upper[t:], upper[t - 1:]), pieces[t - 1:]))), \
                    (tab, r, column_rule)
                assert (_relation_terms(levels, need, bits, start, -1)
                        == vector_relation_terms(a, p, b, upper[-1], bits, pieces, start, -1)), \
                    (tab, r, column_rule)


class TestEveryBrokenValue:
    """Any cut (t, s) with s a broken value and t at most the widest top
    cut for s is a valid datum: the relation pooling the bottom entries at
    most s and the top entries at least t, with its count vectors built
    from the rows, has more pool entries than the top row, holds the
    input's own split once with coefficient 1, and makes every other split
    heavier; one step past the widest top cut, the pool is no larger than
    the top row."""

    @staticmethod
    def _assert_cuts(tab, specht_degree=0):
        """Check every cut of a two-row window; return how many were valid."""
        top = tab.row_lists()[0]
        bits = _edge_bits(tab.n)
        valid = 0
        for within, (a, p, b), pack, key, pieces, start in window_cuts(tab):
            if not within:
                assert sum(p) <= len(top), (tab, a, p, b)
                with pytest.raises(ValueError, match="must exceed top row length"):
                    count_datum(pack.values, a, p, b, len(top))
                continue
            valid += 1
            datum = count_datum(pack.values, a, p, b, len(top))
            terms = _relation_terms(_count_levels(a, p, b, pieces), len(top) - sum(a), bits,
                                    start, -1)
            assert [term for term in terms if not term[0]] == [(0, -1, 1)], (tab, datum)
            for change, _, _ in terms:
                if change:
                    child = Tableau(tab.shape, pack.rows(key + change))
                    assert weight(child) > weight(tab), (tab, datum, child)
            if tab.n <= specht_degree:
                assert specht_check(garnir_relation(datum)), datum
        return valid

    @given(two_row_tableaux(max_n=12))
    @settings(deadline=None)
    def test_relation_at_every_broken_value(self, tab):
        top, bottom = tab.row_lists()
        assert any(True for _ in window_cuts(tab)) == _breaks_columns(top, bottom)
        self._assert_cuts(tab)

    def test_every_cut_of_every_small_window(self):
        # Every non-semistandard two-row window of degree at most 7 with
        # values at most 4; the relations of those of degree at most 6 also
        # vanish on the Specht module.
        tabs = [tab for n in range(2, 8) for top_len in range((n + 1) // 2, n)
                for tab in iter_fillings(Partition((top_len, n - top_len)), 4)
                if not is_semistandard(tab)]
        cuts = [self._assert_cuts(tab, specht_degree=6) for tab in tabs]
        assert (len(tabs), sum(cuts)) == (2015, 5256)


class TestTopEntryPivot:
    """The library's cut against the cut (k, k) at the broken value k that
    it replaced (``straighten_reference.broken_value_window_cut``):
    equal canonical forms under every rule, and two-row steps that differ
    only by a combination vanishing on the Specht module, under "leftmost"
    in ``changed`` of the 4620 small windows."""

    reference = staticmethod(broken_value_window_cut)
    changed = 886

    @contextlib.contextmanager
    def _reference(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heckehom.straighten, "_window_cut", self.reference)
            yield

    @pytest.mark.parametrize("pair_rule,column_rule", RULES)
    @given(tab=tableaux(max_n=9, max_value=5))
    @settings(deadline=None, max_examples=50)
    def test_same_canonical_form(self, pair_rule, column_rule, tab):
        new = semistandardize(tab, pair_rule, column_rule)
        with self._reference():
            old = semistandardize(tab, pair_rule, column_rule)
        assert new == old

    @pytest.mark.parametrize("base", [w18_base, two_row_base])
    def test_same_canonical_form_on_benchmark_batches(self, base):
        tabs = benchmark_tableaux(base, None)
        new = [semistandardize(tab) for tab in tabs]
        with self._reference():
            old = [semistandardize(tab) for tab in tabs]
        assert new == old

    def test_changed_steps_differ_by_a_specht_relation(self):
        tabs = [tab for n in range(2, 9) for top_len in range((n + 1) // 2, n)
                for tab in iter_fillings(Partition((top_len, n - top_len)), 4)
                if not is_semistandard(tab)]
        assert len(tabs) == 4620
        new = {rule: [two_row_straighten_step(tab, rule) for tab in tabs]
               for rule in COLUMN_RULES}
        with self._reference():
            old = {rule: [two_row_straighten_step(tab, rule) for tab in tabs]
                   for rule in COLUMN_RULES}
        assert old["rightmost"] == new["rightmost"]
        changed = [(was, now) for was, now in zip(old["leftmost"], new["leftmost"])
                   if was != now]
        assert len(changed) == self.changed
        for was, now in changed:
            assert specht_check(was - now), (was, now)


class TestTopEntryCut(TestTopEntryPivot):
    """The same against the rule before that, the cut (k, k) at the top
    entry k of the picked broken column
    (``straighten_reference.top_entry_window_cut``)."""

    reference = staticmethod(top_entry_window_cut)
    changed = 1498


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

    def test_exponent_span_above_the_limit_raises_before_packing(self, monkeypatch):
        # Packing q^100000000 would need a 6.4-gigabit int.
        def packed(*args):
            raise AssertionError("packed")

        monkeypatch.setattr(heckehom.straighten, "_pack", packed)
        monkeypatch.setattr(heckehom.straighten, "_traverse", packed)
        comb = (LinComb.single(parse_tableau("1 2 / 1"), LaurentPoly.monomial(100000000))
                + LinComb.single(parse_tableau("1 1 / 2")))
        with pytest.raises(ValueError, match="span 100000000, more than the limit 1000"):
            semistandardize_lincomb(comb)

    def test_exponent_span_at_the_limit_straightens(self):
        assert MAX_EXPONENT_SPAN == 1000
        wide, low = parse_tableau("1 2 / 1"), parse_tableau("1 1 / 2")
        shift = LaurentPoly.monomial(MAX_EXPONENT_SPAN)
        comb = LinComb.single(wide, shift) + LinComb.single(low)
        want = semistandardize(wide).scale(shift) + semistandardize(low)
        assert semistandardize_lincomb(comb) == want

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
