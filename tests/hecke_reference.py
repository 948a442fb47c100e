"""The standard-basis model of the Hecke algebra, kept as the reference.

Two references share no arithmetic with the packed tabloid kernel in
``heckehom.hecke_oracle``, so the tests (and ``scripts/sweep.py
--reference``) compare the two:

* The Specht test on ``LaurentPoly`` tabloid coordinates
  (``specht_check_tabloid``): the same computation in the tabloid basis of
  the type's permutation module, with each coordinate keyed by its minimal
  coset representative d.  Each generator acts by scanning d for the values
  i and i + 1 (``ReferenceTabloidVector.mul_right_gen``), images are built
  by multiplying generator by generator (``image_vector``), and the y
  element is applied with its (-q)^(-k) weights as they stand
  (``mul_y_blocks``, which works on ``HeckeElem`` too).
* The whole algebra in the standard basis, as ``HeckeElem``s: x and y
  elements summed over Young subgroups, images of tableau maps three ways
  (``algebra_image``, ``image_h2``, ``image_h4``), coordinates in the
  tabloid basis read off and verified by reconstruction
  (``tabloid_coords``), maps applied to them (``apply_hom``), and the four
  composition identities checked on those (``reference_check``), the
  merge scalar computed from ``Multiset``s and ``cross_pairs``
  (``merge_scalar``), where the library counts it on row tuples.

Both build images through the tableau's permutation 1A and the minimal
coset representatives (``perm_1A``, ``coset_reps``), and so does
``walk_image_words``, the block-label words of an image walked letter by
letter from 1A and each representative, which the library's row-by-row
``_image_words`` is tested against.

The library's kernel keys a tabloid by its block-label word packed into
one int and carries bare packed coefficients.  The kernel it replaced is
kept here: words as tuples and each packed coefficient with a bound on its
L1 norm (``tuple_mul_gen``, ``tuple_add_term``, ``tuple_fold_columns``),
which the tests compare the library's kernel with.  ``mul_y_chains`` runs
on it: it multiplies a packed vector by the y element through its
descending generator chains, the product the library's Specht test ran
before it folded words onto column-sorted ones (``_fold_columns``).

The library's Specht test folds each column block as soon as the letters
of w_mu leave it.  The test it replaced, which multiplies by all of w_mu
and then folds every block in one pass, is kept here
(``one_pass_specht_vector``), and so is a Specht test that multiplies by
y through ``mul_y_chains`` instead of folding (``chains_specht_check``).

``word_of``, ``int_word``, ``tuple_word``, ``int_vector``,
``tuple_values`` and ``vector_of_packed`` translate between the library's
keys (block-label words packed into ints) and the coordinates here.
"""

import itertools
from functools import lru_cache

from heckehom import (
    Composition,
    GarnirDatum,
    LaurentPoly,
    Multiset,
    Partition,
    Tableau,
    TabloidVector,
    garnir_relation,
    quantum_binomial,
)
from heckehom.combinat import as_composition, identity_perm, w_mu
from heckehom.hecke_oracle import (
    HeckeElem,
    _add_images,
    _add_into,
    _column_blocks,
    _fold_columns,
    _mul_gen,
    _require_within_cap,
    reduced_word,
)
from heckehom.qcoeff import _Widen, _as_poly, _unpack, _wider

from .garnir_reference import cross_pairs

_Q_MINUS_1 = LaurentPoly.parse("q - 1")


# ---------------------------------------------------------------------------
# permutations, the tableau's permutation and coset representatives
# ---------------------------------------------------------------------------


def perm_mul(first, second):
    """Compose left to right: k goes to second(first(k))."""
    return tuple(second[v - 1] for v in first)


def perm_inverse(w):
    out = [0] * len(w)
    for k, v in enumerate(w, start=1):
        out[v - 1] = k
    return tuple(out)


def inversions(w):
    """Coxeter length: the number of pairs i < j with w(i) > w(j)."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def _perm_of_filling(cell_values, type_length):
    """Permutation attached to an explicit cell-by-cell filling.

    Cell p of the row-reading filling holds the number p; the result sends
    the row-reading filling of the type shape to the tableau whose row r
    lists, in increasing order, the cells holding value r.
    """
    cells_by_value = [[] for _ in range(type_length)]
    for p, v in enumerate(cell_values, start=1):
        cells_by_value[v - 1].append(p)
    images = []
    for cells in cells_by_value:
        images.extend(cells)
    return tuple(images)


def perm_1A(tab):
    """The distinguished coset representative attached to a tableau.

    Reading the shape's row-reading filling cell by cell, the number in a
    cell is sent into the type-shape row named by the tableau's value in
    that cell; each row of the image is increasing.
    """
    cells = [v for row in tab.row_lists() for v in row]
    return _perm_of_filling(cells, len(tab.type().stripped))


def length_1A(tab):
    """Closed form for inversions(perm_1A(tab)), purely from row contents.

    Counts, over all row pairs g < h, the pairs of entries (j in row g,
    i in row h) with i < j.
    """
    rows = tab.rows
    total = 0
    for g in range(len(rows)):
        for h in range(g + 1, len(rows)):
            total += cross_pairs(rows[g], rows[h])
    return total


def row_reading_composition(tab):
    """Per-row multiplicity vectors, concatenated row after row.

    Zero entries are retained positionally up to the maximum value of the
    type, so the result refines the shape blockwise.
    """
    top = len(tab.type().stripped)
    parts = []
    for row in tab.rows:
        parts.extend(row.count(v) for v in range(1, top + 1))
    return Composition(parts)


def coset_reps(fine, coarse):
    """Minimal right coset representatives of one Young subgroup in a larger.

    The first composition must refine the second blockwise.  The result is
    every element of the larger subgroup that increases along each block of
    positions of the finer composition; passing coarse = (n,) gives the
    representatives in the whole symmetric group.
    """
    fine = as_composition(fine)
    coarse = as_composition(coarse)
    if fine.n != coarse.n:
        raise ValueError(f"sizes differ: {fine.n} vs {coarse.n}")
    return _coset_reps_cached(fine.stripped, coarse.stripped)


# A sweep over tableaux asks for one pair per tableau (71715 to degree 7),
# which the limit only caps memory for.
@lru_cache(maxsize=8192)
def _coset_reps_cached(fine, coarse):
    groups = []
    fine_iter = iter(fine)
    for target in coarse:
        group = []
        got = 0
        while got < target:
            part = next(fine_iter, None)
            if part is None or got + part > target:
                raise ValueError(
                    f"composition {fine} does not refine {coarse} blockwise")
            group.append(part)
            got += part
        groups.append(group)
    if any(p for p in fine_iter):
        raise ValueError(f"composition {fine} does not refine {coarse} blockwise")

    per_block = []
    offset = 0
    for target, group in zip(coarse, groups):
        per_block.append(
            _increasing_arrangements(tuple(range(offset + 1, offset + target + 1)),
                                     tuple(group)))
        offset += target
    return tuple(tuple(itertools.chain.from_iterable(combo))
                 for combo in itertools.product(*per_block))


def _increasing_arrangements(values, parts):
    """Every ordering of the increasing values that increases along each
    block of positions of parts, in lexicographic order: the minimal coset
    representatives, built directly instead of filtered out of every
    ordering.  The first block takes each choice of its values in turn,
    increasing; the rest recurse on what is left."""
    if not parts:
        return [()]
    out = []
    for chosen in itertools.combinations(values, parts[0]):
        rest = tuple(v for v in values if v not in chosen)
        out.extend(chosen + tail for tail in _increasing_arrangements(rest, parts[1:]))
    return out


def _walk(word, letters):
    """Multiply the term x T_u at word by T_w, letter by letter, in place,
    where u w is longer than u by the length of w; the q-exponent gained.

    Each letter s then lengthens the product so far, and such a letter
    never meets labels a > z.  Write the product as u = v d, v in the Young
    subgroup and d the minimal representative, so l(u) = l(v) + l(d).  Then
    l(v) + l(d) + 1 = l(u s) <= l(v) + l(d s), so d s is longer than d:
    either a < z, or equal labels (d s = s' d with s' in the subgroup),
    but not a > z, which would make d s shorter.  So the term stays a
    single word times a power of q.
    """
    exponent = 0
    for i in letters:
        a, z = word[i - 1], word[i]
        if a == z:
            exponent += 1
        elif a < z:
            word[i - 1], word[i] = z, a
        else:
            raise AssertionError(f"letter {i} shortens the product at {word}")
    return exponent


def walk_image_words(tab):
    """The image of a tableau's map in the tabloid basis of its type's
    module, as one (word, e) pair for the term q^e at word per coset
    representative d: the sum over d of x T_1A T_d, with d running over the
    representatives of the row-reading composition inside the shape's
    subgroup.

    Each summand is one term: 1A lists the cells of each value in
    increasing order, so two cells p, p + 1 of one row, whose values
    satisfy v_p <= v_(p+1), sit in 1A in that order.  Every generator s_p
    of the shape's subgroup S therefore lengthens 1A, so 1A is the shortest
    element of its coset 1A S, and l(1A d) = l(1A) + l(d) for every d in S.
    So _walk applies: first T_1A from the unit, then T_d.
    """
    labels = [b for b, size in enumerate(tab.type().parts) for _ in range(size)]
    base_exponent = _walk(labels, reduced_word(perm_1A(tab)))
    out = []
    for d in coset_reps(row_reading_composition(tab), tab.shape):
        word = labels.copy()
        exponent = base_exponent + _walk(word, reduced_word(d))
        out.append((tuple(word), exponent))
    return out


# ---------------------------------------------------------------------------
# the algebra in the standard basis
# ---------------------------------------------------------------------------


def t_of_perm(w):
    """The standard basis element indexed by w."""
    w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w} is not a permutation")
    return HeckeElem._raw(len(w), {w: LaurentPoly.one()})


def t_from_word(n, word):
    """Product of generators in the given order, starting from the unit.

    Used to cross-check that t_of_perm is independent of the reduced word.
    """
    elem = HeckeElem.one(n)
    for i in word:
        elem = elem.mul_right_gen(i)
    return elem


def young_subgroup(comp):
    """All permutations moving each block of consecutive values within itself."""
    comp = as_composition(comp)
    return _young_subgroup_cached(tuple(p for p in comp.parts if p))


@lru_cache(maxsize=256)
def _young_subgroup_cached(parts):
    per_block = []
    offset = 0
    for size in parts:
        per_block.append(list(itertools.permutations(range(offset + 1, offset + size + 1))))
        offset += size
    return tuple(tuple(itertools.chain.from_iterable(combo))
                 for combo in itertools.product(*per_block))


def is_min_coset_rep(w, comp):
    """Whether w is the shortest element of its right coset: increasing on
    each consecutive block of positions."""
    comp = as_composition(comp)
    offset = 0
    for size in comp.parts:
        for p in range(offset, offset + size - 1):
            if w[p] > w[p + 1]:
                return False
        offset += size
    return True


def x_elem(comp):
    """Sum of the standard basis over the Young subgroup."""
    comp = as_composition(comp)
    one = LaurentPoly.one()
    return HeckeElem._raw(comp.n, {w: one for w in young_subgroup(comp)})


def y_elem(comp):
    """Alternating sum: each subgroup element weighted by (-q) to minus its
    length."""
    comp = as_composition(comp)
    terms = {}
    for w in young_subgroup(comp):
        length = inversions(w)
        terms[w] = LaurentPoly.monomial(-length, (-1) ** length)
    return HeckeElem._raw(comp.n, terms)


def mul_x_blocks(elem, comp):
    """Right multiplication by the x element of a composition.

    Works block by block through the factorisation of the subgroup sum into
    descending generator chains, so the cost is a handful of generator
    multiplications rather than a full subgroup sum.
    """
    offset = 0
    for size in comp.parts:
        for m in range(2, size + 1):
            total = elem
            cur = elem
            for gen in range(offset + m - 1, offset, -1):
                cur = cur.mul_right_gen(gen)
                total = total + cur
            elem = total
        offset += size
    return elem


# ---------------------------------------------------------------------------
# images of tableau maps in the standard basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def algebra_image(tab):
    """Image of the permutation-module generator under the tableau's map.

    The x element of the tableau's type, times the basis element of the
    tableau's permutation, times the sum over coset representatives of the
    row-reading refinement inside the shape's subgroup.
    """
    _require_within_cap(tab.n)
    base = x_elem(tab.type()).mul_t(perm_1A(tab))
    total = HeckeElem.zero(tab.n)
    for d in coset_reps(row_reading_composition(tab), tab.shape):
        total = total + base.mul_t(d)
    return total


def image_h2(tab):
    """The same image, computed from row-rearranged fillings.

    Each row's multiset is laid out in every distinct order; each resulting
    filling contributes the type's x element times the basis element of the
    filling's permutation.
    """
    _require_within_cap(tab.n)
    type_len = len(tab.type().stripped)
    x = x_elem(tab.type())
    row_orders = [sorted(set(itertools.permutations(row.elements())))
                  for row in tab.rows]
    total = HeckeElem.zero(tab.n)
    for arrangement in itertools.product(*row_orders):
        cells = [v for row in arrangement for v in row]
        total = total + x.mul_t(_perm_of_filling(cells, type_len))
    return total


def column_reading_composition(tab):
    """Per-value multiplicity vectors, concatenated value after value.

    For each value 1..max, lists its multiplicity in row 1, row 2, ...;
    the result refines the type blockwise.
    """
    top = len(tab.type().stripped)
    return Composition([row.count(v) for v in range(1, top + 1) for row in tab.rows])


def image_h4(tab):
    """The same image, computed from the left-handed expansion.

    Sum over inverses of coset representatives of the column-reading
    refinement inside the type's subgroup, times the tableau's basis
    element, times the shape's x element.
    """
    _require_within_cap(tab.n)
    reps = coset_reps(column_reading_composition(tab), tab.type())
    terms = {perm_inverse(d): LaurentPoly.one() for d in reps}
    left = HeckeElem._raw(tab.n, terms)
    left = left.mul_t(perm_1A(tab))
    return mul_x_blocks(left, tab.shape)


# ---------------------------------------------------------------------------
# tabloid coordinates of algebra elements, and maps applied to them
# ---------------------------------------------------------------------------


class TabloidMembershipError(ValueError):
    """An algebra element does not lie in the span of the tabloid basis."""


def tabloid_coords(h, comp):
    """Coordinates of an algebra element in the tabloid basis.

    Each tabloid basis element has disjoint support consisting of one full
    coset, with coefficient 1 on its minimal representative; so coordinates
    are read off the minimal representatives, and the claim that h lies in
    the module at all is then verified by exact reconstruction.
    """
    comp = as_composition(comp)
    if h.n != comp.n:
        raise ValueError(f"degree {h.n} does not match composition of {comp.n}")
    coords = {w: c for w, c in h._terms.items() if is_min_coset_rep(w, comp)}
    subgroup = young_subgroup(comp)
    recon = {}
    for d, coeff in coords.items():
        for v in subgroup:
            w = perm_mul(v, d)
            prev = recon.get(w)
            recon[w] = coeff if prev is None else prev + coeff
    recon = {w: c for w, c in recon.items() if c}
    if recon != h._terms:
        raise TabloidMembershipError(
            "element is not a combination of tabloid basis elements")
    return TabloidVector(comp, coords)


def apply_hom(vec, tab):
    """Image of a tabloid vector under the homomorphism of a tableau whose
    shape is the vector's composition."""
    if tab.shape != vec.composition:
        raise ValueError(
            f"tableau shape {tab.shape} does not match vector over "
            f"{vec.composition}")
    base = algebra_image(tab)
    total = HeckeElem.zero(base.n)
    for d, coeff in vec.coords.items():
        total = total + base.mul_t(d).scale(coeff)
    return total


# ---------------------------------------------------------------------------
# the four composition identities in the standard basis
# ---------------------------------------------------------------------------


def _constant_rows(sizes_and_values):
    return [Multiset([value] * size) for size, value in sizes_and_values]


def merge_scalar(rows):
    """The scalar of the merge identities for these rows, merged in
    consecutive (upper, lower) pairs, from their ``Multiset``s: per pair,
    q^cross_pairs(upper, lower) and, per value v of upper, the quantum
    binomial [upper_v + lower_v choose upper_v].  The library's ``_merge``
    counts the same scalar on the row tuples."""
    scalar = LaurentPoly.one()
    for upper_elems, lower_elems in zip(rows[::2], rows[1::2]):
        upper, lower = Multiset(upper_elems), Multiset(lower_elems)
        for v, count in upper.counts():
            scalar = scalar * quantum_binomial(count + lower.count(v), count)
        scalar = scalar.shift(cross_pairs(upper, lower))
    return scalar


def _check_row_merge(params):
    top_elems, bottom_elems, m = params
    top, bottom = Multiset(top_elems), Multiset(bottom_elems)
    r = top.size
    xi = Composition((r, m - r))
    tab_c = Tableau(xi, [top, bottom])
    merge_b = Tableau((m,), [Multiset([1] * r + [2] * (m - r))])
    merged = Tableau((m,), [top + bottom])
    coords = tabloid_coords(algebra_image(merge_b), xi)
    lhs = apply_hom(coords, tab_c)
    rhs = algebra_image(merged).scale(merge_scalar((top_elems, bottom_elems)))
    if lhs != rhs:
        return f"row merge failed for rows {top_elems}/{bottom_elems}, m={m}"
    return None


def _check_pair_merge(params):
    (rows_elems,) = params
    rows = [Multiset(e) for e in rows_elems]
    r, u, v, t = (row.size for row in rows)
    quad = Composition((r, u, v, t))
    tab_c = Tableau(quad, rows)
    merge_b = Tableau((r + u, v + t),
                      [Multiset([1] * r + [2] * u), Multiset([3] * v + [4] * t)])
    merged = Tableau((r + u, v + t), [rows[0] + rows[1], rows[2] + rows[3]])
    coords = tabloid_coords(algebra_image(merge_b), quad)
    lhs = apply_hom(coords, tab_c)
    rhs = algebra_image(merged).scale(merge_scalar(rows_elems))
    if lhs != rhs:
        return f"pair merge failed for rows {rows_elems}"
    return None


def _check_row_split(params):
    rows_elems, u = params
    rows = [Multiset(e) for e in rows_elems]
    r, w, t = (row.size for row in rows)
    v = w - u
    quad = Composition((r, u, v, t))
    split_d = Tableau(quad, _constant_rows([(r, 1), (u, 2), (v, 2), (t, 3)]))
    wide = Composition((r, w, t))
    tab_e = Tableau(wide, rows)
    coords = tabloid_coords(algebra_image(split_d), wide)
    lhs = apply_hom(coords, tab_e)
    rhs = HeckeElem.zero(sum((r, w, t)))
    for mid_top in rows[1].sub_multisets(u):
        tab = Tableau(quad, [rows[0], mid_top, rows[1] - mid_top, rows[2]])
        rhs = rhs + algebra_image(tab)
    if lhs != rhs:
        return f"row split failed for rows {rows_elems}, split size {u}"
    return None


def _check_garnir_factorization(params):
    top_elems, pool_elems, bottom_elems, top_len = params
    datum = GarnirDatum(Multiset(top_elems), Multiset(pool_elems),
                        Multiset(bottom_elems), top_len)
    r = datum.fixed_top.size
    s = datum.pool.size
    t = datum.fixed_bottom.size
    u = datum.take_size
    v = datum.bottom_len - t
    quad = Composition((r, u, v, t))
    wide = Composition((r, s, t))
    merge_b = Tableau(datum.shape,
                      [Multiset([1] * r + [2] * u), Multiset([3] * v + [4] * t)])
    split_d = Tableau(quad, _constant_rows([(r, 1), (u, 2), (v, 2), (t, 3)]))
    tab_e = Tableau(wide, [datum.fixed_top, datum.pool, datum.fixed_bottom])
    mid = apply_hom(tabloid_coords(algebra_image(merge_b), quad), split_d)
    lhs = apply_hom(tabloid_coords(mid, wide), tab_e)
    rel = garnir_relation(datum)
    rhs = HeckeElem.zero(datum.n)
    for tab, coeff in rel.items():
        rhs = rhs + algebra_image(tab).scale(coeff)
    if lhs != rhs:
        return (f"relation factorisation failed for "
                f"{top_elems}|{pool_elems}|{bottom_elems}, top length {top_len}")
    return None


_CHECKERS = {
    "row_merge": _check_row_merge,
    "pair_merge": _check_pair_merge,
    "row_split": _check_row_split,
    "garnir_factorization": _check_garnir_factorization,
}


def reference_check(item):
    """A composition-identity instance, as ``verify_composition_props``
    enumerates it, checked in the standard basis: the counterexample
    message, or None when the identity holds."""
    kind, params = item
    return _CHECKERS[kind](params)


# ---------------------------------------------------------------------------
# the Specht test on LaurentPoly tabloid coordinates
# ---------------------------------------------------------------------------


class ReferenceTabloidVector(TabloidVector):
    """A tabloid vector with the linear operations and the right action of
    the algebra, all on ``LaurentPoly`` coordinates keyed by d."""

    def __add__(self, other):
        if not isinstance(other, TabloidVector):
            return NotImplemented
        if self.composition != other.composition:
            raise ValueError(f"composition mismatch: {self.composition} vs "
                             f"{other.composition}")
        acc = dict(self.coords)
        for d, poly in other.coords.items():
            _add_into(acc, d, poly)
        return ReferenceTabloidVector(self.composition, acc)

    def scale(self, factor):
        poly = _as_poly(factor)
        if not poly:
            return ReferenceTabloidVector(self.composition, {})
        return ReferenceTabloidVector(
            self.composition, {d: c * poly for d, c in self.coords.items()})

    def mul_right_gen(self, i):
        """Right multiplication by the i-th generator, 1 <= i <= n-1.

        For the basis vector at d: if the values i and i+1 sit in one block
        of positions of d, the generator passes through d into the Young
        subgroup and the x element absorbs it as q.  Otherwise swapping them
        gives the minimal representative d s, and the algebra's rule
        applies: the vector moves to d s when i comes before i+1 in d, and
        otherwise becomes (q-1) times itself plus q times the vector at d s.
        """
        comp = self.composition
        if not 1 <= i <= comp.n - 1:
            raise ValueError(f"generator index {i} out of range 1..{comp.n - 1}")
        block_of = [b for b, size in enumerate(comp.parts) for _ in range(size)]
        acc = {}
        for d, coeff in self.coords.items():
            pos_lo = d.index(i)
            pos_hi = d.index(i + 1)
            if block_of[pos_lo] == block_of[pos_hi]:
                _add_into(acc, d, coeff.shift(1))
                continue
            swapped = list(d)
            swapped[pos_lo], swapped[pos_hi] = i + 1, i
            ds = tuple(swapped)
            if pos_lo < pos_hi:
                _add_into(acc, ds, coeff)
            else:
                _add_into(acc, d, coeff * _Q_MINUS_1)
                _add_into(acc, ds, coeff.shift(1))
        return ReferenceTabloidVector(comp, acc)

    def mul_t(self, w):
        """Right multiplication by the standard basis element of w."""
        vec = self
        for i in reduced_word(tuple(w)):
            vec = vec.mul_right_gen(i)
        return vec


def mul_y_blocks(elem, comp):
    """Right multiplication by the y element of a composition, through the
    factorisation of the alternating subgroup sum into descending generator
    chains; elem is a ``HeckeElem`` or a ``ReferenceTabloidVector``."""
    offset = 0
    for size in comp.parts:
        for m in range(2, size + 1):
            total = elem
            cur = elem
            sign_power = 0
            for gen in range(offset + m - 1, offset, -1):
                cur = cur.mul_right_gen(gen)
                sign_power += 1
                total = total + cur.scale(
                    LaurentPoly.monomial(-sign_power, (-1) ** sign_power))
            elem = total
        offset += size
    return elem


# ---------------------------------------------------------------------------
# the tuple-word kernel the library's int-word kernel replaced
# ---------------------------------------------------------------------------


def tuple_add_term(vec, word, coeff, bound, bits):
    """Add a packed term at a tuple word, dropping the coordinate if it
    cancels.

    A packed 0 proves the polynomial zero only while the norm bound stays
    below 2**(bits - 1): then every coefficient lies in the range that the
    balanced base-2**bits digits of 0 pin to 0.  A larger bound raises
    _Widen.
    """
    prev = vec.get(word)
    if prev is not None:
        coeff += prev[0]
        bound += prev[1]
    if coeff:
        vec[word] = (coeff, bound)
    elif bound >> (bits - 1):
        raise _Widen(_wider(bits, bound))
    elif prev is not None:
        del vec[word]


def tuple_mul_gen(vec, i, bits):
    """Right multiplication by the i-th generator, at q = 2**bits, on
    tuple words with (packed coefficient, norm bound) per word: the rule of
    ``heckehom.hecke_oracle._mul_gen``, reading labels by index."""
    out = {}
    for word, entry in vec.items():
        a, z = word[i - 1], word[i]
        if a == z:
            out[word] = (entry[0] << bits, entry[1])
            continue
        swapped = word[:i - 1] + (z, a) + word[i + 1:]
        other = vec.get(swapped)
        if a > z:
            if other is None:
                coeff, bound = entry
                out[word] = ((coeff << bits) - coeff, 2 * bound)
                out[swapped] = (coeff << bits, bound)
        elif other is None:
            out[swapped] = entry
        else:
            coeff, bound = other
            out[word] = (coeff << bits, bound)
            tuple_add_term(out, swapped, entry[0] + (coeff << bits) - coeff,
                           entry[1] + 2 * bound, bits)
    return out


def _tuple_sorted_block(block):
    """A block of labels sorted, with the parity of the sort, or None when
    two labels are equal."""
    if len(set(block)) < len(block):
        return None
    odd = sum(a > b for k, a in enumerate(block) for b in block[k + 1:]) & 1
    return tuple(sorted(block)), odd


def tuple_fold_columns(vec, conj, bits):
    """Each tuple word folded onto its column-sorted word with the sign of
    the sort, words with a repeated label in a block dropped: the rule of
    ``heckehom.hecke_oracle._fold_columns``, with a cancellation dropped
    only when its bound certifies it."""
    cuts = list(itertools.accumulate(conj.parts, initial=0))
    blocks = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]
    out = {}
    for word, (coeff, bound) in vec.items():
        folded = list(word)
        odd = 0
        for lo, hi in blocks:
            hit = _tuple_sorted_block(word[lo:hi])
            if hit is None:
                break
            folded[lo:hi] = hit[0]
            odd ^= hit[1]
        else:
            tuple_add_term(out, tuple(folded), -coeff if odd else coeff, bound, bits)
    return out


def mul_y_chains(vec, comp, bits):
    """Right multiplication of a packed vector (tuple words with a packed
    coefficient and a norm bound each) by the y element of a composition,
    times q**N, where N is the sum of s(s - 1)/2 over the blocks.

    The y element factorises into descending generator chains, block by
    block: for each block and 2 <= m <= its size, the factor sum of
    (-q)^(-k) T_(g_1) ... T_(g_k) over 0 <= k < m.  Each factor is
    multiplied by q^(m - 1) to make it polynomial.  The library's Specht
    test used this product before ``_fold_columns``.
    """
    offset = 0
    for size in comp.parts:
        for m in range(2, size + 1):
            total = {}
            cur = vec
            for k in range(m):
                if k:
                    cur = tuple_mul_gen(cur, offset + m - k, bits)
                shift = bits * (m - 1 - k)
                for word, (coeff, bound) in cur.items():
                    coeff <<= shift
                    tuple_add_term(total, word, -coeff if k & 1 else coeff, bound, bits)
            vec = total
        offset += size
    return vec


# ---------------------------------------------------------------------------
# the Specht test before its folds were staged
# ---------------------------------------------------------------------------


def w_mu_product(images, shape, s, bits):
    """The sum of images (as ``heckehom.hecke_oracle._add_images`` takes
    them) at q = 2**bits, times every letter of w_mu of a partition shape,
    with s-bit int words; and the bound on the norm of each coordinate:
    the images' norms times 3 per letter."""
    total = {}
    norm = _add_images(total, images, bits)
    letters = reduced_word(w_mu(shape))
    for i in letters:
        total = _mul_gen(total, i, s, bits)
    return total, norm * 3 ** len(letters)


def one_pass_specht_vector(images, shape, s, bits):
    """The Specht test's folded vector as the library computed it before it
    folded in stages: ``w_mu_product``, then every column block folded in
    one pass, with the bound times the most words folded onto one."""
    total, bound = w_mu_product(images, shape, s, bits)
    conj = Partition(shape.stripped).conjugate()
    folded, most = _fold_columns(total, _column_blocks(conj), s)
    return folded, bound * most


def chains_specht_check(images, shape, s, bits):
    """The Specht test with y multiplied out: ``w_mu_product`` in the tuple
    kernel, each word with the product's bound, times y through
    ``mul_y_chains``, at q = 2**bits; raises _Widen when a zero cannot be
    certified at this width."""
    total, bound = w_mu_product(images, shape, s, bits)
    vec = {tuple_word(word, s, shape.n): (coeff, bound) for word, coeff in total.items()}
    out = mul_y_chains(vec, Partition(shape.stripped).conjugate(), bits)
    if any(coeff for coeff, _ in out.values()):
        return False
    widest = max((bound for _, bound in out.values()), default=0)
    if widest >> (bits - 1):
        raise _Widen(_wider(bits, widest))
    return True


def image_vector(tab):
    """The image of a tableau's map in tabloid coordinates of its type's
    module, multiplied out generator by generator."""
    _require_within_cap(tab.n)
    type_ = tab.type()
    unit = ReferenceTabloidVector(type_, {identity_perm(tab.n): LaurentPoly.one()})
    base = unit.mul_t(perm_1A(tab))
    total = ReferenceTabloidVector(type_, {})
    for d in coset_reps(row_reading_composition(tab), tab.shape):
        total = total + base.mul_t(d)
    return total


def specht_check_tabloid(comb):
    """Reference Specht test: the weighted sum of images, times the basis
    element of the shape's column-reading permutation, times the y element
    of the conjugate shape, in ``LaurentPoly`` tabloid coordinates."""
    shape = comb.shape
    if not shape.is_partition:
        raise ValueError(f"Specht modules need partition shapes, got {shape}")
    n = shape.n
    _require_within_cap(n)
    if n == 0:
        return True
    total = ReferenceTabloidVector(comb.type, {})
    for tab, coeff in comb.items():
        total = total + image_vector(tab).scale(coeff)
    if total.is_zero:
        return True
    total = total.mul_t(w_mu(shape))
    conj = Partition(shape.stripped).conjugate()
    return mul_y_blocks(total, conj).is_zero


# ---------------------------------------------------------------------------
# key translation
# ---------------------------------------------------------------------------


def word_of(d, comp):
    """The block-label word of the minimal coset representative d: entry
    v - 1 is the block of positions of d that holds v."""
    block_of = [b for b, size in enumerate(Composition(comp).parts) for _ in range(size)]
    word = [0] * len(d)
    for p, v in enumerate(d):
        word[v - 1] = block_of[p]
    return tuple(word)


def rep_of(word, comp):
    """The minimal coset representative with the given block-label word:
    each block of positions holds its values in increasing order."""
    blocks = [[] for _ in Composition(comp).parts]
    for v, b in enumerate(word, start=1):
        blocks[b].append(v)
    return tuple(v for block in blocks for v in block)


def int_word(word, s):
    """A tuple word as the library's int, with s-bit labels."""
    return sum(label << s * p for p, label in enumerate(word))


def tuple_word(word, s, n):
    """The library's int word of n positions with s-bit labels, as a
    tuple."""
    return tuple(word >> s * p & ((1 << s) - 1) for p in range(n))


def int_vector(vec, s):
    """A tuple-kernel vector in the library's form: int words, bare
    coefficients."""
    return {int_word(word, s): coeff for word, (coeff, _) in vec.items()}


def tuple_values(vec, s, n):
    """The nonzero values of a library vector, keyed by tuple words."""
    return {tuple_word(word, s, n): coeff for word, coeff in vec.items() if coeff}


def vector_of_packed(packed, comp, s, bits):
    """A library vector (int words with s-bit labels over comp's blocks,
    bare values at q = 2**bits), unpacked into coordinates keyed by d; the
    values that are 0 are left out."""
    comp = Composition(comp)
    return ReferenceTabloidVector(comp, {
        rep_of(tuple_word(word, s, comp.n), comp): _unpack(coeff, bits)
        for word, coeff in packed.items() if coeff})
