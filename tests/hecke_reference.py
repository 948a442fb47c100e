"""The Specht test on ``LaurentPoly`` tabloid coordinates, as a reference.

``specht_check_tabloid`` is the test that ``heckehom.specht_check``
replaced: the same computation in the tabloid basis of the type's
permutation module, with each coordinate keyed by its minimal coset
representative d and carried as a ``LaurentPoly``.  Each generator acts by
scanning d for the values i and i + 1 (``ReferenceTabloidVector.
mul_right_gen``), images are built by multiplying generator by generator
(``image_vector``), and the y element is applied with its (-q)^(-k)
weights as they stand (``mul_y_blocks``, which works on ``HeckeElem`` too).
It shares no arithmetic with the packed kernel in the library, so the
tests (and ``scripts/sweep_*.py --reference``) compare the two.

``word_of`` and ``vector_of_packed`` translate between the library's
keys (block-label words) and the coordinates here.
"""

from heckehom import Composition, LaurentPoly, Partition, TabloidVector, reduced_word, w_mu
from heckehom.combinat import identity_perm, perm_1A, row_reading_composition
from heckehom.hecke_oracle import _add_into, _require_within_cap, coset_reps
from heckehom.qcoeff import _as_poly, _unpack

_Q_MINUS_1 = LaurentPoly.parse("q - 1")


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


def image_vector(tab):
    """image_h3 of a tableau in tabloid coordinates of its type's module,
    multiplied out generator by generator."""
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


def vector_of_packed(packed, comp, bits, shift=0):
    """A packed vector keyed by words, unpacked into coordinates keyed by d
    and multiplied by q**shift."""
    return ReferenceTabloidVector(Composition(comp), {
        rep_of(word, comp): _unpack(coeff, bits).shift(shift)
        for word, (coeff, _) in packed.items()})
