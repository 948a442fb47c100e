"""Exact Laurent polynomials in q and the quantum integers built from them.

Everything in this module is integer-exact: coefficients are arbitrary
precision Python ints, exponents may be negative, and no operation ever
divides.  Quantum binomial coefficients are produced by the Pascal-type
recurrence, so they stay polynomial by construction.

Inside the straightening engine a coefficient is packed into one int, its
value at q = 2**bits (Kronecker substitution): evaluation is a ring map, so
products and sums of packed ints are exact, and they run as single C
big-int operations.  A polynomial with no negative exponents is read back
from its packed value by balanced base-2**bits digits, which is exact as
long as every coefficient lies below 2**(bits - 1) in absolute value; the
engine keeps an upper bound on each coefficient's L1 norm to know that.
``LaurentPoly`` is built only at the engine's edges.  The Specht test of
the brute-force model (``hecke_oracle.specht_check``) packs its
coefficients the same way, and both start at the same width and widen by
the same rule (``_START_BITS``, ``_wider``) in the same restart loop
(``_widening``, which reruns a computation that raised ``_Widen``).

The sums of ``LaurentPoly`` terms, of linear combinations of tableaux and
of Hecke algebra elements add into their dicts with one helper,
``_add_into``, which drops an entry that cancels.  The product of two
``LaurentPoly`` keeps its own loop: it is the inner loop of the
standard-basis model in the tests.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import index
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, TypeVar, Union

from .errors import ParseError

if TYPE_CHECKING:
    from fractions import Fraction

IntoPoly = Union["LaurentPoly", int]


def _add_into(acc: dict, key: object, value: IntoPoly) -> None:
    """Add value (an int or a ``LaurentPoly``) to the entry at key,
    dropping the entry if the sum cancels."""
    total = acc.get(key)
    total = value if total is None else total + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


class LaurentPoly:
    """An integer Laurent polynomial in the single variable q.

    Instances are immutable and hashable.  The zero polynomial has no
    terms.

    >>> p = LaurentPoly({0: 1, 1: 1})
    >>> str(p * p)
    '1 + 2q + q^2'
    >>> str(LaurentPoly.monomial(-2) + 1)
    'q^-2 + 1'
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            _add_into(acc, index(exp), index(coeff))
        self._terms = acc

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "LaurentPoly":
        # internal: trusted, already-normalized term dict
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        """The single term coeff * q**exponent."""
        exponent, coeff = index(exponent), index(coeff)
        return cls._raw({exponent: coeff} if coeff else {})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self) -> list[tuple[int, int]]:
        """Term list sorted by ascending exponent."""
        return sorted(self._terms.items())

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._terms)

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._terms)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(value: IntoPoly) -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly._raw({0: value} if value else {})
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: IntoPoly) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = dict(self._terms)
        for exp, coeff in other._terms.items():
            _add_into(acc, exp, coeff)
        return LaurentPoly._raw(acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: IntoPoly) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: IntoPoly) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: IntoPoly) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return LaurentPoly._raw({})
        if len(b) == 1:
            (exp, coeff), = b.items()
            return self._shift_scale(exp, coeff)
        if len(a) == 1:
            (exp, coeff), = a.items()
            return other._shift_scale(exp, coeff)
        acc: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        return LaurentPoly._raw(acc)

    __rmul__ = __mul__

    def _shift_scale(self, exponent: int, coeff: int) -> "LaurentPoly":
        if coeff == 1 and exponent == 0:
            return self
        return LaurentPoly._raw({e + exponent: c * coeff for e, c in self._terms.items()})

    def shift(self, exponent: int) -> "LaurentPoly":
        """Multiply by q**exponent."""
        exponent = index(exponent)
        if exponent == 0:
            return self
        return LaurentPoly._raw({e + exponent: c for e, c in self._terms.items()})

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly._coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int, so it must hash like it; zero is 0.
        terms = self._terms
        if not terms.keys() - {0}:
            return hash(terms.get(0, 0))
        return hash(tuple(sorted(terms.items())))

    # -- specialization -----------------------------------------------------

    def specialize(self, value: Fraction | int | str) -> Fraction:
        """Evaluate at a nonzero rational q, exactly.

        >>> LaurentPoly.parse("q^-1").specialize(2)
        Fraction(1, 2)
        """
        # Imported here: fractions (with decimal) is slow to import, and
        # only this and the CLI's --q use it.
        from fractions import Fraction

        v = Fraction(value)
        if v == 0:
            raise ValueError("cannot specialize at q = 0: negative exponents occur")
        total = Fraction(0)
        for exp, coeff in self._terms.items():
            total += coeff * v**exp
        return total

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exp in sorted(self._terms):
            coeff = self._terms[exp]
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                var = "q" if exp == 1 else f"q^{exp}"
                body = var if mag == 1 else f"{mag}{var}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly.parse({str(self)!r})"

    _TERM_RE = re.compile(r"^(\d+)?\s*\*?\s*(q(?:\^(-?\d+))?)?$")

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Inverse of str(): accepts terms like '1 + q - q^3' or 'q^-2 + 1'.

        >>> LaurentPoly.parse("1 + q - q^3").items()
        [(0, 1), (1, 1), (3, -1)]
        """
        s = text.strip()
        if not s:
            raise ParseError("empty polynomial")
        # split on +/- signs that do not directly follow '^';
        # terms land at even indices, signs at odd indices
        chunks = re.split(r"(?<!\^)([+-])", s)
        acc: dict[int, int] = {}
        sign = 1
        start = 0
        if chunks[0].strip() == "":
            if len(chunks) == 1:
                raise ParseError(f"cannot parse polynomial: {text!r}")
            sign = -1 if chunks[1] == "-" else 1
            start = 2
        for idx in range(start, len(chunks)):
            piece = chunks[idx].strip()
            if idx % 2 == 1:
                sign = -1 if piece == "-" else 1
                continue
            if piece == "":
                raise ParseError(f"cannot parse polynomial: {text!r}")
            m = cls._TERM_RE.match(piece)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ParseError(f"bad polynomial term {piece!r} in {text!r}")
            try:
                coeff = int(m.group(1) or 1)
                exp = 0 if m.group(2) is None else int(m.group(3) or 1)
            except ValueError as exc:  # only a number past the integer digit limit
                raise ParseError(f"bad polynomial term: {exc}") from exc
            _add_into(acc, exp, sign * coeff)
        return cls._raw(acc)


def _as_poly(value: IntoPoly) -> LaurentPoly:
    """A coefficient given as a Laurent polynomial or an int, as a polynomial."""
    poly = LaurentPoly._coerce(value)
    if poly is NotImplemented:
        raise TypeError(f"expected a Laurent polynomial or int, got {type(value).__name__}")
    return poly


# Cache limits.  A whole tier-1 test run leaves 144 and 230 entries in
# the two caches; the limits leave room for far larger inputs (every
# binomial up to n = 62, say) while keeping memory bounded.
_BINOMIAL_CACHE_SIZE = 2048
_PACKED_BINOMIAL_CACHE_SIZE = 4096


def quantum_int(n: int) -> LaurentPoly:
    """The quantum integer [n] = 1 + q + ... + q^(n-1); [0] = 0.

    >>> str(quantum_int(4))
    '1 + q + q^2 + q^3'
    """
    if n < 0:
        raise ValueError(f"quantum_int needs n >= 0, got {n}")
    return LaurentPoly._raw({i: 1 for i in range(n)})


# typed: a float equal to a cached int must not find the int's entry
@lru_cache(maxsize=_BINOMIAL_CACHE_SIZE, typed=True)
def quantum_binomial(n: int, r: int) -> LaurentPoly:
    """The quantum binomial coefficient, computed without division.

    Uses the Pascal-type recurrence B(n, r) = B(n-1, r-1) + q^r * B(n-1, r),
    so the result is a genuine polynomial with nonnegative coefficients.
    Out-of-range r gives the zero polynomial.

    >>> str(quantum_binomial(4, 2))
    '1 + q + 2q^2 + q^3 + q^4'
    """
    n, r = index(n), index(r)
    if n < 0:
        raise ValueError(f"quantum_binomial needs n >= 0, got {n}")
    if r < 0 or r > n:
        return LaurentPoly.zero()
    if r == 0 or r == n:
        return LaurentPoly.one()
    return quantum_binomial(n - 1, r - 1) + quantum_binomial(n - 1, r).shift(r)


# ---------------------------------------------------------------------------
# packed coefficients: values at q = 2**bits
# ---------------------------------------------------------------------------

# Packing width a computation starts at; it restarts wider when a
# coefficient's norm bound outgrows the width.
_START_BITS = 64

# The widest span of exponents over a combination's coefficients that
# specht_check or the straightening engine packs: the oracle benchmark's
# three degree-8 combinations, each widened to span 1000, check in 0.04 s
# in total with a 28 MB peak (Python 3.11, 2-vCPU VM), while a span of 10^8
# exhausts memory.
MAX_EXPONENT_SPAN = 1000


def _lowest_exponent(coeffs: Iterable[LaurentPoly]) -> int:
    """The smallest exponent over nonzero coefficients, whose exponents
    must span at most ``MAX_EXPONENT_SPAN`` (ValueError otherwise), so that
    each shifted by it packs into a bounded int."""
    coeffs = list(coeffs)
    low = min(coeff.min_exponent() for coeff in coeffs)
    span = max(coeff.max_exponent() for coeff in coeffs) - low
    if span > MAX_EXPONENT_SPAN:
        raise ValueError(f"the coefficients' exponents span {span}, "
                         f"more than the limit {MAX_EXPONENT_SPAN}")
    return low


def _wider(bits: int, bound: int) -> int:
    """The width to restart at once a norm bound has reached 2**(bits - 1).

    At least double the width, so that a computation restarts only a few
    times: widening to just past the bound restarted one straightening of a
    coefficient 10**30 q^-3 five times (64, 102, 104, 106, 108 bits).
    """
    return max(2 * bits, bound.bit_length() + 2)


class _Widen(Exception):
    """A norm bound reached 2**(bits - 1), so the width can no longer
    certify a zero or an unpacking; bits is the width to restart at."""

    def __init__(self, bits: int):
        super().__init__(bits)
        self.bits = bits


_T = TypeVar("_T")


def _widening(run: Callable[[int], _T]) -> _T:
    """run(bits) at width _START_BITS, restarted at the width each _Widen
    asks for until it finishes."""
    bits = _START_BITS
    while True:
        try:
            return run(bits)
        except _Widen as exc:
            bits = exc.bits


def _norm(poly: LaurentPoly) -> int:
    """The L1 norm of poly's coefficients."""
    return sum(abs(c) for c in poly._terms.values())


def _pack(poly: LaurentPoly, bits: int) -> int:
    """poly at q = 2**bits; poly must have no negative exponents."""
    return sum(coeff << bits * exp for exp, coeff in poly._terms.items())


def _unpack(value: int, bits: int) -> LaurentPoly:
    """The polynomial whose value at q = 2**bits is value and whose
    coefficients all lie below 2**(bits - 1) in absolute value."""
    terms: dict[int, int] = {}
    width, half, mask = 1 << bits, 1 << (bits - 1), (1 << bits) - 1
    exp = 0
    while value:
        digit = value & mask
        if digit >= half:
            digit -= width
        if digit:
            terms[exp] = digit
        value = (value - digit) >> bits
        exp += 1
    return LaurentPoly._raw(terms)


@lru_cache(maxsize=_PACKED_BINOMIAL_CACHE_SIZE)
def _packed_binomial(n: int, r: int, bits: int) -> int:
    """quantum_binomial(n, r) at q = 2**bits."""
    return _pack(quantum_binomial(n, r), bits)
