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
``LaurentPoly`` is built only at the engine's edges.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

from .errors import ParseError

IntoPoly = Union["LaurentPoly", int]


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
            if coeff:
                s = acc.get(exp, 0) + coeff
                if s:
                    acc[exp] = s
                elif exp in acc:
                    del acc[exp]
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
            s = acc.get(exp, 0) + coeff
            if s:
                acc[exp] = s
            elif exp in acc:
                del acc[exp]
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
            coeff = int(m.group(1)) if m.group(1) is not None else 1
            if m.group(2) is None:
                exp = 0
            else:
                exp = int(m.group(3)) if m.group(3) is not None else 1
            s_ = acc.get(exp, 0) + sign * coeff
            if s_:
                acc[exp] = s_
            elif exp in acc:
                del acc[exp]
        return cls._raw(acc)


def _as_poly(value: IntoPoly) -> LaurentPoly:
    """A coefficient given as a Laurent polynomial or an int, as a polynomial."""
    poly = LaurentPoly._coerce(value)
    if poly is NotImplemented:
        raise TypeError(f"expected a Laurent polynomial or int, got {type(value).__name__}")
    return poly


# Cache limits.  A whole tier-1 test run leaves 11, 144 and 230 entries in
# the three caches; the limits leave room for far larger inputs (every
# binomial up to n = 62, say) while keeping memory bounded.
_FACTORIAL_CACHE_SIZE = 64
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


@lru_cache(maxsize=_FACTORIAL_CACHE_SIZE)
def quantum_factorial(n: int) -> LaurentPoly:
    """The quantum factorial [n]! = [1][2]...[n]; [0]! = 1."""
    if n < 0:
        raise ValueError(f"quantum_factorial needs n >= 0, got {n}")
    if n == 0:
        return LaurentPoly.one()
    return quantum_factorial(n - 1) * quantum_int(n)


@lru_cache(maxsize=_BINOMIAL_CACHE_SIZE)
def quantum_binomial(n: int, r: int) -> LaurentPoly:
    """The quantum binomial coefficient, computed without division.

    Uses the Pascal-type recurrence B(n, r) = B(n-1, r-1) + q^r * B(n-1, r),
    so the result is a genuine polynomial with nonnegative coefficients.
    Out-of-range r gives the zero polynomial.

    >>> str(quantum_binomial(4, 2))
    '1 + q + 2q^2 + q^3 + q^4'
    """
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
