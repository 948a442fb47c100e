"""Laurent polynomial arithmetic and the quantum combinatorial numbers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heckehom import (
    HeckeElem,
    LaurentPoly,
    LinComb,
    parse_tableau,
    quantum_binomial,
    quantum_factorial,
    quantum_int,
)

from .strategies import laurent_polys


def poly(text):
    return LaurentPoly.parse(text)


class TestArithmetic:
    def test_zero_and_one(self):
        assert LaurentPoly.zero() + LaurentPoly.one() == LaurentPoly.one()
        assert not LaurentPoly.zero()
        assert LaurentPoly.one()

    def test_int_coercion(self):
        assert poly("q") + 1 == poly("1 + q")
        assert 2 * poly("q") == poly("2q")
        assert poly("q") - 1 == poly("-1 + q")

    def test_negative_exponents(self):
        p = LaurentPoly.monomial(-2) + 1
        assert str(p) == "q^-2 + 1"
        assert p.min_exponent() == -2
        assert p.max_exponent() == 0

    def test_constants_hash_like_ints(self):
        assert {1: "a"}.get(LaurentPoly.one()) == "a"
        assert {LaurentPoly.zero(): "z"}[0] == "z"
        for value in (-7, 0, 1, 10**30):
            assert hash(LaurentPoly.monomial(0, value)) == hash(value)
            assert LaurentPoly.monomial(0, value) == value
        assert len({LaurentPoly.parse("q"), LaurentPoly.parse("q"), 1, LaurentPoly.one()}) == 2

    def test_shift(self):
        assert poly("1 + q").shift(2) == poly("q^2 + q^3")
        assert poly("q^2").shift(-2) == LaurentPoly.one()

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero() == a
        assert a * LaurentPoly.one() == a
        assert a - a == LaurentPoly.zero()

    @given(laurent_polys())
    def test_parse_str_round_trip(self, p):
        assert LaurentPoly.parse(str(p)) == p

    def test_pinned_strings(self):
        assert str(poly("1 + q - q^3")) == "1 + q - q^3"
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.monomial(-1, -1)) == "-q^-1"

    def test_parse_errors(self):
        for bad in ("q + + q", "2x", "", "q^"):
            with pytest.raises(ValueError):
                LaurentPoly.parse(bad)

    @given(laurent_polys(), laurent_polys(),
           st.sampled_from([Fraction(1), Fraction(2), Fraction(-2),
                            Fraction(1, 2), Fraction(-1)]))
    def test_specialize_is_ring_map(self, a, b, q0):
        assert (a + b).specialize(q0) == a.specialize(q0) + b.specialize(q0)
        assert (a * b).specialize(q0) == a.specialize(q0) * b.specialize(q0)

    def test_specialize_rejects_zero(self):
        with pytest.raises(ValueError):
            LaurentPoly.monomial(-1).specialize(Fraction(0))


class TestQuantumNumbers:
    def test_quantum_int_pinned(self):
        assert quantum_int(0) == LaurentPoly.zero()
        assert quantum_int(1) == LaurentPoly.one()
        assert quantum_int(4) == poly("1 + q + q^2 + q^3")

    def test_quantum_factorial_pinned(self):
        assert quantum_factorial(0) == LaurentPoly.one()
        assert quantum_factorial(3) == quantum_int(1) * quantum_int(2) * quantum_int(3)

    def test_quantum_binomial_pinned(self):
        assert quantum_binomial(4, 2) == poly("1 + q + 2q^2 + q^3 + q^4")
        assert quantum_binomial(5, 0) == LaurentPoly.one()
        assert quantum_binomial(5, 5) == LaurentPoly.one()
        assert quantum_binomial(3, 4) == LaurentPoly.zero()

    def test_binomial_times_factorials_is_factorial(self):
        for n in range(0, 11):
            for r in range(0, n + 1):
                lhs = (quantum_binomial(n, r) * quantum_factorial(r)
                       * quantum_factorial(n - r))
                assert lhs == quantum_factorial(n), (n, r)

    def test_binomial_symmetry(self):
        for n in range(0, 9):
            for r in range(0, n + 1):
                assert quantum_binomial(n, r) == quantum_binomial(n, n - r)

    def test_binomial_counts_at_one(self):
        from math import comb
        for n in range(0, 9):
            for r in range(0, n + 1):
                value = quantum_binomial(n, r).specialize(Fraction(1))
                assert value == comb(n, r)


def test_coefficients_must_be_polynomials_or_ints():
    message = "expected a Laurent polynomial or int, got str"
    with pytest.raises(TypeError, match=message):
        LinComb.single(parse_tableau("1"), "q")
    with pytest.raises(TypeError, match=message):
        HeckeElem(1, {(1,): "q"})
