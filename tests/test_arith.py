"""Number-theoretic kernels and exact carriers."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hallfix import FactoredRational, PiSet, divisors, moebius, totient
from hallfix.arith import factorize, is_prime, prime_divisors, radical


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(2) == -1
    assert moebius(30) == -1


def test_moebius_divisor_sums_vanish():
    for n in range(2, 1000):
        assert sum(moebius(d) for d in divisors(n)) == 0
    assert sum(moebius(d) for d in divisors(1)) == 1


def test_totient_examples():
    assert totient(12) == 4
    assert totient(1) == 1
    assert totient(30) == 8
    assert sum(30 // d * moebius(d) for d in divisors(30)) == 8


def test_totient_inversion_identity():
    # The Möbius-inverted divisor sum must agree with the product formula.
    for n in range(1, 10001):
        assert totient(n) == sum(n // d * moebius(d) for d in divisors(n))


def test_divisors_examples():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert len(divisors(60)) == 12


def test_factorize_round_trip_samples():
    for v in (2, 8, 360, 9973, 10**6, 123456):
        fac = factorize(v)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == v


@given(st.integers(1, 10**6))
def test_factorize_round_trip(v):
    prod = 1
    for p, e in factorize(v).items():
        prod *= p**e
    assert prod == v


def test_radical():
    assert radical(1) == 1
    assert radical(4) == 2
    assert radical(60) == 30
    assert prime_divisors(60) == [2, 3, 5]


def test_pi_set():
    pi = PiSet([3, 2, 3])
    assert list(pi) == [2, 3]
    assert 2 in pi and 5 not in pi
    assert PiSet.parse("2, 3") == pi
    assert str(pi) == "2,3"
    with pytest.raises(ValueError, match="not prime"):
        PiSet([4])
    with pytest.raises(ValueError):
        PiSet.parse("")
    assert repr(pi) == "PiSet({2,3})"
    # Equal sets hash alike whatever the input order, and find each other as keys.
    assert hash(PiSet([7, 2, 5])) == hash(PiSet([5, 7, 2]))
    assert {PiSet([7, 2, 5]): "x"}[PiSet.parse("5,2,7")] == "x"
    with pytest.raises(AttributeError):
        pi.primes = frozenset({5})
    # Iteration is ascending even where the plain frozenset order is not.
    assert list(frozenset({17, 3})) != [3, 17]
    assert list(PiSet([17, 3])) == [3, 17] and str(PiSet([17, 3])) == "3,17"


def test_factored_rational_examples():
    one = FactoredRational.one()
    a = one.times_pow(12, 2)
    assert a.factors() == {2: 4, 3: 2}
    b = a.times_pow(6, -2)
    assert b.factors() == {2: 2}
    assert one.times_pow(1, 12345) == one
    assert one.is_one()
    assert not FactoredRational({2: 1}).is_one()
    assert one.times_pow(625, 1).times_pow(625, -1).is_one()


def test_factored_rational_validation():
    with pytest.raises(ValueError, match="not prime"):
        FactoredRational({4: 1})
    with pytest.raises(ValueError, match="zero exponent"):
        FactoredRational({2: 0})
    with pytest.raises(ValueError):
        FactoredRational.one().times_pow(0, 2)


def test_factored_rational_algebra():
    a = FactoredRational({2: 3, 5: -1})
    assert a.power(2).factors() == {2: 6, 5: -2}
    assert a.times(a.power(-1)).is_one()
    assert a.as_fraction() == Fraction(8, 5)
    assert str(a) == "2^3 * 5^-1"
    assert str(FactoredRational.one()) == "1"


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_factored_rational_matches_fractions(a, b):
    fr = FactoredRational.from_int(a).times_pow(b, -1)
    assert fr.as_fraction() == Fraction(a, b)


@given(st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6),
       st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6))
def test_fraction_arithmetic_is_exact(x, y):
    assert (x + y) - y == x
    assert y == 0 or (x * y) / y == x
