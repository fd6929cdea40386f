"""Exact number-theoretic kernels: primes, Möbius, totient, factored rationals.

Everything here is integer-exact.  Multiplicative identities are tracked as
prime-exponent vectors (FactoredRational) so that "this product equals 1"
is a syntactic emptiness check instead of a comparison of astronomically
large integers.  Additive identities use plain Python ints / Fractions,
which are arbitrary precision already.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

#: Trial division is fine at desk scale; refuse anything that would crawl.
FACTOR_LIMIT = 10**7


def is_prime(n: int) -> bool:
    """Primality through :func:`factorize`, so ``n`` above FACTOR_LIMIT raises."""
    return n > 1 and factorize(n) == {n: 1}


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization of ``n >= 1`` as a prime -> exponent dict."""
    if n < 1:
        raise ValueError(f"cannot factor non-positive integer {n}")
    if n > FACTOR_LIMIT:
        raise ValueError(f"{n} exceeds the factorization limit {FACTOR_LIMIT}")
    out: Dict[int, int] = {}
    rest = n
    for p in (2, 3):
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
    f = 5
    while f * f <= rest:
        while rest % f == 0:
            out[f] = out.get(f, 0) + 1
            rest //= f
        f += 2
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def prime_divisors(n: int) -> List[int]:
    """Ascending list of distinct prime divisors of ``n``."""
    return sorted(factorize(n))


def divisors(n: int) -> List[int]:
    """All divisors of ``n >= 1``, ascending."""
    if n < 1:
        raise ValueError(f"divisors of non-positive integer {n}")
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def moebius(n: int) -> int:
    """Number-theoretic Möbius function: 0 on non-squarefree n, else (-1)^#primes."""
    if n < 1:
        raise ValueError(f"moebius of non-positive integer {n}")
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n: int) -> int:
    """Euler's totient, via the exact product formula over prime divisors."""
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def radical(n: int) -> int:
    """Product of the distinct prime divisors of ``n`` (radical of 1 is 1)."""
    out = 1
    for p in factorize(n):
        out *= p
    return out


class PiSet(frozenset):
    """An immutable finite set of primes: a frozenset that iterates in ascending order."""

    __slots__ = ()

    def __new__(cls, primes: Iterable[int]) -> "PiSet":
        ps = frozenset(int(p) for p in primes)
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        return super().__new__(cls, ps)

    @classmethod
    def parse(cls, text: str) -> "PiSet":
        """Parse a comma-separated prime list such as ``"2,3"``."""
        parts = [part.strip() for part in text.split(",") if part.strip()]
        if not parts:
            raise ValueError("empty prime set")
        try:
            return cls(int(part) for part in parts)
        except ValueError as exc:
            raise ValueError(f"bad prime set {text!r}: {exc}") from exc

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(super().__iter__()))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self)

    def __repr__(self) -> str:
        return f"PiSet({{{self}}})"


class FactoredRational:
    """A positive rational stored as a prime -> nonzero exponent map.

    The empty map is 1.  Multiplication just adds exponent vectors, so the
    huge Möbius-weighted products in the multiplicative identities never
    materialize as integers.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors: Mapping[int, int] | Iterable[Tuple[int, int]] = ()) -> None:
        items = dict(factors)
        for p, e in items.items():
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e == 0:
                raise ValueError(f"zero exponent stored for prime {p}")
        object.__setattr__(self, "_factors", tuple(sorted(items.items())))

    @classmethod
    def one(cls) -> "FactoredRational":
        return cls()

    @classmethod
    def from_int(cls, value: int) -> "FactoredRational":
        """Exact factored form of a positive integer."""
        return cls(factorize(value))

    def factors(self) -> Dict[int, int]:
        return dict(self._factors)

    def times_pow(self, value: int, exponent: int) -> "FactoredRational":
        """Return self * value**exponent with ``value >= 1`` factored exactly."""
        if value < 1:
            raise ValueError(f"cannot multiply by power of non-positive {value}")
        if value == 1 or exponent == 0:
            return self
        acc = dict(self._factors)
        for p, e in factorize(value).items():
            new = acc.get(p, 0) + e * exponent
            if new:
                acc[p] = new
            else:
                acc.pop(p, None)
        return FactoredRational(acc)

    def times(self, other: "FactoredRational") -> "FactoredRational":
        acc = dict(self._factors)
        for p, e in other._factors:
            new = acc.get(p, 0) + e
            if new:
                acc[p] = new
            else:
                acc.pop(p, None)
        return FactoredRational(acc)

    def power(self, k: int) -> "FactoredRational":
        if k == 0:
            return FactoredRational.one()
        return FactoredRational({p: e * k for p, e in self._factors})

    def is_one(self) -> bool:
        return not self._factors

    def as_fraction(self) -> Fraction:
        """Expand to an exact Fraction (fine at desk scale)."""
        num = den = 1
        for p, e in self._factors:
            if e > 0:
                num *= p**e
            else:
                den *= p**-e
        return Fraction(num, den)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FactoredRational) and self._factors == other._factors

    def __hash__(self) -> int:
        return hash(self._factors)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FactoredRational is immutable")

    def __str__(self) -> str:
        if not self._factors:
            return "1"
        return " * ".join(f"{p}^{e}" for p, e in self._factors)

    def __repr__(self) -> str:
        return f"FactoredRational({dict(self._factors)})"
