"""Hall subgroup enumeration, membership counts and cyclic-subgroup lattices.

For a prime set pi, the Hall pi-subgroups of G are ALL subgroups whose order
is the pi-part of |G|.  For a prime-power order Sylow's theorems license one
conjugacy class: the first subgroup found and its conjugates.  Every other
order takes the exhaustive search, with no conjugacy assumption; for
pi-separable groups it finds the usual single class, which the tests check.
The number tau(g) of Hall subgroups that g normalizes is a class function
of G, counted once per conjugacy class.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Sequence

from .arith import PiSet, moebius, prime_divisors
from .group import (PermGroup, close, conjugacy_classes, subgroups_of_order,
                    sylow_subgroups)
from .perm import Permutation, format_permutation


class NoHallSubgroupError(ValueError):
    """The group has no subgroup of Hall pi-order (legal for non-separable G)."""


def pi_part(order: int, pi: PiSet) -> int:
    """Largest divisor of ``order`` supported on the primes in pi."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    out = 1
    for p in pi:
        while order % p == 0:
            out *= p
            order //= p
    return out


def is_pi_number(n: int, pi: PiSet) -> bool:
    return all(p in pi for p in prime_divisors(n))


class HallContext:
    """A group, a prime set, every Hall subgroup, and the membership-count table.

    ``lam[x]`` is the number of Hall pi-subgroups containing the pi-element x;
    it is defined only on pi-elements and equals the permutation character of
    the conjugation action on the Hall set there; on all of G it is tau.
    """

    __slots__ = ("group", "pi", "hall_order", "halls", "lam", "_tau")

    def __init__(self, group: PermGroup, pi: PiSet, hall_order: int,
                 halls: Sequence[PermGroup], lam: Mapping[Permutation, int]) -> None:
        self.group = group
        self.pi = pi
        self.hall_order = hall_order
        self.halls = tuple(halls)
        self.lam = dict(lam)
        self._tau: "Dict[Permutation, int] | None" = None

    @property
    def num_halls(self) -> int:
        return len(self.halls)

    @property
    def canonical_hall(self) -> PermGroup:
        return self.halls[0]

    def lam_of(self, x: Permutation) -> int:
        """Membership count of a pi-element; querying anything else is an error."""
        try:
            return self.lam[x]
        except KeyError:
            raise ValueError(
                f"{format_permutation(x)} is not a pi-element for pi={{{self.pi}}}"
            ) from None

    def fixed_hall_counts(self) -> Dict[Permutation, int]:
        """tau(g) = number of Hall subgroups normalized by g, for every g in G,
        counted on each class's first element g: g normalizes K exactly when
        it conjugates every generator of K into K."""
        if self._tau is None:
            tau: Dict[Permutation, int] = {}
            for cls in conjugacy_classes(self.group):
                g = cls[0]
                ginv = g.inverse()
                count = sum(all(g * k * ginv in K for k in K.generators) for K in self.halls)
                tau.update(dict.fromkeys(cls, count))
            self._tau = tau
        return self._tau


def build_hall_context(G: PermGroup, pi: PiSet) -> HallContext:
    """Enumerate Hall_pi(G) and tabulate membership counts for every pi-element."""
    n = pi_part(G.order, pi)
    halls = sylow_subgroups(G, n) if len(prime_divisors(n)) == 1 else subgroups_of_order(G, n)
    if not halls:
        raise NoHallSubgroupError(
            f"group of order {G.order} has no Hall subgroup for pi={{{pi}}} "
            f"(no subgroup of order {n})")
    # Every element of a Hall subgroup is a pi-element, so counting each
    # subgroup's elements gives lam; pi-elements in no Hall subgroup get 0.
    counts = Counter(x for K in halls for x in K.elements)
    orders = G.element_orders()
    pi_orders = {k for k in set(orders) if is_pi_number(k, pi)}
    lam = {x: counts[x] for x, k in zip(G.elements, orders) if k in pi_orders}
    return HallContext(G, pi, n, halls, lam)


class CyclicLattice:
    """The poset of cyclic subgroups of a group, with its Möbius weights.

    ``mu(i, j)`` is the poset Möbius value between subgroups ``i <= j``; on
    this lattice it coincides with the number-theoretic Möbius function of
    the index.  ``weight(i)`` is the column sum f = sum_j mu(i, j).
    """

    __slots__ = ("host", "subgroups", "_sets", "_weights")

    def __init__(self, host: PermGroup, subgroups: Sequence[PermGroup]) -> None:
        self.host = host
        self.subgroups = tuple(subgroups)
        self._sets = [Z.element_set() for Z in self.subgroups]
        self._weights = [
            sum(self.mu(i, j) for j in range(len(self.subgroups)))
            for i in range(len(self.subgroups))
        ]

    def mu(self, i: int, j: int) -> int:
        if not self._sets[i] <= self._sets[j]:
            return 0
        return moebius(len(self._sets[j]) // len(self._sets[i]))

    def weight(self, i: int) -> int:
        return self._weights[i]

    def partition_identity_holds(self) -> bool:
        """|H| == sum over cyclic Z of |Z| * f(Z)."""
        return self.host.order == sum(
            Z.order * w for Z, w in zip(self.subgroups, self._weights))


def cyclic_lattice(H: PermGroup) -> CyclicLattice:
    """Build the cyclic-subgroup lattice of H."""
    seen: Dict[frozenset, PermGroup] = {}
    for h in H.elements:
        Z = close([h])
        key = Z.element_set()
        if key not in seen:
            seen[key] = Z
    ordered = sorted(seen.values(), key=PermGroup.fingerprint)
    return CyclicLattice(H, ordered)


def moebius_partition_check(H: PermGroup, gamma: Mapping[Permutation, int]) -> bool:
    """Check the Möbius-inversion product identity for a positive-valued gamma.

    The product of gamma over all of H must equal the product over cyclic
    subgroups Z of (product of gamma over Z) raised to the lattice weight
    f(Z), compared exactly in factored form.
    """
    from .arith import FactoredRational

    lhs = FactoredRational.one()
    for x in H.elements:
        lhs = lhs.times_pow(gamma[x], 1)
    lattice = cyclic_lattice(H)
    rhs = FactoredRational.one()
    for i, Z in enumerate(lattice.subgroups):
        inner = FactoredRational.one()
        for z in Z.elements:
            inner = inner.times_pow(gamma[z], 1)
        rhs = rhs.times(inner.power(lattice.weight(i)))
    return lhs == rhs


def lambda_report_lines(ctx: HallContext) -> List[str]:
    """Text report: one line per pi-element in canonical order."""
    return [f"element {r['element']} order {r['order']} lambda {r['lambda']}"
            for r in lambda_report_records(ctx)]


def lambda_report_records(ctx: HallContext) -> List[Dict[str, object]]:
    """JSON-ready report: {element, order, lambda} per pi-element."""
    return [
        {"element": format_permutation(x), "order": x.order(), "lambda": ctx.lam[x]}
        for x in sorted(ctx.lam)
    ]
