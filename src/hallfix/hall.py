"""Hall subgroup enumeration, membership counts and cyclic-subgroup lattices.

For a prime set pi, the Hall pi-subgroups of G are ALL subgroups whose order
is the pi-part of |G|.  One enumeration serves every pi, with no conjugacy
assumption among them: each contains a conjugate of one fixed Sylow
subgroup, so they are the conjugation orbits of the subgroups of that order
containing it.  For pi-separable groups that is the usual single class,
which the tests check.
lam and tau(g), the number of Hall subgroups that g normalizes, are lists
over G's element indices; tau is a class function, counted once per class.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .arith import PiSet, moebius, prime_divisors
from .group import PermGroup, close, conjugacy_classes, hall_subgroups
# Not called here: perfbench's tracer and its tests bind this name in every
# module that imported it.
from .group import subgroups_of_order  # noqa: F401
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


class HallContext:
    """A group, a prime set, every Hall subgroup, and lam and tau as lists over
    the group's element indices.

    ``lam_values[i]`` is the number of Hall pi-subgroups containing the
    pi-element ``elements[i]`` (None off the pi-elements), and ``tau_values[i]``
    the number that ``elements[i]`` normalizes; the two agree on pi-elements.
    ``hall_members[k]`` is the element-index set of ``halls[k]``.  The
    element-keyed ``lam``, ``lam_of`` and ``fixed_hall_counts`` are built on
    request.
    """

    __slots__ = ("group", "pi", "hall_order", "halls", "hall_members", "lam_values", "_tau")

    def __init__(self, group: PermGroup, pi: PiSet, hall_order: int,
                 halls: Tuple[PermGroup, ...], hall_members: Tuple[FrozenSet[int], ...],
                 lam_values: List[Optional[int]]) -> None:
        self.group = group
        self.pi = pi
        self.hall_order = hall_order
        self.halls = halls
        self.hall_members = hall_members
        self.lam_values = lam_values
        self._tau: Optional[List[int]] = None

    @property
    def num_halls(self) -> int:
        return len(self.halls)

    @property
    def canonical_hall(self) -> PermGroup:
        return self.halls[0]

    @property
    def lam(self) -> Mapping[Permutation, int]:
        """lam keyed by pi-element, in the group's element order: a read-only
        view of a dict built from ``lam_values`` on every read."""
        return MappingProxyType({x: v for x, v in zip(self.group.elements, self.lam_values)
                                 if v is not None})

    def lam_of(self, x: Permutation) -> int:
        """Membership count of a pi-element; querying anything else is an error."""
        i = self.group._ensure_index().get(x.images)
        if i is None or self.lam_values[i] is None:
            raise ValueError(
                f"{format_permutation(x)} is not a pi-element for pi={{{self.pi}}}")
        return self.lam_values[i]

    @property
    def tau_values(self) -> List[int]:
        """tau(g) = number of Hall subgroups normalized by g, counted on each
        class's first element g: g normalizes K exactly when it conjugates
        every generator of K into K."""
        if self._tau is None:
            index, tau = self.group._ensure_index(), [0] * self.group.order
            for cls in conjugacy_classes(self.group):
                g = cls[0]
                ginv = g.inverse()
                count = sum(all(index[(g * k * ginv).images] in S for k in K.generators)
                            for K, S in zip(self.halls, self.hall_members))
                for x in cls:
                    tau[index[x.images]] = count
            self._tau = tau
        return self._tau

    def fixed_hall_counts(self) -> Dict[Permutation, int]:
        """tau keyed by element."""
        return dict(zip(self.group.elements, self.tau_values))


def build_hall_context(G: PermGroup, pi: PiSet) -> HallContext:
    """Enumerate Hall_pi(G) and tabulate membership counts for every pi-element."""
    n = pi_part(G.order, pi)
    halls = hall_subgroups(G, n)
    if not halls:
        raise NoHallSubgroupError(
            f"group of order {G.order} has no Hall subgroup for pi={{{pi}}} "
            f"(no subgroup of order {n})")
    index = G._ensure_index()
    members = tuple(frozenset([index[x.images] for x in K.elements]) for K in halls)
    # Every element of a Hall subgroup is a pi-element, so counting each
    # subgroup's elements gives lam; pi-elements in no Hall subgroup get 0.
    counts = Counter(i for S in members for i in S)
    orders = G.element_orders()
    pi_orders = {k for k in set(orders) if pi.issuperset(prime_divisors(k))}
    lam = [counts[i] if k in pi_orders else None for i, k in enumerate(orders)]
    return HallContext(G, pi, n, tuple(halls), members, lam)


class CyclicLattice:
    """The poset of cyclic subgroups of a group, with its Möbius weights.

    ``mu(i, j)`` is the poset Möbius value between subgroups ``i <= j``; on
    this lattice it coincides with the number-theoretic Möbius function of
    the index, and ``i <= j`` is decided on subgroup ``i``'s generators.
    ``weight(i)`` is the column sum f = sum_j mu(i, j).
    """

    __slots__ = ("host", "subgroups", "_weights")

    def __init__(self, host: PermGroup, subgroups: Sequence[PermGroup]) -> None:
        self.host = host
        self.subgroups = tuple(subgroups)
        self._weights = [
            sum(self.mu(i, j) for j in range(len(self.subgroups)))
            for i in range(len(self.subgroups))
        ]

    def mu(self, i: int, j: int) -> int:
        Zi, Zj = self.subgroups[i], self.subgroups[j]
        return moebius(Zj.order // Zi.order) if Zi.is_subgroup_of(Zj) else 0

    def weight(self, i: int) -> int:
        return self._weights[i]

    def partition_identity_holds(self) -> bool:
        """|H| == sum over cyclic Z of |Z| * f(Z)."""
        return self.host.order == sum(
            Z.order * w for Z, w in zip(self.subgroups, self._weights))


def cyclic_lattice(H: PermGroup) -> CyclicLattice:
    """Build the cyclic-subgroup lattice of H."""
    seen: Dict[Tuple[Tuple[int, ...], ...], PermGroup] = {}
    for h in H.elements:
        Z = close([h])
        seen.setdefault(Z.fingerprint(), Z)
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
    G = ctx.group
    return [{"element": format_permutation(x), "order": k, "lambda": v}
            for x, k, v in zip(G.elements, G.element_orders(), ctx.lam_values) if v is not None]
