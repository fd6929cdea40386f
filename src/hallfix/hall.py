"""Hall contexts, membership counts and cyclic-subgroup lattices.

For a prime set pi, the Hall pi-subgroups of G are ALL subgroups whose order
is the pi-part of |G|, with no conjugacy assumption among them; ``hall_set``
reads them, as element-index sets, off ``group.hall_subgroups``, which G keeps
per Hall order, and a context makes groups of them only when read.  For
pi-separable groups they form the usual single class, which the tests check.
lam and tau(g), the number of Hall subgroups that g normalizes, are lists
over G's element indices, and no lookup here keys an element by its image
bytes; tau, the permutation character of G's conjugation action on the Hall
set, is counted from the orbit sizes and normalizers the enumeration hands
over, growing the normalizers when tau is first read.
The cyclic subgroups of a group are read off its power walks, each paired
with its Möbius weight; nothing here closes a generating set.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .arith import PiSet, moebius, prime_divisors
from .group import Found, PermGroup, WORK, conjugacy_classes, hall_subgroups
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
    """A group, a prime set and its Hall subgroups, with lam and tau as lists
    over the group's element indices, the one form either is kept in.

    Built with ``hall_members[k]``, the k-th Hall subgroup's element indices,
    and ``member_counts[i]``, how many hold ``elements[i]``: lam on the Hall
    subgroups, all that the product and power-sum verifiers read.  The first
    read builds and keeps ``halls``, ``lam_values`` (None off the pi-elements,
    whose orders it reads off G's power walks, not its classes),
    ``hall_orbits`` (a (size, N_G(K) element-index set) pair per conjugation
    orbit, K in it) and ``tau_values``.
    """

    def __init__(self, group: PermGroup, pi: PiSet, hall_order: int,
                 found: Sequence[Found],
                 normalizers: Callable[[], List[Tuple[int, FrozenSet[int]]]]) -> None:
        self.group, self.pi, self.hall_order = group, pi, hall_order
        self.hall_members = tuple(S for S, _ in found)
        # Every element of a Hall subgroup is a pi-element, so its count is lam.
        self.member_counts = Counter(i for S in self.hall_members for i in S)
        self._found, self._normalizers = found, normalizers
        self._additive: Dict[FrozenSet[int], Fraction] = {}  # see verify.additive_value

    @property
    def num_halls(self) -> int:
        return len(self.hall_members)

    def hall_is_cyclic(self) -> bool:
        """Whether the canonical (first) Hall subgroup has an element of the Hall
        order, read off its members' power walks, which the product makes."""
        return any(len(self.group.power_walk(i)) == self.hall_order for i in self.hall_members[0])

    def hall_is_abelian(self) -> bool:
        """Whether the canonical Hall subgroup's generators commute, as image bytes."""
        images = self.group.fingerprint()
        gens = [(images[i], bytes.maketrans(images[0], images[i])) for i in self._found[0][1]]
        return all(b.translate(table_a) == a.translate(table_b)
                   for k, (a, table_a) in enumerate(gens) for b, table_b in gens[k + 1:])

    @cached_property
    def halls(self) -> Tuple[PermGroup, ...]:
        """The Hall subgroups as groups; one that is all of G is G, which keeps its caches."""
        G = self.group
        return (G,) if self.hall_order == G.order else tuple(G.subgroup(*f) for f in self._found)

    @cached_property
    def hall_orbits(self) -> List[Tuple[int, FrozenSet[int]]]:
        WORK["hall.orbits_read"] += len(orbits := self._normalizers())
        return orbits

    @cached_property
    def lam_values(self) -> List[Optional[int]]:
        orders, counts = self.group.element_orders(), self.member_counts
        pi_orders = {k for k in set(orders) if self.pi.issuperset(prime_divisors(k))}
        return [counts[i] if k in pi_orders else None for i, k in enumerate(orders)]

    @cached_property
    def tau_values(self) -> List[int]:
        """tau(g) = number of Hall subgroups normalized by g: the permutation
        character of G's conjugation action on them.  On the orbit O of K, g
        fixes |O| |g^G & N_G(K)| / |g^G| of them (orbit-stabilizer), read off
        ``hall_orbits`` one class at a time; a remainder raises."""
        tau = [0] * self.group.order
        for cls in conjugacy_classes(self.group):
            fixed = sum(size * len(N.intersection(cls)) for size, N in self.hall_orbits)
            if fixed % len(cls):
                raise AssertionError("a class's fixed Hall count is not divisible by its size")
            for i in cls:
                tau[i] = fixed // len(cls)
        return tau


def hall_set(G: PermGroup, pi: PiSet) -> Tuple[int, Sequence[Found], Callable[[], list]]:
    """(n, Hall set, normalizers) at pi's Hall order n, as G keeps them; refuses an empty set."""
    n = pi_part(G.order, pi)
    found, normalizers = hall_subgroups(G, n)
    if not found:
        raise NoHallSubgroupError(f"group of order {G.order} has no Hall subgroup for "
                                  f"pi={{{pi}}} (no subgroup of order {n})")
    return n, found, normalizers


def build_hall_context(G: PermGroup, pi: PiSet) -> HallContext:
    """Enumerate Hall_pi(G) and count the Hall subgroups holding each member."""
    return HallContext(G, pi, *hall_set(G, pi))


def cyclic_lattice(H: PermGroup) -> List[Tuple[PermGroup, int]]:
    """The cyclic subgroups Z of H, sorted by element indices as by
    fingerprint, each with its weight f(Z) = sum of mu(|Z'| / |Z|) over the
    cyclic Z' >= Z.  On this lattice the poset Möbius function is the
    number-theoretic one of the index.  Each <h> is read off H's power walk
    of h and generated by its first h."""
    found: Dict[FrozenSet[int], int] = {}
    for i in range(H.order):
        found.setdefault(frozenset(H.power_walk(i)), i)
    return [(H.subgroup(S, (i,)), sum(moebius(len(T) // len(S)) for T in found if S <= T))
            for S, i in sorted(found.items(), key=lambda item: sorted(item[0]))]


def lambda_report_lines(ctx: HallContext) -> List[str]:
    """Text report: one line per pi-element in canonical order."""
    return [f"element {r['element']} order {r['order']} lambda {r['lambda']}"
            for r in lambda_report_records(ctx)]


def lambda_report_records(ctx: HallContext) -> List[Dict[str, object]]:
    """JSON-ready report: {element, order, lambda} per pi-element."""
    G = ctx.group
    return [{"element": format_permutation(Permutation._from_bytes(x)), "order": k, "lambda": v}
            for x, k, v in zip(G.fingerprint(), G.element_orders(), ctx.lam_values)
            if v is not None]
