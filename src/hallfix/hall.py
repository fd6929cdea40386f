"""Hall contexts, membership counts and cyclic-subgroup lattices.

For a prime set pi, the Hall pi-subgroups of G are ALL subgroups whose order
is the pi-part of |G|, with no conjugacy assumption among them; ``hall_set``
reads them, as element-index sets, off ``group.hall_subgroups``, which G keeps
per Hall order, and a context makes groups of them only when read.  For
pi-separable groups they form the usual single class, which the tests check.
lam and tau(g), the number of Hall subgroups that g normalizes, are lists
over G's element indices; no lookup here keys an element by its image bytes.
tau, the permutation character of G's conjugation action on the Hall set, is
counted, when first read, from the orbit sizes and normalizers the enumeration
hands over.  A context keeps what the verifiers share: the Möbius pairs of the
Hall order and, per (Hall subgroup, d), the d-th-power table and its lam
totals.  The cyclic subgroups of a subgroup of G are read off G's power
walks as member sets, each with a generator index and its Möbius weight;
nothing here closes a generating set.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .arith import PiSet, pi_part, squarefree_divisors
from .group import Found, PermGroup, WORK, conjugacy_classes, hall_subgroups
# Not called here: perfbench's tracer and its tests bind this name in every
# module that imported it.
from .group import subgroups_of_order  # noqa: F401
from .perm import Permutation, format_permutation


class NoHallSubgroupError(ValueError):
    """The group has no subgroup of Hall pi-order (legal for non-separable G)."""


class HallContext:
    """A group, a prime set and its Hall subgroups, with lam and tau as lists
    over the group's element indices, the one form either is kept in.

    Built with ``hall_members[k]``, the k-th Hall subgroup's element indices,
    ``member_counts[i]``, how many hold ``elements[i]`` (lam on the Hall
    subgroups), and ``moebius_pairs``, the (d, mu(d)) of the Hall order.  The
    first read builds and keeps ``halls``, ``lam_values`` (None off the
    pi-elements, whose orders it reads off G's power walks, not its classes),
    ``hall_orbits`` (a (size, N_G(K) index set) pair per orbit) and ``tau_values``.
    """

    def __init__(self, group: PermGroup, pi: PiSet, hall_order: int,
                 found: Sequence[Found],
                 normalizers: Callable[[], List[Tuple[int, FrozenSet[int]]]]) -> None:
        self.group, self.pi, self.hall_order = group, pi, hall_order
        self.hall_members = tuple(S for S, _ in found)
        self.moebius_pairs = squarefree_divisors(hall_order)  # (d, mu(d)) for the Hall checks
        # Every element of a Hall subgroup is a pi-element, so its count is lam.
        self.member_counts = Counter(chain.from_iterable(self.hall_members))
        self._found, self._normalizers = found, normalizers
        self._additive: Dict[FrozenSet[int], Fraction] = {}  # see verify.additive_value
        self._powers: Dict[Tuple[FrozenSet[int], int], Dict[int, int]] = {}
        self._lam_totals: Dict[Tuple[FrozenSet[int], int], Dict[int, int]] = {}

    @property
    def num_halls(self) -> int:
        return len(self.hall_members)

    def power_table(self, members: FrozenSet[int], d: int) -> Dict[int, int]:
        """How many of a Hall subgroup's ``members`` x have x^d = j, by j; kept."""
        if (members, d) not in self._powers:
            ones = dict.fromkeys(members, 1)  # the table at d = 1
            self._powers[members, d] = ones if d == 1 else self.group.power_counts(ones, d)
        return self._powers[members, d]

    def lam_totals(self, members: FrozenSet[int], d: int) -> Dict[int, int]:
        """How many of a Hall subgroup's ``members`` x have lam(x^d) = v, by v; kept."""
        if (members, d) not in self._lam_totals:
            self._lam_totals[members, d] = by_value(self.member_counts, self.power_table(members, d))
        return self._lam_totals[members, d]

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
        return (G,) if self.hall_order == G.order else tuple(G._subgroup(*f) for f in self._found)

    @cached_property
    def hall_orbits(self) -> List[Tuple[int, FrozenSet[int]]]:
        orbits = self._normalizers()
        WORK["hall.orbits_read"] = WORK.get("hall.orbits_read", 0) + len(orbits)
        return orbits

    @cached_property
    def lam_values(self) -> List[Optional[int]]:
        # An element order divides |G|, so it is a pi-number if it divides |G|_pi.
        orders, counts, n = self.group.element_orders(), self.member_counts, self.hall_order
        return [counts[i] if n % k == 0 else None for i, k in enumerate(orders)]

    @cached_property
    def tau_values(self) -> List[int]:
        """tau(g) = number of Hall subgroups normalized by g: the permutation
        character of G's conjugation action on them.  On the orbit O of K, g fixes
        |O| |g^G & N_G(K)| / |g^G| of them: one pass adds |O| over each N_G(K) of
        ``hall_orbits``, then each class shares its total out; a remainder raises."""
        tau = [0] * self.group.order
        for size, N in self.hall_orbits:
            for i in N:
                tau[i] += size
        for cls in conjugacy_classes(self.group):
            fixed = sum(map(tau.__getitem__, cls))
            if fixed % len(cls):
                raise AssertionError("a class's fixed Hall count is not divisible by its size")
            for i in cls:
                tau[i] = fixed // len(cls)
        return tau


def by_value(f: Sequence[int], counts: Mapping[int, int]) -> Dict[int, int]:
    """The total of counts[j] per value f[j], over the element indices j of ``counts``."""
    totals: Dict[int, int] = {}
    for j, c in counts.items():
        totals[f[j]] = totals.get(f[j], 0) + c
    return totals


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


def cyclic_lattice(G: PermGroup, members: FrozenSet[int]) -> List[Tuple[FrozenSet[int], int, int]]:
    """The cyclic subgroups Z of the subgroup of G on the element indices
    ``members``, sorted by element indices, each as (member set, generator
    index, f(Z)) with the weight f(Z) = sum of mu(|Z'| / |Z|) over the cyclic
    Z' >= Z.  On this lattice the poset Möbius function is the
    number-theoretic one of the index, read off the pairs (d, mu(d)) of the
    subgroup's order.  Each <h> is read off G's power walk of h and generated
    by its least h."""
    found: Dict[FrozenSet[int], int] = {}
    for i in sorted(members):
        found.setdefault(frozenset(G.power_walk(i)), i)
    mu = dict(squarefree_divisors(len(members)))
    return [(S, i, sum(mu.get(len(T) // len(S), 0) for T in found if S <= T))
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
