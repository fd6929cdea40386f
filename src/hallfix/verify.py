"""Exact verifiers for the fixed-point identities.

One entry point per identity: the Möbius-weighted multiplicative product over
a Hall subgroup, the Navarro-Rizo fixed-point equation for coprime p-group
actions (in cleared-exponent form), the additive non-negativity statement,
Wielandt's centralizer product, the symmetrized character construction, the
Burnside orbit-count interpretation, and the supporting power-sum inequality.
All arithmetic is exact: factored rationals for products, arbitrary-precision
Fractions for sums.  The Hall-context verifiers read lam and tau on element
indices and take powers x^d with PermGroup.power_index; a sum over G of a
class function is a class sum, sum over classes C of |C| * f(C^d).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, log10, prod
from typing import Dict, FrozenSet, Mapping, NamedTuple, Optional, Sequence, Tuple

from .arith import FactoredRational, PiSet, divisors, moebius, prime_divisors, radical
from .group import PermGroup, centralizer, conjugacy_classes, group_from_elements
from .hall import HallContext, build_hall_context, cyclic_lattice
from .perm import Permutation

#: Most decimal digits of a curiosity power sum (Python's int-to-str default).
CURIOSITY_MAX_DIGITS = 4300


class PowerSumTooLargeError(ValueError):
    """The curiosity power sum would have more than CURIOSITY_MAX_DIGITS digits."""


class CoprimeActionScenario:
    """A semidirect decomposition G = N H with coprime normal N and complement H."""

    __slots__ = ("group", "normal", "complement")

    def __init__(self, group: PermGroup, normal: PermGroup, complement: PermGroup) -> None:
        self.group, self.normal, self.complement = group, normal, complement
        G, N, H = group, normal, complement
        if not N.is_normal_in(G):
            raise ValueError("N is not a normal subgroup of G")
        if not H.is_subgroup_of(G):
            raise ValueError("H is not a subgroup of G")
        if N.order * H.order != G.order:
            raise ValueError("|N| * |H| != |G|: G is not the product N H")
        # |N ∩ H| divides both |N| and |H|, so coprime orders force N ∩ H = 1.
        if gcd(N.order, H.order) != 1:
            raise ValueError("the action is not coprime: gcd(|N|, |H|) != 1")


class CharacterTable:
    """An exact rational class function on a group, with chi(1) >= 1."""

    __slots__ = ("group", "values")

    def __init__(self, group: PermGroup, values: Mapping[Permutation, "Fraction | int"],
                 *, validate: bool = True) -> None:
        self.group = group
        self.values = {g: Fraction(v) for g, v in values.items()}
        if validate:
            missing = [g for g in group.elements if g not in self.values]
            if missing:
                raise ValueError(f"character table is missing {len(missing)} elements")
            if self.values[group.identity] < 1:
                raise ValueError("character value at the identity must be >= 1")
            for cls in conjugacy_classes(group):
                vals = {self.values[x] for x in cls}
                if len(vals) > 1:
                    raise ValueError("character table is not constant on a conjugacy class")

    def __call__(self, g: Permutation) -> Fraction:
        return self.values[g]


class SymCharSpec:
    """A permutation group A on n slots plus a rational class function on A."""

    __slots__ = ("slots_group", "alpha", "n", "cycle_counts")

    def __init__(self, slots_group: PermGroup,
                 alpha: Mapping[Permutation, "Fraction | int"]) -> None:
        self.slots_group = slots_group
        self.n = slots_group.degree
        self.alpha = {a: Fraction(v) for a, v in alpha.items()}
        for a in slots_group.elements:
            if a not in self.alpha:
                raise ValueError("alpha is not total on the slot group")
        for cls in conjugacy_classes(slots_group):
            if len({self.alpha[a] for a in cls}) > 1:
                raise ValueError("alpha is not a class function")
        self.cycle_counts = {a: a.cycle_counts() for a in slots_group.elements}
        for a, counts in self.cycle_counts.items():
            if sum(i * c for i, c in counts.items()) != self.n:
                raise AssertionError("cycle counts do not partition the slots")


def _require_member_hall(ctx: HallContext,
                         hall: Optional[PermGroup]) -> Tuple[PermGroup, FrozenSet[int]]:
    """The Hall subgroup (the canonical one by default) and its element indices."""
    for K, S in zip(ctx.halls, ctx.hall_members):
        if hall is None or hall == K:
            return K, S
    raise ValueError("the given subgroup is not one of the Hall subgroups")


def multiplicative_value(ctx: HallContext, hall: Optional[PermGroup] = None, *,
                         use_radical: bool = False) -> FactoredRational:
    """Möbius-weighted product of membership counts over a Hall subgroup.

    Runs over d | n and x in H, multiplying lam(x^d) with exponent
    (n/d) * mu(d), where n is the Hall order; the exponents are summed per
    value of lam, so each value is multiplied in once.  With ``use_radical`` the
    exponent base n is replaced by its radical; the two results are powers
    of each other, so either detects deviation from 1.
    """
    G, lam, (_, members) = ctx.group, ctx.lam_values, _require_member_hall(ctx, hall)
    base = radical(ctx.hall_order) if use_radical else ctx.hall_order
    exponents: Counter = Counter()
    for d in filter(moebius, divisors(base)):
        for v, c in Counter(lam[G.power_index(i, d)] for i in members).items():
            exponents[v] += c * (base // d) * moebius(d)
    acc = FactoredRational.one()
    for v, e in exponents.items():
        acc = acc.times_pow(v, e)
    return acc


def power_product_pair(ctx: HallContext, p: int,
                       hall: Optional[PermGroup] = None) -> Tuple[int, int]:
    """The pair (prod lam(x^p), prod lam(x)^p) over a Hall subgroup."""
    G, lam, (_, members) = ctx.group, ctx.lam_values, _require_member_hall(ctx, hall)
    left = Counter(lam[G.power_index(i, p)] for i in members)
    right = Counter(lam[i] for i in members)
    return prod(v**c for v, c in left.items()), prod(v ** (c * p) for v, c in right.items())


class NrCheckResult(NamedTuple):
    """Cleared-exponent data for the coprime fixed-point equation.

    ``fixed_order`` is |C_N(P)|.  The fractional exponents are cleared by
    raising to |P| * (p - 1): the identity asserts

        fixed_order ** (|P| * (p - 1))  ==  prod |C_N(x)|^p / prod |C_N(x^p)|

    and the membership-count form asserts prod lam(x^p) == prod lam(x)^p
    with lam(x) = |C_N(x) : C_N(P)|.
    """

    p: int
    complement_order: int
    fixed_order: int
    cleared_rhs: FactoredRational
    eq2_left: FactoredRational
    eq2_right: FactoredRational

    @property
    def cleared_lhs(self) -> FactoredRational:
        return FactoredRational.from_int(self.fixed_order).power(
            self.complement_order * (self.p - 1))

    @property
    def nr_holds(self) -> bool:
        return self.cleared_lhs == self.cleared_rhs

    @property
    def nr2_holds(self) -> bool:
        return self.eq2_left == self.eq2_right

    @property
    def holds(self) -> bool:
        return self.nr_holds and self.nr2_holds


def navarro_rizo_check(scenario: CoprimeActionScenario) -> NrCheckResult:
    """Evaluate both cleared fixed-point identities for a p-group acting coprimely."""
    N, P = scenario.normal, scenario.complement
    primes = prime_divisors(P.order)
    if len(primes) != 1:
        raise ValueError(f"the complement has order {P.order}; it is not a p-group")
    p = primes[0]

    cent = [centralizer(N, x).order for x in P.elements]
    fixed = centralizer(N, P).order

    rhs = FactoredRational.one()
    eq2_left = FactoredRational.one()
    eq2_right = FactoredRational.one()
    for i, cx in enumerate(cent):
        cxp = cent[P.power_index(i, p)]
        rhs = rhs.times_pow(cx, p).times_pow(cxp, -1)
        if cx % fixed or cxp % fixed:
            raise AssertionError("fixed subgroup does not divide a centralizer")
        eq2_left = eq2_left.times_pow(cxp // fixed, 1)
        eq2_right = eq2_right.times_pow(cx // fixed, p)
    return NrCheckResult(p, P.order, fixed, rhs, eq2_left, eq2_right)


def additive_value(ctx: HallContext, hall: Optional[PermGroup] = None) -> Fraction:
    """The Möbius-weighted power sum (1/n^2) sum_d mu(d) sum_h lam(h^d)^(n/d).

    The callers assert that this is a non-negative integer, zero exactly when
    the Hall subgroup is normal and nontrivial.
    """
    n, (_, members) = ctx.hall_order, _require_member_hall(ctx, hall)
    weights = dict.fromkeys(members, 1)
    return Fraction(_moebius_power_sum(ctx.group, ctx.lam_values, weights, n), n * n)


def sym_char_sums(ctx: HallContext) -> Tuple[int, int, Fraction]:
    """S = sum over G of tau(g)^2 and T of tau(g^2), as class sums, and the mean
    of cyclic_symmetrized_char(tau, n, h) over the canonical Hall subgroup."""
    G, tau, n = ctx.group, ctx.tau_values, ctx.hall_order
    weights, hall = _class_weights(G), dict.fromkeys(ctx.hall_members[0], 1)
    return (_power_sum(G, tau, weights, 1, 2), _power_sum(G, tau, weights, 2, 1),
            Fraction(_moebius_power_sum(G, tau, hall, n), n * n))


def _class_weights(G: PermGroup) -> Dict[int, int]:
    """Class size keyed by the index of the class's first element."""
    index = G._ensure_index()
    return {index[cls[0].images]: len(cls) for cls in conjugacy_classes(G)}


def _power_sum(G: PermGroup, f: Sequence[int], weights: Mapping[int, int],
               d: int, e: int) -> int:
    """sum over element indices i of weights[i] * f[i^d]^e, f a list over them."""
    return sum(w * f[G.power_index(i, d)] ** e for i, w in weights.items())


def _moebius_power_sum(G: PermGroup, f: Sequence[int], weights: Mapping[int, int],
                       n: int) -> int:
    """sum over d | n of mu(d) * _power_sum(G, f, weights, d, n/d), exactly."""
    return sum(moebius(d) * _power_sum(G, f, weights, d, n // d)
               for d in filter(moebius, divisors(n)))


class WielandtResult(NamedTuple):
    lhs: FactoredRational
    rhs: FactoredRational

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def wielandt_check(scenario: CoprimeActionScenario) -> WielandtResult:
    """Wielandt's coprime fixed-point product over the cyclic lattice.

    lhs = |C_N(H)| ^ |H|;  rhs = product over cyclic Z <= H of
    |C_N(Z)| ^ (|Z| * f(Z)).  (The identity is multiplicative.)
    """
    N, H = scenario.normal, scenario.complement
    lhs = FactoredRational.from_int(centralizer(N, H).order).power(H.order)
    lattice = cyclic_lattice(H)
    rhs = FactoredRational.one()
    for i, Z in enumerate(lattice.subgroups):
        rhs = rhs.times_pow(centralizer(N, Z).order, Z.order * lattice.weight(i))
    return WielandtResult(lhs, rhs)


def symmetrized_char(spec: SymCharSpec, chi: CharacterTable,
                     h: Permutation) -> Fraction:
    """The cycle-indexed symmetrization of chi at h.

    (1/|A|) sum over a in A of alpha(a) * prod_i chi(h^i)^(c_i(a)), where
    c_i(a) counts length-i cycles of a on the slots.
    """
    if h not in chi.group:
        raise ValueError("h is not in the character's group")
    A = spec.slots_group
    powers = {i: chi(h**i) for i in range(1, spec.n + 1)}
    total = Fraction(0)
    for a in A.elements:
        term = spec.alpha[a]
        for i, c in spec.cycle_counts[a].items():
            term *= powers[i] ** c
        total += term
    return total / A.order


def cyclic_symmetrized_char(chi: CharacterTable, n: int, h: Permutation) -> Fraction:
    """Specialization for a full n-cycle slot group with a faithful weight.

    (1/n) sum over d | n of mu(d) * chi(h^d)^(n/d); the per-divisor weight
    collapses to the Möbius function.
    """
    if h not in chi.group:
        raise ValueError("h is not in the character's group")
    return sum(moebius(d) * chi(h**d) ** (n // d) for d in filter(moebius, divisors(n))) / n


def burnside_orbit_count(H: PermGroup, fixed: Mapping[Permutation, int], k: int,
                         tuple_cap: Optional[int] = 10**7) -> int:
    """Orbits of H on k-tuples under the diagonal action, via fixed-point powers.

    ``fixed[h]`` is the number of points h fixes, so ``fixed[H.identity]`` is
    the number of points.  The count is (1/|H|) * sum over h of
    fixed[h]^k; no tuples are enumerated, but the nominal tuple-space size
    is still capped unless ``tuple_cap`` is None.
    """
    if k < 1:
        raise ValueError("tuple length must be positive")
    size = fixed[H.identity] ** k
    if tuple_cap is not None and size > tuple_cap:
        raise ValueError(f"tuple space of size {size} exceeds the cap {tuple_cap}")
    total = 0
    for h in H.elements:
        total += fixed[h] ** k
    if total % H.order:
        raise AssertionError("Burnside sum is not divisible by |H|")
    return total // H.order


def power_subgroup(H: PermGroup, d: int) -> PermGroup:
    """The subgroup of d-th powers of an abelian group."""
    if not H.is_abelian():
        raise ValueError("power subgroups are only formed for abelian groups")
    return group_from_elements(H.degree, {h**d for h in H.elements})


def interpretation_check(ctx: HallContext, hall: Optional[PermGroup] = None) -> bool:
    """Orbit-count decomposition of the additive value for an abelian Hall subgroup.

    Checks additive_value == (1/n) sum over d | n of mu(d) * (number of orbits
    of the d-th power subgroup H^d on Hall-set (n/d)-tuples).
    """
    H, members = _require_member_hall(ctx, hall)
    if not H.is_abelian():
        raise ValueError("the Hall subgroup is not abelian; power subgroups "
                         "are not formed here")
    G, n, tau = ctx.group, ctx.hall_order, ctx.tau_values
    total = 0
    for d in filter(moebius, divisors(n)):
        # H^d as an index set; Burnside counts its orbits from fixed points.
        Hd = {G.power_index(i, d) for i in members}
        fixed = sum(tau[i] ** (n // d) for i in Hd)
        if fixed % len(Hd):
            raise AssertionError("Burnside sum is not divisible by |H^d|")
        total += moebius(d) * fixed // len(Hd)
    return Fraction(total, n) == additive_value(ctx, H)


def power_sum_bound_holds(base: int, n: int) -> bool:
    """Exactly evaluate n * sum over 1 != d | n of base^(n/d) < base^n."""
    if base < 3 or n < 2:
        raise ValueError("the bound is only claimed for base >= 3 and n >= 2")
    tail = sum(base ** (n // d) for d in divisors(n) if d != 1)
    return n * tail < base**n


def conjugation_character(ctx: HallContext) -> CharacterTable:
    """Fixed-Hall counts as a character of the full group."""
    return CharacterTable(ctx.group, ctx.fixed_hall_counts(), validate=False)


def curiosity_value(G: PermGroup, target_pi: PiSet,
                    n: Optional[int] = None) -> Fraction:
    """Möbius-weighted power sum of the conjugation character over the whole group.

    tau counts the Hall target_pi-subgroups normalized by each element; the
    value is (1/n^2) sum over d | n of mu(d) * sum over g in G of
    tau(g^d)^(n/d), with n defaulting to |G|.  Exact; a sum of more than
    CURIOSITY_MAX_DIGITS digits raises :class:`PowerSumTooLargeError`.
    """
    tau = build_hall_context(G, target_pi).tau_values
    n = G.order if n is None else n
    if n < 1:
        raise ValueError("n must be positive")
    digits = n * log10(max(tau)) + log10(2 * G.order)
    if digits > CURIOSITY_MAX_DIGITS:
        raise PowerSumTooLargeError(f"the power sum for n={n} has about {digits:.0f} "
                                    f"digits, over the limit {CURIOSITY_MAX_DIGITS}")
    return Fraction(_moebius_power_sum(G, tau, _class_weights(G), n), n * n)
