"""Exact verifiers for the fixed-point identities.

One entry point per identity: the Möbius-weighted multiplicative product over
a Hall subgroup, the Navarro-Rizo fixed-point equation for coprime p-group
actions (in cleared-exponent form), the additive non-negativity statement,
Wielandt's centralizer product, the sums behind the symmetrized conjugation
character and the Burnside orbit-count interpretation.  All arithmetic is
exact: factored rationals for products, arbitrary-precision Fractions for
sums.  The Hall-context verifiers read lam and tau on element indices and
what the context keeps for all of them: the pairs (d, mu(d)) of the Hall
order, and per (Hall subgroup, d) the count of members with each d-th power
and, shared by the two lam checks, its lam totals.  The coprime checks count
each centralizer order once per split.  The tests keep the references.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from math import gcd, log10
from typing import Callable, Dict, FrozenSet, Mapping, NamedTuple, Optional, Sequence, Tuple

from .arith import FactoredRational, PiSet, prime_divisors, radical, squarefree_divisors
from .group import PermGroup, centralizer_order, conjugacy_classes
from .hall import HallContext, by_value, cyclic_lattice, hall_set

#: Most decimal digits of a curiosity power sum (Python's int-to-str default).
CURIOSITY_MAX_DIGITS = 4300


class PowerSumTooLargeError(ValueError):
    """The curiosity power sum would have more than CURIOSITY_MAX_DIGITS digits."""


class CoprimeActionScenario:
    """A semidirect decomposition G = N H with coprime normal N and complement H."""

    __slots__ = ("group", "normal", "complement", "centralizer_orders")

    def __init__(self, group: PermGroup, normal: PermGroup, complement: PermGroup) -> None:
        self.group, self.normal, self.complement = group, normal, complement
        self.centralizer_orders: Dict[object, int] = {}  # see centralizer_order
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

    def centralizer_order(self, s: object) -> int:
        """|C_N(s)| for s an element of the complement H, or H; counted once and kept."""
        if s not in self.centralizer_orders:
            self.centralizer_orders[s] = centralizer_order(self.normal, s)
        return self.centralizer_orders[s]


def coprime_split(G: PermGroup, pi: PiSet) -> CoprimeActionScenario:
    """G = N H for the first Hall pi-subgroup H and the first Hall pi'-subgroup
    N, pi' the primes of |G|/|H|, read off the Hall sets that G keeps.

    By Schur-Zassenhaus the complements of a normal Hall subgroup N are the
    Hall pi-subgroups, all conjugate, and N is the only subgroup of its order;
    the constructor refuses an N that is not normal."""
    H = G.subgroup(*hall_set(G, pi)[1][0])
    pi_prime = PiSet(prime_divisors(G.order // H.order))
    return CoprimeActionScenario(G, G.subgroup(*hall_set(G, pi_prime)[1][0]), H)


def _hall_members(ctx: HallContext, hall: Optional[PermGroup]) -> FrozenSet[int]:
    """The element indices of a Hall subgroup, the canonical one by default."""
    members = (ctx.hall_members[0] if hall is None
               else frozenset(map(ctx.group._ensure_index().get, hall.fingerprint())))
    if members not in ctx.hall_members:
        raise ValueError("the given subgroup is not one of the Hall subgroups")
    return members


def multiplicative_value(ctx: HallContext, hall: Optional[PermGroup] = None, *,
                         use_radical: bool = False) -> FactoredRational:
    """Möbius-weighted product of membership counts over a Hall subgroup.

    Runs over d | n and x in H, multiplying lam(x^d) with exponent
    (n/d) * mu(d), where n is the Hall order; the exponents are summed per
    value of lam, so each value is multiplied in once.  With ``use_radical`` the
    exponent base n is replaced by its radical, over the same pairs (d, mu(d));
    the two results are powers of each other, so either detects deviation from 1.
    """
    members = _hall_members(ctx, hall)
    base = radical(ctx.hall_order) if use_radical else ctx.hall_order
    exponents: Dict[int, int] = {}
    for d, mu in ctx.moebius_pairs:
        for v, c in ctx.lam_totals(members, d).items():
            exponents[v] = exponents.get(v, 0) + c * (base // d) * mu
    return _product(exponents)


def _product(exponents: Mapping[int, int]) -> FactoredRational:
    """prod of v ** e over the items (v, e), each v factored once."""
    return reduce(lambda acc, ve: acc.times_pow(*ve), exponents.items(), FactoredRational.one())


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
    P = scenario.complement
    primes = prime_divisors(P.order)
    if len(primes) != 1:
        raise ValueError(f"the complement has order {P.order}; it is not a p-group")
    p = primes[0]

    cent = [scenario.centralizer_order(x) for x in P.elements]
    fixed = scenario.centralizer_order(P)
    rhs, eq2_left, eq2_right = {}, {}, {}  # exponents, totalled per order
    for i, cx in enumerate(cent):
        cxp = cent[P.power_index(i, p)]
        if cx % fixed or cxp % fixed:
            raise AssertionError("fixed subgroup does not divide a centralizer")
        for totals, v, e in ((rhs, cx, p), (rhs, cxp, -1), (eq2_left, cxp // fixed, 1),
                             (eq2_right, cx // fixed, p)):
            totals[v] = totals.get(v, 0) + e
    return NrCheckResult(p, P.order, fixed, *map(_product, (rhs, eq2_left, eq2_right)))


def additive_value(ctx: HallContext, hall: Optional[PermGroup] = None) -> Fraction:
    """The Möbius-weighted power sum (1/n^2) sum_d mu(d) sum_h lam(h^d)^(n/d),
    computed once per Hall subgroup and kept on the context.

    The callers assert that this is a non-negative integer, zero exactly when
    the Hall subgroup is normal and nontrivial.
    """
    n, members = ctx.hall_order, _hall_members(ctx, hall)
    if members not in ctx._additive:
        power_sum = _moebius_power_sum(partial(ctx.lam_totals, members), ctx.moebius_pairs, n)
        ctx._additive[members] = Fraction(power_sum, n * n)
    return ctx._additive[members]


def sym_char_sums(ctx: HallContext) -> Tuple[int, int, Fraction]:
    """S = sum over G of tau(g)^2 and T of tau(g^2), as class sums, and the mean
    over the canonical Hall subgroup of the cyclic symmetrization of tau,
    (1/n) sum over d | n of mu(d) * tau(h^d)^(n/d)."""
    G, tau, n, H = ctx.group, ctx.tau_values, ctx.hall_order, ctx.hall_members[0]
    weights, hall = _class_weights(G), lambda d: by_value(tau, ctx.power_table(H, d))
    return (_power_sum(tau, weights, 2), _power_sum(tau, G.power_counts(weights, 2), 1),
            Fraction(_moebius_power_sum(hall, ctx.moebius_pairs, n), n * n))


def _class_weights(G: PermGroup) -> Dict[int, int]:
    """Class size keyed by the index of the class's first element."""
    return {cls[0]: len(cls) for cls in conjugacy_classes(G)}


def _power_sum(f: Sequence[int], counts: Mapping[int, int], e: int) -> int:
    """sum over element indices j of counts[j] * f[j]^e, f a list over them."""
    return sum(c * v ** e for v, c in by_value(f, counts).items())


def _moebius_power_sum(totals: Callable[[int], Mapping[int, int]],
                       pairs: Sequence[Tuple[int, int]], n: int) -> int:
    """sum over the pairs (d, mu(d)) of n of mu(d) * sum of c v^(n/d) over totals(d)'s (v, c)."""
    return sum(mu * sum(c * v ** (n // d) for v, c in totals(d).items()) for d, mu in pairs)


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
    H = scenario.complement
    lhs = FactoredRational.from_int(scenario.centralizer_order(H)).power(H.order)
    exponents: Dict[int, int] = {}
    for Z, f in cyclic_lattice(H):
        c = scenario.centralizer_order(Z.generators[0])  # C_N(<g>) = C_N(g)
        exponents[c] = exponents.get(c, 0) + Z.order * f
    return WielandtResult(lhs, _product(exponents))


def interpretation_check(ctx: HallContext) -> bool:
    """Orbit-count decomposition of the additive value for an abelian Hall subgroup.

    Checks, on the canonical Hall subgroup H, additive_value == (1/n) sum over
    d | n of mu(d) * (number of orbits of H^d on Hall-set (n/d)-tuples).
    """
    if not ctx.hall_is_abelian():
        raise ValueError("the Hall subgroup is not abelian; power subgroups "
                         "are not formed here")
    n, tau, total = ctx.hall_order, ctx.tau_values, 0
    for d, mu in ctx.moebius_pairs:
        # H^d is the key set of H's d-th-power table; Burnside counts its orbits.
        Hd = dict.fromkeys(ctx.power_table(ctx.hall_members[0], d), 1)
        fixed = _power_sum(tau, Hd, n // d)
        if fixed % len(Hd):
            raise AssertionError("Burnside sum is not divisible by |H^d|")
        total += mu * fixed // len(Hd)
    return Fraction(total, n) == additive_value(ctx)


def curiosity_value(ctx: HallContext, n: Optional[int] = None) -> Fraction:
    """Möbius-weighted power sum of the conjugation character over the whole group.

    tau counts the context's Hall subgroups normalized by each element of G;
    the value is (1/n^2) sum over d | n of mu(d) * sum over g in G of
    tau(g^d)^(n/d), with n defaulting to |G|.  Exact; a sum of more than
    CURIOSITY_MAX_DIGITS digits raises :class:`PowerSumTooLargeError`.
    """
    G, tau = ctx.group, ctx.tau_values
    weights, n = _class_weights(G), G.order if n is None else n
    if n < 1:
        raise ValueError("n must be positive")
    digits = n * log10(max(tau)) + log10(2 * G.order)
    if digits > CURIOSITY_MAX_DIGITS:
        raise PowerSumTooLargeError(f"the power sum for n={n} has about {digits:.0f} "
                                    f"digits, over the limit {CURIOSITY_MAX_DIGITS}")
    return Fraction(_moebius_power_sum(lambda d: by_value(tau, G.power_counts(weights, d)),
                                       squarefree_divisors(n), n), n * n)
