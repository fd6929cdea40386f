"""Reference implementations shared by several test modules.

These are brute-force oracles on permutations; the package does not use them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from hallfix import (FactoredRational, NotASubgroupError, PermGroup, Permutation, PiSet, close,
                     divisors, is_pi_separable, moebius, parse_permutation, subgroups_of_order)
from hallfix.arith import prime_divisors, radical
from hallfix.group import conjugacy_classes, group_from_elements


def conjugate_set(elems, g):
    """The element set g * elems * g^-1."""
    ginv = g.inverse()
    return frozenset(g * x * ginv for x in elems)


def conjugated_by(H, g):
    """The subgroup g * H * g^-1 (element-by-element, no re-closure)."""
    ginv = g.inverse()
    elems = [g * x * ginv for x in H.elements]
    gens = [g * x * ginv for x in H.generators] or [H.identity]
    return PermGroup(H.degree, gens, elems)


def conjugates(G, H):
    """All distinct conjugates g H g^-1, canonically ordered."""
    if not H.is_subgroup_of(G):
        raise NotASubgroupError("conjugates argument is not a subgroup of G")
    seen = {}
    for g in G.elements:
        kset = conjugate_set(H.element_set(), g)
        if kset not in seen:
            seen[kset] = conjugated_by(H, g)
    return sorted(seen.values(), key=PermGroup.fingerprint)


@lru_cache(maxsize=None)
def s5_subgroup_classes():
    """Every subgroup of S5 from the full search, and one representative per
    conjugacy class in search order."""
    S5 = close([parse_permutation("(1 2 3 4 5)", 5), parse_permutation("(1 2)", 5)])
    subgroups = [H for m in divisors(S5.order) for H in subgroups_of_order(S5, m)]
    reps, seen = [], set()
    for H in subgroups:
        if H not in seen:
            reps.append(H)
            seen.update(conjugates(S5, H))
    return subgroups, reps


def proper_prime_sets(G):
    """The nonempty proper subsets of the primes dividing |G|."""
    primes = prime_divisors(G.order)
    return [PiSet(s) for k in range(1, len(primes)) for s in combinations(primes, k)]


def is_solvable(G):
    """Solvable iff p-separable for every prime divisor of the order."""
    return all(is_pi_separable(G, PiSet([p])) for p in prime_divisors(G.order))


def quotient_direct(G, N):
    """Reference quotient on permutations: every element's coset action,
    through the validating Permutation constructor.  Returns the quotient
    group and the projection as an element -> coset-action dict."""
    cosets = []
    point_of = {}
    for x in G.elements:
        if x in point_of:
            continue
        cs = frozenset(n * x for n in N.elements)
        cosets.append(cs)
        for y in cs:
            point_of[y] = len(cosets)
    reps = [min(cs) for cs in cosets]
    mapping = {}
    for x in G.elements:
        xinv = x.inverse()
        mapping[x] = Permutation(point_of[rep * xinv] for rep in reps)
    q_gens = [mapping[g] for g in G.generators]
    return PermGroup(len(cosets), q_gens, set(mapping.values())), mapping


#: The normal-subgroup scan enumerates class unions; guard the subset blowup.
_CLASS_SCAN_LIMIT = 20


def normal_subgroups(G):
    """Reference for the cores: all normal subgroups, as closed class unions."""
    classes = conjugacy_classes(G)
    rest = classes[1:]
    if len(rest) > _CLASS_SCAN_LIMIT:
        raise RuntimeError(
            f"normal-subgroup scan over {len(rest)} conjugacy classes is out of "
            "desk-scale range")
    out = []
    for mask in range(1 << len(rest)):
        size = 1
        members = [classes[0]]
        for bit, cls in enumerate(rest):
            if mask >> bit & 1:
                size += len(cls)
                members.append(cls)
        if G.order % size:
            continue
        union = frozenset(x for cls in members for x in cls)
        # A conjugation-closed candidate is a subgroup iff one representative
        # per member class maps the candidate into itself.
        if all(all(cls[0] * x in union for x in union) for cls in members):
            out.append(group_from_elements(G.degree, union))
    return sorted(out, key=lambda H: (H.order, H.fingerprint()))


def is_pi(n, pi):
    return all(p in pi for p in prime_divisors(n))


def is_pi_prime(n, pi):
    return not any(p in pi for p in prime_divisors(n))


def is_pi_separable_direct(G, pi):
    """Reference: G is pi-separable iff it is trivial, or it has a nontrivial
    normal pi- or pi'-subgroup N and G/N is pi-separable."""
    if G.order == 1:
        return True
    return any(is_pi_separable_direct(quotient_direct(G, N)[0], pi)
               for N in normal_subgroups(G)[1:]
               if is_pi(N.order, pi) or is_pi_prime(N.order, pi))


# The verifiers' references on permutations: powers are x**d, and lam and tau
# are dicts keyed by element (ctx.lam and tau_by_element).  A character chi
# and a slot weight alpha are plain dicts keyed by Permutation.

def multiplicative_value_direct(ctx, use_radical=False):
    """prod over d | n and x in H of lam(x^d)^((n/d) mu(d)), one factor at a time."""
    lam, base = ctx.lam, radical(ctx.hall_order) if use_radical else ctx.hall_order
    acc = FactoredRational.one()
    for d in divisors(base):
        for x in ctx.canonical_hall.elements:
            acc = acc.times_pow(lam[x**d], (base // d) * moebius(d))
    return acc


def power_product_pair_direct(ctx, p):
    lam, left, right = ctx.lam, 1, 1
    for x in ctx.canonical_hall.elements:
        left *= lam[x**p]
        right *= lam[x] ** p
    return left, right


def tau_by_element(ctx):
    """tau, the number of Hall subgroups each element normalizes, keyed by element."""
    return dict(zip(ctx.group.elements, ctx.tau_values))


def cyclic_symmetrized(chi, n, h):
    """(1/n) sum over d | n of mu(d) * chi(h^d)^(n/d)."""
    return Fraction(sum(moebius(d) * chi[h**d] ** (n // d) for d in divisors(n) if moebius(d)), n)


def symmetrized(alpha, chi, h):
    """(1/|A|) sum over a in A of alpha(a) * prod_i chi(h^i)^(c_i(a)), where A is
    the slot group alpha is defined on and c_i(a) counts a's length-i cycles."""
    total = 0
    for a, weight in alpha.items():
        lengths = [len(c) for c in a.cycles()]
        term = weight * chi[h] ** (a.degree - sum(lengths))
        for i in lengths:
            term *= chi[h**i]
        total += term
    return Fraction(total, len(alpha))


def burnside_orbit_count(H, fixed, k):
    """Orbits of H on k-tuples under the diagonal action, (1/|H|) sum over h of
    fixed[h]^k, where fixed[h] is the number of points h fixes."""
    total = sum(fixed[h] ** k for h in H.elements)
    assert total % H.order == 0, "Burnside sum is not divisible by |H|"
    return total // H.order


def power_subgroup(H, d):
    """The subgroup of d-th powers of an abelian group."""
    return group_from_elements(H.degree, {h**d for h in H.elements})
