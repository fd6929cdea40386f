"""Reference implementations and helpers shared by several test modules.

These are brute-force oracles on permutations; the package does not use them.
"""

from __future__ import annotations

import argparse
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import ceil, lcm, log2, prod

from hypothesis import strategies as st

from hallfix import (FactoredRational, PermGroup, Permutation, PiSet, close, coprime_split,
                     cyclic_lattice, format_permutation, get_entry, is_pi_separable, load_group,
                     parse_permutation, subgroups_of_order)
from hallfix.arith import factorize, prime_divisors, radical
from hallfix.cli import _COMMANDS
from hallfix.group import DEFAULT_ELEMENT_CAP, MAX_CAP, _grow, _table, conjugacy_classes


def divisors(n):
    """All divisors of ``n >= 1``, ascending, by trial division up to sqrt(n)."""
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


def moebius(n):
    """The Möbius function by trial division: 0 when a square divides n >= 1,
    else -1 to the number of primes that divide it."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def power(x, d):
    """x^d for any integer d, cycle by cycle: each point moves d steps along
    its cycle.  Independent of the group's power walks."""
    out = list(range(1, x.degree + 1))
    for cyc in x.cycles():
        for pos, point in enumerate(cyc):
            out[point - 1] = cyc[(pos + d) % len(cyc)]
    return Permutation(out)


def image_bytes(g):
    """The bytes of g's 0-based images, the form a group keeps its elements in."""
    return bytes(v - 1 for v in g.images)


class NotASubgroupError(ValueError):
    """An operand was expected to lie inside the ambient group."""


def elements(G):
    """G's elements as permutations, by element index."""
    return tuple(map(Permutation._from_bytes, G.fingerprint()))


def inverse(g):
    """g^-1, point by point."""
    inv = [0] * g.degree
    for i, v in enumerate(g.images, 1):
        inv[v - 1] = i
    return Permutation(inv)


def is_subgroup_of(H, G):
    """Whether every generator of H lies in G, on the same points."""
    return H.degree == G.degree and all(g in G for g in H.generators)


def is_normal_in(H, G):
    """Whether H <= G and g k g^-1 lies in H for each generator g of G and k
    of H: the product test, on Permutation products."""
    return is_subgroup_of(H, G) and all(
        g * k * inverse(g) in H for g in G.generators for k in H.generators)


def members_in(G, K):
    """The element indices in G of the elements of its subgroup K."""
    index = G._ensure_index()
    return frozenset(index[x] for x in K.fingerprint())


def whole_lattice(H):
    """hall.cyclic_lattice over all of H, on H's own element indices."""
    return cyclic_lattice(H, frozenset(range(H.order)))


def as_fraction(r):
    """The FactoredRational r expanded to an exact Fraction."""
    return prod((Fraction(p) ** e for p, e in r._factors), start=Fraction(1))


def group_file_text(degree, generators):
    """Group-file text for a degree and generating set, in canonical cycle notation."""
    return "".join([f"degree: {degree}\n"] + [f"gen: {format_permutation(g)}\n"
                                              for g in generators])


def corpus_split(name):
    """The coprime split of a corpus entry, as verify-nr and verify-wielandt build it."""
    return coprime_split(load_group(name), get_entry(name).scenario)


def conjugate_set(elems, g):
    """The element set g * elems * g^-1."""
    ginv = inverse(g)
    return frozenset(g * x * ginv for x in elems)


def conjugated_by(H, g):
    """The subgroup g * H * g^-1 (element-by-element, no re-closure)."""
    ginv = inverse(g)
    elems = [image_bytes(g * x * ginv) for x in elements(H)]
    gens = [g * x * ginv for x in H.generators] or [H.identity]
    return PermGroup(H.degree, gens, elems)


def conjugates(G, H):
    """All distinct conjugates g H g^-1, canonically ordered."""
    if not is_subgroup_of(H, G):
        raise NotASubgroupError("conjugates argument is not a subgroup of G")
    seen, hset = {}, frozenset(elements(H))
    for g in elements(G):
        kset = conjugate_set(hset, g)
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


def greedy_chain(degree, members):
    """The subgroup on a closed element set, generated by its greedy chain:
    each sorted element outside the subgroup that the ones before it close to."""
    elems = sorted(members)
    span, gens = close([], degree=degree), []
    for g in elems:
        if span.order == len(elems):
            break
        if g not in span:
            gens.append(g)
            span = close(gens)
    assert elements(span) == tuple(elems), "the element set is not closed"
    return span


def centralizer(G, s):
    """The subgroup of G commuting with a permutation or with every generator
    of a subgroup, by Permutation products, generated by its greedy chain: the
    oracle of group.centralizer_order, which counts it without growing it."""
    targets = [s] if isinstance(s, Permutation) else s.generators
    return greedy_chain(G.degree,
                        [x for x in elements(G) if all(x * t == t * x for t in targets)])


def centralizer_count(G, members, targets):
    """How many elements of G at the indices ``members`` commute with every
    element at ``targets``, by Permutation products: the oracle of
    group.centralizer_order."""
    elems = elements(G)
    return sum(all(elems[y] * elems[t] == elems[t] * elems[y] for t in targets)
               for y in members)


def poset_moebius(sets, i, j):
    """The Möbius function of the subgroups, given as element sets, ordered by
    inclusion, from its recursion mu(i, i) = 1 and mu(i, j) = -(sum of
    mu(i, k) over i <= k < j)."""
    if not sets[i] <= sets[j]:
        return 0
    if i == j:
        return 1
    return -sum(poset_moebius(sets, i, k) for k in range(len(sets))
                if sets[i] <= sets[k] < sets[j])


@st.composite
def random_generating_sets(draw):
    """A degree from 1 to 7 and up to three random permutations of it, as
    image lists, from a Random that Hypothesis replays and shrinks, which
    reaches more non-solvable groups in few examples than st.permutations does."""
    rng = draw(st.randoms(use_true_random=False))
    degree = rng.randint(1, 7)
    return degree, [rng.sample(range(1, degree + 1), degree) for _ in range(rng.randint(0, 3))]


def seeded_search(G, m, seed):
    """The subgroups of order m containing the subgroup ``seed``, an
    (element-index set, generator indices) pair, by the element-by-element
    search that group.hall_subgroups ran above its Sylow start before the
    Sylow joins: each chain adds to the seed's generators, one at a time, the
    least element outside the subgroup generated so far, whose order divides
    m.  A drop-in for group._sylow_joins, and the reference it is tested on."""
    index, images = G._ensure_index(), G.fingerprint()
    base, base_gens = seed
    max_gens = len(base_gens) + ceil(log2(m // len(base)))

    def extend(clo, gens, start):
        moves = [_table(images[g]) for g in gens]
        for e in range(start, G.order):
            if e in clo or m % len(G.power_walk(e)):
                continue
            new = _grow(index, images, clo, moves + [_table(images[e])], m, e)
            if new is None or m % len(new):
                continue
            if len(new) == m:
                yield new, gens + (e,)
            elif len(gens) + 1 < max_gens:
                yield from extend(new, gens + (e,), e + 1)

    yield from extend(base, base_gens, 1)


def psl2_11():
    """PSL(2,11) on the 12 points of the projective line over F11."""
    return close([parse_permutation(g, 12) for g in (
        "(2 3 4 5 6 7 8 9 10 11 12)", "(3 6 7 11 5)(4 10 12 9 8)",
        "(1 2)(3 12)(4 7)(5 9)(6 10)(8 11)")])


def proper_prime_sets(G):
    """The nonempty proper subsets of the primes dividing |G|."""
    primes = prime_divisors(G.order)
    return [PiSet(s) for k in range(1, len(primes)) for s in combinations(primes, k)]


def canonical_hall(ctx):
    """The context's first Hall subgroup as a group, made alone."""
    return ctx.group._subgroup(*ctx._found[0])


def element_order(g):
    """Least k >= 1 with g^k the identity: the lcm of the cycle lengths."""
    return lcm(*map(len, g.cycles()))


def is_cyclic(H):
    """Whether some element of H has order |H|."""
    return any(element_order(x) == H.order for x in elements(H))


def is_abelian(H):
    """Whether every element of H commutes with every generator."""
    return all(x * g == g * x for x in elements(H) for g in H.generators)


def is_solvable(G):
    """Solvable iff p-separable for every prime divisor of the order."""
    return all(is_pi_separable(G, PiSet([p])) for p in prime_divisors(G.order))


def quotient_direct(G, N):
    """Reference quotient on permutations: every element's coset action,
    through the validating Permutation constructor.  Returns the quotient
    group and the projection as an element -> coset-action dict."""
    cosets = []
    point_of = {}
    elems, normal = elements(G), elements(N)
    for x in elems:
        if x in point_of:
            continue
        cs = frozenset(n * x for n in normal)
        cosets.append(cs)
        for y in cs:
            point_of[y] = len(cosets)
    reps = [min(cs) for cs in cosets]
    mapping = {}
    for x in elems:
        xinv = inverse(x)
        mapping[x] = Permutation(point_of[rep * xinv] for rep in reps)
    q_gens = [mapping[g] for g in G.generators]
    return PermGroup(len(cosets), q_gens, {image_bytes(q) for q in mapping.values()}), mapping


#: The normal-subgroup scan enumerates class unions; guard the subset blowup.
_CLASS_SCAN_LIMIT = 20


def normal_subgroups(G):
    """Reference for the cores: all normal subgroups, as closed class unions."""
    elems = elements(G)
    classes = [[elems[i] for i in cls] for cls in conjugacy_classes(G)]
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
            out.append(close(sorted(union), degree=G.degree))
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


# The verifiers' references on permutations: powers are power(x, d), and lam
# and tau are dicts keyed by element (lam_by_element and tau_by_element).  A
# character chi and a slot weight alpha are plain dicts keyed by Permutation.

def multiplicative_value_direct(ctx, use_radical=False):
    """prod over d | n and x in H of lam(x^d)^((n/d) mu(d)), one factor at a time."""
    lam, base = lam_by_element(ctx), radical(ctx.hall_order) if use_radical else ctx.hall_order
    acc = FactoredRational.one()
    for d in divisors(base):
        for x in elements(canonical_hall(ctx)):
            acc = acc.times_pow(lam[power(x, d)], (base // d) * moebius(d))
    return acc


def power_product_pair_direct(ctx, p):
    lam, left, right = lam_by_element(ctx), 1, 1
    for x in elements(canonical_hall(ctx)):
        left *= lam[power(x, p)]
        right *= lam[x] ** p
    return left, right


# Statements of the paper that no command checks, kept for the acceptance
# criteria and the unit tests.

def totient(n):
    """Euler's totient, via the exact product formula over prime divisors."""
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


def moebius_partition_check(H, gamma):
    """Check the Möbius-inversion product identity for a positive-valued gamma.

    The product of gamma over all of H must equal the product over cyclic
    subgroups Z of (product of gamma over Z) raised to the lattice weight
    f(Z), compared exactly in factored form.
    """
    elems, lhs = elements(H), FactoredRational.one()
    for x in elems:
        lhs = lhs.times_pow(gamma[x], 1)
    rhs = FactoredRational.one()
    for Z, _, f in whole_lattice(H):
        for z in Z:
            rhs = rhs.times_pow(gamma[elems[z]], f)
    return lhs == rhs


def power_product_pair(ctx, p, hall=None):
    """The pair (prod lam(x^p), prod lam(x)^p) over a Hall subgroup's member
    set, the canonical one by default, on element indices."""
    G, lam, members = ctx.group, ctx.member_counts, hall or ctx.hall_members[0]
    assert members in ctx.hall_members, "not one of the Hall subgroups"
    left = Counter(lam[G.power_index(i, p)] for i in members)
    right = Counter(lam[i] for i in members)
    return prod(v**c for v, c in left.items()), prod(v ** (c * p) for v, c in right.items())


def power_sum_bound_holds(base, n):
    """Exactly evaluate n * sum over 1 != d | n of base^(n/d) < base^n."""
    if base < 3 or n < 2:
        raise ValueError("the bound is only claimed for base >= 3 and n >= 2")
    tail = sum(base ** (n // d) for d in divisors(n) if d != 1)
    return n * tail < base**n


def lam_by_element(ctx):
    """lam, the number of Hall subgroups holding each pi-element, keyed by element."""
    return {x: v for x, v in zip(elements(ctx.group), ctx.lam_values) if v is not None}


def tau_by_element(ctx):
    """tau, the number of Hall subgroups each element normalizes, keyed by element."""
    return dict(zip(elements(ctx.group), ctx.tau_values))


def tau_by_intersection(ctx):
    """tau as a list over element indices, one class C at a time: each orbit
    O of Hall subgroups, K in it, adds |O| |C & N_G(K)| / |C| at every
    element of C, read off the context's orbit sizes and normalizers."""
    tau = [0] * ctx.group.order
    for cls in conjugacy_classes(ctx.group):
        fixed = sum(size * len(N.intersection(cls)) for size, N in ctx.hall_orbits)
        assert fixed % len(cls) == 0, "a class's fixed Hall count is not divisible by its size"
        for i in cls:
            tau[i] = fixed // len(cls)
    return tau


def cyclic_symmetrized(chi, n, h):
    """(1/n) sum over d | n of mu(d) * chi(h^d)^(n/d)."""
    return Fraction(sum(moebius(d) * chi[power(h, d)] ** (n // d)
                        for d in divisors(n) if moebius(d)), n)


def symmetrized(alpha, chi, h):
    """(1/|A|) sum over a in A of alpha(a) * prod_i chi(h^i)^(c_i(a)), where A is
    the slot group alpha is defined on and c_i(a) counts a's length-i cycles."""
    total = 0
    for a, weight in alpha.items():
        lengths = [len(c) for c in a.cycles()]
        term = weight * chi[h] ** (a.degree - sum(lengths))
        for i in lengths:
            term *= chi[power(h, i)]
        total += term
    return Fraction(total, len(alpha))


def burnside_orbit_count(H, fixed, k):
    """Orbits of H on k-tuples under the diagonal action, (1/|H|) sum over h of
    fixed[h]^k, where fixed[h] is the number of points h fixes."""
    total = sum(fixed[h] ** k for h in elements(H))
    assert total % H.order == 0, "Burnside sum is not divisible by |H|"
    return total // H.order


def power_subgroup(H, d):
    """The subgroup of d-th powers of an abelian group."""
    return close(sorted({power(h, d) for h in elements(H)}), degree=H.degree)


def reference_parser():
    """The argparse parser that ``hallfix`` was built on, the reference for
    its own parser's fields, exit codes and help."""
    parser = argparse.ArgumentParser(
        prog="hallfix", usage="%(prog)s <command> [options]",
        description="Exact verification of Hall-subgroup fixed-point identities "
                    "on a builtin corpus of small permutation groups.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--group", help="builtin group name")
    parser.add_argument("--file", help="path to a group file")
    parser.add_argument("--pi", help="comma-separated prime list, e.g. 2,3")
    parser.add_argument("--json", action="store_true", help="emit JSON records")
    parser.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP,
                        help=f"element cap for exhaustive closure, 1 to {MAX_CAP}")
    parser.add_argument("--n", type=int, help="curiosity only: power-sum length (default: |G|)")
    parser.add_argument("--radical", action="store_true",
                        help="verify-mult only: replace the exponent base by its radical")
    return parser
