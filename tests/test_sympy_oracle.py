"""Randomized differential tests against sympy, used only as a test oracle,
and against the brute-force oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")

from sympy.combinatorics import Permutation as SympyPermutation  # noqa: E402
from sympy.combinatorics import PermutationGroup  # noqa: E402

from hallfix import (NoHallSubgroupError, Permutation, PiSet, build_hall_context,  # noqa: E402
                     centralizer_order, close, is_pi_separable, pi_part, subgroups_of_order)
from hallfix.arith import prime_divisors  # noqa: E402
from hallfix.group import conjugacy_classes  # noqa: E402
from oracles import (conjugated_by, element_order, is_pi_separable_direct,  # noqa: E402
                     is_solvable, power, tau_by_element)


@st.composite
def generating_sets(draw, max_degree=7):
    """One to three uniformly random permutations of one degree from 2 to
    ``max_degree``, as image lists, the first of them not the identity, so
    that no draw closes to the trivial group, which would check nothing.
    They come from a Random that Hypothesis replays and shrinks, which reaches
    more non-solvable groups at the example counts below than st.permutations
    does."""
    rng = draw(st.randoms(use_true_random=False))
    points = list(range(1, rng.randint(2, max_degree) + 1))
    first = points
    while first == points:
        first = rng.sample(points, len(points))
    return [first] + [rng.sample(points, len(points)) for _ in range(rng.randint(0, 2))]


@settings(max_examples=40, deadline=None)
@given(generating_sets())
def test_order_and_solvability_agree_with_sympy(gens):
    G = close([Permutation(g) for g in gens])
    S = PermutationGroup([SympyPermutation([i - 1 for i in g]) for g in gens])
    assert G.order == S.order()
    assert is_solvable(G) == S.is_solvable


@settings(max_examples=30, deadline=None)
@given(generating_sets(max_degree=6))
def test_power_walks_and_classes_agree_with_sympy(gens):
    # Powers read off the cached cyclic walks against the cycle-wise power,
    # for every exponent up to ord(x) + 1 and one far past it; the element
    # orders, read per class, against sympy's order of each element; the
    # class sizes against sympy's conjugacy classes.
    G = close([Permutation(g) for g in gens])
    orders = G.element_orders()
    for i, x in enumerate(G.elements):
        assert orders[i] == SympyPermutation([v - 1 for v in x.images]).order(), x
        for d in [*range(element_order(x) + 2), 10**6 + 7]:
            assert G.elements[G.power_index(i, d)] == power(x, d), (x, d)
    S = PermutationGroup([SympyPermutation([i - 1 for i in g]) for g in gens])
    assert (sorted(len(c) for c in conjugacy_classes(G))
            == sorted(len(c) for c in S.conjugacy_classes()))


@settings(max_examples=100, deadline=None)
@given(generating_sets(max_degree=6), st.data())
def test_separability_and_tau_agree_with_the_oracles(gens, data):
    # The quotient-tower oracle, the full subgroup search and the elementwise
    # tau count slow down with the group order, so composite pi, the Hall
    # set and tau are only checked up to order 120.
    G = close([Permutation(g) for g in gens])
    primes = prime_divisors(G.order)
    small = G.order <= 120
    pi = PiSet(data.draw(st.lists(st.sampled_from(primes), min_size=1,
                                  max_size=len(primes) if small else 1, unique=True)))
    assert is_pi_separable(G, pi) == is_pi_separable_direct(G, pi)
    if not small:
        return
    try:
        ctx = build_hall_context(G, pi)
    except NoHallSubgroupError:
        assert subgroups_of_order(G, pi_part(G.order, pi)) == []
        return
    assert ([frozenset(K.elements) for K in ctx.halls]
            == [frozenset(K.elements) for K in subgroups_of_order(G, ctx.hall_order)])
    tau = tau_by_element(ctx)
    for g in G.elements:
        assert tau[g] == sum(frozenset(conjugated_by(K, g).elements) == frozenset(K.elements)
                             for K in ctx.halls)


@settings(max_examples=25, deadline=None)
@given(generating_sets(max_degree=6))
def test_sylow_counts_and_centralizers_agree_with_sympy(gens):
    # The Sylow p-subgroup count of the Hall enumeration against the distinct
    # conjugates of sympy's Sylow subgroup; |C_G(x)| for the first element x
    # of each class against sympy's centralizer and against |G| / |x^G|.
    G = close([Permutation(g) for g in gens])
    S = PermutationGroup([SympyPermutation([i - 1 for i in g]) for g in gens])
    for p in prime_divisors(G.order):
        sylow = list(S.sylow_subgroup(p).elements)
        conjugates = {frozenset(x ^ g for x in sylow) for g in S.elements}
        assert build_hall_context(G, PiSet([p])).num_halls == len(conjugates), p
    for cls in conjugacy_classes(G):
        x = G.elements[cls[0]]
        order = centralizer_order(G, x)
        assert order == S.centralizer(SympyPermutation([i - 1 for i in x.images])).order(), x
        assert order * len(cls) == G.order, x
