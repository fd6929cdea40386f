"""Randomized differential tests against sympy, used only as a test oracle,
and against the brute-force oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")

from sympy.combinatorics import Permutation as SympyPermutation  # noqa: E402
from sympy.combinatorics import PermutationGroup  # noqa: E402

from hallfix import (NoHallSubgroupError, Permutation, PiSet, build_hall_context,  # noqa: E402
                     close, is_pi_separable, pi_part, subgroups_of_order)
from hallfix.arith import prime_divisors  # noqa: E402
from oracles import conjugated_by, is_pi_separable_direct, is_solvable  # noqa: E402


@st.composite
def generating_sets(draw, max_degree=7):
    """One to three permutations of one degree from 1 to ``max_degree``, as
    image lists."""
    degree = draw(st.integers(1, max_degree))
    return draw(st.lists(st.permutations(range(1, degree + 1)), min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(generating_sets())
def test_order_and_solvability_agree_with_sympy(gens):
    G = close([Permutation(g) for g in gens])
    S = PermutationGroup([SympyPermutation([i - 1 for i in g]) for g in gens])
    assert G.order == S.order()
    assert is_solvable(G) == S.is_solvable


@settings(max_examples=100, deadline=None)
@given(generating_sets(max_degree=6), st.data())
def test_separability_and_tau_agree_with_the_oracles(gens, data):
    # The quotient-tower oracle, the full subgroup search and the elementwise
    # tau count slow down with the group order, so composite pi, the Hall
    # set and tau are only checked up to order 120.
    G = close([Permutation(g) for g in gens])
    primes = prime_divisors(G.order)
    if not primes:
        return
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
    assert ([K.element_set() for K in ctx.halls]
            == [K.element_set() for K in subgroups_of_order(G, ctx.hall_order)])
    tau = ctx.fixed_hall_counts()
    for g in G.elements:
        assert tau[g] == sum(conjugated_by(K, g).element_set() == K.element_set()
                             for K in ctx.halls)
