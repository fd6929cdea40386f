"""Randomized differential tests against sympy, used only as a test oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")

from sympy.combinatorics import Permutation as SympyPermutation  # noqa: E402
from sympy.combinatorics import PermutationGroup  # noqa: E402

from hallfix import Permutation, close  # noqa: E402
from oracles import is_solvable  # noqa: E402


@st.composite
def generating_sets(draw):
    """One to three permutations of one degree from 1 to 7, as image lists."""
    degree = draw(st.integers(1, 7))
    return draw(st.lists(st.permutations(range(1, degree + 1)), min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(generating_sets())
def test_order_and_solvability_agree_with_sympy(gens):
    G = close([Permutation(g) for g in gens])
    S = PermutationGroup([SympyPermutation([i - 1 for i in g]) for g in gens])
    assert G.order == S.order()
    assert is_solvable(G) == S.is_solvable
