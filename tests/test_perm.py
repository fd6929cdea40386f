"""Cycle parsing, canonical printing and permutation arithmetic."""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from hallfix import PermParseError, Permutation, format_permutation, parse_permutation
from oracles import element_order, inverse, power


def test_parse_basic_cycles():
    g = parse_permutation("(1 2 3)(4 5)", 5)
    assert g.images == (2, 3, 1, 5, 4)


def test_parse_identity():
    g = parse_permutation("()", 4)
    assert g == Permutation.identity(4)


def test_parse_repeated_point():
    with pytest.raises(PermParseError, match="repeated"):
        parse_permutation("(1 2)(2 3)", 3)


def test_parse_out_of_range():
    with pytest.raises(PermParseError, match="out of range"):
        parse_permutation("(1 6)", 5)
    with pytest.raises(PermParseError, match="out of range"):
        parse_permutation("(0 1)", 5)


def test_parse_malformed_parens():
    with pytest.raises(PermParseError, match="unclosed"):
        parse_permutation("(1 2", 3)
    with pytest.raises(PermParseError, match="unmatched"):
        parse_permutation("(1 2))", 3)
    with pytest.raises(PermParseError, match="outside"):
        parse_permutation("1 2)", 3)
    with pytest.raises(PermParseError, match="nested"):
        parse_permutation("((1 2))", 3)
    with pytest.raises(PermParseError, match="outside"):
        parse_permutation("(1 2) 3", 3)
    with pytest.raises(PermParseError, match="empty"):
        parse_permutation("   ", 3)
    with pytest.raises(PermParseError, match="unexpected character"):
        parse_permutation("(1,2)", 3)
    # Only ASCII digits are points: a superscript two and an Arabic-Indic one.
    for text in ("(1 \u00b2)", "(\u0661 2)"):
        with pytest.raises(PermParseError, match="unexpected character"):
            parse_permutation(text, 3)


def test_parse_whitespace_insensitive():
    assert parse_permutation(" ( 1   2 3)  (4  5 ) ", 5) == parse_permutation("(1 2 3)(4 5)", 5)


def test_parse_omitted_fixed_points():
    g = parse_permutation("(2 4)", 5)
    assert g.images == (1, 4, 3, 2, 5)


def test_format_canonical():
    g = parse_permutation("(4 5)(2 3 1)", 5)
    assert format_permutation(g) == "(1 2 3)(4 5)"
    assert str(Permutation.identity(3)) == "()"


def test_multi_digit_points():
    g = parse_permutation("(10 11)", 12)
    assert g.images == (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10, 12)


@given(st.integers(1, 8).flatmap(
    lambda d: st.permutations(list(range(1, d + 1)))))
def test_print_parse_round_trip(images):
    g = Permutation(images)
    assert parse_permutation(format_permutation(g), g.degree) == g


def test_composition_order_convention():
    # (g * h)(p) == g(h(p)); the right factor acts first.
    g = parse_permutation("(1 2)", 3)
    h = parse_permutation("(2 3)", 3)
    assert (g * h).images[2 - 1] == g.images[h.images[2 - 1] - 1] == 3
    assert format_permutation(g * h) == "(1 2 3)"


def test_inverse_and_powers():
    g = parse_permutation("(1 2 3 4 5)", 5)
    assert g * inverse(g) == inverse(g) * g == Permutation.identity(5)
    assert power(g, 5) == Permutation.identity(5)
    assert power(g, -1) == inverse(g)
    assert power(g, 7) == power(g, 2) == g * g


def test_element_order_examples():
    assert element_order(parse_permutation("(1 2 3)(4 5)", 5)) == 6
    assert element_order(Permutation.identity(4)) == 1
    assert element_order(parse_permutation("(1 2 3 4 5)", 5)) == 5


def test_order_is_lcm_of_cycle_lengths():
    g = parse_permutation("(1 2)(3 4 5)(6 7 8 9)", 9)
    assert element_order(g) == 12
    ident = Permutation.identity(9)
    assert power(g, 12) == ident and power(g, 6) != ident


def test_order_matches_repeated_products():
    # Oracle: the least k with g * g * ... * g (k factors) the identity.
    for degree in range(1, 7):
        ident = Permutation.identity(degree)
        for images in permutations(range(1, degree + 1)):
            g = Permutation(images)
            power, k = g, 1
            while power != ident:
                power, k = power * g, k + 1
            assert element_order(g) == k, images


def test_bijection_validation():
    with pytest.raises(ValueError, match="bijection"):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError, match="positive"):
        Permutation([])
