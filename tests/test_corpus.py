"""Builtin corpus: orders, tags, frozen matrix-group generators, file format."""

from __future__ import annotations

import re

import pytest

from hallfix import (Permutation, UnknownGroupError,
                     build_hall_context, close, corpus_entries, format_permutation,
                     get_entry, is_pi_separable, load_group, parse_group_text)
from hallfix import groupio
from hallfix.groupio import MAX_DEGREE, GroupFileError, read_group_file
from oracles import corpus_split, group_file_text, is_solvable


def test_every_entry_loads_with_expected_order(groups):
    for entry in corpus_entries():
        assert groups[entry.name].order == entry.order, entry.name


def test_solvable_tags_are_consistent(groups):
    for entry in corpus_entries():
        assert is_solvable(groups[entry.name]) == entry.solvable, entry.name


def test_separability_tags_are_consistent(groups):
    for entry in corpus_entries():
        for pi in entry.check_pis:
            expected = pi in entry.separable_pis
            assert is_pi_separable(groups[entry.name], pi) == expected, (
                entry.name, str(pi))


def test_hall_count_tags_are_consistent(groups):
    for entry in corpus_entries():
        for pi, count in entry.hall_counts.items():
            ctx = build_hall_context(groups[entry.name], pi)
            assert ctx.num_halls == count, (entry.name, str(pi))


def test_scenarios_satisfy_coprime_invariants():
    for entry in corpus_entries():
        if entry.scenario is None:
            continue
        scenario = corpus_split(entry.name)  # validates in the constructor
        assert scenario.group.order == entry.order
        assert scenario.normal.order * scenario.complement.order == entry.order


def test_expected_fail_marks_are_exactly_the_documented_pairs():
    marked = [(e.name, str(pi)) for e in corpus_entries()
              for pi in e.expected_mult_fail]
    assert marked == [("A5", "2"), ("GL(3,2)", "2")]


def _vector_action_perm(matrix, vectors, labels, q):
    imgs = [0] * len(vectors)
    for v in vectors:
        w = tuple(sum(matrix[r][k] * v[k] for k in range(len(v))) % q
                  for r in range(len(v)))
        imgs[labels[v] - 1] = labels[w]
    return Permutation(imgs)


def test_sl23_generators_match_matrix_action(groups):
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    labels = {v: i + 1 for i, v in enumerate(vectors)}
    s = _vector_action_perm([[0, 2], [1, 0]], vectors, labels, 3)
    t = _vector_action_perm([[1, 1], [0, 1]], vectors, labels, 3)
    assert close([s, t]) == groups["SL(2,3)"]
    _, gens = parse_group_text(get_entry("SL(2,3)").text)
    assert set(gens) == {s, t}


def test_gl32_generators_match_matrix_action(groups):
    vectors = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)
               if (a, b, c) != (0, 0, 0)]
    labels = {v: 4 * v[0] + 2 * v[1] + v[2] for v in vectors}
    rot = _vector_action_perm([[0, 0, 1], [1, 0, 0], [0, 1, 0]], vectors, labels, 2)
    trans = _vector_action_perm([[1, 1, 0], [0, 1, 0], [0, 0, 1]], vectors, labels, 2)
    assert close([rot, trans]) == groups["GL(3,2)"]
    _, gens = parse_group_text(get_entry("GL(3,2)").text)
    assert set(gens) == {rot, trans}


def test_pgl29_generators_match_projective_line_action(groups):
    # F9 = F3[t]/(t^2 + 1); elements are pairs (x, y) meaning x + y t.
    def mul(u, v):
        return ((u[0] * v[0] - u[1] * v[1]) % 3, (u[0] * v[1] + u[1] * v[0]) % 3)

    def add(u, v):
        return ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3)

    field = [(x, y) for x in range(3) for y in range(3)]
    one, zero = (1, 0), (0, 0)
    inverse = {u: v for u in field for v in field if mul(u, v) == one}
    points = ["INF"] + field
    labels = {p: i + 1 for i, p in enumerate(points)}

    def moebius_map(a, b, c, d):
        imgs = [0] * 10
        for p in points:
            if p == "INF":
                q = "INF" if c == zero else mul(a, inverse[c])
            else:
                den = add(mul(c, p), d)
                q = "INF" if den == zero else mul(add(mul(a, p), b), inverse[den])
            imgs[labels[p] - 1] = labels[q]
        return Permutation(imgs)

    g = (1, 1)  # t + 1 generates the multiplicative group
    shift = moebius_map(one, one, zero, one)
    scale = moebius_map(g, zero, zero, one)
    flip = moebius_map(zero, one, one, zero)
    assert close([shift, scale, flip]) == groups["PGL(2,9)"]
    _, gens = parse_group_text(get_entry("PGL(2,9)").text)
    assert set(gens) == {shift, scale, flip}


def test_psl29_is_the_even_half_of_s6(groups):
    G = groups["PSL(2,9)"]
    assert G.order == 360
    assert all(_parity_even(g) for g in G.generators)


def _parity_even(g):
    transpositions = sum(len(c) - 1 for c in g.cycles())
    return transpositions % 2 == 0


def test_load_group_from_file(tmp_path):
    path = tmp_path / "tiny.grp"
    path.write_text("# one transposition\ndegree: 2\ngen: (1 2)\n")
    G = load_group(str(path))
    assert G.order == 2


def test_load_group_unknown_name():
    with pytest.raises(UnknownGroupError, match="builtins"):
        load_group("M11")


def test_group_file_round_trip(groups):
    for entry in corpus_entries():
        degree, gens = parse_group_text(entry.text)
        text = group_file_text(degree, gens)
        degree2, gens2 = parse_group_text(text)
        assert (degree, gens) == (degree2, gens2)


def test_group_file_errors(tmp_path):
    with pytest.raises(GroupFileError, match="missing degree"):
        parse_group_text("# only a comment\n")
    with pytest.raises(GroupFileError, match="gen before degree"):
        parse_group_text("gen: (1 2)\ndegree: 2\n")
    with pytest.raises(GroupFileError, match="duplicate degree"):
        parse_group_text("degree: 2\ndegree: 2\ngen: (1 2)\n")
    with pytest.raises(GroupFileError, match="missing gen"):
        parse_group_text("degree: 2\n")
    with pytest.raises(GroupFileError, match="unrecognized"):
        parse_group_text("degree: 2\nfoo: bar\n")
    with pytest.raises(GroupFileError, match="out of range"):
        parse_group_text("degree: 2\ngen: (1 3)\n")
    bad = tmp_path / "bad.grp"
    for degree in ("x", "1_0", "+7"):
        bad.write_text(f"degree: {degree}\ngen: (1 2)\n")
        with pytest.raises(GroupFileError, match=re.escape(f"line 1: bad degree {degree!r}")):
            read_group_file(bad)


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_group_file_matches_the_text_mode_reader(tmp_path, newline, final_newline):
    # The text-mode reader, with its universal newlines, is the oracle.
    path = tmp_path / "g.grp"
    for entry in corpus_entries():
        lines = entry.text.splitlines() + ["", "# trailing comment", "gen: ()"]
        path.write_bytes((newline.join(lines) + newline * final_newline).encode("ascii"))
        assert read_group_file(path) == parse_group_text(path.read_text(encoding="ascii")), \
            entry.name


def test_degree_over_the_limit_is_refused_before_any_tuple(monkeypatch):
    def no_tuples(spec, degree):
        raise AssertionError("a permutation was parsed")

    monkeypatch.setattr(groupio, "parse_permutation", no_tuples)
    for degree in (MAX_DEGREE + 1, 10**8):
        with pytest.raises(GroupFileError, match=f"line 2: degree {degree} is over the limit"):
            parse_group_text(f"# S3\ndegree: {degree}\ngen: (1 2 3)\ngen: (1 2)\n")


def test_small_group_at_the_degree_limit_parses():
    assert max(parse_group_text(entry.text)[0] for entry in corpus_entries()) < MAX_DEGREE
    degree, gens = parse_group_text(f"degree: {MAX_DEGREE}\ngen: (1 2 3)\ngen: (1 2)\n")
    assert degree == MAX_DEGREE
    assert close(gens, degree=degree).order == 6


def test_canonical_printing_is_bit_exact():
    # Cycles by least moved point, points separated by single spaces.
    _, gens = parse_group_text(get_entry("F21").text)
    assert [format_permutation(g) for g in gens] == ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]
