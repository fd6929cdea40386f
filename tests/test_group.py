"""Structural queries on permutation groups, against brute-force oracles."""

from __future__ import annotations

import gc
from itertools import combinations
from math import ceil, log2

import pytest
from hypothesis import given, settings, strategies as st

from hallfix import (CapExceededError, NoHallSubgroupError, NotASubgroupError,
                     PiSet, Permutation, build_hall_context,
                     burnside_orbit_count, centralizer, close, core_pi,
                     is_pi_separable, multiplicative_value, parse_permutation,
                     subgroups_of_order, trivial_group)
from hallfix import group as group_mod
from hallfix.arith import divisors, prime_divisors
from hallfix.cli import add_record
from hallfix.group import (DEFAULT_ELEMENT_CAP, FiniteAction, PermGroup, conjugacy_classes,
                           core_pi_complement, group_from_elements, hall_subgroups)
from hallfix.hall import pi_part
from hallfix.reports import PASS
from oracles import (conjugate_set, conjugates, is_pi, is_pi_prime, is_pi_separable_direct,
                     normal_subgroups, proper_prime_sets, quotient_direct, s5_subgroup_classes)


def P(text, degree):
    return parse_permutation(text, degree)


def _subgroup_search_direct(G, m):
    """Reference search on permutations: re-closes every canonical generating
    chain from the identity and hands each subgroup to group_from_elements."""
    ident = G.identity
    candidates = [g for g in G.elements if g != ident and m % g.order() == 0]
    max_gens = ceil(log2(m))
    out = []

    def closure(gens):
        seen = {ident}
        queue = [ident]
        while queue:
            x = queue.pop()
            for g in gens:
                y = x * g
                if y not in seen:
                    if len(seen) >= m:
                        return None
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

    def extend(clo, gens, start):
        for pos in range(start, len(candidates)):
            e = candidates[pos]
            if e in clo:
                continue
            new = closure(gens + (e,))
            if new is None or m % len(new):
                continue
            if min(new - clo) != e:
                continue
            if len(new) == m:
                out.append(group_from_elements(G.degree, new))
            elif len(gens) + 1 < max_gens:
                extend(new, gens + (e,), pos + 1)

    extend(frozenset({ident}), (), 0)
    return sorted(out, key=PermGroup.fingerprint)


def _close_direct(generators, *, degree=None, cap=DEFAULT_ELEMENT_CAP):
    """Reference closure on permutations: breadth-first products x * g from
    the identity, one Permutation per product."""
    gens = list(generators)
    if gens:
        deg = gens[0].degree
        if any(g.degree != deg for g in gens):
            raise ValueError("generators must share one degree")
        if degree is not None and degree != deg:
            raise ValueError(f"declared degree {degree} != generator degree {deg}")
    else:
        if degree is None:
            raise ValueError("degree is required for an empty generating set")
        deg = degree

    ident = Permutation.identity(deg)
    seen = {ident}
    queue = [ident]
    while queue:
        x = queue.pop()
        for g in gens:
            y = x * g
            if y not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(
                        f"closure exceeds the element cap {cap}; "
                        "the group is too large for exhaustive mode")
                seen.add(y)
                queue.append(y)
    return PermGroup(deg, gens or [ident], seen)


@st.composite
def _generating_sets(draw):
    """A degree from 1 to 7 and up to three permutations of it, as image lists."""
    degree = draw(st.integers(1, 7))
    return degree, draw(st.lists(st.permutations(range(1, degree + 1)), max_size=3))


def test_close_matches_direct_closure(groups):
    for name, G in groups.items():
        expect = _close_direct(G.generators)
        found = close(G.generators)
        assert found.elements == expect.elements, name
        assert found.generators == expect.generators, name


@settings(max_examples=40, deadline=None)
@given(_generating_sets())
def test_close_matches_direct_closure_on_random_generators(drawn):
    degree, images = drawn
    gens = [Permutation(g) for g in images]
    expect = _close_direct(gens, degree=degree)
    found = close(gens, degree=degree)
    assert found.elements == expect.elements
    assert found.generators == expect.generators


@pytest.mark.parametrize("name", ["S3", "A5"])
def test_close_cap_boundary(groups, name):
    G = groups[name]
    assert close(G.generators, cap=G.order).elements == G.elements
    with pytest.raises(CapExceededError):
        close(G.generators, cap=G.order - 1)


def test_close_of_degree_one_is_trivial():
    ident = Permutation.identity(1)
    for G in (close([], degree=1), close([ident])):
        assert G.elements == (ident,) and G.generators == (ident,)


def test_close_a5():
    G = close([P("(1 2 3 4 5)", 5), P("(3 4 5)", 5)])
    assert G.order == 60


def test_close_empty_and_s3():
    assert close([], degree=3).order == 1
    assert close([P("(1 2)", 3), P("(1 2 3)", 3)]).order == 6


def test_close_cap():
    with pytest.raises(CapExceededError):
        close([P("(1 2 3 4 5 6 7)", 7), P("(1 2)", 7)], cap=100)


def test_close_mismatched_degrees():
    with pytest.raises(ValueError, match="share one degree"):
        close([P("(1 2)", 2), P("(1 2)", 3)])


def test_elements_are_canonically_sorted():
    G = close([P("(1 2)", 3), P("(1 2 3)", 3)])
    assert list(G.elements) == sorted(G.elements)
    assert G.identity == Permutation.identity(3)
    assert G.elements[0] == G.identity


def test_closed_group_order_divides_symmetric_group_order(groups):
    from math import factorial

    for G in groups.values():
        assert factorial(G.degree) % G.order == 0


def test_lagrange_for_all_produced_subgroups(groups):
    for name in ("S4", "A5", "SL(2,3)"):
        G = groups[name]
        for m in (1, 2, 3, 4):
            if G.order % m:
                continue
            for H in subgroups_of_order(G, m):
                assert G.order % H.order == 0
                assert H.is_subgroup_of(G)


def test_centralizer_examples(groups):
    S3 = groups["S3"]
    c = centralizer(S3, P("(1 2 3)", 3))
    assert c.order == 3 and P("(1 2 3)", 3) in c
    assert centralizer(S3, Permutation.identity(3)).order == 6
    N = close([P("(1 2 3)", 6), P("(4 5 6)", 6)])
    assert centralizer(N, P("(5 6)", 6)).order == 3


def test_centralizer_degree_mismatch():
    with pytest.raises(NotASubgroupError):
        centralizer(close([P("(1 2)", 2)]), P("(1 2)", 3))


def normalizer(G, H):
    """Subgroup {g in G : g H g^-1 = H}."""
    if not H.is_subgroup_of(G):
        raise NotASubgroupError("normalizer argument is not a subgroup of G")
    hset = H.element_set()
    elems = [g for g in G.elements if conjugate_set(hset, g) == hset]
    return group_from_elements(G.degree, elems)


def kernel(G, proj, Q):
    """The elements of G that ``proj`` sends to the identity of Q."""
    return group_from_elements(G.degree, (x for x in G.elements if proj[x] == Q.identity))


def is_homomorphism(G, proj):
    """Full table check that proj(x * y) == proj(x) * proj(y)."""
    return all(proj[x * y] == proj[x] * proj[y] for x in G.elements for y in G.elements)


def test_normalizer_examples(groups):
    A5 = groups["A5"]
    V = subgroups_of_order(A5, 4)[0]
    norm = normalizer(A5, V)
    assert norm.order == 12
    assert normalizer(A5, A5) == A5
    S3 = groups["S3"]
    H = close([P("(1 2)", 3)])
    assert normalizer(S3, H) == H


def test_normalizer_requires_subgroup(groups):
    with pytest.raises(NotASubgroupError):
        normalizer(groups["S3"], close([P("(1 2 3 4)", 4)]))


def test_conjugates_examples(groups):
    A5 = groups["A5"]
    V = subgroups_of_order(A5, 4)[0]
    conj = conjugates(A5, V)
    assert len(conj) == 5
    assert len(conj) * normalizer(A5, V).order == A5.order
    A3 = close([P("(1 2 3)", 3)])
    assert conjugates(groups["S3"], A3) == [A3]
    assert len(conjugates(groups["S3"], close([P("(1 2)", 3)]))) == 3


def test_conjugate_count_times_normalizer_is_order(groups):
    for name, m in (("S4", 8), ("A5", 4), ("SL(2,3)", 3), ("F21", 3)):
        G = groups[name]
        for H in subgroups_of_order(G, m):
            assert len(conjugates(G, H)) * normalizer(G, H).order == G.order


def _oracle_subgroups(G, m, max_gens=3):
    """Independent oracle: close every subset of up to ``max_gens`` elements.

    Uses its own from-scratch index table, not the library's closure path.
    """
    elems = list(G.elements)
    pos = {g: i for i, g in enumerate(elems)}
    table = [[pos[a * b] for b in elems] for a in elems]
    ident = pos[G.identity]

    def span(seed):
        seen = {ident, *seed}
        queue = list(seen)
        while queue:
            x = queue.pop()
            for g in seed:
                y = table[x][g]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

    found = {span(())}
    indices = [i for i in range(len(elems)) if i != ident]
    for k in range(1, max_gens + 1):
        for seed in combinations(indices, k):
            found.add(span(seed))
    return sorted(frozenset(elems[i] for i in fs) for fs in found if len(fs) == m)


@pytest.mark.parametrize("name,orders", [
    ("S3", (1, 2, 3, 6)),
    ("S4", (2, 3, 4, 6, 8, 12)),
    ("SL(2,3)", (2, 3, 4, 6, 8, 12)),
    ("C3xC3", (3,)),
    ("D10", (2, 5)),
    ("F21", (3, 7)),
    ("A4", (2, 3, 4, 6)),
    ("F42", (2, 3, 6, 7, 14)),
])
def test_subgroups_of_order_against_exhaustive_oracle(groups, name, orders):
    G = groups[name]
    for m in orders:
        got = [H.element_set() for H in subgroups_of_order(G, m)]
        expect = [frozenset(s) for s in _oracle_subgroups(G, m)]
        assert sorted(got, key=sorted) == sorted(expect, key=sorted), (name, m)


def test_subgroups_of_order_a5_examples(groups):
    A5 = groups["A5"]
    sylow2 = subgroups_of_order(A5, 4)
    assert len(sylow2) == 5
    assert (sorted((H.element_set() for H in sylow2), key=sorted)
            == sorted((frozenset(s) for s in _oracle_subgroups(A5, 4)), key=sorted))
    assert subgroups_of_order(A5, 20) == []
    assert _oracle_subgroups(A5, 20) == []
    assert subgroups_of_order(A5, 1) == [trivial_group(5)]


def test_subgroups_of_order_requires_divisor(groups):
    with pytest.raises(ValueError, match="does not divide"):
        subgroups_of_order(groups["S3"], 4)


def test_normal_subgroups_examples(groups):
    assert [N.order for N in normal_subgroups(groups["S3"])] == [1, 3, 6]
    assert [N.order for N in normal_subgroups(groups["A5"])] == [1, 60]
    orders = [N.order for N in normal_subgroups(groups["SL(2,3)"])]
    assert orders == [1, 2, 8, 24]


def test_normal_subgroups_are_actually_normal(groups):
    for name in ("S4", "SL(2,3)", "F42"):
        G = groups[name]
        for N in normal_subgroups(G):
            assert N.is_normal_in(G)


def test_core_pi_examples(groups):
    S4 = groups["S4"]
    v4 = core_pi(S4, PiSet([2]))
    assert v4.order == 4
    assert all(g.order() in (1, 2) for g in v4.elements)
    assert core_pi(groups["A5"], PiSet([2])).order == 1
    assert core_pi(S4, PiSet([2, 3])) == S4


def test_core_pi_complement(groups):
    assert core_pi_complement(groups["S4"], PiSet([3])).order == 4
    assert core_pi_complement(groups["F42"], PiSet([2])).order == 21


def test_quotient_projection_is_surjective_homomorphism(groups):
    S4 = groups["S4"]
    V4 = core_pi(S4, PiSet([2]))
    Q, proj = quotient_direct(S4, V4)
    assert Q.order == 6 and Q.degree == 6
    assert is_homomorphism(S4, proj)
    assert set(proj.values()) == set(Q.elements)
    assert kernel(S4, proj, Q) == V4


def test_is_pi_separable_examples(groups):
    assert is_pi_separable(groups["S4"], PiSet([2]))
    assert not is_pi_separable(groups["A5"], PiSet([2]))
    assert is_pi_separable(groups["A5"], PiSet([7]))


def _prime_subsets(G):
    primes = prime_divisors(G.order)
    return [PiSet(s) for k in range(1, len(primes) + 1)
            for s in combinations(primes, k)]


def test_cores_match_the_normal_subgroup_scan(groups):
    # Reference: the largest admissible class-union normal subgroup, which
    # must contain every other admissible one.
    pairs = 0
    for name, G in groups.items():
        normals = normal_subgroups(G)
        for pi in _prime_subsets(G):
            for core, keep in ((core_pi, is_pi), (core_pi_complement, is_pi_prime)):
                admissible = [N for N in normals if keep(N.order, pi)]
                best = max(admissible, key=lambda N: N.order)
                assert all(N.is_subgroup_of(best) for N in admissible)
                assert core(G, pi) == best, (name, str(pi), core.__name__)
            pairs += 1
    assert pairs == 88


_CLASS_RICH = {
    "C2^5": (10, ("(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)")),
    "C2xC2xC6": (10, ("(1 2)", "(3 4)", "(5 6 7 8 9 10)")),
    "C2xC10": (12, ("(1 2)", "(3 4 5 6 7 8 9 10 11 12)")),
}


@pytest.mark.parametrize("name", sorted(_CLASS_RICH))
def test_cores_of_class_rich_abelian_groups(name):
    # The class-union scan refuses these (over 20 classes) or takes seconds
    # (2^19 unions for C2xC10).  In an abelian group O_pi(G) is the set of
    # pi-elements and O_pi'(G) the set of pi'-elements.
    degree, gens = _CLASS_RICH[name]
    G = close([P(g, degree) for g in gens])
    assert G.is_abelian()
    for pi in _prime_subsets(G):
        for core, keep in ((core_pi, is_pi), (core_pi_complement, is_pi_prime)):
            expect = {g for g in G.elements if keep(g.order(), pi)}
            assert core(G, pi).element_set() == expect, (name, str(pi))
        assert is_pi_separable(G, pi)


@pytest.mark.parametrize("name, separable", [("S4", True), ("A5", False)])
def test_separability_computes_classes_once_per_call(groups, monkeypatch, name, separable):
    # S4 > V4 > 1 is S4's upper 2-series, all of it inside S4; A5 has
    # neither a 2- nor a 2'-core.
    calls = []
    classes = group_mod.conjugacy_classes
    monkeypatch.setattr(group_mod, "conjugacy_classes",
                        lambda G: calls.append(G.order) or classes(G))
    assert is_pi_separable(groups[name], PiSet([2])) is separable
    assert calls == [groups[name].order]


def test_classes_are_computed_once_per_group(monkeypatch):
    # S3 x C5, built here so that no other test has filled its class cache.
    # The classes take one call; each Hall context with a composite order,
    # here {2,5} and {3,5}, takes one more for its conjugation orbit.
    G = close([P("(1 2 3)", 8), P("(1 2)", 8), P("(4 5 6 7 8)", 8)])
    calls = []
    rows = group_mod._conjugation_rows
    monkeypatch.setattr(group_mod, "_conjugation_rows",
                        lambda H: calls.append(H.order) or rows(H))
    assert is_pi_separable(G, PiSet([2])) and is_pi_separable(G, PiSet([3]))
    for pi in (PiSet([2, 5]), PiSet([3, 5])):
        assert build_hall_context(G, pi).fixed_hall_counts()[G.identity] >= 1
    assert calls == [30, 30, 30]
    assert conjugacy_classes(G) is conjugacy_classes(G)
    with pytest.raises(AttributeError, match="immutable"):
        G._classes = None


def test_separability_matches_the_quotient_tower(groups):
    pairs = 0
    for name, G in groups.items():
        for pi in _prime_subsets(G):
            assert is_pi_separable(G, pi) == is_pi_separable_direct(G, pi), (name, str(pi))
            pairs += 1
    assert pairs == 88


def test_s5_subgroup_classes_sweep():
    # S5 has 156 subgroups in 19 conjugacy classes (OEIS A005432, A000638).
    subgroups, reps = s5_subgroup_classes()
    assert (len(subgroups), len(reps)) == (156, 19)
    with_hall = without_hall = 0
    for H in reps:
        for pi in proper_prime_sets(H):
            separable = is_pi_separable(H, pi)
            assert separable == is_pi_separable_direct(H, pi), (H, str(pi))
            try:
                ctx = build_hall_context(H, pi)
            except NoHallSubgroupError:
                without_hall += 1
                continue
            with_hall += 1
            assert add_record("H", ctx).status == PASS, (H, str(pi))
            if separable:
                assert multiplicative_value(ctx).is_one(), (H, str(pi))
    assert (with_hall, without_hall) == (24, 4)


def test_relations_on_s5_subgroups_match_element_sets():
    # Subgroup, equality and normality are decided on generators and the
    # element index; here every pair of S5's 156 subgroups is checked against
    # the element-set definitions.  Each K is rebuilt from its generators in
    # reverse order, so that equal groups are distinct objects with other
    # generator tuples.
    subgroups = s5_subgroup_classes()[0]
    S5 = subgroups[-1]
    sets = [H.element_set() for H in subgroups]
    twins = [close(K.generators[::-1]) for K in subgroups]
    normalizers = [frozenset(g for g in S5.elements if conjugate_set(hset, g) == hset)
                   for hset in sets]
    contained = normal = 0
    for H, hset, norm in zip(subgroups, sets, normalizers):
        for K, kset in zip(twins, sets):
            assert H.is_subgroup_of(K) == (hset <= kset), (H, K)
            assert (H == K) == (hset == kset), (H, K)
            if H == K:
                assert hash(H) == hash(K), (H, K)
            if hset <= kset:
                assert H.is_normal_in(K) == (kset <= norm), (H, K)
                contained += 1
                normal += kset <= norm
    assert (contained, normal) == (1245, 570)


def test_groups_do_not_hash_their_elements(monkeypatch):
    # Membership reads the image-tuple index, so neither closing A7 nor a
    # subgroup search in S5 calls Permutation.__hash__.
    calls = []
    perm_hash = Permutation.__hash__
    monkeypatch.setattr(Permutation, "__hash__",
                        lambda g: calls.append(1) or perm_hash(g))
    A7 = close([P("(1 2 3 4 5 6 7)", 7), P("(1 2 3)", 7)])
    S5 = close([P("(1 2 3 4 5)", 5), P("(1 2)", 5)])
    assert (A7.order, len(subgroups_of_order(S5, 8))) == (2520, 15)
    assert calls == []


def test_sylow_subgroups_match_the_full_search(groups):
    # Hall contexts for one prime take the first hit's conjugation orbit;
    # the full search is the oracle, element sets and order both.
    A7 = close([P("(1 2 3 4 5 6 7)", 7), P("(1 2 3)", 7)])
    cases = [(name, G, p) for name, G in groups.items() for p in prime_divisors(G.order)]
    cases += [("S5 class", H, p) for H in s5_subgroup_classes()[1]
              for p in prime_divisors(H.order)]
    cases += [("A7", A7, 5), ("A7", A7, 7)]
    for name, G, p in cases:
        halls = build_hall_context(G, PiSet([p])).halls
        expect = subgroups_of_order(G, pi_part(G.order, PiSet([p])))
        assert [K.element_set() for K in halls] == [K.element_set() for K in expect], (name, p)
        assert all(close(K.generators) == K for K in halls), (name, p)


def test_hall_subgroups_match_the_full_search(groups):
    # Hall contexts take the conjugation orbits of the subgroups of Hall
    # order above one Sylow subgroup; the full search is the oracle, element
    # sets and order both, and finds nothing exactly when the context raises.
    # Single primes are the Sylow test's; PGL(2,9)'s composite full searches
    # alone take seconds.
    cases = [(name, G, pi) for name, G in groups.items() if G.order <= 360
             for pi in _prime_subsets(G) if len(pi) > 1]
    cases += [("S5 class", H, pi) for H in s5_subgroup_classes()[1]
              for pi in _prime_subsets(H) if len(pi) > 1]
    for name, G, pi in cases:
        expect = subgroups_of_order(G, pi_part(G.order, pi))
        try:
            halls = build_hall_context(G, pi).halls
        except NoHallSubgroupError:
            halls = ()
        assert [K.element_set() for K in halls] == [K.element_set() for K in expect], (name, str(pi))
        assert all(close(K.generators) == K for K in halls), (name, str(pi))
    # Hall orders with three primes, pinned from the full search (3.4 s):
    # PSL(2,11) has two classes of 11 A5s and no subgroup of order 132.
    PSL = close([P("(2 3 4 5 6 7 8 9 10 11 12)", 12), P("(3 6 7 11 5)(4 10 12 9 8)", 12),
                 P("(1 2)(3 12)(4 7)(5 9)(6 10)(8 11)", 12)])
    assert build_hall_context(PSL, PiSet([2, 3, 5])).num_halls == 22
    with pytest.raises(NoHallSubgroupError):
        build_hall_context(PSL, PiSet([2, 3, 11]))


@pytest.mark.parametrize("p_part", [2, 6, 16])
def test_sylow_subgroups_require_a_sylow_order(groups, p_part):
    # At a prime power hall_subgroups gives the Sylow subgroups.  These are
    # not the full 2-part of 24, not coprime to their index, not a divisor.
    with pytest.raises(ValueError, match="not a Hall order"):
        hall_subgroups(groups["S4"], p_part)


def test_conjugacy_classes_match_brute_force(groups):
    for name, G in groups.items():
        if G.order > 168:
            continue
        classes = conjugacy_classes(G)
        expect = {frozenset(g * x * g.inverse() for g in G.elements) for x in G.elements}
        assert {frozenset(cls) for cls in classes} == expect, name
        assert len(classes) == len(expect), name
        assert classes[0] == (G.identity,), name
        assert all(list(cls) == sorted(cls) for cls in classes), name
        assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes), name


def test_conjugacy_class_sizes_of_a7():
    A7 = close([P("(1 2 3 4 5 6 7)", 7), P("(1 2 3)", 7)])
    sizes = sorted(len(cls) for cls in conjugacy_classes(A7))
    assert sizes == [1, 70, 105, 210, 280, 360, 360, 504, 630]


def test_normal_subgroup_scan_refuses_more_than_20_classes():
    degree, gens = _CLASS_RICH["C2^5"]
    with pytest.raises(RuntimeError, match="31 conjugacy classes"):
        normal_subgroups(close([P(g, degree) for g in gens]))


def test_group_from_elements_rejects_unclosed():
    with pytest.raises(ValueError, match="not closed"):
        group_from_elements(3, [Permutation.identity(3), P("(1 2 3)", 3)])
    # <(2 3 4)> has as many elements as the input but is not the input.
    with pytest.raises(ValueError, match="not closed"):
        group_from_elements(4, [Permutation.identity(4), P("(2 3 4)", 4), P("(1 2)", 4)])


def _natural(g, i):
    """The natural action of g on 0-based point indices."""
    return g.apply(i + 1) - 1


def test_finite_action_validation(groups):
    S3 = groups["S3"]
    swap = P("(1 2)", 3)
    assert set(S3.generators) == {swap, P("(1 2 3)", 3)}
    FiniteAction.build(S3, 3, _natural)
    with pytest.raises(ValueError, match="identity"):
        FiniteAction.build(S3, 3, lambda g, i: (i + 1) % 3)
    # (1 2 3) acting as a transposition breaks the relation b^3 = 1.
    with pytest.raises(ValueError, match="act\\(g"):
        FiniteAction.build(S3, 3,
                           lambda g, i: _natural(g, i) if g.order() < 3 else _natural(swap, i))
    # Transpositions acting by themselves and 3-cycles fixing every point:
    # on the generators that is the sign action, which build extends over S3.
    sign = FiniteAction.build(S3, 3, lambda g, i: _natural(g, i) if g.order() < 3 else i)
    for g in S3.elements:
        for i in range(3):
            assert sign.act(g, i) == (_natural(swap, i) if g.order() == 2 else i)


def test_finite_action_matches_natural_action(groups):
    for name, G in groups.items():
        action = FiniteAction.build(G, G.degree, _natural)
        for g in G.elements:
            assert [action.act(g, i) + 1 for i in range(G.degree)] == list(g.images), name


def test_finite_action_reads_func_only_on_identity_and_generators(groups):
    G = groups["S4"]
    calls = []

    def func(g, i):
        calls.append(g)
        return _natural(g, i)

    FiniteAction.build(G, 4, func)
    distinct = set(G.generators) | {G.identity}
    assert set(calls) == distinct
    assert len(calls) == 4 * len(distinct)


def test_finite_action_fixed_counts(groups):
    S3 = groups["S3"]
    act = FiniteAction.build(S3, 3, _natural)
    assert act.fixed_count(S3.identity) == 3
    assert act.fixed_count(P("(1 2)", 3)) == 1
    assert burnside_orbit_count(S3, {g: act.fixed_count(g) for g in S3.elements}, 1) == 1


def test_search_products_match_permutation_products(groups):
    # Oracle: the search composes image tuples, x * y = _times(y)(x); every
    # product must index like the Permutation product.  Degree 1 (a one-point
    # image tuple) is an edge case.
    cases = [(name, G) for name, G in groups.items() if G.order <= 168]
    cases += [("degree 1", close([], degree=1))]
    for name, G in cases:
        _assert_search_products_match(G, name)


def _assert_search_products_match(G, name):
    elems, by_images = G.elements, G._ensure_index()
    index = {g: i for i, g in enumerate(elems)}
    assert by_images == {g.images: i for g, i in index.items()}, name
    for y in elems:
        times_y = group_mod._times(y.images)
        assert ([by_images[times_y(x.images)] for x in elems]
                == [index[x * y] for x in elems]), (name, y)


def test_cayley_table_with_identity_and_repeated_generators():
    # A trivial or repeated generator must not keep any product of the
    # search, which stands in for the deleted Cayley table, from indexing
    # like the Permutation product.
    cycle, swap = P("(1 2 3 4)", 4), P("(1 2)", 4)
    G = close([P("()", 4), cycle, cycle, swap])
    assert G.order == 24
    _assert_search_products_match(G, "S4 with () and a repeat")


def test_indexed_search_matches_direct_search(groups):
    # The search on element indices grows each closure from its parent
    # subgroup; the reference search re-closes every chain from the identity
    # and picks generators greedily, which must give the same generators.
    for name, G in groups.items():
        if G.order > 60:
            continue
        for m in divisors(G.order)[1:-1]:
            expect = _subgroup_search_direct(G, m)
            found = subgroups_of_order(G, m)
            assert found == expect, (name, m)
            assert [K.generators for K in found] == [K.generators for K in expect], (name, m)


def test_element_orders_match_permutation_orders(groups):
    for name, G in groups.items():
        assert G.element_orders() == tuple(g.order() for g in G.elements), name


def test_subgroup_search_leaves_no_garbage(groups):
    # The recursive search must not leave a reference cycle that keeps its
    # closures and the group alive until the cyclic collector runs, run to
    # the end or not, seeded or not.
    gc.collect()
    gc.disable()
    try:
        G = groups["S4"]
        subgroups_of_order(G, 8)
        assert gc.collect() == 0
        # Searches abandoned after their first hit, directly and as
        # hall_subgroups uses them.
        C3 = next(group_mod._subgroup_search(G, 3))
        assert gc.collect() == 0
        next(group_mod._subgroup_search(G, 12, C3))
        assert gc.collect() == 0
        hall_subgroups(G, 8)
        hall_subgroups(groups["A5"], 12)
        assert gc.collect() == 0
    finally:
        gc.enable()
