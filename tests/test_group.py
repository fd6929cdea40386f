"""Structural queries on permutation groups, against brute-force oracles."""

from __future__ import annotations

import gc
from itertools import combinations
from math import ceil, log2

import pytest
from hypothesis import given, settings, strategies as st

from hallfix import (CapExceededError, NoHallSubgroupError, NotASubgroupError,
                     PiSet, Permutation, build_hall_context, centralizer_order, close,
                     corpus_entries, cyclic_lattice, is_pi_separable, load_group,
                     multiplicative_value, parse_permutation, subgroups_of_order)
from hallfix import cli, group as group_mod
from hallfix.arith import pi_part, prime_divisors
from hallfix.cli import add_record
from hallfix.group import (_TRIVIAL, DEFAULT_ELEMENT_CAP, FiniteAction, PermGroup, _core,
                           conjugacy_classes, hall_subgroups)
from hallfix.reports import INAPPLICABLE, PASS
from oracles import (burnside_orbit_count, canonical_hall, centralizer, conjugate_set,
                     conjugates, divisors, element_order, greedy_chain, image_bytes, is_abelian,
                     is_pi, is_pi_prime, is_pi_separable_direct, normal_subgroups,
                     proper_prime_sets, psl2_11, quotient_direct, random_generating_sets,
                     s5_subgroup_classes, tau_by_element)


def P(text, degree):
    return parse_permutation(text, degree)


def pi_core(G, pi, side=0):
    """O_pi(G), or O_pi'(G) for side 1: the core that is_pi_separable joins,
    whose order divides |G|_pi, or |G|/|G|_pi for side 1."""
    part = pi_part(G.order, pi)
    return G.subgroup(*_core(G, (part, G.order // part)[side], _TRIVIAL))


def _subgroup_search_direct(G, m):
    """Reference search on permutations: re-closes every canonical generating
    chain from the identity and generates each subgroup by its greedy chain."""
    ident = G.identity
    candidates = [g for g in G.elements if g != ident and m % element_order(g) == 0]
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
                out.append(greedy_chain(G.degree, new))
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
    return PermGroup(deg, gens or [ident], [image_bytes(x) for x in seen])


def test_close_matches_direct_closure(groups):
    for name, G in groups.items():
        expect = _close_direct(G.generators)
        found = close(G.generators)
        assert found.elements == expect.elements, name
        assert found.generators == expect.generators, name


@settings(max_examples=40, deadline=None)
@given(random_generating_sets(), st.randoms(use_true_random=False))
def test_close_matches_direct_closure_on_random_generators(drawn, rng):
    # close starts from the largest cyclic subgroup and drops moves inside the
    # group so far, so the draw shuffles the generators and adds an identity
    # and a repeated generator.
    degree, images = drawn
    gens = [Permutation(g) for g in images]
    rng.shuffle(gens)
    gens.insert(rng.randint(0, len(gens)), Permutation.identity(degree))
    gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
    expect = _close_direct(gens, degree=degree)
    found = close(gens, degree=degree)
    assert found.fingerprint() == expect.fingerprint()
    assert found.generators == tuple(gens)


def _cap_refusal(cap):
    return f"^closure exceeds the element cap {cap}; the group is too large for exhaustive mode$"


@pytest.mark.parametrize("name", ["S3", "A5"])
def test_close_cap_boundary(groups, name):
    G = groups[name]
    assert close(G.generators, cap=G.order).elements == G.elements
    with pytest.raises(CapExceededError, match=_cap_refusal(G.order - 1)):
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
    with pytest.raises(CapExceededError, match=_cap_refusal(100)):
        close([P("(1 2 3 4 5 6 7)", 7), P("(1 2)", 7)], cap=100)
    # A generator of order over the cap is refused inside its power walk.
    with pytest.raises(CapExceededError, match=_cap_refusal(6)):
        close([P("(1 2 3 4 5 6 7)", 7)], cap=6)


def test_close_mismatched_degrees():
    with pytest.raises(ValueError, match="share one degree"):
        close([P("(1 2)", 2), P("(1 2)", 3)])


def test_close_refuses_a_degree_over_a_byte():
    # An element is the bytes of its 0-based images: degree 256 closes, and
    # 257 is refused by name, with or without generators.
    assert close([P("(255 256)", 256), P("(1 2 3)", 256)]).order == 6
    for gens, degree in (([P("(256 257)", 257)], None), ([], 257)):
        with pytest.raises(ValueError, match="degree 257 is over the limit 256 of byte images"):
            close(gens, degree=degree)


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
    assert centralizer_order(S3, P("(1 2 3)", 3)) == 3
    assert centralizer_order(S3, Permutation.identity(3)) == 6
    assert centralizer_order(S3, S3) == 1
    # The target may lie outside the group, on the same points.
    N = close([P("(1 2 3)", 6), P("(4 5 6)", 6)])
    assert centralizer_order(N, P("(5 6)", 6)) == 3
    assert centralizer_order(N, close([P("(1 2)", 6), P("(5 6)", 6)])) == 1


def test_centralizer_degree_mismatch():
    with pytest.raises(NotASubgroupError):
        centralizer_order(close([P("(1 2)", 2)]), P("(1 2)", 3))


@settings(max_examples=25, deadline=None)
@given(random_generating_sets())
def test_counted_centralizer_orders_match_the_oracle(drawn):
    # centralizer_order counts the commuting elements on image bytes; the
    # oracle builds C_G(x) from Permutation products.  Every element of a
    # group of order at most 120, else each class's first element, and each
    # Hall subgroup as a target (by its generators).
    degree, images = drawn
    G = close([Permutation(g) for g in images], degree=degree)
    xs = (G.elements if G.order <= 120
          else [G.elements[cls[0]] for cls in conjugacy_classes(G)])
    for x in xs:
        assert centralizer_order(G, x) == centralizer(G, x).order, x
    for pi in proper_prime_sets(G):
        try:
            H = canonical_hall(build_hall_context(G, pi))
        except NoHallSubgroupError:
            continue
        assert centralizer_order(G, H) == centralizer(G, H).order, (images, str(pi))


def normalizer(G, H):
    """Subgroup {g in G : g H g^-1 = H}."""
    if not H.is_subgroup_of(G):
        raise NotASubgroupError("normalizer argument is not a subgroup of G")
    hset = frozenset(H.elements)
    elems = [g for g in G.elements if conjugate_set(hset, g) == hset]
    return close(elems, degree=G.degree)


def kernel(G, proj, Q):
    """The elements of G that ``proj`` sends to the identity of Q."""
    return close([x for x in G.elements if proj[x] == Q.identity], degree=G.degree)


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


def test_conjugate_count_times_normalizer_is_order(groups, hall_ctx):
    for name, m in (("S4", 8), ("A5", 4), ("SL(2,3)", 3), ("F21", 3)):
        G = groups[name]
        for H in subgroups_of_order(G, m):
            assert len(conjugates(G, H)) * normalizer(G, H).order == G.order
    # The Hall orbits the enumeration hands on, one (size, N_G(K)) each, on
    # every corpus context with two or more Hall subgroups and on PSL(2,11)
    # with pi={2,3,5}.  K, normal in N_G(K), is its only Hall subgroup there.
    contexts = [("PSL(2,11) 2,3,5", build_hall_context(psl2_11(), PiSet([2, 3, 5])))]
    for entry in corpus_entries():
        for pi in entry.check_pis:
            try:
                ctx = hall_ctx(entry.name, str(pi))
            except NoHallSubgroupError:
                continue
            if ctx.num_halls > 1:
                contexts.append((f"{entry.name} {pi}", ctx))
    orbit_sizes = {name: sorted(size for size, _ in ctx.hall_orbits) for name, ctx in contexts}
    assert orbit_sizes["GL(3,2) 2,3"] == [7, 7] and orbit_sizes["PSL(2,11) 2,3,5"] == [11, 11]
    assert len(contexts) == 35
    for name, ctx in contexts:
        G = ctx.group
        assert sum(orbit_sizes[name]) == ctx.num_halls, name
        for size, N in ctx.hall_orbits:
            [K] = [K for K, S in zip(ctx.halls, ctx.hall_members) if S <= N]
            assert {G.elements[i] for i in N} == set(normalizer(G, K).elements), name
            assert len(conjugates(G, K)) == size and size * len(N) == G.order, name


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
        got = [frozenset(H.elements) for H in subgroups_of_order(G, m)]
        expect = [frozenset(s) for s in _oracle_subgroups(G, m)]
        assert sorted(got, key=sorted) == sorted(expect, key=sorted), (name, m)


def test_subgroups_of_order_a5_examples(groups):
    A5 = groups["A5"]
    sylow2 = subgroups_of_order(A5, 4)
    assert len(sylow2) == 5
    assert (sorted((frozenset(H.elements) for H in sylow2), key=sorted)
            == sorted((frozenset(s) for s in _oracle_subgroups(A5, 4)), key=sorted))
    assert subgroups_of_order(A5, 20) == []
    assert _oracle_subgroups(A5, 20) == []
    assert subgroups_of_order(A5, 1) == [close([], degree=5)]


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
    v4 = pi_core(S4, PiSet([2]))
    assert v4.order == 4
    assert all(element_order(g) in (1, 2) for g in v4.elements)
    assert pi_core(groups["A5"], PiSet([2])).order == 1
    assert pi_core(S4, PiSet([2, 3])) == S4


def test_core_pi_complement(groups):
    assert pi_core(groups["S4"], PiSet([3]), 1).order == 4
    assert pi_core(groups["F42"], PiSet([2]), 1).order == 21


def test_quotient_projection_is_surjective_homomorphism(groups):
    S4 = groups["S4"]
    V4 = pi_core(S4, PiSet([2]))
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
            for side, keep in enumerate((is_pi, is_pi_prime)):
                admissible = [N for N in normals if keep(N.order, pi)]
                best = max(admissible, key=lambda N: N.order)
                assert all(N.is_subgroup_of(best) for N in admissible)
                assert pi_core(G, pi, side) == best, (name, str(pi), side)
            pairs += 1
    assert pairs == 88


def test_cores_skip_classes_by_their_order_modulo_the_core(groups, monkeypatch):
    # A class x^G whose x has an order k modulo the core failing the core's
    # test is skipped without a join: k divides the join's index.  Unpruned,
    # each of the two levels tried all 6 nontrivial classes of S5 and of
    # PSL(2,9), 12 joins for every pi; now a class joins only on its own side.
    joins = []
    join = group_mod._join
    monkeypatch.setattr(group_mod, "_join", lambda *args: joins.append(1) or join(*args))
    counts = {}
    for name in ("S5", "PSL(2,9)"):
        for pi in proper_prime_sets(groups[name]):
            joins.clear()
            assert not is_pi_separable(groups[name], pi)
            counts[name, str(pi)] = len(joins)
    assert counts == {("S5", "2"): 5, ("S5", "3"): 5, ("S5", "5"): 6, ("S5", "2,3"): 6,
                      ("S5", "2,5"): 5, ("S5", "3,5"): 5, **{
                          ("PSL(2,9)", pi): 6 for pi in ("2", "3", "5", "2,3", "2,5", "3,5")}}


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
    assert is_abelian(G)
    for pi in _prime_subsets(G):
        for side, keep in enumerate((is_pi, is_pi_prime)):
            expect = {g for g in G.elements if keep(element_order(g), pi)}
            assert frozenset(pi_core(G, pi, side).elements) == expect, (name, str(pi))
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
    # S3 x C5, built here so that no other test has filled its caches.  The
    # classes, and each Hall context with a composite order, here {2,5} and
    # {3,5}, read G's conjugation rows; only the first read builds them.
    G = close([P("(1 2 3)", 8), P("(1 2)", 8), P("(4 5 6 7 8)", 8)])
    builds = []
    rows = group_mod._conjugation_rows
    monkeypatch.setattr(group_mod, "_conjugation_rows",
                        lambda H: H._rows is None and builds.append(H.order) or rows(H))
    assert is_pi_separable(G, PiSet([2])) and is_pi_separable(G, PiSet([3]))
    for pi in (PiSet([2, 5]), PiSet([3, 5])):
        assert tau_by_element(build_hall_context(G, pi))[G.identity] >= 1
    assert builds == [30]
    assert group_mod._conjugation_rows(G) is group_mod._conjugation_rows(G)
    assert conjugacy_classes(G) is conjugacy_classes(G)
    with pytest.raises(AttributeError, match="immutable"):
        G._classes = None


def test_element_orders_read_power_walks_and_build_no_classes():
    # A7's 2520 element orders are the lengths of their power walks, which
    # G keeps; reading them builds neither the classes nor the conjugation rows.
    A7 = close([P("(1 2 3 4 5 6 7)", 7), P("(1 2 3)", 7)])
    orders = A7.element_orders()
    assert (A7._classes, A7._rows) == (None, None)
    assert len(A7._walks) == A7.order
    assert orders == tuple(element_order(g) for g in A7.elements)
    assert sorted(set(orders)) == [1, 2, 3, 4, 5, 6, 7]


def test_closure_and_hall_checks_make_few_permutations(monkeypatch, capsys):
    # Closure, the Hall search, the classes and both checks run on image
    # bytes and element indices: A7 with pi={2,3} has 2520 elements and 35
    # Hall subgroups, but makes only a few Permutation objects.  (verify-mult
    # computes its value, then finds no hypothesis that applies.)  The Hall
    # enumeration walks each orbit once on image bytes and element indices,
    # so tau, which sym-char reads, makes none: it counts each orbit from the
    # size and normalizer handed over.  The lambda report formats only
    # pi-elements.
    made = []
    trusted, init = Permutation._trusted.__func__, Permutation.__init__
    monkeypatch.setattr(Permutation, "_trusted",
                        classmethod(lambda cls, t: made.append(t) or trusted(cls, t)))
    monkeypatch.setattr(Permutation, "__init__",
                        lambda self, images: made.append(images) or init(self, images))
    gens = [P("(1 2 3 4 5 6 7)", 7), P("(1 2 3)", 7)]
    made.clear()
    A7 = close(gens)
    records = cli.hall_records("A7", A7, PiSet([2, 3]), ["verify-mult", "verify-add"])
    assert A7.order == 2520 and [r.status for r in records] == [INAPPLICABLE, PASS]
    assert len(made) < A7.order // 10
    made.clear()
    [record] = cli.hall_records("A7", A7, PiSet([2, 3]), ["sym-char"])
    assert record.status == PASS and len(made) < A7.order // 10
    ctx = build_hall_context(A7, PiSet([5]))
    made.clear()
    assert ctx.num_halls == 126 and sum(ctx.tau_values) == A7.order  # one orbit (Burnside)
    assert made == []
    assert cli.main(["lambda", "--group", "PGL(2,9)", "--pi", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 145 and len(made) < 720 // 3


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
    sets = [frozenset(H.elements) for H in subgroups]
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
    # Membership reads the image-bytes index, and subgroups of a closed group
    # grow on its element indices, so neither closing A7, a subgroup search,
    # the cores and separability of S5, centralizer orders in A5 nor the
    # cyclic subgroups of a Hall subgroup call Permutation.__hash__.
    calls = []
    perm_hash = Permutation.__hash__
    monkeypatch.setattr(Permutation, "__hash__",
                        lambda g: calls.append(1) or perm_hash(g))
    A7 = close([P("(1 2 3 4 5 6 7)", 7), P("(1 2 3)", 7)])
    S5 = close([P("(1 2 3 4 5)", 5), P("(1 2)", 5)])
    assert (A7.order, len(subgroups_of_order(S5, 8))) == (2520, 15)
    assert not is_pi_separable(S5, PiSet([2])) and is_pi_separable(S5, PiSet([2, 3, 5]))
    assert pi_core(S5, PiSet([2, 3, 5])).order == 120
    assert pi_core(S5, PiSet([3]), 1).order == 1
    A5 = close([P("(1 2 3 4 5)", 5), P("(3 4 5)", 5)])
    assert ([centralizer_order(A5, A5.elements[cls[0]]) for cls in conjugacy_classes(A5)]
            == [60, 3, 4, 5, 5])
    S4 = canonical_hall(build_hall_context(S5, PiSet([2, 3])))
    assert sorted(Z.order for Z, _ in cyclic_lattice(S4)) == [1] + [2] * 9 + [3] * 4 + [4] * 3
    assert calls == []


def test_subgroups_grown_on_indices_are_generated_by_their_generators(groups, hall_ctx):
    # Cores and cyclic subgroups are grown on element indices with generators
    # picked along the way; re-closing the generators from scratch must give
    # back the same subgroup of G.
    checked = 0
    for entry in corpus_entries():
        G = groups[entry.name]
        if G.order > 360:
            continue
        found = []
        for pi in entry.check_pis:
            found += [pi_core(G, pi), pi_core(G, pi, 1)]
            try:
                hall = canonical_hall(hall_ctx(entry.name, str(pi)))
            except NoHallSubgroupError:
                continue
            found += [Z for Z, _ in cyclic_lattice(hall)]
        for K in found:
            assert close(K.generators, degree=G.degree) == K, (entry.name, K)
            assert K.is_subgroup_of(G), (entry.name, K)
        checked += len(found)
    assert checked == 340


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
        assert ([frozenset(K.elements) for K in halls]
                == [frozenset(K.elements) for K in expect]), (name, p)
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
        assert ([frozenset(K.elements) for K in halls]
                == [frozenset(K.elements) for K in expect]), (name, str(pi))
        assert all(close(K.generators) == K for K in halls), (name, str(pi))
    # Hall orders with three primes, pinned from the full search (3.4 s):
    # PSL(2,11) has two classes of 11 A5s and no subgroup of order 132.
    PSL = psl2_11()
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
        # Ascending element-index tuples, identity class first.
        classes = conjugacy_classes(G)
        expect = {frozenset(g * x * g.inverse() for g in G.elements) for x in G.elements}
        assert {frozenset(G.elements[i] for i in cls) for cls in classes} == expect, name
        assert len(classes) == len(expect), name
        assert classes[0] == (0,) and G.elements[0] == Permutation.identity(G.degree), name
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


def _natural(g, i):
    """The natural action of g on 0-based point indices."""
    return g.images[i] - 1


def test_finite_action_validation(groups):
    S3 = groups["S3"]
    swap = P("(1 2)", 3)
    assert set(S3.generators) == {swap, P("(1 2 3)", 3)}
    FiniteAction.build(S3, 3, _natural)
    with pytest.raises(ValueError, match="identity"):
        FiniteAction.build(S3, 3, lambda g, i: (i + 1) % 3)
    # (1 2 3) acting as a transposition breaks the relation b^3 = 1.
    with pytest.raises(ValueError, match="act\\(g"):
        FiniteAction.build(S3, 3, lambda g, i: (_natural(g, i) if element_order(g) < 3
                                                else _natural(swap, i)))
    # Transpositions acting by themselves and 3-cycles fixing every point:
    # on the generators that is the sign action, which build extends over S3.
    sign = FiniteAction.build(S3, 3, lambda g, i: _natural(g, i) if element_order(g) < 3 else i)
    for g in S3.elements:
        for i in range(3):
            assert sign.act(g, i) == (_natural(swap, i) if element_order(g) == 2 else i)


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
    # Oracle: the search composes image bytes, y * x = x.translate(_table(y));
    # every product must index like the Permutation product.  Degree 1 (a
    # one-point element) and degree 256 (a table with no identity tail, the
    # largest a byte holds) are edge cases.
    cases = [(name, G) for name, G in groups.items() if G.order <= 168]
    cases += [("degree 1", close([], degree=1)),
              ("degree 256", close([P("(255 256)", 256), P("(1 2 3)", 256)]))]
    assert cases[-1][1].order == 6
    for name, G in cases:
        _assert_search_products_match(G, name)


def _assert_search_products_match(G, name):
    elems, by_images = G.elements, G._ensure_index()
    index = {g: i for i, g in enumerate(elems)}
    assert by_images == {image_bytes(g): i for g, i in index.items()}, name
    for y in elems:
        table_y = group_mod._table(image_bytes(y))
        assert ([by_images[image_bytes(x).translate(table_y)] for x in elems]
                == [index[y * x] for x in elems]), (name, y)


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
        assert G.element_orders() == tuple(element_order(g) for g in G.elements), name


def test_subgroup_search_leaves_no_garbage():
    # No search may leave a reference cycle that keeps its closures and the
    # group alive until the cyclic collector runs: the subgroup search, the
    # Sylow climb, or the recursive Sylow joins, run to the end or not.  The
    # groups are fresh: a group keeps its Hall sets, so one that a test
    # searched before would search nothing here.
    gc.collect()
    gc.disable()
    try:
        G = load_group("S4")
        subgroups_of_order(G, 8)
        assert gc.collect() == 0
        # A Sylow climb (A5's generators have orders 5 and 3), and a join
        # search abandoned after its first hit.
        A5 = load_group("A5")
        P = group_mod._sylow_start(A5, 4, 2)
        assert gc.collect() == 0
        next(group_mod._sylow_joins(A5, 12, P))
        assert gc.collect() == 0
        # The Sylow set at a prime power, and at A5's composite Hall order
        # 12 the join search run to the end, the orbit walks and the
        # normalizer closure.
        for H, n in ((G, 8), (A5, 12)):
            found, normalizers = hall_subgroups(H, n)
            assert len(found) == (3 if n == 8 else 5) and normalizers()
        assert gc.collect() == 0
        del G, A5, H, found, normalizers
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kept_hall_sets_make_no_reference_cycle():
    # G keeps each Hall set it was asked for, with the function that grows the
    # normalizers.  That function reads the Hall search's tables, not G, so
    # G and it form no cycle that only the cyclic collector would free.  A
    # second call for an order hands out the kept pair itself.
    gc.collect()
    gc.disable()
    try:
        G = close([P("(1 2 3 4)", 4), P("(1 2)", 4)])
        for n in (1, 3, 8, 24):
            kept = hall_subgroups(G, n)
            assert isinstance(kept[0], tuple) and kept[1]()
            assert hall_subgroups(G, n) is kept
        del G, kept
        assert gc.collect() == 0
    finally:
        gc.enable()
