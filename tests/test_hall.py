"""Hall contexts, the cyclic-subgroup lattice and its Möbius weights."""

from __future__ import annotations

import json
import random
from functools import partial

import pytest
from hypothesis import given, settings

from hallfix import (NoHallSubgroupError, Permutation, PiSet, build_hall_context, close,
                     corpus_entries, cyclic_lattice, load_group,
                     parse_permutation, pi_part, subgroups_of_order)
from hallfix import cli, group as group_mod
from hallfix.arith import factorize, prime_divisors
from hallfix.cli import HALL_CHECKS, hall_records
from hallfix.group import WORK, PermGroup, conjugacy_classes, hall_subgroups
from hallfix.hall import lambda_report_lines, lambda_report_records
from hallfix.reports import PASS
from oracles import (canonical_hall, conjugate_set, conjugates, divisors, element_order,
                     elements, is_abelian, is_cyclic, is_normal_in, lam_by_element, members_in,
                     moebius_partition_check, poset_moebius, proper_prime_sets, psl2_11,
                     random_generating_sets, seeded_search, tau_by_element, tau_by_intersection,
                     totient, whole_lattice)


def test_pi_part_examples():
    assert pi_part(60, PiSet([2])) == 4
    assert pi_part(60, PiSet([2, 3])) == 12
    assert pi_part(60, PiSet([7])) == 1


def test_build_hall_context_a5(hall_ctx):
    ctx = hall_ctx("A5", "2")
    assert ctx.num_halls == 5
    assert ctx.hall_order == 4
    lam = lam_by_element(ctx)
    assert lam[ctx.group.identity] == 5
    involutions = [g for g in elements(ctx.group) if element_order(g) == 2]
    assert len(involutions) == 15
    assert all(lam[x] == 1 for x in involutions)


def test_build_hall_context_trivial_pi(groups):
    ctx = build_hall_context(groups["S3"], PiSet([7]))
    assert ctx.hall_order == 1
    assert ctx.num_halls == 1
    assert lam_by_element(ctx)[ctx.group.identity] == 1


def test_build_hall_context_no_hall(groups):
    with pytest.raises(NoHallSubgroupError):
        build_hall_context(groups["A5"], PiSet([2, 5]))


def test_sylow_path_builds_no_cayley_table():
    # Hall enumeration composes image bytes; a group carries no table of
    # order-squared products for it to build.
    G = load_group("PSL(2,9)")
    assert build_hall_context(G, PiSet([2])).num_halls == 45
    assert not hasattr(G, "_table") and not hasattr(G, "cayley_table")


def test_composite_hall_orders_take_the_full_search(groups):
    # Composite Hall orders go through the same Sylow joins; the full search
    # of every subgroup of Hall order is the oracle.
    # GL(3,2) has two classes of S4, A5 has no subgroup of order 20.
    G = groups["GL(3,2)"]
    halls = build_hall_context(G, PiSet([2, 3])).hall_members
    assert len(halls) == 14
    assert list(halls) == [members_in(G, K) for K in subgroups_of_order(G, 24)]
    assert subgroups_of_order(groups["A5"], 20) == []
    with pytest.raises(NoHallSubgroupError):
        build_hall_context(groups["A5"], PiSet([2, 5]))


def test_lam_rejects_non_pi_elements(hall_ctx):
    # lam is defined on the pi-elements only: lam_values holds None elsewhere.
    ctx = hall_ctx("A5", "2")
    g = parse_permutation("(1 2 3)", 5)
    assert ctx.lam_values[elements(ctx.group).index(g)] is None
    assert g not in lam_by_element(ctx)


def test_lam_matches_brute_force_membership_counts(hall_ctx):
    # Oracle: for each pi-element, test membership in every Hall subgroup.
    # The Hall subgroups come in fingerprint order, each beside the index set
    # of its elements in G; A7 with pi={2,3} has 35, the 3-set stabilizers.
    A7 = close([parse_permutation("(1 2 3 4 5 6 7)", 7), parse_permutation("(1 2 3)", 7)])
    cases = [(entry.name, pi) for entry in corpus_entries() for pi in entry.check_pis]
    for name, pi in cases + [("A7", PiSet([2, 3]))]:
        try:
            ctx = build_hall_context(A7, pi) if name == "A7" else hall_ctx(name, str(pi))
        except NoHallSubgroupError:
            continue
        G = ctx.group
        fingerprints = [K.fingerprint() for K in ctx.halls]
        assert fingerprints == sorted(fingerprints), (name, str(pi))
        assert list(ctx.hall_members) == [
            frozenset(i for i, x in enumerate(elements(G)) if x in K) for K in ctx.halls], name
        expected = {x: sum(1 for K in ctx.halls if x in K) for x in elements(G)
                    if all(p in pi for p in prime_divisors(element_order(x)))}
        assert list(lam_by_element(ctx).items()) == list(expected.items()), (name, str(pi))
    assert ctx.num_halls == 35


def test_lam_only_depends_on_generated_subgroup(hall_ctx):
    for name, pis in (("A5", ("2", "3", "5")), ("S4", ("2", "3")),
                      ("GL(3,2)", ("2", "7")), ("F20", ("2",))):
        for pi_text in pis:
            ctx = hall_ctx(name, pi_text)
            by_span = {}
            for x, v in lam_by_element(ctx).items():
                key = frozenset(elements(close([x])))
                by_span.setdefault(key, set()).add(v)
            assert all(len(v) == 1 for v in by_span.values())


def test_burnside_cross_check_of_lambda_sum(hall_ctx):
    # sum of lam over H equals |H| times the orbit count of H on the halls.
    for name, pi_text in (("A5", "2"), ("S4", "2"), ("F21", "3"), ("A4", "3")):
        ctx = hall_ctx(name, pi_text)
        lam, tau = ctx.lam_values, ctx.tau_values
        for H in ctx.hall_members:
            total = sum(lam[h] for h in H)
            fixed = sum(tau[h] for h in H)
            assert total == fixed
            assert total % len(H) == 0


def test_hall_count_is_one_or_at_least_three(groups):
    # A non-normal Hall subgroup never has exactly 2 conjugate copies.
    for entry in corpus_entries():
        for pi in entry.check_pis:
            try:
                ctx = build_hall_context(groups[entry.name], pi)
            except NoHallSubgroupError:
                continue
            if ctx.num_halls == 1:
                assert is_normal_in(canonical_hall(ctx), ctx.group)
            else:
                assert ctx.num_halls >= 3
                assert not is_normal_in(canonical_hall(ctx), ctx.group)


def test_halls_conjugate_when_separable(groups):
    # For separable entries the order-n subgroups form one conjugacy class.
    from hallfix import is_pi_separable

    for name, pi_text in (("S4", "2"), ("F21", "3"), ("F42", "2,3"), ("D10", "2")):
        G = groups[name]
        pi = PiSet.parse(pi_text)
        assert is_pi_separable(G, pi)
        ctx = build_hall_context(G, pi)
        conj = conjugates(G, canonical_hall(ctx))
        assert sorted((members_in(G, K) for K in conj), key=sorted) == list(ctx.hall_members)


def test_cyclic_lattice_v4(groups):
    lattice = whole_lattice(groups["V4"])
    by_order = {}
    for Z, _, f in lattice:
        by_order.setdefault(len(Z), []).append(f)
    assert by_order[1] == [-2]
    assert by_order[2] == [1, 1, 1]
    assert sum(len(Z) * f for Z, _, f in lattice) == 4


def test_cyclic_lattice_prime_cycle():
    H = close([parse_permutation("(1 2 3 4 5)", 5)])
    lattice = whole_lattice(H)
    weights = {len(Z): f for Z, _, f in lattice}
    assert len(lattice) == 2 and weights == {1: 0, 5: 1}
    assert sum(len(Z) * f for Z, _, f in lattice) == H.order


def test_cyclic_lattice_trivial():
    lattice = whole_lattice(close([], degree=3))
    assert lattice == [(frozenset({0}), 0, 1)]


def test_cyclic_lattice_of_a_subgroup_reads_the_ambient_walks(groups):
    # Each cyclic subgroup of a Hall subgroup H of G, as G's element indices,
    # is H's own lattice entry carried over to G's indices, generator and
    # weight alike: H's canonical order is G's, restricted.
    for name, pi in (("S4", PiSet([2])), ("F42", PiSet([2, 3])), ("GL(3,2)", PiSet([2, 3]))):
        G = groups[name]
        ctx = build_hall_context(G, pi)
        members, H = sorted(ctx.hall_members[0]), canonical_hall(ctx)
        assert cyclic_lattice(G, ctx.hall_members[0]) == [
            (frozenset(members[z] for z in Z), members[g], f) for Z, g, f in whole_lattice(H)]


def generator_set(H, Z):
    """The elements of H at the indices Z generating that cyclic subgroup;
    there are totient(|Z|)."""
    elems = elements(H)
    gens = tuple(sorted(elems[z] for z in Z if element_order(elems[z]) == len(Z)))
    if len(gens) != totient(len(Z)):
        raise AssertionError("generator count disagrees with the totient")
    return gens


def test_lattice_generator_sets_have_totient_size(groups):
    # Each cyclic subgroup is generated by its least generator.
    for name in ("V4", "S3", "F20", "SL(2,3)"):
        H = groups[name]
        for Z, g, _ in whole_lattice(H):
            assert generator_set(H, Z)[0] == elements(H)[g], (name, sorted(Z))


def _all_subgroups(G):
    out = []
    for m in divisors(G.order):
        out.extend(subgroups_of_order(G, m))
    return out


def test_partition_identity_across_small_corpus(groups):
    # |H| = sum |Z| f(Z) over every subgroup of the small corpus entries,
    # and over the Hall and Sylow subgroups of the big ones (checked in
    # test_partition_identity_on_large_group_subgroups).
    for entry in corpus_entries():
        G = groups[entry.name]
        if G.order > 42:
            continue
        for H in _all_subgroups(G):
            lattice = cyclic_lattice(G, members_in(G, H))
            assert sum(len(Z) * f for Z, _, f in lattice) == H.order, (entry.name, H)


def test_partition_identity_on_large_group_subgroups(groups, hall_ctx):
    for name, pis in (("A5", ("2", "3", "5")), ("S5", ("2", "3", "5")),
                      ("GL(3,2)", ("2", "3", "7")), ("PSL(2,9)", ("2", "3", "5")),
                      ("PGL(2,9)", ("2", "3", "5"))):
        for pi_text in pis:
            ctx = hall_ctx(name, pi_text)
            for H in ctx.hall_members[:3]:
                assert sum(len(Z) * f for Z, _, f in cyclic_lattice(ctx.group, H)) == len(H)


def test_moebius_partition_check_trivial(groups):
    H = groups["V4"]
    assert moebius_partition_check(H, {x: 1 for x in elements(H)})


def test_moebius_partition_check_element_orders(groups):
    H = groups["V4"]
    assert moebius_partition_check(H, {x: element_order(x) for x in elements(H)})


def test_moebius_partition_check_randomized(groups):
    rng = random.Random(20260810)
    hosts = [H for m in (1, 2, 3, 4, 6, 8, 12, 24)
             for H in subgroups_of_order(groups["S4"], m)]
    for trial in range(100):
        H = hosts[trial % len(hosts)]
        gamma = {x: rng.randint(1, 9) for x in elements(H)}
        assert moebius_partition_check(H, gamma)


def test_poset_moebius_matches_number_theoretic(groups):
    # On the cyclic lattice the two Möbius functions coincide; the weights,
    # taken with the number-theoretic one, against the poset's by brute force,
    # and spot values against a hand-expanded inclusion-exclusion on C6.
    H = close([parse_permutation("(1 2 3 4 5 6)", 6)])
    subgroups, _, weights = zip(*whole_lattice(H))
    orders = [len(Z) for Z in subgroups]
    assert sorted(orders) == [1, 2, 3, 6]
    i1 = orders.index(1)
    i6 = orders.index(6)
    assert poset_moebius(subgroups, i1, i6) == 1      # moebius(6)
    assert weights[i6] == 1
    assert weights[i1] == 0      # 1 - 1 - 1 + 1
    for name in ("V4", "S3", "C6", "F20", "SL(2,3)"):
        subgroups, _, weights = zip(*whole_lattice(groups[name]))
        assert list(weights) == [sum(poset_moebius(subgroups, i, j) for j in range(len(subgroups)))
                                 for i in range(len(subgroups))], name


def test_lambda_report_formats(hall_ctx):
    ctx = hall_ctx("S3", "2")
    lines = lambda_report_lines(ctx)
    assert lines[0] == "element () order 1 lambda 3"
    assert "element (1 2) order 2 lambda 1" in lines
    records = lambda_report_records(ctx)
    assert records[0] == {"element": "()", "order": 1, "lambda": 3}
    json.dumps(records)


def test_conjugation_action_respects_classes(hall_ctx):
    # tau is a class function: fixed-hall counts are constant on classes.
    ctx = hall_ctx("GL(3,2)", "2")
    tau = ctx.tau_values
    for cls in conjugacy_classes(ctx.group):
        assert len({tau[i] for i in cls}) == 1


def test_conjugation_action_matches_elementwise_oracle(groups, hall_ctx):
    # Oracle: conjugate each Hall subgroup element by element and count the
    # ones whose element set comes back unchanged.
    checked = set()
    for entry in corpus_entries():
        G = groups[entry.name]
        for pi in entry.check_pis:
            try:
                ctx = hall_ctx(entry.name, str(pi))
            except NoHallSubgroupError:
                continue
            if ctx.num_halls < 2:
                continue
            tau, halls = tau_by_element(ctx), [frozenset(elements(K)) for K in ctx.halls]
            for g in elements(G):
                expected = sum(conjugate_set(K, g) == K for K in halls)
                assert tau[g] == expected, (entry.name, str(pi), g)
            checked.add((entry.name, str(pi)))
    # GL(3,2) with pi={2,3} has two classes of Hall subgroups, so two orbits.
    assert {("A5", "2"), ("GL(3,2)", "2"), ("GL(3,2)", "7"), ("GL(3,2)", "2,3"),
            ("PSL(2,9)", "5")} <= checked


def test_tau_matches_the_per_class_intersections():
    # tau_values passes once over each orbit's normalizer and shares each
    # class's total out over it; the oracle intersects every class with every
    # normalizer.  GL(3,2) with pi={2,3} has two orbits of 7 Hall subgroups,
    # PSL(2,11) with pi={2,3,5} two of 11.
    orbits = {}
    for name, make, pi, _ in _hall_cases() + [("PSL(2,11)", psl2_11, PiSet([2, 3, 5]), None)]:
        try:
            ctx = build_hall_context(make(), pi)
        except NoHallSubgroupError:
            continue
        assert ctx.tau_values == tau_by_intersection(ctx), (name, str(pi))
        orbits[name, str(pi)] = [size for size, _ in ctx.hall_orbits]
    assert orbits["GL(3,2)", "2,3"] == [7, 7] and orbits["PSL(2,11)", "2,3,5"] == [11, 11]


@settings(max_examples=25, deadline=None)
@given(random_generating_sets())
def test_tau_matches_the_per_class_intersections_on_random_groups(drawn):
    degree, images = drawn
    G = close([Permutation(g) for g in images], degree=degree)
    for pi in proper_prime_sets(G):
        try:
            ctx = build_hall_context(G, pi)
        except NoHallSubgroupError:
            continue
        assert ctx.tau_values == tau_by_intersection(ctx), (images, str(pi))


def _a7():
    return close([parse_permutation(g, 7) for g in ("(1 2 3 4 5 6 7)", "(1 2 3)")])


def _hall_cases():
    """(name, fresh-group maker, pi, corpus entry) for every (G, pi) the corpus
    checks, and A7 with each prime of its order."""
    cases = [(e.name, lambda name=e.name: load_group(name), pi, e)
             for e in corpus_entries() for pi in e.check_pis]
    cases += [("A7", _a7, PiSet([p]), None) for p in (2, 3, 5, 7)]
    return cases


def test_tables_built_on_demand_match_the_eager_ones():
    # A Hall context builds G's conjugation rows entry by entry and its classes
    # only when a check reads them; the Hall search reads element orders off
    # power walks, without either.  Whatever builds them, on a freshly closed
    # G or on one whose classes came first, the Hall subgroups with their
    # generators, the orbit records, the check records and the lambda report
    # are the same.
    def eager(make):
        G = make()
        conjugacy_classes(G)
        return G

    compared = 0
    for name, make, pi, entry in _hall_cases():
        n = pi_part(make().order, pi)
        runs = []
        for G in (make(), eager(make)):
            found, normalizers = hall_subgroups(G, n)
            runs.append((found, normalizers()))
        assert runs[0] == runs[1], (name, str(pi))
        if not runs[0][0]:
            continue
        compared += 1
        records = [hall_records(name, G, pi, HALL_CHECKS, entry) for G in (make(), eager(make))]
        assert records[0] == records[1], (name, str(pi))
        reports = [json.dumps(lambda_report_records(build_hall_context(G, pi)),
                              indent=2, sort_keys=True) for G in (make(), eager(make))]
        assert reports[0] == reports[1], (name, str(pi))
    assert compared == 56 + 4


def _scan_start(G, q, p):
    """The Sylow start as the canonical search's first hit, whatever G keeps."""
    return next(seeded_search(G, q, (frozenset({0}), ())))


def _conjugates(G, S):
    """The conjugates of the element-index set S, walked on G's conjugation rows."""
    rows = [row for _, _, row in group_mod._fill_rows(G, range(G.order))]
    seen, orbit = {S}, [S]
    for T in orbit:
        for row in rows:
            U = frozenset(map(row.__getitem__, T))
            if U not in seen:
                seen.add(U)
                orbit.append(U)
    return seen


def _assert_same_hall_sets(make, orders, where, **reference):
    """hall_subgroups at each Hall order of ``orders`` in turn, on one group
    from ``make`` and on another with the ``reference`` functions patched into
    group.py, give the same member sets in the same order and the same orbit
    sizes, and each orbit's N_G(K) is a conjugate of the reference's: K, the
    orbit's first hit, may be another member of the orbit.  The generator
    indices re-close to their sets."""
    runs = []
    for patches in ({}, reference):
        with pytest.MonkeyPatch.context() as mp:
            for name, func in patches.items():
                mp.setattr(group_mod, name, func)
            G = make()
            runs.append([(found, normalizers()) for found, normalizers
                         in (hall_subgroups(G, n) for n in orders)])
    index, images = G._ensure_index(), G.fingerprint()
    for n, (found, orbits), (ref_found, ref_orbits) in zip(orders, *runs):
        assert [S for S, _ in found] == [S for S, _ in ref_found], (where, n)
        assert [size for size, _ in orbits] == [size for size, _ in ref_orbits], (where, n)
        for (_, N), (_, ref_N) in zip(orbits, ref_orbits):
            assert N in _conjugates(G, ref_N), (where, n)
        for S, gens in found:
            assert group_mod._join(index, images, frozenset({0}), gens, n)[0] == S, (where, n)


def test_sylow_start_gives_the_scan_hall_set():
    # Every Hall subgroup contains a Sylow subgroup at the largest prime power
    # of its order, and those are all conjugate, so any of them starts the
    # same Hall set as the canonical scan's first hit.
    for name, make, pi, _ in _hall_cases():
        _assert_same_hall_sets(make, [pi_part(make().order, pi)], (name, str(pi)),
                               _sylow_start=_scan_start)


@settings(max_examples=25, deadline=None)
@given(random_generating_sets())
def test_sylow_start_gives_the_scan_hall_set_on_random_groups(drawn):
    # One group takes every proper prime set, single primes first, so a
    # composite one may start from a kept Sylow set.
    degree, images = drawn
    make = partial(close, [Permutation(g) for g in images], degree=degree)
    G = make()
    _assert_same_hall_sets(make, [pi_part(G.order, pi) for pi in proper_prime_sets(G)], images,
                           _sylow_start=_scan_start)


#: The route hall_subgroups took before the Sylow joins: the Sylow start as
#: the canonical search's first hit, and the element-by-element search above it.
_SEEDED = {"_sylow_start": _scan_start, "_sylow_joins": seeded_search}


@pytest.mark.parametrize("degree, gens, pi", [
    (7, ("(1 2 3 4 5 6 7)", "(1 2 3)"), (2, 3)),
    (7, ("(1 2 3 4 5 6 7)", "(1 2)"), (2, 3, 5)),
    (7, ("(1 2 3 4 5 6 7)", "(1 2)"), (2, 3, 7)),
    (11, ("(2 10)(4 11)(5 7)(8 9)", "(1 4 3 8)(2 5 6 9)"), (2, 3, 5)),
    (11, ("(2 10)(4 11)(5 7)(8 9)", "(1 4 3 8)(2 5 6 9)"), (2, 3, 11)),
], ids=["A7-2,3", "S7-2,3,5", "S7-2,3,7", "M11-2,3,5", "M11-2,3,11"])
def test_sylow_joins_match_the_seeded_search(degree, gens, pi):
    # A7 has 35 Hall subgroups at {2,3}, S7 and M11 have 7 and 11 at {2,3,5}
    # and none at the other: the seeded search must exhaust its tree there.
    make = partial(close, [parse_permutation(g, degree) for g in gens])
    _assert_same_hall_sets(make, [pi_part(make().order, PiSet(pi))], pi, **_SEEDED)


@settings(max_examples=25, deadline=None)
@given(random_generating_sets())
def test_sylow_joins_match_the_seeded_search_on_random_groups(drawn):
    # Every composite Hall order of the group, single primes first so the
    # joins read kept Sylow sets.  The seeded search takes seconds on a group
    # of order over 720 (mostly S7 and A7), which the fixed cases cover.
    degree, images = drawn
    make = partial(close, [Permutation(g) for g in images], degree=degree)
    G = make()
    pis = proper_prime_sets(G) if G.order <= 720 else []
    _assert_same_hall_sets(make, [pi_part(G.order, pi) for pi in pis], images, **_SEEDED)


def _s8():
    return close([parse_permutation(g, 8) for g in ("(1 2 3 4 5 6 7 8)", "(1 2)")], cap=40320)


@pytest.mark.parametrize("make, q, p, steps", [
    # A7's generator (1 2 3 4 5 6 7) is a Sylow 7-subgroup: no climb step.
    (_a7, 7, 7, 0),
    # A5's generators have orders 5 and 3, A7's 7 and 3, so their Sylow 2- and
    # 5-subgroups climb from the trivial group.
    (lambda: load_group("A5"), 4, 2, 2),
    (_a7, 5, 5, 1),
    # S8's 8-cycle generates a cyclic subgroup of order 8 of a Sylow 2-subgroup.
    (_s8, 128, 2, 4),
], ids=["A7-7", "A5-4", "A7-5", "S8-128"])
def test_each_sylow_start_source(make, q, p, steps):
    # The climb grows once per step and reads the power walks of G's generators
    # only, adding one generator per step to the one its cyclic start keeps.
    G = make()
    index, images = G._ensure_index(), G.fingerprint()
    WORK.clear()
    S, gens = group_mod._sylow_start(G, q, p)
    assert (len(S), WORK.get("grow.calls", 0)) == (q, steps)
    assert set(G._walks) <= {index[g._bytes()] for g in G.generators}
    assert gens[:len(gens) - steps] in ((), (index[G.generators[0]._bytes()],))
    assert group_mod._join(index, images, frozenset({0}), gens, q)[0] == S
    # Once G keeps its Sylow set at q, the start is the set's first, grown from nothing.
    found = hall_subgroups(G, q)[0]
    WORK.clear()
    assert S in dict(found) and group_mod._sylow_start(G, q, p) == found[0]
    assert "grow.calls" not in WORK


def _assert_sylow_climbs(G, powers, search):
    """At each (q, p) of ``powers``, the Sylow start of the fresh group G has
    order q and generators that re-close to it from the trivial group, and, if
    ``search``, is one of the subgroups of order q the canonical search finds."""
    index, images = G._ensure_index(), G.fingerprint()
    for q, p in powers:
        S, gens = group_mod._sylow_start(G, q, p)
        assert len(S) == q and group_mod._join(index, images, frozenset({0}), gens, q)[0] == S
        if search:
            assert S in {frozenset(map(index.__getitem__, H.fingerprint()))
                         for H in subgroups_of_order(G, q)}, q


def _sylow_powers(G):
    return [(p ** k, p) for p, k in factorize(G.order).items()]


def test_sylow_climb_finds_a_sylow_subgroup():
    for entry in corpus_entries():
        G = load_group(entry.name)
        _assert_sylow_climbs(G, _sylow_powers(G), True)
    # S7, M11 and S8 at their largest prime power, 16, 16 and 128: the order
    # and the re-closing only, as the search takes seconds there.
    for degree, gens in ((7, ("(1 2 3 4 5 6 7)", "(1 2)")),
                         (11, ("(2 10)(4 11)(5 7)(8 9)", "(1 4 3 8)(2 5 6 9)")),
                         (8, ("(1 2 3 4 5 6 7 8)", "(1 2)"))):
        G = close([parse_permutation(g, degree) for g in gens], cap=40320)
        _assert_sylow_climbs(G, [max(_sylow_powers(G))], False)


@settings(max_examples=25, deadline=None)
@given(random_generating_sets())
def test_sylow_climb_finds_a_sylow_subgroup_on_random_groups(drawn):
    degree, images = drawn
    G = close([Permutation(g) for g in images], degree=degree)
    if G.order <= 720:
        _assert_sylow_climbs(G, _sylow_powers(G), True)


@pytest.mark.parametrize("p, members", [(5, 505), (7, 721)])
def test_verify_mult_and_add_build_no_group_wide_table(monkeypatch, p, members):
    # verify-mult and verify-add read lam on one Hall subgroup only.  On A7
    # with pi=5 (126 Sylow subgroups, 505 elements in all) or 7 (120 and 721)
    # they build no classes, fill the conjugation rows at the Hall members
    # only, and make no lam over G and no Hall subgroup as a group: verify-mult
    # reads cyclicity off its power walks.  sym-char then builds the rest.
    contexts, made = [], []
    build, subgroup = cli.build_hall_context, PermGroup._subgroup
    monkeypatch.setattr(cli, "build_hall_context",
                        lambda G, pi: contexts.append(build(G, pi)) or contexts[-1])
    monkeypatch.setattr(PermGroup, "_subgroup",
                        lambda G, *found: made.append(G.order) or subgroup(G, *found))
    A7 = _a7()
    records = hall_records("A7", A7, PiSet([p]), ["verify-mult", "verify-add"])
    assert [r.status for r in records] == [PASS, PASS]
    [ctx] = contexts
    union = frozenset().union(*ctx.hall_members)
    assert A7._classes is None and len(union) == members
    assert all({x for x, v in enumerate(row) if v is not None} == union
               for _, _, row in A7._rows)
    assert made == [] and not {"lam_values", "halls"} & set(vars(ctx))
    averaged = {5: "1270318750", 7: "7312613877534"}[p]
    assert cli.sym_char_record("A7", ctx).witness == f"identities hold; averaged value {averaged}"


def test_hall_joins_build_no_classes(monkeypatch):
    # The Sylow joins read element orders off power walks, not off G's
    # classes: verify-add on A7 with pi={2,3} finds its 35 Hall subgroups of
    # order 72 with no classes, and fills the conjugation rows at their
    # members only, which hold every Sylow 2- and 3-subgroup walked.
    contexts, build = [], cli.build_hall_context
    monkeypatch.setattr(cli, "build_hall_context",
                        lambda G, pi: contexts.append(build(G, pi)) or contexts[-1])
    A7 = _a7()
    [record] = hall_records("A7", A7, PiSet([2, 3]), ["verify-add"])
    assert record.status == PASS
    [ctx] = contexts
    union = frozenset().union(*ctx.hall_members)
    assert (ctx.num_halls, ctx.hall_order, A7._classes) == (35, 72, None)
    assert all({x for x, v in enumerate(row) if v is not None} == union
               for _, _, row in A7._rows)


@pytest.mark.parametrize("degree, gens, pi, count", [
    (7, ("(1 2 3 4 5 6 7)", "(1 2)"), (2, 3, 5), 7),
    (7, ("(1 2 3 4 5 6 7)", "(1 2)"), (2, 3, 7), 0),
    (11, ("(2 10)(4 11)(5 7)(8 9)", "(1 4 3 8)(2 5 6 9)"), (2, 3, 5), 11),
], ids=["S7-2,3,5", "S7-2,3,7", "M11-2,3,5"])
def test_hall_counts_of_s7_and_m11(degree, gens, pi, count):
    # Textbook counts: S7 has the 7 point stabilizers S6 at {2,3,5} and no
    # subgroup of order 2^4 3^2 7 = 1008; M11 (order 7920) has the 11 point
    # stabilizers M10 at {2,3,5}.  Each Hall subgroup found fixes its own point.
    G = close([parse_permutation(g, degree) for g in gens])
    found, _ = hall_subgroups(G, pi_part(G.order, PiSet(pi)))
    images = G.fingerprint()
    fixed = [[p for p in range(degree) if all(images[i][p] == p for i in K)] for K, _ in found]
    assert len(found) == count
    assert sorted(fixed) == [[p] for p in range(count)]


def test_hall_tests_on_element_indices_match_the_oracles():
    # verify-mult reads cyclicity off the Hall members' power walks and
    # interpretation reads commutativity off the Hall generators' image
    # tuples; neither makes the Hall subgroup as a group.
    outcomes = set()
    for name, make, pi, _ in _hall_cases():
        try:
            ctx = build_hall_context(make(), pi)
        except NoHallSubgroupError:
            continue
        tests = (ctx.hall_is_cyclic(), ctx.hall_is_abelian())
        H = ctx.halls[0]
        assert tests == (is_cyclic(H), is_abelian(H)), (name, str(pi))
        outcomes.add(tests)
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_scan_makes_no_subgroup(capsys, monkeypatch):
    # Every check of scan reads the Hall subgroups, and the coprime split's
    # N, H and cyclic subgroups, as element indices.
    def refuse(*args):
        raise AssertionError("PermGroup._subgroup")

    monkeypatch.setattr(PermGroup, "_subgroup", refuse)
    assert cli.main(["scan"]) == 0
    assert "verify-wielandt" in capsys.readouterr().out
