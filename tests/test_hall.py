"""Hall contexts, the cyclic-subgroup lattice and its Möbius weights."""

from __future__ import annotations

import json
import random

import pytest

from hallfix import (NoHallSubgroupError, PiSet, build_hall_context, close,
                     corpus_entries, cyclic_lattice, divisors, load_group,
                     moebius_partition_check, parse_permutation, pi_part,
                     subgroups_of_order, totient, trivial_group)
from hallfix.arith import prime_divisors
from hallfix.group import conjugacy_classes
from hallfix.hall import lambda_report_lines, lambda_report_records
from oracles import conjugated_by, conjugates


def test_pi_part_examples():
    assert pi_part(60, PiSet([2])) == 4
    assert pi_part(60, PiSet([2, 3])) == 12
    assert pi_part(60, PiSet([7])) == 1


def test_build_hall_context_a5(hall_ctx):
    ctx = hall_ctx("A5", "2")
    assert ctx.num_halls == 5
    assert ctx.hall_order == 4
    assert ctx.lam_of(ctx.group.identity) == 5
    involutions = [g for g in ctx.group.elements if g.order() == 2]
    assert len(involutions) == 15
    assert all(ctx.lam_of(x) == 1 for x in involutions)


def test_build_hall_context_trivial_pi(groups):
    ctx = build_hall_context(groups["S3"], PiSet([7]))
    assert ctx.hall_order == 1
    assert ctx.num_halls == 1
    assert ctx.lam_of(ctx.group.identity) == 1


def test_build_hall_context_no_hall(groups):
    with pytest.raises(NoHallSubgroupError):
        build_hall_context(groups["A5"], PiSet([2, 5]))


def test_sylow_path_builds_no_cayley_table():
    # Hall enumeration composes image tuples; a group carries no table of
    # order-squared products for it to build.
    G = load_group("PSL(2,9)")
    assert build_hall_context(G, PiSet([2])).num_halls == 45
    assert not hasattr(G, "_table") and not hasattr(G, "cayley_table")


def test_composite_hall_orders_take_the_full_search(groups):
    # Composite Hall orders go through the same Sylow-seeded search; the
    # full search of every subgroup of Hall order is the oracle.
    # GL(3,2) has two classes of S4, A5 has no subgroup of order 20.
    G = groups["GL(3,2)"]
    halls = build_hall_context(G, PiSet([2, 3])).halls
    assert len(halls) == 14
    assert ([K.element_set() for K in halls]
            == [K.element_set() for K in subgroups_of_order(G, 24)])
    assert subgroups_of_order(groups["A5"], 20) == []
    with pytest.raises(NoHallSubgroupError):
        build_hall_context(groups["A5"], PiSet([2, 5]))


def test_lam_matches_brute_force_membership_counts(groups, hall_ctx):
    # Oracle: for each pi-element, test membership in every Hall subgroup.
    for entry in corpus_entries():
        G = groups[entry.name]
        for pi in entry.check_pis:
            try:
                ctx = hall_ctx(entry.name, str(pi))
            except NoHallSubgroupError:
                continue
            expected = {x: sum(1 for K in ctx.halls if x in K) for x in G.elements
                        if all(p in pi for p in prime_divisors(x.order()))}
            assert list(ctx.lam.items()) == list(expected.items()), (entry.name, str(pi))


def test_lam_rejects_non_pi_elements(hall_ctx):
    ctx = hall_ctx("A5", "2")
    g = parse_permutation("(1 2 3)", 5)
    with pytest.raises(ValueError, match="not a pi-element"):
        ctx.lam_of(g)


def test_lam_only_depends_on_generated_subgroup(hall_ctx):
    for name, pis in (("A5", ("2", "3", "5")), ("S4", ("2", "3")),
                      ("GL(3,2)", ("2", "7")), ("F20", ("2",))):
        for pi_text in pis:
            ctx = hall_ctx(name, pi_text)
            by_span = {}
            for x in ctx.lam:
                key = close([x]).element_set()
                by_span.setdefault(key, set()).add(ctx.lam[x])
            assert all(len(v) == 1 for v in by_span.values())


def test_burnside_cross_check_of_lambda_sum(hall_ctx):
    # sum of lam over H equals |H| times the orbit count of H on the halls.
    for name, pi_text in (("A5", "2"), ("S4", "2"), ("F21", "3"), ("A4", "3")):
        ctx = hall_ctx(name, pi_text)
        tau = ctx.fixed_hall_counts()
        for H in ctx.halls:
            total = sum(ctx.lam_of(h) for h in H.elements)
            fixed = sum(tau[h] for h in H.elements)
            assert total == fixed
            assert total % H.order == 0


def test_hall_count_is_one_or_at_least_three(groups):
    # A non-normal Hall subgroup never has exactly 2 conjugate copies.
    for entry in corpus_entries():
        for pi in entry.check_pis:
            try:
                ctx = build_hall_context(groups[entry.name], pi)
            except NoHallSubgroupError:
                continue
            if ctx.num_halls == 1:
                assert ctx.canonical_hall.is_normal_in(ctx.group)
            else:
                assert ctx.num_halls >= 3
                assert not ctx.canonical_hall.is_normal_in(ctx.group)


def test_halls_conjugate_when_separable(groups):
    # For separable entries the order-n subgroups form one conjugacy class.
    from hallfix import is_pi_separable

    for name, pi_text in (("S4", "2"), ("F21", "3"), ("F42", "2,3"), ("D10", "2")):
        G = groups[name]
        pi = PiSet.parse(pi_text)
        assert is_pi_separable(G, pi)
        ctx = build_hall_context(G, pi)
        conj = conjugates(G, ctx.canonical_hall)
        assert sorted(K.fingerprint() for K in conj) == [
            K.fingerprint() for K in ctx.halls]


def test_cyclic_lattice_v4(groups):
    lat = cyclic_lattice(groups["V4"])
    by_order = {}
    for i, Z in enumerate(lat.subgroups):
        by_order.setdefault(Z.order, []).append(lat.weight(i))
    assert by_order[1] == [-2]
    assert by_order[2] == [1, 1, 1]
    assert lat.partition_identity_holds()


def test_cyclic_lattice_prime_cycle():
    H = close([parse_permutation("(1 2 3 4 5)", 5)])
    lat = cyclic_lattice(H)
    weights = {lat.subgroups[i].order: lat.weight(i) for i in range(2)}
    assert weights == {1: 0, 5: 1}
    assert lat.partition_identity_holds()


def test_cyclic_lattice_trivial():
    lat = cyclic_lattice(trivial_group(3))
    assert len(lat.subgroups) == 1
    assert lat.weight(0) == 1
    assert lat.partition_identity_holds()


def generator_set(lat, i):
    """Elements generating the i-th cyclic subgroup; there are totient(|Z|)."""
    Z = lat.subgroups[i]
    gens = tuple(sorted(z for z in Z.elements if z.order() == Z.order))
    if len(gens) != totient(Z.order):
        raise AssertionError("generator count disagrees with the totient")
    return gens


def test_lattice_generator_sets_have_totient_size(groups):
    for name in ("V4", "S3", "F20", "SL(2,3)"):
        lat = cyclic_lattice(groups[name]) if groups[name].order <= 24 else None
        if lat is None:
            continue
        for i, Z in enumerate(lat.subgroups):
            assert len(generator_set(lat, i)) == totient(Z.order)


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
            assert cyclic_lattice(H).partition_identity_holds(), (entry.name, H)


def test_partition_identity_on_large_group_subgroups(groups, hall_ctx):
    for name, pis in (("A5", ("2", "3", "5")), ("S5", ("2", "3", "5")),
                      ("GL(3,2)", ("2", "3", "7")), ("PSL(2,9)", ("2", "3", "5")),
                      ("PGL(2,9)", ("2", "3", "5"))):
        for pi_text in pis:
            ctx = hall_ctx(name, pi_text)
            for H in ctx.halls[:3]:
                assert cyclic_lattice(H).partition_identity_holds()


def test_moebius_partition_check_trivial(groups):
    H = groups["V4"]
    assert moebius_partition_check(H, {x: 1 for x in H.elements})


def test_moebius_partition_check_element_orders(groups):
    H = groups["V4"]
    assert moebius_partition_check(H, {x: x.order() for x in H.elements})


def test_moebius_partition_check_randomized(groups):
    rng = random.Random(20260810)
    hosts = [H for m in (1, 2, 3, 4, 6, 8, 12, 24)
             for H in subgroups_of_order(groups["S4"], m)]
    for trial in range(100):
        H = hosts[trial % len(hosts)]
        gamma = {x: rng.randint(1, 9) for x in H.elements}
        assert moebius_partition_check(H, gamma)


def test_poset_moebius_matches_number_theoretic(groups):
    # On the cyclic lattice the two Möbius functions coincide by definition;
    # spot-check values against a hand-expanded inclusion-exclusion on C6.
    H = close([parse_permutation("(1 2 3 4 5 6)", 6)])
    lat = cyclic_lattice(H)
    orders = [Z.order for Z in lat.subgroups]
    assert sorted(orders) == [1, 2, 3, 6]
    i1 = orders.index(1)
    i6 = orders.index(6)
    assert lat.mu(i1, i6) == 1      # moebius(6)
    assert lat.weight(i6) == 1
    assert lat.weight(i1) == 0      # 1 - 1 - 1 + 1


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
    tau = ctx.fixed_hall_counts()
    for cls in conjugacy_classes(ctx.group):
        assert len({tau[x] for x in cls}) == 1


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
            tau = ctx.fixed_hall_counts()
            for g in G.elements:
                expected = sum(conjugated_by(K, g).element_set() == K.element_set()
                               for K in ctx.halls)
                assert tau[g] == expected, (entry.name, str(pi), g)
            checked.add((entry.name, str(pi)))
    assert {("A5", "2"), ("GL(3,2)", "2"), ("GL(3,2)", "7"), ("PSL(2,9)", "5")} <= checked
