"""Identity verifiers against hand-checked cases and independent oracles."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings

from hallfix import (FactoredRational, FiniteAction, NoCoprimeSplitError, NoHallSubgroupError,
                     Permutation, PiSet, additive_value, build_hall_context, close, coprime_split,
                     corpus_entries, curiosity_value, cyclic_lattice, interpretation_check,
                     multiplicative_value, navarro_rizo_check, parse_permutation, subgroups_of_order,
                     wielandt_check)
from hallfix.arith import prime_divisors
from hallfix.corpus import A5_CURIOSITY
from hallfix.verify import PowerSumTooLargeError, sym_char_sums
from oracles import (as_fraction, burnside_orbit_count, canonical_hall, centralizer_count,
                     conjugated_by, conjugates, corpus_split, cyclic_symmetrized, divisors,
                     elements, is_abelian, is_cyclic, is_normal_in, is_pi_prime, lam_by_element,
                     members_in, moebius, multiplicative_value_direct, normal_subgroups, power,
                     power_product_pair, power_product_pair_direct, power_subgroup,
                     power_sum_bound_holds, proper_prime_sets, quotient_direct,
                     random_generating_sets, s5_subgroup_classes, symmetrized, tau_by_element,
                     totient)
from test_s6_sweep import s6_class_representatives


def P(text, degree):
    return parse_permutation(text, degree)


# ---------------------------------------------------------------- mult


def test_multiplicative_value_separable_cases(hall_ctx):
    for name, pis in (("S4", ("2", "3", "2,3")), ("SL(2,3)", ("2", "3")),
                      ("D10", ("2", "5")), ("F21", ("3", "7")),
                      ("F42", ("2", "2,3")), ("C7:S3", ("2,3",))):
        for pi_text in pis:
            assert multiplicative_value(hall_ctx(name, pi_text)).is_one()


def test_multiplicative_value_whole_group_hall(hall_ctx):
    # pi covering every prime makes H = G and lam constant 1.
    ctx = hall_ctx("S4", "2,3")
    assert canonical_hall(ctx) == ctx.group
    assert multiplicative_value(ctx).is_one()


def test_multiplicative_value_a5_counterexample(hall_ctx):
    ctx = hall_ctx("A5", "2")
    value = multiplicative_value(ctx)
    assert str(value) == "5^-4"
    reduced = multiplicative_value(ctx, use_radical=True)
    assert str(reduced) == "5^-2"
    # Hall order 4 has radical 2, so the full value is the square.
    assert value == reduced.power(2)


def test_multiplicative_value_independent_of_hall_choice(hall_ctx):
    for name, pi_text in (("S4", "2"), ("F21", "3"), ("A5", "2"), ("A4", "3")):
        ctx = hall_ctx(name, pi_text)
        values = {multiplicative_value(ctx, K) for K in ctx.hall_members}
        assert len(values) == 1


def test_multiplicative_value_rejects_foreign_subgroup(hall_ctx):
    # The trivial subgroup's member set, and a Hall member set of another pi.
    ctx = hall_ctx("A5", "2")
    for foreign in (frozenset({0}), hall_ctx("A5", "3").hall_members[0]):
        for value in (multiplicative_value, additive_value):
            with pytest.raises(ValueError, match="not one of the Hall subgroups"):
                value(ctx, foreign)


def test_power_products_a5(hall_ctx):
    # prod lam(x)^2 = 25 against prod lam(x^2) = 625 on a Klein Hall subgroup.
    ctx = hall_ctx("A5", "2")
    left, right = power_product_pair(ctx, 2)
    assert (left, right) == (625, 25)


def test_power_products_gl32(hall_ctx):
    # Sylow counting gives lam(1) = 21, lam(involution) = 5, lam(order 4) = 1
    # on a dihedral Sylow 2-subgroup: the products are 21^6 * 5^2 and
    # (21 * 5^5)^2, deviating on the side opposite to A5.
    ctx = hall_ctx("GL(3,2)", "2")
    H = canonical_hall(ctx)
    lam = lam_by_element(ctx)
    assert sorted(lam[x] for x in elements(H)) == [1, 1, 5, 5, 5, 5, 5, 21]
    left, right = power_product_pair(ctx, 2)
    assert (left, right) == (2144153025, 4306640625)


def test_counterexamples_deviate_on_opposite_sides(hall_ctx):
    a5 = as_fraction(multiplicative_value(hall_ctx("A5", "2")))
    gl = as_fraction(multiplicative_value(hall_ctx("GL(3,2)", "2")))
    assert a5 < 1 < gl
    assert str(multiplicative_value(hall_ctx("GL(3,2)", "2"))) == "3^-16 * 5^32 * 7^-16"


# ---------------------------------------------------------------- cyclic case


def cyclic_hall_check(G, pi):
    """The multiplicative identity for a cyclic Hall subgroup of an arbitrary group.

    Holds without any separability hypothesis.  Raises if no Hall subgroup
    exists; requires at least one cyclic member, and checks every cyclic one.
    """
    ctx = build_hall_context(G, pi)
    cyclic_halls = [S for S, K in zip(ctx.hall_members, ctx.halls) if is_cyclic(K)]
    if not cyclic_halls:
        raise ValueError("no Hall subgroup is cyclic; the cyclic case does not apply")
    return all(multiplicative_value(ctx, K).is_one() for K in cyclic_halls)


def test_cyclic_hall_check_examples(groups):
    assert cyclic_hall_check(groups["A5"], PiSet([5]))
    assert cyclic_hall_check(groups["S3"], PiSet([3]))
    assert cyclic_hall_check(groups["C6"], PiSet([2]))
    assert cyclic_hall_check(groups["C6"], PiSet([3]))


def test_cyclic_hall_check_nonseparable_groups(groups):
    # The cyclic case needs no separability at all.
    assert cyclic_hall_check(groups["A5"], PiSet([3]))
    assert cyclic_hall_check(groups["GL(3,2)"], PiSet([7]))
    assert cyclic_hall_check(groups["GL(3,2)"], PiSet([3]))
    assert cyclic_hall_check(groups["PSL(2,9)"], PiSet([5]))
    assert cyclic_hall_check(groups["PGL(2,9)"], PiSet([5]))
    assert cyclic_hall_check(groups["S5"], PiSet([3]))
    assert cyclic_hall_check(groups["S5"], PiSet([5]))


def test_cyclic_hall_check_requires_cyclic_member(groups):
    with pytest.raises(ValueError, match="cyclic"):
        cyclic_hall_check(groups["A5"], PiSet([2]))


# ---------------------------------------------------------------- NR


def test_nr_check_inversion_scenario():
    scenario = corpus_split("S3")
    result = navarro_rizo_check(scenario)
    assert result.fixed_order == 1
    # Cleared identity: 1^2 * (3 * 3) == (3 * 1)^2, both sides 9.
    assert result.cleared_lhs == FactoredRational.one()
    assert as_fraction(result.cleared_rhs) == Fraction(9, 9)
    assert as_fraction(result.eq2_left) == 9
    assert as_fraction(result.eq2_right) == 9
    assert result.holds


def test_nr_check_trivial_action():
    scenario = corpus_split("C3xC2")
    result = navarro_rizo_check(scenario)
    assert result.fixed_order == 3
    assert result.eq2_left.is_one() and result.eq2_right.is_one()
    assert result.holds


def test_nr_check_c4_on_c5():
    scenario = corpus_split("F20")
    result = navarro_rizo_check(scenario)
    assert result.p == 2 and result.fixed_order == 1
    assert as_fraction(result.eq2_left) == 25
    assert result.holds


def test_nr_check_all_p_scenarios():
    for name in ("S3", "C3xC2", "D10", "F20", "F21", "S3xS3"):
        result = navarro_rizo_check(corpus_split(name))
        assert result.holds, name


def test_nr_check_rejects_non_p_group():
    with pytest.raises(ValueError, match="not a p-group"):
        navarro_rizo_check(corpus_split("F42"))


def test_nr_lambda_matches_hall_membership(groups, hall_ctx):
    # The centralizer-index counts must agree with honest Hall membership
    # counting in the semidirect product.
    for name, pi_text in (("S3", "2"), ("F20", "2"), ("F21", "3"), ("S3xS3", "2")):
        scenario = corpus_split(name)
        ctx = hall_ctx(name, pi_text)
        result = navarro_rizo_check(scenario)
        left, right = power_product_pair(ctx, result.p, scenario.complement)
        assert result.eq2_left == FactoredRational.from_int(left)
        assert result.eq2_right == FactoredRational.from_int(right)


def _split_outcomes(cases):
    """Per (G, pi) of ``cases``: the split, or the named error that refuses
    it, with the first Hall pi- and pi'-contexts when both exist."""
    for G, pi in cases:
        try:
            ctx = build_hall_context(G, pi)
            dual = build_hall_context(G, PiSet(prime_divisors(G.order // ctx.hall_order)))
        except NoHallSubgroupError:
            with pytest.raises(NoHallSubgroupError):
                coprime_split(G, pi)
            yield G, pi, None, None, None
            continue
        try:
            split = coprime_split(G, pi)
        except NoCoprimeSplitError:
            split = None
        yield G, pi, ctx, dual, split


def _corpus_and_s6_cases(groups):
    corpus = [(groups[e.name], pi) for e in corpus_entries()
              for pi in proper_prime_sets(groups[e.name])]
    s6 = [(H, pi) for H in s6_class_representatives() for pi in proper_prime_sets(H)]
    return {"corpus": corpus, "S6 classes": s6}


def test_every_normal_hall_split_of_the_corpus(groups):
    # The scan runs verify-nr and verify-wielandt on 8 entries; the corpus
    # has 21 normal Hall splits G = N H, one per pi whose Hall pi'-subgroup N
    # is normal, and S6's 56 subgroup classes have 23.  The Hall
    # pi-subgroups are then the complements of N, and x in H lies in
    # |C_N(x) : C_N(H)| of them, so the Hall context's lam on H is the
    # quotient of centralizer orders, counted here by Permutation products:
    # the paper's identity generalizes Navarro-Rizo's.  Wielandt's product
    # holds on every split, Navarro-Rizo's equations on each with a p-group
    # complement.  These are theorems, so a failure is a bug.
    counts = {}
    for label, cases in _corpus_and_s6_cases(groups).items():
        tally = Counter()
        for G, pi, ctx, _, split in _split_outcomes(cases):
            if split is None:
                tally["no Hall subgroup" if ctx is None else "not normal"] += 1
                continue
            where, N, H = (label, G, str(pi)), split.normal, split.complement
            lam, fixed = ctx.lam_values, centralizer_count(G, N, split.complement_gens)
            for x in H:
                assert lam[x] * fixed == centralizer_count(G, N, [x]), (where, x)
            assert wielandt_check(split).holds, where
            if len(prime_divisors(len(H))) == 1:
                assert navarro_rizo_check(split).holds, where
                tally["p-group complement"] += 1
            tally["split"] += 1
        counts[label] = tally
    assert counts == {
        "corpus": {"split": 21, "p-group complement": 16, "not normal": 25,
                   "no Hall subgroup": 22},
        "S6 classes": {"split": 23, "p-group complement": 23, "not normal": 39,
                       "no Hall subgroup": 28}}


def test_coprime_split_accepts_exactly_a_normal_hall_subgroup(groups):
    # coprime_split decides normality by counting the Hall pi'-subgroups: a
    # normal Hall subgroup is the only subgroup of its order, and one alone
    # in its order is normal.  The oracle is the product test g k g^-1 in N
    # on the first Hall pi'-subgroup, over every corpus group and proper pi
    # and S6's 56 class representatives.  An accepted split is N and the
    # first Hall pi-subgroup, meeting in the identity, with |N| |H| = |G|.
    decided = Counter()
    for cases in _corpus_and_s6_cases(groups).values():
        for G, pi, ctx, dual, split in _split_outcomes(cases):
            if ctx is None:
                continue
            normal = is_normal_in(canonical_hall(dual), G)
            assert (split is not None) == normal, (G, str(pi))
            decided[normal] += 1
            if split is not None:
                N, H = split.normal, split.complement
                assert (N, H) == (dual.hall_members[0], ctx.hall_members[0]), (G, str(pi))
                assert split.complement_gens == ctx._found[0][1], (G, str(pi))
                assert N & H == {0} and len(N) * len(H) == G.order, (G, str(pi))
                assert gcd(len(N), len(H)) == 1, (G, str(pi))
    assert decided == {True: 44, False: 64}


#: The N and H generators the corpus once designated for each scenario entry,
#: the oracle for the split found from the Hall subgroups.
DESIGNATED = {
    "C3xC2": (("(1 2 3)",), ("(4 5)",)),
    "S3": (("(1 2 3)",), ("(1 2)",)),
    "D10": (("(1 2 3 4 5)",), ("(2 5)(3 4)",)),
    "F20": (("(1 2 3 4 5)",), ("(2 3 5 4)",)),
    "F21": (("(1 2 3 4 5 6 7)",), ("(2 3 5)(4 7 6)",)),
    "F42": (("(1 2 3 4 5 6 7)",), ("(2 4 3 7 5 6)",)),
    "S3xS3": (("(1 2 3)", "(4 5 6)"), ("(2 3)", "(5 6)")),
    "C7:S3": (("(1 2 3 4 5 6 7)",), ("(8 9 10)", "(2 7)(3 6)(4 5)(9 10)")),
}


def test_coprime_split_matches_the_designated_subgroups(groups):
    # N is the one subgroup of its order; H may be any G-conjugate.
    assert set(DESIGNATED) == {e.name for e in corpus_entries() if e.scenario is not None}
    for name, (n_gens, h_gens) in DESIGNATED.items():
        G = groups[name]
        N, H = (close([P(s, G.degree) for s in gens]) for gens in (n_gens, h_gens))
        split = corpus_split(name)
        assert split.normal == members_in(G, N), name
        assert split.complement in {members_in(G, K) for K in conjugates(G, H)}, name


def test_coprime_split_refusals(groups):
    # A5 has no subgroup of order 20; in S3, C2 is found but is not normal.
    with pytest.raises(NoHallSubgroupError, match="no subgroup of order 20"):
        coprime_split(groups["A5"], PiSet([2, 5]))
    with pytest.raises(NoCoprimeSplitError, match=r"group of order 6 has 3 Hall subgroups "
                       r"for pi'=\{2\}, so none is normal: no coprime split for pi=\{3\}"):
        coprime_split(groups["S3"], PiSet([3]))


def test_scenario_validation(groups):
    # S3 = A3 C2 for pi = {2}; for pi = {3} the C2s are not normal.  S4 has a
    # normal Klein four-group but no normal Hall subgroup, so no split.
    S3 = groups["S3"]
    split = coprime_split(S3, PiSet([2]))
    A3 = close([P("(1 2 3)", 3)])
    assert split.normal == members_in(S3, A3)
    assert split.complement in {members_in(S3, close([P(t, 3)]))
                                for t in ("(1 2)", "(1 3)", "(2 3)")}
    assert split.complement == frozenset(split.complement_gens) | {0}
    with pytest.raises(NoCoprimeSplitError, match="so none is normal"):
        coprime_split(S3, PiSet([3]))
    for pi in ([2], [3]):
        with pytest.raises(NoCoprimeSplitError, match="so none is normal"):
            coprime_split(groups["S4"], PiSet(pi))


def test_scenario_acceptance_matches_definition(groups):
    # Every pair of subgroups (N, H) of S4 and S3xS3, on element sets: (N, H)
    # is a split when N is normal, N and H meet trivially, |N||H| = |G| and
    # the orders are coprime.  coprime_split accepts a proper pi exactly when
    # a split has |H| a pi-number; then N is that split's N and H one of its
    # complements.
    accepted = {}
    for name in ("S4", "S3xS3"):
        G = groups[name]
        gs = elements(G)
        subgroups = [H for d in divisors(G.order) for H in subgroups_of_order(G, d)]
        sets = [members_in(G, H) for H in subgroups]
        normal = [all(members_in(G, conjugated_by(H, g)) == S for g in gs)
                  for H, S in zip(subgroups, sets)]
        splits = {}
        for (Ns, is_normal), Hs in product(zip(sets, normal), sets):
            if (is_normal and Ns & Hs == {0} and len(Ns) * len(Hs) == G.order
                    and gcd(len(Ns), len(Hs)) == 1):
                splits.setdefault(PiSet(prime_divisors(len(Hs))), []).append((Ns, Hs))
        accepted[name] = sum(map(len, splits.values()))
        for pi in proper_prime_sets(G):
            try:
                split = coprime_split(G, pi)
            except NoCoprimeSplitError:
                assert pi not in splits, (name, str(pi))
            else:
                assert {N for N, _ in splits[pi]} == {split.normal}, (name, str(pi))
                assert split.complement in {H for _, H in splits[pi]}, (name, str(pi))
    assert accepted == {"S4": 2, "S3xS3": 11}


# ---------------------------------------------------------------- additive


def test_additive_value_examples(hall_ctx):
    assert additive_value(hall_ctx("A5", "2")) == 33
    assert additive_value(hall_ctx("SL(2,3)", "2")) == 0
    ctx = hall_ctx("S3", "7")  # pi-part 1: trivial Hall subgroup
    assert additive_value(ctx) == 1


def test_additive_value_hand_checked_cases(hall_ctx):
    # S4, pi={2}: lam is 3 on the normal Klein subgroup and 1 on the other
    # eight elements of a Sylow 2-subgroup, giving (4*3^8 + 4 - 8*3^4)/64.
    assert additive_value(hall_ctx("S4", "2")) == 400
    # D10, pi={2}: (5^2 + 1 - 2*5)/4.
    assert additive_value(hall_ctx("D10", "2")) == 4


def test_additive_value_independent_of_hall_choice(hall_ctx):
    for name, pi_text in (("A5", "2"), ("A5", "2,3"), ("S4", "2"),
                          ("F21", "3"), ("S4", "3")):
        ctx = hall_ctx(name, pi_text)
        if ctx.num_halls <= 10:
            values = {additive_value(ctx, K) for K in ctx.hall_members}
            assert len(values) == 1


def test_additive_value_nonseparable_is_still_integral(hall_ctx):
    for name, pi_text in (("A5", "2,3"), ("GL(3,2)", "2,3"), ("PSL(2,9)", "3"),
                          ("S5", "2,3")):
        beta = additive_value(hall_ctx(name, pi_text))
        assert beta.denominator == 1 and beta >= 0


# ---------------------------------------------------------------- Wielandt


def test_wielandt_v4_on_c3xc3():
    scenario = corpus_split("S3xS3")
    result = wielandt_check(scenario)
    assert result.lhs.is_one() and result.rhs.is_one()
    assert result.holds


def test_wielandt_trivial_complement(groups):
    # pi={2} on C3 x C3: H is trivial and N is the whole group.
    scenario = coprime_split(groups["C3xC3"], PiSet([2]))
    assert (len(scenario.normal), scenario.complement) == (9, frozenset({0}))
    result = wielandt_check(scenario)
    assert result.lhs == FactoredRational.from_int(9)
    assert result.holds


def test_wielandt_all_scenarios():
    for name in ("S3", "C3xC2", "D10", "F20", "F21", "F42", "S3xS3", "C7:S3"):
        result = wielandt_check(corpus_split(name))
        assert result.holds, name


def chain_product_value(scenario, n):
    """(|C_N(H)|^-|H| * prod |C_N(Z)|^(|Z| f(Z))) ^ totient(n), exactly,
    with the centralizer orders counted by Permutation products."""
    G, N, H = scenario.group, scenario.normal, scenario.complement
    fixed = centralizer_count(G, N, scenario.complement_gens)
    inner = FactoredRational.from_int(fixed).power(-len(H))
    for Z, g, f in cyclic_lattice(G, H):
        inner = inner.times_pow(centralizer_count(G, N, [g]), len(Z) * f)
    return inner.power(totient(n))


def test_chain_product_links_wielandt_to_mult(hall_ctx):
    # For a scenario entry with pi = primes(|H|), the multiplicative value
    # equals the centralizer chain product (both collapse to 1 exactly).
    for name, pi_text in (("S3", "2"), ("F20", "2"), ("F21", "3"),
                          ("F42", "2,3"), ("S3xS3", "2"), ("C7:S3", "2,3")):
        scenario = corpus_split(name)
        ctx = hall_ctx(name, pi_text)
        alpha = multiplicative_value(ctx, scenario.complement)
        assert alpha == chain_product_value(scenario, ctx.hall_order)


# ---------------------------------------------------------------- sym char


def _s2_alpha(sign):
    """The trivial (sign False) or sign (sign True) weight on S2."""
    return {P("()", 2): 1, P("(1 2)", 2): -1 if sign else 1}


def test_symmetrized_char_square_identities(hall_ctx):
    for name, pi_text in (("A5", "2"), ("S4", "2"), ("F21", "3")):
        ctx = hall_ctx(name, pi_text)
        chi = tau_by_element(ctx)
        sym_alpha, alt_alpha = _s2_alpha(False), _s2_alpha(True)
        for h in elements(ctx.group):
            sym = symmetrized(sym_alpha, chi, h)
            alt = symmetrized(alt_alpha, chi, h)
            assert alt == Fraction(chi[h] ** 2 - chi[power(h, 2)], 2)
            assert sym + alt == chi[h] ** 2
            assert sym - alt == chi[power(h, 2)]


def test_symmetrized_char_with_trivial_character(groups):
    S3 = elements(groups["S3"])
    ones, h = dict.fromkeys(S3, 1), S3[1]
    assert symmetrized(_s2_alpha(False), ones, h) == 1
    assert symmetrized(_s2_alpha(True), ones, h) == 0


def test_cyclic_symmetrized_char_of_constant_one(groups):
    S4 = elements(groups["S4"])
    ones = dict.fromkeys(S4, 1)
    for n in (2, 3, 4, 6, 12):
        assert all(cyclic_symmetrized(ones, n, h) == 0 for h in S4)


def _irreducible_cubics_over_f2():
    # Brute force: a monic cubic over F2 is irreducible iff it has no root.
    count = 0
    for a, b, c in product((0, 1), repeat=3):
        if all((x**3 + a * x * x + b * x + c) % 2 for x in (0, 1)):
            count += 1
    return count


def test_cyclic_symmetrized_char_counts_irreducible_cubics():
    one_point = close([], degree=1)
    value = cyclic_symmetrized({one_point.identity: 2}, 3, one_point.identity)
    assert value == 2
    assert value == _irreducible_cubics_over_f2()


def test_cyclic_symmetrized_char_average_is_additive_value(hall_ctx):
    for name, pi_text in (("A5", "2"), ("S4", "2"), ("F21", "3"), ("F42", "2,3")):
        ctx = hall_ctx(name, pi_text)
        chi = tau_by_element(ctx)
        H = canonical_hall(ctx)
        avg = sum((cyclic_symmetrized(chi, ctx.hall_order, h)
                   for h in elements(H)), Fraction(0)) / H.order
        assert avg == additive_value(ctx)


# ---------------------------------------------------------------- Burnside


def _orbit_count_by_enumeration(action, H, k):
    """Independent oracle: explicitly enumerate tuples and join orbits."""
    points = range(action.size)
    tuples = list(product(points, repeat=k))
    index = {t: i for i, t in enumerate(tuples)}
    parent = list(range(len(tuples)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for t in tuples:
        for h in elements(H):
            image = tuple(action._rows[h][p] for p in t)
            a, b = find(index[t]), find(index[image])
            if a != b:
                parent[a] = b
    return len({find(i) for i in range(len(tuples))})


def test_burnside_orbit_count_157(hall_ctx):
    ctx = hall_ctx("A5", "2")
    H, G, halls = canonical_hall(ctx), ctx.group, ctx.halls
    count = burnside_orbit_count(H, tau_by_element(ctx), 4)
    assert count == 157
    by_set = {frozenset(elements(K)): i for i, K in enumerate(halls)}
    action = FiniteAction.build(
        G, len(halls), lambda g, i: by_set[frozenset(elements(conjugated_by(halls[i], g)))])
    assert count == _orbit_count_by_enumeration(action, H, 4)


def test_burnside_transitive_single_orbit(hall_ctx):
    ctx = hall_ctx("A5", "2")
    assert burnside_orbit_count(ctx.group, tau_by_element(ctx), 1) == 1


def test_burnside_trivial_group_counts_tuples(hall_ctx):
    ctx = hall_ctx("A5", "2")
    tau = tau_by_element(ctx)
    assert burnside_orbit_count(close([], degree=5), tau, 3) == 125


# ---------------------------------------------------------------- interpretation


def test_interpretation_a5(hall_ctx):
    ctx = hall_ctx("A5", "2")
    tau = tau_by_element(ctx)
    H = canonical_hall(ctx)
    f4 = burnside_orbit_count(H, tau, 4)
    f2 = burnside_orbit_count(power_subgroup(H, 2), tau, 2)
    assert (f4, f2) == (157, 25)
    assert Fraction(f4 - f2, 4) == additive_value(ctx) == 33
    assert interpretation_check(ctx)


def test_interpretation_prime_order_hall(hall_ctx):
    assert interpretation_check(hall_ctx("A5", "5"))
    assert interpretation_check(hall_ctx("S3", "3"))


def test_interpretation_normal_hall(hall_ctx):
    ctx = hall_ctx("D10", "5")
    assert additive_value(ctx) == 0
    assert interpretation_check(ctx)


def test_interpretation_abelian_cases(hall_ctx):
    for name, pi_text in (("F20", "2"), ("F21", "3"), ("SL(2,3)", "3"),
                          ("GL(3,2)", "3"), ("PSL(2,9)", "3")):
        assert interpretation_check(hall_ctx(name, pi_text))


def test_interpretation_rejects_non_abelian(hall_ctx):
    with pytest.raises(ValueError, match="abelian"):
        interpretation_check(hall_ctx("S4", "2"))


# ---------------------------------------------------------------- bound


def test_power_sum_bound_named_cases():
    assert power_sum_bound_holds(3, 4)          # 4 * (9 + 3) = 48 < 81
    assert power_sum_bound_holds(3, 2)          # 6 < 9
    assert power_sum_bound_holds(10, 12)


def test_power_sum_bound_range():
    assert all(power_sum_bound_holds(t, n)
               for t in range(3, 11) for n in range(2, 13))


def test_power_sum_bound_rejects_small_arguments():
    with pytest.raises(ValueError):
        power_sum_bound_holds(2, 4)


# ---------------------------------------------------------------- curiosity


def test_curiosity_value_matches_reference(hall_ctx):
    value = curiosity_value(hall_ctx("A5", "3"))
    assert value == Fraction(A5_CURIOSITY)


def test_curiosity_tau_degree_is_ten(hall_ctx):
    ctx = hall_ctx("A5", "3")
    assert ctx.num_halls == 10
    assert tau_by_element(ctx)[ctx.group.identity] == 10


def test_curiosity_trivial_group():
    G = close([], degree=1)
    assert curiosity_value(build_hall_context(G, PiSet([3])), 1) == 1


def test_curiosity_refuses_a_power_sum_past_the_digit_limit(hall_ctx):
    # tau(1) = 10 on A5, so n = 4400 gives a sum of about 4400 digits.
    assert curiosity_value(hall_ctx("A5", "3"), 4000) > 0
    with pytest.raises(PowerSumTooLargeError, match="limit 4300"):
        curiosity_value(hall_ctx("A5", "3"), 4400)


# ---------------------------------------------------------------- lambda factorization


def test_lambda_factors_through_pi_prime_core(groups, hall_ctx):
    # lam_G(x) = lam_{HN}(x) * lam_{G/N}(xN) with N the pi'-core, the largest
    # normal pi'-subgroup of the class-union scan.
    for name, pi_text in (("S4", "3"), ("F42", "2"), ("SL(2,3)", "3")):
        G = groups[name]
        pi = PiSet.parse(pi_text)
        ctx = hall_ctx(name, pi_text)
        N = max((N for N in normal_subgroups(G) if is_pi_prime(N.order, pi)),
                key=lambda N: N.order)
        H = canonical_hall(ctx)
        HN = close(list(H.generators) + list(N.generators))
        lam, lam_hn = lam_by_element(ctx), lam_by_element(build_hall_context(HN, pi))
        Q, proj = quotient_direct(G, N)
        lam_q = lam_by_element(build_hall_context(Q, pi))
        for x in elements(H):
            assert lam[x] == lam_hn[x] * lam_q[proj[x]]


# ---------------------------------------------------------------- index path


def test_index_path_matches_permutation_oracles(groups):
    # The verifiers take powers on element indices and read lam and tau as
    # lists.  The references take power(x, d) on permutations and read the
    # element-keyed lam and tau: the oracles' products, cyclic symmetrizations,
    # Burnside orbit counts and power subgroups.
    cases = [(e.name, groups[e.name], pi) for e in corpus_entries() for pi in e.check_pis]
    cases += [("S5 class", H, pi) for H in s5_subgroup_classes()[1]
              for pi in proper_prime_sets(H)]
    checked = abelian = 0
    for name, G, pi in cases:
        try:
            ctx = build_hall_context(G, pi)
        except NoHallSubgroupError:
            continue
        where, H, n = (name, str(pi)), canonical_hall(ctx), ctx.hall_order
        for use_radical in (False, True):
            assert (multiplicative_value(ctx, use_radical=use_radical)
                    == multiplicative_value_direct(ctx, use_radical)), where
        for p in pi:
            assert power_product_pair(ctx, p) == power_product_pair_direct(ctx, p), where
        # The additive value is the mean over H of the cyclic symmetrization of lam.
        lam = lam_by_element(ctx)
        additive = sum((cyclic_symmetrized(lam, n, h) for h in elements(H)),
                       Fraction(0)) / n
        assert additive_value(ctx) == additive, where
        tau = tau_by_element(ctx)
        S = sum(t * t for t in tau.values())
        T = sum(tau[g * g] for g in elements(G))
        averaged = sum((cyclic_symmetrized(tau, n, h) for h in elements(H)),
                       Fraction(0)) / H.order
        assert sym_char_sums(ctx) == (S, T, averaged), where
        # The curiosity value is the same mean over all of G, with n = |G| up
        # to S5's order; the larger groups' sums take seconds.
        m = min(G.order, 120)
        curiosity = sum((cyclic_symmetrized(tau, m, g) for g in elements(G)),
                        Fraction(0)) / m
        assert curiosity_value(ctx, m) == curiosity, where
        if is_abelian(H):
            abelian += 1
            orbits = sum((Fraction(moebius(d) * burnside_orbit_count(
                power_subgroup(H, d), tau, n // d), n)
                for d in divisors(n) if moebius(d)), Fraction(0))
            assert orbits == additive and interpretation_check(ctx), where
            elems = elements(G)
            for d in divisors(n):
                powers = {elems[G.power_index(i, d)] for i in ctx.hall_members[0]}
                assert powers == frozenset(elements(power_subgroup(H, d))), (where, d)
        checked += 1
    assert (checked, abelian) == (56 + 24, 62)


@settings(max_examples=20, deadline=None)
@given(random_generating_sets())
def test_moebius_sums_match_the_oracles_on_random_groups(drawn):
    # The verifiers run over the squarefree divisors and power each value of
    # lam or tau once; the references power one element at a time, over every
    # divisor that mu does not vanish on, on permutations.
    degree, images = drawn
    G = close([Permutation(g) for g in images], degree=degree)
    for pi in proper_prime_sets(G):
        try:
            ctx = build_hall_context(G, pi)
        except NoHallSubgroupError:
            continue
        where, n, H = (images, str(pi)), ctx.hall_order, elements(canonical_hall(ctx))
        for use_radical in (False, True):
            assert (multiplicative_value(ctx, use_radical=use_radical)
                    == multiplicative_value_direct(ctx, use_radical)), where

        def moebius_sum(chi):
            return Fraction(sum(moebius(d) * chi[power(h, d)] ** (n // d)
                                for d in divisors(n) if moebius(d) for h in H), n * n)
        assert additive_value(ctx) == moebius_sum(lam_by_element(ctx)), where
        assert sym_char_sums(ctx)[2] == moebius_sum(tau_by_element(ctx)), where
        assert not ctx.hall_is_abelian() or interpretation_check(ctx), where


def _assert_power_tables(G, ctx, where):
    """Each Hall subgroup's d-th-power table counts power_index over its own
    members, for every d | n, and so do its lam totals, lam read at each
    power; both are kept per Hall subgroup: a second read returns them."""
    for members in ctx.hall_members:
        for d in divisors(ctx.hall_order):
            table, totals = ctx.power_table(members, d), ctx.lam_totals(members, d)
            assert table == Counter(G.power_index(i, d) for i in members), (where, d)
            assert totals == Counter(ctx.lam_values[G.power_index(i, d)] for i in members)
            assert ctx.power_table(members, d) is table, (where, d)
            assert ctx.lam_totals(members, d) is totals, (where, d)
    assert len({id(ctx.lam_totals(members, 1)) for members in ctx.hall_members}) == ctx.num_halls


def test_power_tables_are_kept_per_hall_subgroup(groups):
    # Every corpus pair with a Hall subgroup, 34 of them with more than one,
    # whose tables differ; interpretation_check reads the canonical one's key
    # set as H^d, the power subgroup of the oracle.
    several = 0
    for entry in corpus_entries():
        G = groups[entry.name]
        for pi in entry.check_pis:
            try:
                ctx = build_hall_context(G, pi)
            except NoHallSubgroupError:
                continue
            where = (entry.name, str(pi))
            _assert_power_tables(G, ctx, where)
            several += ctx.num_halls > 1
            H = canonical_hall(ctx)
            if is_abelian(H):
                elems = elements(G)
                for d in divisors(ctx.hall_order):
                    Hd = {elems[j] for j in ctx.power_table(ctx.hall_members[0], d)}
                    assert Hd == frozenset(elements(power_subgroup(H, d))), (where, d)
    assert several == 34


@settings(max_examples=20, deadline=None)
@given(random_generating_sets())
def test_power_tables_match_power_index_on_random_groups(drawn):
    degree, images = drawn
    G = close([Permutation(g) for g in images], degree=degree)
    for pi in proper_prime_sets(G):
        try:
            ctx = build_hall_context(G, pi)
        except NoHallSubgroupError:
            continue
        _assert_power_tables(G, ctx, (images, str(pi)))
