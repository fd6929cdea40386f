"""Identity verifiers against hand-checked cases and independent oracles."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from hallfix import (CharacterTable, CoprimeActionScenario, FactoredRational, FiniteAction,
                     NoHallSubgroupError, PiSet, SymCharSpec, additive_value,
                     build_hall_context, burnside_orbit_count, centralizer, close,
                     conjugation_character, core_pi_complement, corpus_entries,
                     curiosity_value, cyclic_lattice, cyclic_symmetrized_char, divisors,
                     get_entry, interpretation_check, load_scenario, moebius, multiplicative_value,
                     navarro_rizo_check, parse_permutation, power_product_pair,
                     power_sum_bound_holds, power_subgroup, subgroups_of_order,
                     symmetrized_char, totient, trivial_group, wielandt_check)
from hallfix.corpus import A5_CURIOSITY
from hallfix.verify import PowerSumTooLargeError, sym_char_sums
from oracles import (conjugate_set, conjugated_by, multiplicative_value_direct,
                     power_product_pair_direct, proper_prime_sets, quotient_direct,
                     s5_subgroup_classes)


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
    assert ctx.canonical_hall == ctx.group
    assert multiplicative_value(ctx).is_one()


def test_multiplicative_value_a5_counterexample(hall_ctx):
    ctx = hall_ctx("A5", "2")
    value = multiplicative_value(ctx)
    assert value.factors() == {5: -4}
    reduced = multiplicative_value(ctx, use_radical=True)
    assert reduced.factors() == {5: -2}
    # Hall order 4 has radical 2, so the full value is the square.
    assert value == reduced.power(2)


def test_multiplicative_value_independent_of_hall_choice(hall_ctx):
    for name, pi_text in (("S4", "2"), ("F21", "3"), ("A5", "2"), ("A4", "3")):
        ctx = hall_ctx(name, pi_text)
        values = {multiplicative_value(ctx, K) for K in ctx.halls}
        assert len(values) == 1


def test_multiplicative_value_rejects_foreign_subgroup(hall_ctx):
    ctx = hall_ctx("A5", "2")
    with pytest.raises(ValueError, match="not one of the Hall subgroups"):
        multiplicative_value(ctx, trivial_group(5))


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
    H = ctx.canonical_hall
    assert sorted(ctx.lam_of(x) for x in H.elements) == [1, 1, 5, 5, 5, 5, 5, 21]
    left, right = power_product_pair(ctx, 2)
    assert (left, right) == (2144153025, 4306640625)


def test_counterexamples_deviate_on_opposite_sides(hall_ctx):
    a5 = multiplicative_value(hall_ctx("A5", "2")).as_fraction()
    gl = multiplicative_value(hall_ctx("GL(3,2)", "2")).as_fraction()
    assert a5 < 1 < gl
    assert multiplicative_value(hall_ctx("GL(3,2)", "2")).factors() == {
        3: -16, 5: 32, 7: -16}


# ---------------------------------------------------------------- cyclic case


def cyclic_hall_check(G, pi):
    """The multiplicative identity for a cyclic Hall subgroup of an arbitrary group.

    Holds without any separability hypothesis.  Raises if no Hall subgroup
    exists; requires at least one cyclic member, and checks every cyclic one.
    """
    ctx = build_hall_context(G, pi)
    cyclic_halls = [K for K in ctx.halls if K.is_cyclic()]
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
    scenario = load_scenario(get_entry("S3"))
    result = navarro_rizo_check(scenario)
    assert result.fixed_order == 1
    # Cleared identity: 1^2 * (3 * 3) == (3 * 1)^2, both sides 9.
    assert result.cleared_lhs == FactoredRational.one()
    assert result.cleared_rhs.as_fraction() == Fraction(9, 9)
    assert result.eq2_left.as_fraction() == 9
    assert result.eq2_right.as_fraction() == 9
    assert result.holds


def test_nr_check_trivial_action():
    scenario = load_scenario(get_entry("C3xC2"))
    result = navarro_rizo_check(scenario)
    assert result.fixed_order == 3
    assert result.eq2_left.is_one() and result.eq2_right.is_one()
    assert result.holds


def test_nr_check_c4_on_c5():
    scenario = load_scenario(get_entry("F20"))
    result = navarro_rizo_check(scenario)
    assert result.p == 2 and result.fixed_order == 1
    assert result.eq2_left.as_fraction() == 25
    assert result.holds


def test_nr_check_all_p_scenarios():
    for name in ("S3", "C3xC2", "D10", "F20", "F21", "S3xS3"):
        result = navarro_rizo_check(load_scenario(get_entry(name)))
        assert result.holds, name


def test_nr_check_rejects_non_p_group():
    with pytest.raises(ValueError, match="not a p-group"):
        navarro_rizo_check(load_scenario(get_entry("F42")))


def test_nr_lambda_matches_hall_membership(groups, hall_ctx):
    # The centralizer-index counts must agree with honest Hall membership
    # counting in the semidirect product.
    for name, pi_text in (("S3", "2"), ("F20", "2"), ("F21", "3"), ("S3xS3", "2")):
        scenario = load_scenario(get_entry(name))
        ctx = hall_ctx(name, pi_text)
        result = navarro_rizo_check(scenario)
        left, right = power_product_pair(ctx, result.p, scenario.complement)
        assert result.eq2_left == FactoredRational.from_int(left)
        assert result.eq2_right == FactoredRational.from_int(right)


def test_scenario_validation():
    S3 = close([P("(1 2)", 3), P("(1 2 3)", 3)])
    A3 = close([P("(1 2 3)", 3)])
    C2 = close([P("(1 2)", 3)])
    CoprimeActionScenario(S3, A3, C2)
    with pytest.raises(ValueError, match="normal"):
        CoprimeActionScenario(S3, C2, A3)
    with pytest.raises(ValueError, match="is not the product"):
        CoprimeActionScenario(S3, A3, A3)
    # N = H: normal, orders multiply to |G|, but N and H meet nontrivially.
    C4 = close([P("(1 2 3 4)", 4)])
    V = close([P("(1 3)(2 4)", 4)])
    with pytest.raises(ValueError, match="coprime"):
        CoprimeActionScenario(C4, V, V)


def test_scenario_acceptance_matches_definition(groups):
    # Every pair of subgroups (N, H) of S4 and S3xS3: a scenario is accepted
    # exactly when N is normal, N and H meet trivially, |N||H| = |G| and the
    # orders are coprime, all decided on element sets.
    accepted = {}
    for name in ("S4", "S3xS3"):
        G = groups[name]
        subgroups = [H for d in divisors(G.order) for H in subgroups_of_order(G, d)]
        sets = [H.element_set() for H in subgroups]
        normal = [all(conjugate_set(S, g) == S for g in G.elements) for S in sets]
        accepted[name] = 0
        for (N, Ns, is_normal), (H, Hs) in product(zip(subgroups, sets, normal),
                                                   zip(subgroups, sets)):
            expect = (is_normal and len(Ns & Hs) == 1 and N.order * H.order == G.order
                      and gcd(N.order, H.order) == 1)
            try:
                CoprimeActionScenario(G, N, H)
            except ValueError:
                assert not expect, (name, N, H)
            else:
                assert expect, (name, N, H)
                accepted[name] += 1
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
            values = {additive_value(ctx, K) for K in ctx.halls}
            assert len(values) == 1


def test_additive_value_nonseparable_is_still_integral(hall_ctx):
    for name, pi_text in (("A5", "2,3"), ("GL(3,2)", "2,3"), ("PSL(2,9)", "3"),
                          ("S5", "2,3")):
        beta = additive_value(hall_ctx(name, pi_text))
        assert beta.denominator == 1 and beta >= 0


# ---------------------------------------------------------------- Wielandt


def test_wielandt_v4_on_c3xc3():
    scenario = load_scenario(get_entry("S3xS3"))
    result = wielandt_check(scenario)
    assert result.lhs.is_one() and result.rhs.is_one()
    assert result.holds


def test_wielandt_trivial_complement(groups):
    N = groups["C3xC3"]
    scenario = CoprimeActionScenario(N, N, trivial_group(N.degree))
    result = wielandt_check(scenario)
    assert result.lhs == FactoredRational.from_int(9)
    assert result.holds


def test_wielandt_all_scenarios():
    for name in ("S3", "C3xC2", "D10", "F20", "F21", "F42", "S3xS3", "C7:S3"):
        result = wielandt_check(load_scenario(get_entry(name)))
        assert result.holds, name


def chain_product_value(scenario, n):
    """(|C_N(H)|^-|H| * prod |C_N(Z)|^(|Z| f(Z))) ^ totient(n), exactly."""
    N, H = scenario.normal, scenario.complement
    lattice = cyclic_lattice(H)
    inner = FactoredRational.from_int(centralizer(N, H).order).power(-H.order)
    for i, Z in enumerate(lattice.subgroups):
        inner = inner.times_pow(centralizer(N, Z).order, Z.order * lattice.weight(i))
    return inner.power(totient(n))


def test_chain_product_links_wielandt_to_mult(hall_ctx):
    # For a scenario entry with pi = primes(|H|), the multiplicative value
    # equals the centralizer chain product (both collapse to 1 exactly).
    for name, pi_text in (("S3", "2"), ("F20", "2"), ("F21", "3"),
                          ("F42", "2,3"), ("S3xS3", "2"), ("C7:S3", "2,3")):
        scenario = load_scenario(get_entry(name))
        ctx = hall_ctx(name, pi_text)
        alpha = multiplicative_value(ctx, scenario.complement)
        assert alpha == chain_product_value(scenario, ctx.hall_order)


# ---------------------------------------------------------------- sym char


def _s2_spec(sign):
    S2 = close([P("(1 2)", 2)])
    ident = S2.identity
    swap = P("(1 2)", 2)
    alpha = {ident: 1, swap: -1 if sign else 1}
    return SymCharSpec(S2, alpha)


def test_symmetrized_char_square_identities(hall_ctx):
    for name, pi_text in (("A5", "2"), ("S4", "2"), ("F21", "3")):
        ctx = hall_ctx(name, pi_text)
        chi = conjugation_character(ctx)
        sym_spec, alt_spec = _s2_spec(False), _s2_spec(True)
        for h in ctx.group.elements:
            sym = symmetrized_char(sym_spec, chi, h)
            alt = symmetrized_char(alt_spec, chi, h)
            assert alt == (chi(h) ** 2 - chi(h**2)) / 2
            assert sym + alt == chi(h) ** 2
            assert sym - alt == chi(h**2)


def test_symmetrized_char_with_trivial_character(groups):
    ones = CharacterTable(groups["S3"], {g: 1 for g in groups["S3"].elements})
    h = groups["S3"].elements[1]
    assert symmetrized_char(_s2_spec(False), ones, h) == 1
    assert symmetrized_char(_s2_spec(True), ones, h) == 0


def test_cyclic_symmetrized_char_of_constant_one(groups):
    ones = CharacterTable(groups["S4"], {g: 1 for g in groups["S4"].elements})
    for n in (2, 3, 4, 6, 12):
        assert all(cyclic_symmetrized_char(ones, n, h) == 0
                   for h in groups["S4"].elements)


def _irreducible_cubics_over_f2():
    # Brute force: a monic cubic over F2 is irreducible iff it has no root.
    count = 0
    for a, b, c in product((0, 1), repeat=3):
        if all((x**3 + a * x * x + b * x + c) % 2 for x in (0, 1)):
            count += 1
    return count


def test_cyclic_symmetrized_char_counts_irreducible_cubics():
    one_point = trivial_group(1)
    chi = CharacterTable(one_point, {one_point.identity: 2})
    value = cyclic_symmetrized_char(chi, 3, one_point.identity)
    assert value == 2
    assert value == _irreducible_cubics_over_f2()


def test_cyclic_symmetrized_char_average_is_additive_value(hall_ctx):
    for name, pi_text in (("A5", "2"), ("S4", "2"), ("F21", "3"), ("F42", "2,3")):
        ctx = hall_ctx(name, pi_text)
        chi = conjugation_character(ctx)
        H = ctx.canonical_hall
        avg = sum((cyclic_symmetrized_char(chi, ctx.hall_order, h)
                   for h in H.elements), Fraction(0)) / H.order
        assert avg == additive_value(ctx)


def test_sym_char_spec_validation(groups):
    S3 = groups["S3"]
    with pytest.raises(ValueError, match="class function"):
        SymCharSpec(S3, {g: i for i, g in enumerate(S3.elements)})
    with pytest.raises(ValueError, match="total"):
        SymCharSpec(S3, {S3.identity: 1})


def test_character_table_validation(groups):
    S3 = groups["S3"]
    with pytest.raises(ValueError, match="conjugacy class"):
        CharacterTable(S3, {g: (2 if g == P("(1 2)", 3) else 1)
                            for g in S3.elements})
    with pytest.raises(ValueError, match="identity"):
        CharacterTable(S3, {g: 0 for g in S3.elements})


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
        for h in H.elements:
            image = tuple(action._rows[h][p] for p in t)
            a, b = find(index[t]), find(index[image])
            if a != b:
                parent[a] = b
    return len({find(i) for i in range(len(tuples))})


def test_burnside_orbit_count_157(hall_ctx):
    ctx = hall_ctx("A5", "2")
    H, G, halls = ctx.canonical_hall, ctx.group, ctx.halls
    count = burnside_orbit_count(H, ctx.fixed_hall_counts(), 4)
    assert count == 157
    by_set = {K.element_set(): i for i, K in enumerate(halls)}
    action = FiniteAction.build(
        G, len(halls), lambda g, i: by_set[conjugated_by(halls[i], g).element_set()])
    assert count == _orbit_count_by_enumeration(action, H, 4)


def test_burnside_transitive_single_orbit(hall_ctx):
    ctx = hall_ctx("A5", "2")
    assert burnside_orbit_count(ctx.group, ctx.fixed_hall_counts(), 1) == 1


def test_burnside_trivial_group_counts_tuples(hall_ctx):
    ctx = hall_ctx("A5", "2")
    tau = ctx.fixed_hall_counts()
    assert burnside_orbit_count(trivial_group(5), tau, 3) == 125


def test_burnside_tuple_cap(hall_ctx):
    ctx = hall_ctx("A5", "2")
    tau = ctx.fixed_hall_counts()
    with pytest.raises(ValueError, match="exceeds the cap"):
        burnside_orbit_count(ctx.group, tau, 11)
    assert burnside_orbit_count(ctx.group, tau, 11, tuple_cap=None) > 0


# ---------------------------------------------------------------- interpretation


def test_interpretation_a5(hall_ctx):
    ctx = hall_ctx("A5", "2")
    tau = ctx.fixed_hall_counts()
    H = ctx.canonical_hall
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


def test_curiosity_value_matches_reference(groups):
    value = curiosity_value(groups["A5"], PiSet([3]))
    assert value == Fraction(A5_CURIOSITY)


def test_curiosity_tau_degree_is_ten(hall_ctx):
    ctx = hall_ctx("A5", "3")
    assert ctx.num_halls == 10
    assert ctx.fixed_hall_counts()[ctx.group.identity] == 10


def test_curiosity_trivial_group():
    G = trivial_group(1)
    assert curiosity_value(G, PiSet([3]), 1) == 1


def test_curiosity_refuses_a_power_sum_past_the_digit_limit(groups):
    # tau(1) = 10 on A5, so n = 4400 gives a sum of about 4400 digits.
    assert curiosity_value(groups["A5"], PiSet([3]), 4000) > 0
    with pytest.raises(PowerSumTooLargeError, match="limit 4300"):
        curiosity_value(groups["A5"], PiSet([3]), 4400)


# ---------------------------------------------------------------- lambda factorization


def test_lambda_factors_through_pi_prime_core(groups, hall_ctx):
    # lam_G(x) = lam_{HN}(x) * lam_{G/N}(xN) with N the pi'-core.
    for name, pi_text in (("S4", "3"), ("F42", "2"), ("SL(2,3)", "3")):
        G = groups[name]
        pi = PiSet.parse(pi_text)
        ctx = hall_ctx(name, pi_text)
        N = core_pi_complement(G, pi)
        H = ctx.canonical_hall
        HN = close(list(H.generators) + list(N.generators))
        ctx_hn = build_hall_context(HN, pi)
        Q, proj = quotient_direct(G, N)
        ctx_q = build_hall_context(Q, pi)
        for x in H.elements:
            assert ctx.lam_of(x) == ctx_hn.lam_of(x) * ctx_q.lam_of(proj[x])


# ---------------------------------------------------------------- index path


def test_index_path_matches_permutation_oracles(groups):
    # The verifiers take powers on element indices and read lam and tau as
    # lists.  The references take x**d on permutations and read the
    # element-keyed lam and tau: the oracles' products, and the package's own
    # cyclic_symmetrized_char, burnside_orbit_count and power_subgroup.
    cases = [(e.name, groups[e.name], pi) for e in corpus_entries() for pi in e.check_pis]
    cases += [("S5 class", H, pi) for H in s5_subgroup_classes()[1]
              for pi in proper_prime_sets(H)]
    checked = abelian = 0
    for name, G, pi in cases:
        try:
            ctx = build_hall_context(G, pi)
        except NoHallSubgroupError:
            continue
        where, H, n = (name, str(pi)), ctx.canonical_hall, ctx.hall_order
        for use_radical in (False, True):
            assert (multiplicative_value(ctx, use_radical=use_radical)
                    == multiplicative_value_direct(ctx, use_radical)), where
        for p in pi:
            assert power_product_pair(ctx, p) == power_product_pair_direct(ctx, p), where
        # The additive value is the mean over H of the cyclic symmetrization of lam.
        lam = CharacterTable(G, ctx.lam, validate=False)
        additive = sum((cyclic_symmetrized_char(lam, n, h) for h in H.elements),
                       Fraction(0)) / n
        assert additive_value(ctx) == additive, where
        tau, chi = ctx.fixed_hall_counts(), conjugation_character(ctx)
        S = sum(t * t for t in tau.values())
        T = sum(tau[g * g] for g in G.elements)
        averaged = sum((cyclic_symmetrized_char(chi, n, h) for h in H.elements),
                       Fraction(0)) / H.order
        assert sym_char_sums(ctx) == (S, T, averaged), where
        # The curiosity value is the same mean over all of G, with n = |G| up
        # to S5's order; the larger groups' sums take seconds.
        m = min(G.order, 120)
        curiosity = sum((cyclic_symmetrized_char(chi, m, g) for g in G.elements),
                        Fraction(0)) / m
        assert curiosity_value(G, pi, m) == curiosity, where
        if H.is_abelian():
            abelian += 1
            orbits = sum((Fraction(moebius(d) * burnside_orbit_count(
                power_subgroup(H, d), tau, n // d, tuple_cap=None), n)
                for d in divisors(n) if moebius(d)), Fraction(0))
            assert orbits == additive and interpretation_check(ctx), where
            for d in divisors(n):
                powers = {G.elements[G.power_index(i, d)] for i in ctx.hall_members[0]}
                assert powers == power_subgroup(H, d).element_set(), (where, d)
        checked += 1
    assert (checked, abelian) == (56 + 24, 62)
