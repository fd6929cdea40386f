"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact (integer / factored-rational equality);
the only tolerances are the two wall-clock budgets stated alongside the
criteria they belong to.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

from hallfix import (PiSet, NoHallSubgroupError, build_hall_context,
                     additive_value, close, corpus_entries,
                     is_pi_separable, load_group, multiplicative_value,
                     navarro_rizo_check, subgroups_of_order, wielandt_check)
from hallfix.cli import main
from hallfix.corpus import A5_CURIOSITY
from hallfix.perm import parse_permutation
from oracles import (as_fraction, burnside_orbit_count, canonical_hall, corpus_split,
                     cyclic_symmetrized, divisors, lam_by_element, moebius,
                     moebius_partition_check, power, power_product_pair, power_subgroup,
                     power_sum_bound_holds, symmetrized, tau_by_element, totient)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_curiosity_bit_exact(capsys):
    start = time.perf_counter()
    code = main(["curiosity", "--group", "A5"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = (code == 0
          and out.strip() == str(A5_CURIOSITY)
          and out.strip() == "277777777777777777777777777773333333332754803832758090933"
          and elapsed < 10.0)
    with capsys.disabled():
        _report(1, "curiosity bit-exactness", ok)


def test_criterion_02_multiplicative_identity_suite():
    pairs = [
        ("S4", "2"), ("SL(2,3)", "2"), ("D10", "5"), ("F21", "3"),   # single prime
        ("S4", "2,3"), ("F21xC2", "3,7"),                            # multi prime
        ("F42", "2,3"), ("C7:S3", "2,3"), ("F42", "3,7"),            # solvable extras
        ("A4", "3"), ("F20", "2"), ("S4", "3"),
    ]
    start = time.perf_counter()
    ok = len(pairs) >= 8
    for name, pi_text in pairs:
        G = load_group(name)
        pi = PiSet.parse(pi_text)
        ok = ok and is_pi_separable(G, pi)
        value = multiplicative_value(build_hall_context(G, pi))
        ok = ok and value.is_one() and str(value) == "1"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(2, "multiplicative identity on separable pairs", ok)


def test_criterion_03_counterexample_reproduction(hall_ctx):
    a5 = hall_ctx("A5", "2")
    gl = hall_ctx("GL(3,2)", "2")
    reduced = multiplicative_value(a5, use_radical=True)
    full = multiplicative_value(a5)
    left, right = power_product_pair(a5, 2)
    gl_value = multiplicative_value(gl)
    ok = (str(reduced) == "5^-2"
          and (right, left) == (25, 625)
          and full == reduced.power(2)          # Hall order 4 vs radical 2
          and not gl_value.is_one()
          # deviations sit on opposite sides of 1
          and as_fraction(full) < 1 < as_fraction(gl_value))
    _report(3, "A5 / GL(3,2) counterexamples", ok)


def test_criterion_04_additive_suite(groups, hall_ctx):
    ok = True
    for entry in corpus_entries():
        for pi in entry.check_pis:
            try:
                ctx = hall_ctx(entry.name, str(pi))
            except NoHallSubgroupError:
                continue
            beta = additive_value(ctx)
            ok = ok and beta.denominator == 1 and beta >= 0
            normal_nontrivial = (ctx.num_halls == 1 and ctx.hall_order > 1)
            ok = ok and (beta == 0) == normal_nontrivial
            if ctx.hall_order == 1:
                ok = ok and beta == 1
    ok = ok and additive_value(hall_ctx("SL(2,3)", "2")) == 0
    ok = ok and additive_value(hall_ctx("S4", "2,3")) == 0
    # the pinned A5 value, confirmed through the orbit-count oracle
    a5 = hall_ctx("A5", "2")
    tau = tau_by_element(a5)
    H = canonical_hall(a5)
    f4 = burnside_orbit_count(H, tau, 4)
    f2 = burnside_orbit_count(power_subgroup(H, 2), tau, 2)
    ok = ok and (f4, f2) == (157, 25)
    ok = ok and additive_value(a5) == Fraction(f4 - f2, 4) == 33
    ok = ok and additive_value(hall_ctx("A5", "2,3")) >= 0
    _report(4, "additive non-negativity and zero law", ok)


def test_criterion_05_wielandt_suite():
    scenarios = ["S3xS3", "S3", "F20", "F42", "C7:S3", "C3xC2", "D10", "F21"]
    ok = len(scenarios) >= 5
    for name in scenarios:
        ok = ok and wielandt_check(corpus_split(name)).holds
    _report(5, "Wielandt centralizer product", ok)


def test_criterion_06_coprime_fixed_point_suite():
    from hallfix.arith import prime_divisors

    ok = True
    checked = 0
    for entry in corpus_entries():
        if entry.scenario is None:
            continue
        scenario = corpus_split(entry.name)
        if len(prime_divisors(scenario.complement.order)) != 1:
            continue  # complement is not a p-group
        result = navarro_rizo_check(scenario)
        ok = ok and result.nr_holds and result.nr2_holds
        checked += 1
    ok = ok and checked >= 5
    _report(6, "cleared fixed-point identities", ok)


def test_criterion_07_lattice_identities(groups):
    from hallfix import cyclic_lattice

    ok = all(totient(n) == sum(n // d * moebius(d) for d in divisors(n))
             for n in range(1, 10001))
    lattice_hosts = []
    for entry in corpus_entries():
        G = groups[entry.name]
        if G.order <= 42:
            for m in divisors(G.order):
                lattice_hosts.extend(subgroups_of_order(G, m))
    ok = ok and all(sum(Z.order * f for Z, f in cyclic_lattice(H)) == H.order
                    for H in lattice_hosts)
    rng = random.Random(1729)
    hosts = [H for H in lattice_hosts if H.order <= 24]
    for trial in range(100):
        H = hosts[trial % len(hosts)]
        gamma = {x: rng.randint(1, 9) for x in H.elements}
        ok = ok and moebius_partition_check(H, gamma)
    _report(7, "lattice and totient identities", ok)


def test_criterion_08_symmetrized_characters(groups, hall_ctx):
    one, swap = parse_permutation("()", 2), parse_permutation("(1 2)", 2)
    sym_alpha, alt_alpha = {one: 1, swap: 1}, {one: 1, swap: -1}
    ok = True
    for entry in corpus_entries():
        for pi in entry.check_pis:
            try:
                ctx = hall_ctx(entry.name, str(pi))
            except NoHallSubgroupError:
                continue
            chi = tau_by_element(ctx)
            for g in ctx.group.elements:
                sym = symmetrized(sym_alpha, chi, g)
                alt = symmetrized(alt_alpha, chi, g)
                if sym + alt != chi[g] ** 2 or sym - alt != chi[power(g, 2)]:
                    ok = False
            H = canonical_hall(ctx)
            avg = sum((cyclic_symmetrized(chi, ctx.hall_order, h)
                       for h in H.elements), Fraction(0)) / H.order
            ok = ok and avg == additive_value(ctx)
    # degree value with two Hall subgroups and a 3-cycle slot group equals the
    # brute-force count of irreducible cubics over the 2-element field
    one_point = close([], degree=1)
    degree_value = cyclic_symmetrized({one_point.identity: 2}, 3, one_point.identity)
    cubics = sum(1 for a, b, c in product((0, 1), repeat=3)
                 if all((x**3 + a * x * x + b * x + c) % 2 for x in (0, 1)))
    ok = ok and degree_value == cubics == 2
    _report(8, "symmetrized character identities", ok)


def test_criterion_09_power_sum_bound():
    ok = power_sum_bound_holds(3, 4)
    ok = ok and all(power_sum_bound_holds(t, n)
                    for t in range(3, 11) for n in range(2, 13))
    _report(9, "power-sum inequality", ok)


def test_criterion_10_structural_invariants(groups, hall_ctx):
    ok = True
    for entry in corpus_entries():
        for pi in entry.check_pis:
            try:
                ctx = hall_ctx(entry.name, str(pi))
            except NoHallSubgroupError:
                continue
            H = canonical_hall(ctx)
            if H.is_normal_in(ctx.group):
                ok = ok and ctx.num_halls == 1
            else:
                ok = ok and ctx.num_halls >= 3
            # membership counts are constant on generated cyclic subgroups
            spans, lam = {}, lam_by_element(ctx)
            for x, v in lam.items():
                key = frozenset(close([x]).elements)
                spans.setdefault(key, set()).add(v)
            ok = ok and all(len(v) == 1 for v in spans.values())
            # Burnside cross-check of the membership-count sum over H
            total = sum(lam[h] for h in H.elements)
            ok = ok and total == H.order * burnside_orbit_count(H, tau_by_element(ctx), 1)
    _report(10, "structural invariants", ok)
