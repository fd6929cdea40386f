"""The theorem sweep over every subgroup class of S6 (degree 6, order 720).

S6 has 1455 subgroups in 56 conjugacy classes (OEIS A005432, A000638).  One
representative per class is frozen below as generator strings, in the order
of the full subgroup search (by order, then by fingerprint), from which they
were taken.  On each representative H and each proper nonempty prime set pi
the four Hall checks run as ``hallfix`` runs them.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from hallfix import close, is_pi_separable, parse_permutation
from hallfix.cli import HALL_CHECKS, hall_records
from hallfix.group import _fill_rows
from hallfix.reports import INAPPLICABLE, PASS
from oracles import image_bytes, is_pi_separable_direct, proper_prime_sets

S6_CLASS_GENERATORS = (
    ("()",), ("(5 6)",), ("(3 4)(5 6)",), ("(1 2)(3 4)(5 6)",), ("(4 5 6)",),
    ("(1 2 3)(4 5 6)",), ("(5 6)", "(3 4)"), ("(5 6)", "(1 2)(3 4)"),
    ("(3 4)(5 6)", "(3 5)(4 6)"), ("(3 4)(5 6)", "(3 5 4 6)"),
    ("(3 4)(5 6)", "(1 2)(5 6)"), ("(3 4)(5 6)", "(1 2)(3 5)(4 6)"),
    ("(3 4)(5 6)", "(1 2)(3 5 4 6)"), ("(2 3 4 5 6)",), ("(5 6)", "(4 5)"),
    ("(5 6)", "(2 3 4)"), ("(4 5 6)", "(2 3)(5 6)"), ("(3 4)(5 6)", "(1 3)(2 5)"),
    ("(1 2)(3 4)(5 6)", "(1 3 5)(2 4 6)"), ("(1 2)(3 4)(5 6)", "(1 3)(2 5)(4 6)"),
    ("(5 6)", "(3 4)", "(3 5)(4 6)"), ("(5 6)", "(3 4)", "(1 2)"),
    ("(5 6)", "(3 4)", "(1 2)(3 5)(4 6)"), ("(5 6)", "(1 2)(3 4)", "(1 3)(2 4)"),
    ("(5 6)", "(1 2)(3 4)", "(1 3 2 4)"), ("(3 4)(5 6)", "(3 5)(4 6)", "(1 2)(5 6)"),
    ("(3 4)(5 6)", "(3 5 4 6)", "(1 2)(5 6)"), ("(4 5 6)", "(1 2 3)"),
    ("(3 4)(5 6)", "(2 3)(4 5)"), ("(5 6)", "(4 5)", "(2 3)"), ("(4 5 6)", "(3 4)(5 6)"),
    ("(3 4)(5 6)", "(1 2)(5 6)", "(1 3 5)(2 4 6)"),
    ("(3 4)(5 6)", "(1 2)(3 5)(4 6)", "(1 3)(2 5)"),
    ("(5 6)", "(3 4)", "(3 5)(4 6)", "(1 2)"), ("(5 6)", "(4 5)", "(1 2 3)"),
    ("(4 5 6)", "(2 3)(5 6)", "(1 2)(5 6)"), ("(4 5 6)", "(1 2 3)", "(1 4)(2 5)(3 6)"),
    ("(3 4)(5 6)", "(3 5 4 6)", "(2 3)(4 5)"), ("(5 6)", "(4 5)", "(3 4)"),
    ("(5 6)", "(3 4)", "(1 2)", "(1 3 5)(2 4 6)"), ("(5 6)", "(2 3 4)", "(1 2)(3 4)"),
    ("(4 5 6)", "(3 4)(5 6)", "(1 2)(5 6)"),
    ("(3 4)(5 6)", "(3 5)(4 6)", "(1 2)(5 6)", "(1 3)(2 4)"),
    ("(3 4)(5 6)", "(3 5 4 6)", "(1 2)(5 6)", "(1 3)(2 4)(5 6)"),
    ("(5 6)", "(4 5)", "(2 3)", "(1 2)"),
    ("(4 5 6)", "(2 3)(5 6)", "(1 2)(5 6)", "(1 4)(2 5)(3 6)"),
    ("(4 5 6)", "(2 3)(5 6)", "(1 2)(5 6)", "(1 4)(2 5 3 6)"),
    ("(5 6)", "(4 5)", "(3 4)", "(1 2)"),
    ("(5 6)", "(3 4)", "(3 5)(4 6)", "(1 2)", "(1 3)(2 4)"),
    ("(4 5 6)", "(3 4)(5 6)", "(2 3)(5 6)"), ("(3 4)(5 6)", "(2 3)(4 5)", "(1 2)(5 6)"),
    ("(5 6)", "(4 5)", "(2 3)", "(1 2)", "(1 4)(2 5)(3 6)"),
    ("(5 6)", "(4 5)", "(3 4)", "(2 3)"),
    ("(3 4)(5 6)", "(3 5 4 6)", "(2 3)(4 5)", "(1 2)(5 6)"),
    ("(4 5 6)", "(3 4)(5 6)", "(2 3)(5 6)", "(1 2)(5 6)"), ("(1 2 3 4 5 6)", "(1 2)"),
)


@lru_cache(maxsize=None)
def s6_class_representatives():
    return tuple(close([parse_permutation(g, 6) for g in gens], degree=6)
                 for gens in S6_CLASS_GENERATORS)


def test_s6_representatives_cover_the_1455_subgroups():
    # Each representative's conjugation orbit, as element-index sets of S6,
    # is its whole class: disjoint orbits holding 1455 subgroups in all
    # mean one representative per class and no class missing.
    S6 = close([parse_permutation("(1 2 3 4 5 6)", 6), parse_permutation("(1 2)", 6)])
    index, rows = S6._ensure_index(), _fill_rows(S6, range(S6.order))
    seen = set()
    for H in s6_class_representatives():
        orbit = [frozenset(index[image_bytes(x)] for x in H.elements)]
        assert orbit[0] not in seen, H
        seen.add(orbit[0])
        for S in orbit:
            for _, _, row in rows:
                T = frozenset(map(row.__getitem__, S))
                if T not in seen:
                    seen.add(T)
                    orbit.append(T)
    assert (len(s6_class_representatives()), len(seen)) == (56, 1455)


def test_s6_sweep_pins_the_hall_check_counts():
    # verify-mult is 1 on every pi-separable pair.  On the others it is
    # inapplicable unless a Hall subgroup is cyclic; the values it computes
    # there are pinned as findings: they show that the paper's hypothesis is
    # needed (the copies of A5, S5, A6 and S6).
    statuses, values, pairs = Counter(), Counter(), 0
    for H in s6_class_representatives():
        for pi in proper_prime_sets(H):
            pairs += 1
            separable = is_pi_separable(H, pi)
            assert separable == is_pi_separable_direct(H, pi), (H, str(pi))
            records = hall_records("H", H, pi, HALL_CHECKS)
            statuses.update((r.check, r.status) for r in records)
            mult = records[HALL_CHECKS.index("verify-mult")]
            if separable:
                assert (mult.status, mult.witness) == (PASS, "value 1"), (H, str(pi))
            elif mult.status == INAPPLICABLE and "computed value" in mult.witness:
                values[H.order, str(pi), mult.witness.split("computed value ")[1]] += 1
    assert pairs == 90
    assert statuses == Counter({
        ("verify-mult", PASS): 64, ("verify-mult", INAPPLICABLE): 26,
        ("verify-add", PASS): 76, ("verify-add", INAPPLICABLE): 14,
        ("interpretation", PASS): 61, ("interpretation", INAPPLICABLE): 29,
        ("sym-char", PASS): 76, ("sym-char", INAPPLICABLE): 14})
    assert values == Counter({
        (60, "2", "5^-4"): 2, (60, "2,3", "2^48 * 5^-24"): 2,
        (120, "2", "3^16 * 5^-16"): 2, (120, "2,3", "2^96 * 3^96 * 5^-96"): 2,
        (360, "2", "3^-32 * 5^16"): 1, (360, "3", "2^-18 * 5^-18"): 1,
        (720, "2", "3^32 * 5^-32"): 1, (720, "3", "2^-18 * 5^-18"): 1})
