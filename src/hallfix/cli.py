"""The ``hallfix`` batch command line.

    hallfix <command> [--group NAME | --file PATH] [--pi P1,P2] [--json] [--cap N]

Commands: lambda, verify-mult, verify-add, verify-nr, verify-wielandt,
sym-char, interpretation, curiosity, scan.  Exit codes: 0 when every
applicable check passes (documented counterexamples included), 1 when an
identity is violated, 2 on input errors, 3 on an internal error (any other
exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .arith import FACTOR_LIMIT, PiSet, prime_divisors
from .corpus import (A5_CURIOSITY, CorpusEntry, UnknownGroupError, corpus_entries,
                     get_entry, load_group, load_scenario)
from .group import CapExceededError, DEFAULT_ELEMENT_CAP, PermGroup, close, is_pi_separable
from .groupio import GroupFileError, read_group_file
from .hall import (HallContext, NoHallSubgroupError, build_hall_context,
                   lambda_report_lines, lambda_report_records)
from .perm import PermParseError
from .reports import (FAIL, INAPPLICABLE, PASS, CheckRecord, records_to_json,
                      unexpected_failures)
from .verify import (CoprimeActionScenario, PowerSumTooLargeError, additive_value,
                     curiosity_value, interpretation_check, multiplicative_value,
                     navarro_rizo_check, sym_char_sums, wielandt_check)

_COMMANDS = ("lambda", "verify-mult", "verify-add", "verify-nr",
             "verify-wielandt", "sym-char", "interpretation", "curiosity",
             "scan")


class InputError(ValueError):
    """Bad command-line input (exit code 2)."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="hallfix",
        description="Exact verification of Hall-subgroup fixed-point identities "
                    "on a builtin corpus of small permutation groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--group", help="builtin group name")
        p.add_argument("--file", help="path to a group file")
        p.add_argument("--pi", help="comma-separated prime list, e.g. 2,3")
        p.add_argument("--json", action="store_true", help="emit JSON records")
        p.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP,
                       help="element cap for exhaustive closure")
        if name == "curiosity":
            p.add_argument("--n", type=int, default=None,
                           help="power-sum length (default: the group order)")
        if name == "verify-mult":
            p.add_argument("--radical", action="store_true",
                           help="replace the exponent base by its radical "
                                "(cross-validation of the squarefree reduction)")
    return parser


def _resolve_group(args) -> Tuple[str, PermGroup, Optional[CorpusEntry]]:
    if args.group and args.file:
        raise InputError("--group and --file are mutually exclusive")
    if args.group:
        entry = get_entry(args.group)
        return entry.name, load_group(entry.name, cap=args.cap), entry
    if args.file:
        degree, gens = read_group_file(args.file)
        return args.file, close(gens, degree=degree, cap=args.cap), None
    raise InputError("one of --group or --file is required")


def _require_pi(args) -> PiSet:
    if not args.pi:
        raise InputError("--pi is required for this command")
    try:
        return PiSet.parse(args.pi)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _fraction_str(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


#: The checks that read a Hall context, in scan order.
HALL_CHECKS = ("verify-mult", "verify-add", "interpretation", "sym-char")


def hall_records(name: str, G: PermGroup, pi: PiSet, checks: Sequence[str],
                 entry: Optional[CorpusEntry] = None, *,
                 use_radical: bool = False) -> List[CheckRecord]:
    """Run ``checks`` on one shared Hall context for (G, pi); every check is
    inapplicable when G has no Hall pi-subgroup."""
    try:
        ctx = build_hall_context(G, pi)
    except NoHallSubgroupError as exc:
        return [CheckRecord(check, name, str(pi), INAPPLICABLE, str(exc))
                for check in checks]
    make = {"verify-mult": lambda: mult_record(name, ctx, entry, use_radical=use_radical),
            "verify-add": lambda: add_record(name, ctx),
            "interpretation": lambda: interpretation_record(name, ctx),
            "sym-char": lambda: sym_char_record(name, ctx)}
    return [make[check]() for check in checks]


def mult_record(name: str, ctx: HallContext, entry: Optional[CorpusEntry], *,
                use_radical: bool = False) -> CheckRecord:
    """Multiplicative identity over a Hall subgroup, with hypothesis handling."""
    pi = ctx.pi
    value = multiplicative_value(ctx, use_radical=use_radical)
    marked = entry is not None and any(pi == ef for ef in entry.expected_mult_fail)
    # By Wielandt, a cyclic (so nilpotent) Hall subgroup has all the others
    # as conjugates: one is cyclic exactly when all are.
    if ctx.canonical_hall.is_cyclic() or is_pi_separable(ctx.group, pi):
        if value.is_one():
            return CheckRecord("verify-mult", name, str(pi), PASS, "value 1")
        return CheckRecord("verify-mult", name, str(pi), FAIL,
                           f"value {value} != 1", expected_fail=marked)
    if marked:
        return CheckRecord("verify-mult", name, str(pi), FAIL,
                           f"value {value} != 1 (documented counterexample)",
                           expected_fail=True)
    return CheckRecord("verify-mult", name, str(pi), INAPPLICABLE,
                       f"not pi-separable and no cyclic Hall subgroup; "
                       f"computed value {value}")


def add_record(name: str, ctx: HallContext) -> CheckRecord:
    """Additive value: non-negative integer, zero iff the Hall subgroup is
    normal and nontrivial."""
    beta = additive_value(ctx)
    normal_nontrivial = ctx.num_halls == 1 and ctx.hall_order > 1
    ok = (beta.denominator == 1 and beta >= 0
          and (beta == 0) == normal_nontrivial)
    status = PASS if ok else FAIL
    return CheckRecord("verify-add", name, str(ctx.pi), status,
                       f"value {_fraction_str(beta)}")


def nr_record(name: str, scenario: CoprimeActionScenario,
              pi: Optional[PiSet] = None) -> CheckRecord:
    """Cleared coprime fixed-point identities on the designated scenario."""
    primes = prime_divisors(scenario.complement.order)
    inferred = PiSet(primes)
    if pi is not None and pi != inferred:
        raise InputError(f"--pi {pi} does not match the complement order "
                         f"{scenario.complement.order}")
    if len(primes) != 1:
        return CheckRecord("verify-nr", name, str(inferred), INAPPLICABLE,
                           f"complement of order {scenario.complement.order} "
                           "is not a p-group")
    result = navarro_rizo_check(scenario)
    witness = (f"|C_N(P)|={result.fixed_order}, cleared {result.cleared_lhs} "
               f"vs {result.cleared_rhs}; counts {result.eq2_left} vs "
               f"{result.eq2_right}")
    return CheckRecord("verify-nr", name, str(inferred),
                       PASS if result.holds else FAIL, witness)


def wielandt_record(name: str, scenario: CoprimeActionScenario) -> CheckRecord:
    result = wielandt_check(scenario)
    return CheckRecord("verify-wielandt", name, "-",
                       PASS if result.holds else FAIL,
                       f"lhs {result.lhs} vs rhs {result.rhs}")


def sym_char_record(name: str, ctx: HallContext) -> CheckRecord:
    """Square symmetrizations of the conjugation character tau, plus the
    averaged cyclic symmetrization against the additive value.  The trivial
    character's multiplicities in Sym^2 tau and Alt^2 tau, (S + T) / 2|G| and
    (S - T) / 2|G| for S = sum tau(g)^2 and T = sum tau(g^2), are integers >= 0."""
    pi, order = ctx.pi, ctx.group.order
    S, T, averaged = sym_char_sums(ctx)
    sym, alt = Fraction(S + T, 2 * order), Fraction(S - T, 2 * order)
    if any(v.denominator != 1 or v < 0 for v in (sym, alt)):
        return CheckRecord("sym-char", name, str(pi), FAIL,
                           f"square multiplicities {sym} and {alt} are not integers >= 0")
    beta = additive_value(ctx)
    if averaged != beta:
        return CheckRecord("sym-char", name, str(pi), FAIL,
                           f"averaged value {averaged} != additive value {beta}")
    return CheckRecord("sym-char", name, str(pi), PASS,
                       f"identities hold; averaged value {_fraction_str(beta)}")


def interpretation_record(name: str, ctx: HallContext) -> CheckRecord:
    pi = ctx.pi
    if not ctx.canonical_hall.is_abelian():
        return CheckRecord("interpretation", name, str(pi), INAPPLICABLE,
                           "Hall subgroup is not abelian; power subgroups "
                           "are not formed")
    ok = interpretation_check(ctx)
    beta = additive_value(ctx)
    return CheckRecord("interpretation", name, str(pi), PASS if ok else FAIL,
                       f"orbit decomposition matches value {_fraction_str(beta)}"
                       if ok else "orbit decomposition disagrees")


def curiosity_record(name: str, G: PermGroup, pi: PiSet,
                     n: Optional[int]) -> Tuple[CheckRecord, str]:
    value = curiosity_value(G, pi, n)
    text = _fraction_str(value)
    pinned = (name == "A5" and pi == PiSet([3])
              and (n is None or n == G.order))
    if pinned:
        if value == Fraction(A5_CURIOSITY):
            return CheckRecord("curiosity", name, str(pi), PASS,
                               f"value {text}"), text
        return CheckRecord("curiosity", name, str(pi), FAIL,
                           f"value {text} != pinned reference"), text
    return CheckRecord("curiosity", name, str(pi), INAPPLICABLE,
                       f"value {text} (informational; no pinned reference)"), text


def scan_records(entries: List[CorpusEntry], cap: int) -> List[CheckRecord]:
    records: List[CheckRecord] = []
    for entry in entries:
        scenario = load_scenario(entry, cap=cap) if entry.scenario is not None else None
        G = load_group(entry.name, cap=cap) if scenario is None else scenario.group
        for pi in entry.check_pis:
            records += hall_records(entry.name, G, pi, HALL_CHECKS, entry)
        if scenario is not None:
            records.append(nr_record(entry.name, scenario))
            records.append(wielandt_record(entry.name, scenario))
        if entry.name == "A5":
            records.append(curiosity_record(entry.name, G, PiSet([3]), None)[0])
    return records


def _emit(records: List[CheckRecord], as_json: bool) -> None:
    if as_json:
        print(records_to_json(records))
    else:
        for r in records:
            print(r.text_line())


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (InputError, UnknownGroupError, GroupFileError, PermParseError,
            CapExceededError, NoHallSubgroupError, PowerSumTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for a violated identity
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    command = args.command
    if args.cap < 1:
        raise InputError("--cap must be at least 1")

    if command == "scan":
        entries = corpus_entries()
        if args.group:
            entries = [get_entry(args.group)]
        if args.file:
            raise InputError("scan works on the builtin corpus; --file is not supported")
        records = scan_records(entries, args.cap)
        _emit(records, args.json)
        return 1 if unexpected_failures(records) else 0

    if command == "lambda":
        name, G, _ = _resolve_group(args)
        pi = _require_pi(args)
        ctx = build_hall_context(G, pi)
        if args.json:
            print(json.dumps(lambda_report_records(ctx), indent=2, sort_keys=True))
        else:
            for line in lambda_report_lines(ctx):
                print(line)
        return 0

    if command == "curiosity":
        name, G, _ = _resolve_group(args)
        pi = _require_pi(args) if args.pi else PiSet([3])
        if args.n is not None and not 1 <= args.n <= FACTOR_LIMIT:
            raise InputError(f"--n must be positive and at most {FACTOR_LIMIT}, "
                             f"got {args.n}")
        record, text = curiosity_record(name, G, pi, args.n)
        if args.json:
            _emit([record], True)
        else:
            print(text)
        return 1 if unexpected_failures([record]) else 0

    if command in ("verify-nr", "verify-wielandt"):
        if args.file:
            raise InputError("coprime scenarios are designated on builtin corpus "
                             "entries; --file is not supported here")
        if not args.group:
            raise InputError("--group is required")
        entry = get_entry(args.group)
        if entry.scenario is None:
            raise InputError(f"corpus entry {entry.name} has no designated "
                             "coprime scenario")
        if command == "verify-nr":
            pi = _require_pi(args) if args.pi else None
            record = nr_record(entry.name, load_scenario(entry, cap=args.cap), pi)
        else:
            record = wielandt_record(entry.name, load_scenario(entry, cap=args.cap))
        _emit([record], args.json)
        return 1 if unexpected_failures([record]) else 0

    name, G, entry = _resolve_group(args)
    pi = _require_pi(args)
    records = hall_records(name, G, pi, [command], entry,
                           use_radical=getattr(args, "radical", False))
    _emit(records, args.json)
    return 1 if unexpected_failures(records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
