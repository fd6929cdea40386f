"""The ``hallfix`` batch command line.

    hallfix <command> [--group NAME | --file PATH] [--pi P1,P2] [--json] [--cap N]

Commands: lambda, verify-mult, verify-add, verify-nr, verify-wielandt,
sym-char, interpretation, curiosity, scan, with options before or after the
command word.  Exit codes: 0 when every applicable check passes (documented
counterexamples included), 1 when an identity is violated, 2 on input and
usage errors (--n off curiosity, --radical off verify-mult, --pi on scan), 3
on an internal error (any other exception, reported on one stderr line).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

from .arith import FACTOR_LIMIT, PiSet, prime_divisors
from .corpus import (A5_CURIOSITY, CorpusEntry, UnknownGroupError, corpus_entries,
                     get_entry, load_group)
from .group import (CapExceededError, DEFAULT_ELEMENT_CAP, MAX_CAP, PermGroup, close,
                    is_pi_separable)
from .groupio import GroupFileError, read_group_file
from .hall import (HallContext, NoHallSubgroupError, build_hall_context,
                   lambda_report_lines, lambda_report_records)
from .perm import PermParseError
from .reports import (FAIL, INAPPLICABLE, PASS, CheckRecord, lambda_rows_to_json,
                      records_to_json, unexpected_failures)
from .verify import (CoprimeActionScenario, NoCoprimeSplitError, PowerSumTooLargeError,
                     additive_value, coprime_split, curiosity_value, interpretation_check,
                     multiplicative_value, navarro_rizo_check, sym_char_sums, wielandt_check)

_COMMANDS = ("lambda", "verify-mult", "verify-add", "verify-nr", "verify-wielandt",
             "sym-char", "interpretation", "curiosity", "scan")


class InputError(ValueError):
    """Bad command-line input (exit code 2)."""


_USAGE = "usage: hallfix <command> [options]\n"

#: argparse's rendering of this command line at 80 columns, kept as text so
#: that it does not depend on the terminal.
_HELP = _USAGE + f"""
Exact verification of Hall-subgroup fixed-point identities on a builtin corpus
of small permutation groups.

positional arguments:
  {{{",".join(_COMMANDS)}}}

options:
  -h, --help            show this help message and exit
  --group GROUP         builtin group name
  --file FILE           path to a group file
  --pi PI               comma-separated prime list, e.g. 2,3
  --json                emit JSON records
  --cap CAP             element cap for exhaustive closure, 1 to {MAX_CAP}
  --n N                 curiosity only: power-sum length (default: |G|)
  --radical             verify-mult only: replace the exponent base by its
                        radical
"""

#: Each option string and the type of its one value, None for a flag, in
#: the order that an ambiguous abbreviation lists them.  An option sets the
#: field named by its string without the dashes.
_OPTIONS = {"-h": None, "--help": None, "--group": str, "--file": str, "--pi": str,
            "--json": None, "--cap": int, "--n": int, "--radical": None}


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"{_USAGE}hallfix: error: {message}\n")
    raise SystemExit(2)


def _classify(token: str) -> Tuple[Optional[str], Optional[str]]:
    """(option string, text after its "=" or None) for an option token,
    (None, token) for a value or the command word, and ("", token) for an
    unknown option, by argparse's rules: an option may be abbreviated to a
    unique prefix, and a negative number or a token with a space is a value."""
    if token[:1] != "-" or token == "-":
        return None, token
    if token in _OPTIONS:
        return ("--help" if token == "-h" else token), None
    head, eq, value = token.partition("=")
    value = value if eq else None
    if eq and head in _OPTIONS:
        option = head
    elif token[1] == "-":
        matches = [name for name in _OPTIONS if name.startswith(head)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
        if not matches:
            return _unknown(token)
        option = matches[0]
    elif token[1] == "h":
        option, value = "-h", token[2:]
    else:
        return _unknown(token)
    if option == "-h":
        # argparse reads "-hh" as "-h -h" and refuses the rest of "-hx".
        return "--help", (value.lstrip("h") or None) if value else value
    return option, value


def _unknown(token: str) -> Tuple[Optional[str], str]:
    """A token that names no option: a value when it looks like a negative
    number or holds a space, else an unknown option."""
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None, token
    return "", token


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The options and command word of ``argv``, with argparse's grammar:
    options before or after the command word, ``--opt value`` or
    ``--opt=value``, the last of a repeated option wins, and every token
    after the first ``--`` is a value.  A usage error exits 2."""
    args = SimpleNamespace(command=None, group=None, file=None, pi=None, json=False,
                           cap=DEFAULT_ELEMENT_CAP, n=None, radical=False)
    tokens = []
    for i, token in enumerate(argv):
        if token == "--":
            tokens.append(("--", token))
            tokens += [(None, rest) for rest in argv[i + 1:]]
            break
        tokens.append(_classify(token))
    extras = []
    i = command_end = 0
    while i < len(tokens):
        option, value = tokens[i]
        i += 1
        if option is None:
            if args.command is not None:
                extras.append(value)
            elif value in _COMMANDS:
                args.command, command_end = value, i
            else:
                choices = ", ".join(map(repr, _COMMANDS))
                _usage_error(f"argument command: invalid choice: {value!r} "
                             f"(choose from {choices})")
        elif option == "":
            extras.append(value)
        elif option == "--":
            # argparse drops a "--" next to the command word and keeps any other.
            if args.command is not None and command_end != i - 1:
                extras.append(value)
        elif _OPTIONS[option] is None:
            if value is not None:
                name = "-h/--help" if option == "--help" else option
                _usage_error(f"argument {name}: ignored explicit argument {value!r}")
            if option == "--help":
                sys.stdout.write(_HELP)
                raise SystemExit(0)
            setattr(args, option[2:], True)
        else:
            if value is None:
                if i == len(tokens) or tokens[i][0] is not None:
                    _usage_error(f"argument {option}: expected one argument")
                value = tokens[i][1]
                i += 1
            kind = _OPTIONS[option]
            try:
                setattr(args, option[2:], kind(value))
            except ValueError:
                _usage_error(f"argument {option}: invalid {kind.__name__} value: {value!r}")
    if args.command is None:
        _usage_error("the following arguments are required: command")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _resolve_group(args) -> Tuple[str, PermGroup, Optional[CorpusEntry]]:
    if args.group is not None and args.file is not None:
        raise InputError("--group and --file are mutually exclusive")
    if args.group is not None:
        entry = get_entry(args.group)
        return entry.name, load_group(entry.name, cap=args.cap), entry
    if args.file is not None:
        degree, gens = read_group_file(args.file)
        return args.file, close(gens, degree=degree, cap=args.cap), None
    raise InputError("one of --group or --file is required")


def _require_pi(args) -> PiSet:
    if args.pi is None:
        raise InputError("--pi is required for this command")
    try:
        return PiSet.parse(args.pi)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


#: The checks that read a Hall context, in scan order.
HALL_CHECKS = ("verify-mult", "verify-add", "interpretation", "sym-char")


def hall_records(name: str, G: PermGroup, pi: PiSet, checks: Sequence[str],
                 entry: Optional[CorpusEntry] = None, *, use_radical: bool = False,
                 contexts: Optional[Dict[PiSet, HallContext]] = None) -> List[CheckRecord]:
    """Run ``checks`` on one shared Hall context for (G, pi); every check is
    inapplicable when G has no Hall pi-subgroup.  The context is also kept in
    ``contexts``, when given, under pi, for a later check on (G, pi)."""
    try:
        ctx = build_hall_context(G, pi)
    except NoHallSubgroupError as exc:
        return [CheckRecord(check, name, str(pi), INAPPLICABLE, str(exc))
                for check in checks]
    if contexts is not None:
        contexts[pi] = ctx
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
    # A lone, so normal, Hall subgroup H makes 1 <= H <= G a pi-series.  A cyclic
    # one has all the others as conjugates (Wielandt): one is cyclic iff all are.
    if ctx.num_halls == 1 or ctx.hall_is_cyclic() or is_pi_separable(ctx.group, pi):
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
                       f"value {beta}")


def nr_record(name: str, scenario: CoprimeActionScenario) -> CheckRecord:
    """Cleared coprime fixed-point identities on a coprime split."""
    primes = prime_divisors(len(scenario.complement))
    inferred = PiSet(primes)
    if len(primes) != 1:
        return CheckRecord("verify-nr", name, str(inferred), INAPPLICABLE,
                           f"complement of order {len(scenario.complement)} "
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
                       f"identities hold; averaged value {beta}")


def interpretation_record(name: str, ctx: HallContext) -> CheckRecord:
    pi = ctx.pi
    if not ctx.hall_is_abelian():
        return CheckRecord("interpretation", name, str(pi), INAPPLICABLE,
                           "Hall subgroup is not abelian; power subgroups "
                           "are not formed")
    ok = interpretation_check(ctx)
    beta = additive_value(ctx)
    return CheckRecord("interpretation", name, str(pi), PASS if ok else FAIL,
                       f"orbit decomposition matches value {beta}"
                       if ok else "orbit decomposition disagrees")


def curiosity_record(name: str, ctx: HallContext,
                     n: Optional[int]) -> Tuple[CheckRecord, str]:
    pi, value = ctx.pi, curiosity_value(ctx, n)
    text = str(value)
    pinned = (name == "A5" and pi == PiSet([3])
              and (n is None or n == ctx.group.order))
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
        G = load_group(entry.name, cap=cap)
        contexts: Dict[PiSet, HallContext] = {}
        for pi in entry.check_pis:
            records += hall_records(entry.name, G, pi, HALL_CHECKS, entry, contexts=contexts)
        if entry.scenario is not None:
            # After the Hall checks, so the split reads the rows and classes they built.
            scenario = coprime_split(G, entry.scenario)
            records.append(nr_record(entry.name, scenario))
            records.append(wielandt_record(entry.name, scenario))
        if entry.name == "A5":
            records.append(curiosity_record(entry.name, contexts[PiSet([3])], None)[0])
    return records


def _emit(records: List[CheckRecord], as_json: bool) -> None:
    if as_json:
        print(records_to_json(records))
    else:
        for r in records:
            print(r.text_line())


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.n is not None and args.command != "curiosity":
        _usage_error("--n applies to curiosity only")
    if args.radical and args.command != "verify-mult":
        _usage_error("--radical applies to verify-mult only")
    if args.pi is not None and args.command == "scan":
        _usage_error("--pi does not apply to scan")
    try:
        return _dispatch(args)
    except (InputError, UnknownGroupError, GroupFileError, PermParseError,
            CapExceededError, NoHallSubgroupError, NoCoprimeSplitError,
            PowerSumTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for a violated identity
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    command = args.command
    if args.cap < 1:
        raise InputError("--cap must be at least 1")
    if args.cap > MAX_CAP:
        raise InputError(f"--cap {args.cap} is over the limit {MAX_CAP}")

    if command == "scan":
        entries = corpus_entries()
        if args.group is not None:
            entries = [get_entry(args.group)]
        if args.file is not None:
            raise InputError("scan works on the builtin corpus; --file is not supported")
        records = scan_records(entries, args.cap)
        _emit(records, args.json)
        return 1 if unexpected_failures(records) else 0

    if command == "lambda":
        name, G, _ = _resolve_group(args)
        pi = _require_pi(args)
        ctx = build_hall_context(G, pi)
        if args.json:
            print(lambda_rows_to_json(lambda_report_records(ctx)))
        else:
            for line in lambda_report_lines(ctx):
                print(line)
        return 0

    if command == "curiosity":
        name, G, _ = _resolve_group(args)
        pi = _require_pi(args) if args.pi is not None else PiSet([3])
        if args.n is not None and not 1 <= args.n <= FACTOR_LIMIT:
            raise InputError(f"--n must be positive and at most {FACTOR_LIMIT}, "
                             f"got {args.n}")
        record, text = curiosity_record(name, build_hall_context(G, pi), args.n)
        if args.json:
            _emit([record], True)
        else:
            print(text)
        return 1 if unexpected_failures([record]) else 0

    name, G, entry = _resolve_group(args)
    coprime = command in ("verify-nr", "verify-wielandt")
    if coprime and args.pi is None and entry is not None:
        # A builtin entry's coprime split is at its scenario primes by default.
        if entry.scenario is None:
            raise InputError(f"corpus entry {entry.name} names no coprime split; give --pi")
        pi = entry.scenario
    else:
        pi = _require_pi(args)
    if coprime:
        scenario = coprime_split(G, pi)
        records = [(nr_record if command == "verify-nr" else wielandt_record)(name, scenario)]
    else:
        records = hall_records(name, G, pi, [command], entry, use_radical=args.radical)
    _emit(records, args.json)
    return 1 if unexpected_failures(records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
