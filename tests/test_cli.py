"""Command-line behavior: outputs, exit codes, JSON schema, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hallfix import (NoHallSubgroupError, Permutation, PiSet, build_hall_context, cli,
                     close, corpus_entries, get_entry, is_pi_separable, load_group)
from hallfix import arith as arith_mod
from hallfix import corpus as corpus_mod
from hallfix import group as group_mod
from hallfix import hall as hall_mod
from hallfix import verify as verify_mod
from hallfix.arith import squarefree_divisors
from hallfix.cli import main
from hallfix.corpus import A5_CURIOSITY
from hallfix.groupio import parse_group_text
from hallfix.reports import FAIL, PASS, CheckRecord, lambda_rows_to_json, records_to_json
from oracles import (canonical_hall, group_file_text, is_cyclic, proper_prime_sets,
                     random_generating_sets, reference_parser, s5_subgroup_classes)
from test_s6_sweep import s6_class_representatives


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_mult_pass(capsys):
    code, out, _ = run(capsys, "verify-mult", "--group", "S4", "--pi", "2")
    assert code == 0
    assert "pass" in out and "value 1" in out


def test_verify_mult_expected_counterexample(capsys):
    code, out, _ = run(capsys, "verify-mult", "--group", "A5", "--pi", "2")
    assert code == 0  # documented counterexample, not an unexpected failure
    assert "fail (expected)" in out
    assert "5^-4" in out


def test_verify_mult_radical_variant(capsys):
    code, out, _ = run(capsys, "verify-mult", "--group", "A5", "--pi", "2",
                       "--radical")
    assert code == 0
    assert "5^-2" in out
    code, out, _ = run(capsys, "verify-mult", "--group", "S4", "--pi", "2",
                       "--radical")
    assert code == 0 and "pass" in out


def test_verify_mult_json_schema(capsys):
    code, out, _ = run(capsys, "verify-mult", "--group", "A5", "--pi", "2",
                       "--json")
    records = json.loads(out)
    assert code == 0
    assert len(records) == 1
    assert set(records[0]) == {"check", "group", "pi", "status", "witness"}
    assert records[0]["status"] == "fail"


def test_verify_add_value(capsys):
    code, out, _ = run(capsys, "verify-add", "--group", "A5", "--pi", "2")
    assert code == 0
    assert "value 33" in out


def test_verify_nr_inferred_pi(capsys):
    code, out, _ = run(capsys, "verify-nr", "--group", "F20")
    assert code == 0
    assert "pi=2" in out and "pass" in out


def test_verify_nr_pi_mismatch(capsys):
    for command in ("verify-nr", "verify-wielandt"):
        code, _, err = run(capsys, command, "--group", "F20", "--pi", "5")
        assert code == 2
        assert err == "error: --pi 5 does not match the complement order 4\n", command


def test_verify_nr_bad_pi_is_input_error(capsys):
    code, _, err = run(capsys, "verify-nr", "--group", "C3xC2", "--pi", "4")
    assert code == 2
    assert "not prime" in err


def test_curiosity_bad_pi_is_input_error(capsys):
    code, _, err = run(capsys, "curiosity", "--group", "A5", "--pi", "4")
    assert code == 2
    assert "not prime" in err


def test_curiosity_nonpositive_n_is_input_error(capsys):
    code, _, err = run(capsys, "curiosity", "--group", "A5", "--n", "0")
    assert code == 2
    assert "--n must be positive" in err


def test_curiosity_power_sum_limit_is_input_error(capsys):
    # 10^4400 has more digits than Python prints by default; 10^100000007
    # would take far too long to compute.  Both are refused before summing.
    for n, reason in (("4400", "over the limit 4300"),
                      ("100000007", "at most 10000000")):
        code, out, err = run(capsys, "curiosity", "--group", "A5", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err
    code, out, _ = run(capsys, "curiosity", "--group", "A5", "--n", "4000")
    assert code == 0
    assert Fraction(out.strip()) > 0


def test_verify_nr_no_scenario(capsys):
    code, _, err = run(capsys, "verify-nr", "--group", "S4")
    assert code == 2
    assert "names no coprime split" in err


def test_verify_wielandt(capsys):
    code, out, _ = run(capsys, "verify-wielandt", "--group", "C7:S3")
    assert code == 0
    assert "pass" in out


def test_lambda_report_text(capsys):
    code, out, _ = run(capsys, "lambda", "--group", "A5", "--pi", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "element () order 1 lambda 5"
    assert len(lines) == 16  # identity plus 15 involutions
    assert all(line.startswith("element ") for line in lines)


def test_lambda_report_json(capsys):
    code, out, _ = run(capsys, "lambda", "--group", "S3", "--pi", "2", "--json")
    records = json.loads(out)
    assert code == 0
    assert records[0] == {"element": "()", "lambda": 3, "order": 1}


@pytest.mark.parametrize("command", ["lambda", "curiosity"])
def test_lambda_no_hall_is_input_error(capsys, command):
    code, _, err = run(capsys, command, "--group", "A5", "--pi", "2,5")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no Hall subgroup" in err


def test_curiosity_prints_exact_digits(capsys):
    code, out, _ = run(capsys, "curiosity", "--group", "A5")
    assert code == 0
    assert out.strip() == str(A5_CURIOSITY)


def test_curiosity_other_groups_are_informational(capsys):
    code, out, _ = run(capsys, "curiosity", "--group", "S4", "--pi", "2", "--n", "4")
    assert code == 0
    int(out.strip())  # a decimal integer, nothing else


def test_interpretation_inapplicable(capsys):
    code, out, _ = run(capsys, "interpretation", "--group", "S4", "--pi", "2")
    assert code == 0
    assert "inapplicable" in out


def test_sym_char(capsys):
    code, out, _ = run(capsys, "sym-char", "--group", "S4", "--pi", "2")
    assert code == 0
    assert "pass" in out and "averaged value 400" in out


def test_sym_char_fails_on_a_broken_conjugation_character(groups):
    # Bumping tau at one non-identity element breaks the integrality of the
    # trivial-character multiplicities in its symmetric and alternating squares.
    # tau is kept as a list over element indices; index 1 is the first
    # element of its class, so the class sums read the bump.  tau_values is a
    # cached property, so the assignment replaces the kept list.
    ctx = build_hall_context(groups["A5"], PiSet([2]))
    tau = list(ctx.tau_values)
    assert cli.sym_char_record("A5", ctx).status == PASS
    tau[1] += 1
    ctx.tau_values = tau
    record = cli.sym_char_record("A5", ctx)
    assert record.status == FAIL
    assert "square multiplicities" in record.witness


def test_inconsistent_hall_orbits_are_internal_errors(capsys, monkeypatch):
    # S3's three Sylow 2-subgroups handed over as one orbit of size 1: the
    # transpositions' fixed count, 1, is not a multiple of their class size 3.
    # That is a fault in the orbit data, not a counterexample, so tau_values
    # refuses it as interpretation's Burnside guard does.
    halls = hall_mod.hall_subgroups

    def one_orbit(G, n):
        found, _ = halls(G, n)
        return found, lambda: [(1, found[0][0])]

    monkeypatch.setattr(hall_mod, "hall_subgroups", one_orbit)
    for command in ("sym-char", "interpretation"):
        code, out, err = run(capsys, command, "--group", "S3", "--pi", "2")
        assert (code, out) == (3, "") and err.startswith("internal error: AssertionError"), command


def test_file_input(capsys, tmp_path):
    path = tmp_path / "c6.grp"
    path.write_text("degree: 6\ngen: (1 2 3 4 5 6)\n")
    code, out, _ = run(capsys, "verify-mult", "--file", str(path), "--pi", "2")
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("gens,degree,pi", [
    (("(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)"), 10, "2"),  # C2^5
    (("(1 2)", "(3 4)", "(5 6 7 8 9 10)"), 10, "3"),  # C2 x C2 x C6
])
def test_verify_mult_on_groups_with_many_classes(capsys, tmp_path, gens, degree, pi):
    # More than 20 nontrivial classes: the pi-cores must not need a
    # class-union scan.
    path = tmp_path / "g.grp"
    path.write_text(f"degree: {degree}\n" + "".join(f"gen: {g}\n" for g in gens))
    code, out, err = run(capsys, "verify-mult", "--file", str(path), "--pi", pi)
    assert code == 0 and err == ""
    assert "pass" in out and "value 1" in out


def test_verify_mult_cyclic_test_matches_any_cyclic_hall(groups):
    # mult_record asks only whether the canonical Hall subgroup is cyclic.
    # By Wielandt's theorem that is the same as asking whether any is, so
    # both applicability tests agree.
    cases = [(e.name, groups[e.name], pi) for e in corpus_entries() for pi in e.check_pis]
    cases += [("S5 class", H, pi) for H in s5_subgroup_classes()[1]
              for pi in proper_prime_sets(H)]
    checked = 0
    for name, G, pi in cases:
        try:
            ctx = build_hall_context(G, pi)
        except NoHallSubgroupError:
            continue
        separable = is_pi_separable(G, pi)
        one, every = is_cyclic(canonical_hall(ctx)), any(map(is_cyclic, ctx.halls))
        assert (one, one or separable) == (every, separable or every), (name, str(pi))
        checked += 1
    assert checked == 56 + 24  # corpus pairs, then the S5 sweep's


def _lone_halls(cases):
    """How many of the (G, pi) cases have exactly one Hall pi-subgroup,
    asserting that each of them is pi-separable."""
    lone = 0
    for G, pi in cases:
        try:
            ctx = build_hall_context(G, pi)
        except NoHallSubgroupError:
            continue
        if ctx.num_halls == 1:
            assert is_pi_separable(G, pi), (G, str(pi))
            lone += 1
    return lone


def test_a_lone_hall_subgroup_proves_separability(groups):
    # mult_record reads a lone, so normal, Hall pi-subgroup H as proof that G
    # is pi-separable, by the pi-series 1 <= H <= G, and walks no series.
    # The premise on every proper prime set of the corpus groups and of S6's
    # 56 subgroup classes.
    corpus = [(G, pi) for G in groups.values() for pi in proper_prime_sets(G)]
    s6 = [(H, pi) for H in s6_class_representatives() for pi in proper_prime_sets(H)]
    assert (_lone_halls(corpus), _lone_halls(s6)) == (21, 23)


@settings(max_examples=25, deadline=None)
@given(random_generating_sets())
def test_a_lone_hall_subgroup_proves_separability_on_random_groups(drawn):
    degree, images = drawn
    G = close([Permutation(g) for g in images], degree=degree)
    _lone_halls([(G, pi) for pi in proper_prime_sets(G)])


def test_verify_mult_on_a_normal_hall_subgroup_builds_no_classes():
    # SL(2,3)'s quaternion Sylow 2-subgroup is its one Hall 2-subgroup: the
    # verdict needs no pi-series, so no cores and no classes.  A fresh group,
    # as the session groups may keep their classes.
    G = load_group("SL(2,3)")
    [record] = cli.hall_records("SL(2,3)", G, PiSet([2]), ["verify-mult"])
    assert (record.status, record.witness, G._classes) == (PASS, "value 1", None)


def test_verify_add_on_a7_skips_the_full_search(capsys, tmp_path, monkeypatch):
    # A7 has 315 Sylow 2-subgroups and 35 Hall {2,3}-subgroups; the full
    # search takes seconds for the first and over a minute for the second.
    # The witnesses are the full search's.
    def refuse(*args):
        raise AssertionError("full subgroup search")

    monkeypatch.setattr(hall_mod, "subgroups_of_order", refuse)
    monkeypatch.setattr(group_mod, "subgroups_of_order", refuse)
    path = tmp_path / "a7.grp"
    path.write_text("degree: 7\ngen: (1 5 2)\ngen: (1 5 2 7 3 6 4)\n")
    A7 = close(parse_group_text(path.read_text())[1])
    witnesses = {
        "2": (315, "1514622681574080293"),
        "2,3": (35, "2872329114606229319726145891265875322423997476598470542585243912112229"
                    "30512499312214159735369208138515154840"),
    }
    for pi, (num_halls, value) in witnesses.items():
        code, out, err = run(capsys, "verify-add", "--file", str(path), "--pi", pi)
        assert (code, err) == (0, ""), pi
        assert out.split()[-3:] == ["pass:", "value", value], pi
        assert build_hall_context(A7, PiSet.parse(pi)).num_halls == num_halls, pi


def test_file_named_like_a_builtin_reads_the_file(capsys, tmp_path, monkeypatch):
    # --file A5 must read ./A5, here S3, not load the builtin A5.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A5").write_text("degree: 3\ngen: (1 2)\ngen: (1 2 3)\n")
    code, out, err = run(capsys, "lambda", "--file", "A5", "--pi", "3")
    assert code == 0 and err == ""
    assert out.splitlines() == ["element () order 1 lambda 1",
                                "element (1 2 3) order 3 lambda 1",
                                "element (1 3 2) order 3 lambda 1"]


def test_group_file_directory_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "verify-add", "--file", str(tmp_path), "--pi", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read group file {tmp_path}: ")
    assert "Is a directory" in err and err.count("\n") == 1


def test_group_file_non_ascii_is_input_error(capsys, tmp_path):
    path = tmp_path / "g.grp"
    path.write_bytes("# caf\u00e9\ndegree: 3\ngen: (1 2)\n".encode())
    code, out, err = run(capsys, "verify-add", "--file", str(path), "--pi", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read group file {path}: ")
    assert "can't decode byte 0xc3" in err and err.count("\n") == 1


def test_missing_group_file_names_the_path_as_typed(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify-add", "--file", "./nope//x.group", "--pi", "2")
    assert (code, out) == (2, "")
    assert err == ("error: cannot read group file ./nope//x.group: [Errno 2] "
                   "No such file or directory: './nope//x.group'\n")


def test_crlf_group_file_reports_like_lf(capsys, tmp_path):
    text = get_entry("S4").text
    outs = []
    for newline in ("\n", "\r\n"):
        path = tmp_path / "S4.grp"
        path.write_bytes(text.replace("\n", newline).encode("ascii"))
        code, out, err = run(capsys, "verify-add", "--file", str(path), "--pi", "2", "--json")
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1] and "value" in outs[0]


# Quotes, backslashes, control characters, U+2028 and lone surrogates are
# drawn often; the rest of Unicode, unassigned and private use included, too.
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\u00e9\u2028\ud800\udfff'),
                               st.characters(exclude_categories=())))


@given(st.lists(st.tuples(*[_JSON_TEXT] * 5), max_size=3),
       st.lists(st.tuples(_JSON_TEXT, st.integers(), st.integers()), max_size=3))
def test_records_to_json_matches_json_dumps(fields, lambda_rows):
    records = [CheckRecord(*values) for values in fields]
    dicts = [dict(zip(("check", "group", "pi", "status", "witness"), values))
             for values in fields]
    assert records_to_json(records) == json.dumps(dicts, indent=2, sort_keys=True)
    rows = [{"element": element, "order": order, "lambda": lam}
            for element, order, lam in lambda_rows]
    assert lambda_rows_to_json(rows) == json.dumps(rows, indent=2, sort_keys=True)


def test_group_file_degree_over_the_limit_is_input_error(capsys, tmp_path):
    path = tmp_path / "g.grp"
    path.write_text("degree: 100000000\ngen: (1 2 3)\ngen: (1 2)\n")
    code, out, err = run(capsys, "verify-add", "--file", str(path), "--pi", "2")
    assert code == 2 and out == ""
    assert err == "error: line 1: degree 100000000 is over the limit 256\n"


def test_group_file_of_degree_257_is_input_error(capsys, tmp_path):
    # A point must fit in a byte: one past 256 points is refused by name.
    path = tmp_path / "g.grp"
    path.write_text("degree: 257\ngen: (256 257)\ngen: (1 2 3)\n")
    code, out, err = run(capsys, "verify-add", "--file", str(path), "--pi", "2")
    assert (code, out, err) == (2, "", "error: line 1: degree 257 is over the limit 256\n")


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    # Exit 1 means a violated identity; a crash must not look like one.
    def broken(G, pi):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_hall_context", broken)
    code, out, err = run(capsys, "verify-add", "--group", "S4", "--pi", "2")
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_unknown_group_is_input_error(capsys):
    code, _, err = run(capsys, "verify-mult", "--group", "M11", "--pi", "2")
    assert code == 2
    assert "unknown builtin group" in err and "A5" in err


def test_missing_group_is_input_error(capsys):
    code, _, err = run(capsys, "verify-mult", "--pi", "2")
    assert code == 2
    assert "--group or --file" in err


def test_missing_pi_is_input_error(capsys):
    code, _, err = run(capsys, "verify-add", "--group", "A5")
    assert code == 2
    assert "--pi is required" in err


def test_bad_pi_is_input_error(capsys):
    code, _, err = run(capsys, "verify-add", "--group", "A5", "--pi", "2,9")
    assert code == 2
    assert "not prime" in err
    # Primes above the factorization limit are refused, not trial-divided:
    # the first prime above 10^7 and a 31-digit prime.
    for prime in ("10000019", "1000000000000000000000000000057"):
        code, out, err = run(capsys, "verify-add", "--group", "A5", "--pi", prime)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "factorization limit 10000000" in err


def test_cap_exceeded_is_input_error(capsys):
    code, _, err = run(capsys, "verify-mult", "--group", "PGL(2,9)", "--pi", "2",
                       "--cap", "100")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_cap_below_one_is_input_error(capsys, cap):
    code, out, err = run(capsys, "verify-mult", "--group", "C6", "--pi", "2",
                         "--cap", cap)
    assert code == 2
    assert out == ""
    assert err == "error: --cap must be at least 1\n"


def test_cap_of_one_reports_the_cap_error(capsys):
    code, _, err = run(capsys, "verify-mult", "--group", "C6", "--pi", "2",
                       "--cap", "1")
    assert code == 2
    assert "closure exceeds the element cap 1" in err


def test_cap_below_a_generator_order_is_input_error(capsys, tmp_path):
    path = tmp_path / "c7.grp"
    path.write_text("degree: 7\ngen: (1 2 3 4 5 6 7)\n")
    code, out, err = run(capsys, "verify-add", "--file", str(path), "--pi", "7", "--cap", "6")
    assert (code, out) == (2, "")
    assert err == ("error: closure exceeds the element cap 6; "
                   "the group is too large for exhaustive mode\n")


def test_cap_over_the_limit_is_refused_before_closure(capsys, monkeypatch, tmp_path):
    # Without the limit, a cap large enough for S10 ends in an internal MemoryError.
    def no_closure(*args, **kwargs):
        raise AssertionError("close was called")

    for module in (cli, corpus_mod, group_mod):
        monkeypatch.setattr(module, "close", no_closure)
    path = tmp_path / "s10.grp"
    path.write_text("degree: 10\ngen: (1 2 3 4 5 6 7 8 9 10)\ngen: (1 2)\n")
    for cap in (group_mod.MAX_CAP + 1, 5000000):
        for source in (["--group", "S4"], ["--file", str(path)]):
            code, out, err = run(capsys, "verify-add", *source, "--pi", "2", "--cap", str(cap))
            assert (code, out) == (2, "")
            assert err == f"error: --cap {cap} is over the limit 40320\n"
        assert run(capsys, "scan", "--cap", str(cap))[0] == 2


def test_largest_cap_still_closes_s8(capsys, tmp_path):
    path = tmp_path / "s8.grp"
    path.write_text("degree: 8\ngen: (1 2 3 4 5 6 7 8)\ngen: (1 2)\n")
    code, out, err = run(capsys, "verify-mult", "--file", str(path), "--pi", "7",
                         "--cap", str(group_mod.MAX_CAP))
    assert group_mod.MAX_CAP == 40320
    assert (code, err) == (0, "") and "pass" in out


def test_importing_the_cli_loads_no_argparse():
    # The command line parses its own argv: building argparse's parser and
    # its first use (gettext, locale, regex compiles) cost every fresh
    # process milliseconds, and each parse far more than a small command's.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, hallfix.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _parsed(parse, argv):
    """The fields ``parse`` reads from argv, or its exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return vars(parse(list(argv)))
    except SystemExit as exc:
        return exc.code


#: The argv forms that the tests, CI and perfbench run, with and without a
#: usage error.
_USED_ARGV = [
    ("verify-mult", "--group", "S4", "--pi", "2"),
    ("verify-mult", "--group", "A5", "--pi", "2", "--radical", "--json"),
    ("verify-add", "--file", "/tmp/g.grp", "--pi", "2,3", "--json"),
    ("interpretation", "--file", "g.grp", "--pi", "2"),
    ("sym-char", "--file", "g.grp", "--pi", "3", "--json"),
    ("verify-nr", "--group", "F20"),
    ("verify-wielandt", "--group", "F20", "--pi", "5"),
    ("lambda", "--group", "PGL(2,9)", "--pi", "5", "--json"),
    ("curiosity", "--group", "A5", "--n", "6"),
    ("curiosity", "--group", "A5", "--pi", ""),
    ("scan", "--group", "S4", "--json"),
    ("scan", "--json"),
    ("scan", "--cap", "40321"),
    ("verify-mult", "--group", "C6", "--pi", "2", "--cap", "-1"),
    ("verify-add", "--group", "S5", "--pi", "2", "--cap", "100"),
    ("verify-add", "--group", "S4", "--pi", "2", "--radical"),
    ("scan", "--n", "3"),
    ("scan", "--group", "S4", "--pi", "2"),
    ("verify-add", "--pi"),
    ("scan", "--cap", "x"),
    ("scan", "--json=1"),
    ("scan", "--gr=S4", "--rad"),
    ("frob",),
    (),
    ("--help",),
]


@pytest.mark.parametrize("argv", _USED_ARGV)
def test_parser_matches_argparse_on_the_argv_in_use(argv):
    # The command word moved before, among and after the options.
    reference = reference_parser()
    for moved in {argv[1:k] + argv[:1] + argv[k:] for k in range(1, len(argv) + 2)}:
        assert _parsed(cli._parse_args, moved) == _parsed(reference.parse_args, moved), moved


#: Tokens for random argv: commands, options, their unique abbreviations and
#: "=" forms, negative numbers, unknown options and values.  "--" is pinned
#: apart.  So are an ambiguous prefix and "-h" run on with more letters,
#: which argparse reads one way up to 3.12 and another on 3.13.
_TOKENS = ("scan", "lambda", "verify-add", "verify-mult", "curiosity", "frob",
           "--group", "--gr", "--file", "--f", "--pi", "--p", "--json", "--j",
           "--cap", "--ca", "--n", "--radical", "--rad", "--help", "--he", "-h",
           "--json=1", "--rad=", "--cap=5", "--cap=x", "--gr=S4", "--pi=2", "--pi=", "--n=3",
           "-5", "-1.5", "-x", "-x y", "-", "---", "", "S4", "2,3", "x", "7")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=7))
def test_parser_matches_argparse_on_random_argv(argv):
    assert _parsed(cli._parse_args, argv) == _parsed(reference_parser().parse_args, argv)


def test_parser_matches_argparse_on_double_dash():
    # Every token after the first "--" is a value; argparse drops a "--"
    # next to the command word and reports any other as unrecognized.
    cases = {
        ("--group", "S4", "--pi", "2", "--", "verify-add"): "verify-add",
        ("--", "scan"): "scan",
        ("scan", "--"): "scan",
        ("--json", "scan", "--", "x"): 2,
        ("scan", "--", "--json"): 2,
        ("scan", "--json", "--"): 2,
        ("--pi", "--", "2", "scan"): 2,
        ("--", "--", "scan"): 2,
        ("--",): 2,
    }
    reference = reference_parser()
    for argv, expect in cases.items():
        got = _parsed(cli._parse_args, argv)
        assert (got if got == 2 else got["command"]) == expect, argv
        assert got == _parsed(reference.parse_args, argv), argv


_CHOICES = ("'lambda', 'verify-mult', 'verify-add', 'verify-nr', 'verify-wielandt', "
            "'sym-char', 'interpretation', 'curiosity', 'scan'")


@pytest.mark.parametrize("argv,message", [
    ((), "the following arguments are required: command"),
    (("frob",), f"argument command: invalid choice: 'frob' (choose from {_CHOICES})"),
    (("verify-add", "--pi"), "argument --pi: expected one argument"),
    (("verify-add", "--gr", "--pi", "2"), "argument --group: expected one argument"),
    (("scan", "--cap", "x"), "argument --cap: invalid int value: 'x'"),
    (("scan", "--json=1"), "argument --json: ignored explicit argument '1'"),
    (("scan", "-hx"), "argument -h/--help: ignored explicit argument 'x'"),
    (("scan", "-5", "--x", "S4"), "unrecognized arguments: -5 --x S4"),
    (("scan", "--=x"), "ambiguous option: --=x could match --help, --group, --file, --pi, "
                       "--json, --cap, --n, --radical"),
    (("scan", "--n", "3"), "--n applies to curiosity only"),
    (("verify-add", "--rad", "--group", "S4", "--pi", "2"), "--radical applies to verify-mult only"),
    (("scan", "--pi", ""), "--pi does not apply to scan"),
])
def test_usage_errors_print_argparse_text(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    assert capsys.readouterr() == ("", f"usage: hallfix <command> [options]\nhallfix: error: {message}\n")


@pytest.mark.parametrize("argv,error", [
    (("curiosity", "--group", "A5", "--pi", ""), "empty prime set"),
    (("verify-nr", "--group", "S3", "--pi", ""), "empty prime set"),
    (("verify-add", "--group", "S3", "--pi", ""), "empty prime set"),
    (("verify-add", "--group", "S3", "--file", "", "--pi", "2"),
     "--group and --file are mutually exclusive"),
    (("scan", "--file", ""), "scan works on the builtin corpus; --file is not supported"),
    (("scan", "--group", ""), "unknown builtin group ''"),
])
def test_an_empty_option_value_counts_as_given(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


def test_help_is_argparse_text_at_80_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._HELP == reference_parser().format_help()
    assert hashlib.sha256(cli._HELP.encode()).hexdigest() == (
        "9dbcddf8d92c2d0e4d10acac152c9262e58f4b860b58a15070670c714ab46ae2")


@pytest.mark.parametrize("argv,option", [
    (("scan", "--n", "3"), "--n"),
    (("verify-add", "--group", "S4", "--pi", "2", "--n", "3"), "--n"),
    (("verify-add", "--group", "S4", "--pi", "2", "--radical"), "--radical"),
    (("--radical", "interpretation", "--group", "S4", "--pi", "2"), "--radical"),
    (("scan", "--group", "A5", "--pi", "3"), "--pi"),
])
def test_option_outside_its_command_is_a_usage_error(capsys, argv, option):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and out == ""
    naming = [line for line in err.splitlines() if option in line]
    assert naming == [{"--n": "hallfix: error: --n applies to curiosity only",
                       "--radical": "hallfix: error: --radical applies to verify-mult only",
                       "--pi": "hallfix: error: --pi does not apply to scan"}[option]]


def test_help_lists_every_command(capsys):
    for argv in (["--help"], ["scan", "-h", "--cap", "x"], ["--he"], ["-hh"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        assert exit_info.value.code == 0 and err == "" and out == cli._HELP, argv
    assert all(command in out for command in cli._COMMANDS)
    assert "--n N" in out and "--radical" in out


@pytest.mark.parametrize("argv", [
    ("verify-mult", "--group", "S4", "--pi", "2", "--radical", "--json"),
    ("curiosity", "--group", "A5", "--n", "6"),
    ("lambda", "--group", "S4", "--pi", "3"),
])
def test_options_may_come_before_the_command_word(capsys, argv):
    after = run(capsys, *argv)
    before = run(capsys, *argv[1:], argv[0])
    assert before == after and after[0] == 0 and after[1]


def test_scan_single_entry_deterministic(capsys):
    code1, out1, _ = run(capsys, "scan", "--group", "S4")
    code2, out2, _ = run(capsys, "scan", "--group", "S4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "verify-mult" in out1 and "verify-add" in out1


def test_scan_builds_one_hall_context_per_pi(capsys, monkeypatch):
    # The four Hall checks of one (G, pi) share a single context.
    calls = []
    build = cli.build_hall_context
    monkeypatch.setattr(cli, "build_hall_context",
                        lambda G, pi: calls.append(pi) or build(G, pi))
    code, _, _ = run(capsys, "scan", "--group", "S4")
    assert code == 0
    assert [str(pi) for pi in calls] == ["2", "3", "2,3"]
    # F42's coprime split needs the Hall sets of orders 6 ({2,3}) and 7 ({7}),
    # which its Hall checks searched already.  Its 7 Sylow 2-subgroups, 7 Sylow
    # 3-subgroups and 7 complements C6, its normal C7 and C7:C3 are each
    # walked once in the whole scan.
    walked = _count_hall_walks(monkeypatch)
    code, _, _ = run(capsys, "scan", "--group", "F42")
    assert code == 0
    assert walked == {2: 7, 3: 7, 7: 1, 6: 7, 21: 1}


def _count_hall_walks(monkeypatch):
    """Count the Hall subgroups that searches walk, by their order: a search
    fills G's conjugation rows at each Hall subgroup it finds, once."""
    walked = Counter()
    fill = group_mod._fill_rows

    def counted_fill(G, xs):
        if isinstance(xs, frozenset):  # not the classes' fill of all of G
            walked[len(xs)] += 1
        return fill(G, xs)

    monkeypatch.setattr(group_mod, "_fill_rows", counted_fill)
    return walked


def test_prime_sets_of_one_hall_order_share_one_search(monkeypatch):
    # G keeps its Hall set by Hall order, not by prime set: on S4, pi={2} and
    # pi={2,7} both have Hall order 8.  Each context still carries its own pi,
    # and the second finds the same 3 Sylow 2-subgroups without a search.
    # A fresh S4, since the session groups may already keep that Hall set.
    walked = _count_hall_walks(monkeypatch)
    S4 = load_group("S4")
    first = cli.hall_records("S4", S4, PiSet([2]), cli.HALL_CHECKS)
    assert walked == {8: 3}
    second = cli.hall_records("S4", S4, PiSet([2, 7]), cli.HALL_CHECKS)
    assert walked == {8: 3}
    assert {r.pi for r in first} == {"2"} and {r.pi for r in second} == {"2,7"}
    assert [r.witness for r in first] == [r.witness for r in second]


def test_scan_computes_the_additive_value_once_per_hall_context(capsys, monkeypatch):
    # verify-add, sym-char and interpretation all report the additive value;
    # its power sum over lam on the Hall subgroups is evaluated once per
    # context, and sym-char's Hall mean of tau is the one other Möbius power
    # sum.  What the four checks share is kept on the context: one list of
    # the pairs (d, mu(d)) of the Hall order, one d-th-power table per (Hall
    # subgroup, d) -- the canonical Hall subgroup's, at each squarefree d
    # dividing the Hall order, each counted once off the power walks but the
    # one at d = 1, the member set itself -- and one table of lam totals per
    # (Hall subgroup, d), which verify-mult and verify-add both read.
    contexts, pairs, sums, lam_totals, tables = [], [], [], [], Counter()
    build, power_sum = cli.build_hall_context, verify_mod._moebius_power_sum
    moebius, by_value = hall_mod.squarefree_divisors, hall_mod.by_value
    counts = group_mod.PermGroup.power_counts
    monkeypatch.setattr(cli, "build_hall_context",
                        lambda G, pi: contexts.append(build(G, pi)) or contexts[-1])
    monkeypatch.setattr(hall_mod, "squarefree_divisors",
                        lambda n: pairs.append(moebius(n)) or pairs[-1])
    monkeypatch.setattr(hall_mod, "by_value",
                        lambda f, table: lam_totals.append(f) or by_value(f, table))
    monkeypatch.setattr(verify_mod, "_moebius_power_sum",
                        lambda totals, ps, n: sums.append(ps) or power_sum(totals, ps, n))
    monkeypatch.setattr(group_mod.PermGroup, "power_counts", lambda G, weights, d: tables.update(
        [(frozenset(weights), d)]) or counts(G, weights, d))
    code, _, _ = run(capsys, "scan", "--group", "S4")
    assert code == 0 and len(contexts) == 3
    assert len(pairs) == 3 and all(ps is ctx.moebius_pairs for ps, ctx in zip(pairs, contexts))
    assert [sum(ps is ctx.moebius_pairs for ps in sums) for ctx in contexts] == [2, 2, 2]
    assert [len(ctx._additive) for ctx in contexts] == [1, 1, 1]
    for ctx in contexts:
        H, ds = ctx.hall_members[0], [d for d, _ in squarefree_divisors(ctx.hall_order)]
        assert ctx.moebius_pairs == squarefree_divisors(ctx.hall_order)
        assert {d: c for (S, d), c in tables.items() if S == H} == dict.fromkeys(ds[1:], 1)
        assert list(ctx._powers) == [(H, d) for d in ds]
        assert list(ctx._lam_totals) == [(H, d) for d in ds]
        assert sum(f is ctx.member_counts for f in lam_totals) == len(ds)
    assert len(lam_totals) == sum(len(ctx.moebius_pairs) for ctx in contexts)


def test_full_scan_factors_each_hall_order_once_per_context(capsys, monkeypatch):
    # Each Hall context makes the pairs (d, mu(d)) of its Hall order once, for
    # all four checks; the cyclic lattices of the 8 coprime splits and A5's
    # curiosity sum at n = |G| make the only other pairs.  The scan factors
    # 228 numbers in all (381 when each check made its own pairs).
    calls, contexts, lattices, factored = Counter(), Counter(), [], []
    for module in (hall_mod, verify_mod):
        monkeypatch.setattr(module, "squarefree_divisors",
                            lambda n, name=module.__name__, pairs=module.squarefree_divisors:
                            calls.update([name]) or pairs(n))
    for module in (arith_mod, group_mod):
        monkeypatch.setattr(module, "factorize",
                            lambda n, factor=module.factorize: factored.append(n) or factor(n))
    init, lattice = hall_mod.HallContext.__init__, verify_mod.cyclic_lattice
    monkeypatch.setattr(hall_mod.HallContext, "__init__", lambda ctx, G, pi, *rest: contexts.update(
        [(G, pi)]) or init(ctx, G, pi, *rest))
    monkeypatch.setattr(verify_mod, "cyclic_lattice", lambda H: lattices.append(H) or lattice(H))
    code, _, _ = run(capsys, "scan", "--json")
    assert code == 0 and len(lattices) == 8
    assert calls == {"hallfix.hall": sum(contexts.values()) + 8, "hallfix.verify": 1}
    assert sum(calls.values()) == 66 and len(factored) == 228


def test_scan_counts_each_centralizer_order_once_per_split(capsys, monkeypatch):
    # Navarro-Rizo counts |C_N(x)| at every x of the complement H, and
    # |C_N(H)|, kept on the split; Wielandt reads C_N(<g>) = C_N(g) for each
    # cyclic <g> <= H off the same keep.  So Wielandt counts only where
    # Navarro-Rizo does not apply: F42 and C7:S3, with complements C6 and S3.
    counted, phase = [], []
    count, nr, wielandt = verify_mod.centralizer_order, cli.nr_record, cli.wielandt_record
    monkeypatch.setattr(verify_mod, "centralizer_order",
                        lambda N, s: counted.append((phase[-1], N, s)) or count(N, s))
    monkeypatch.setattr(cli, "nr_record",
                        lambda name, split: phase.append(("nr", name)) or nr(name, split))
    monkeypatch.setattr(cli, "wielandt_record", lambda name, split: phase.append(
        ("wielandt", name)) or wielandt(name, split))
    code, _, _ = run(capsys, "scan", "--json")
    assert code == 0 and len(phase) == 16
    targets = [(id(N), s) for _, N, s in counted]
    assert len(targets) == len(set(targets))
    by_check = Counter(phase for phase, _, _ in counted)
    assert {name for check, name in by_check if check == "wielandt"} == {"F42", "C7:S3"}
    # One count per cyclic subgroup, and one for H: C6 has 4 cyclic
    # subgroups, S3 has 5 (the identity, three of order 2, one of order 3).
    for name, cyclic in (("F42", 4), ("C7:S3", 5)):
        assert by_check["wielandt", name] == cyclic + 1 and ("nr", name) not in by_check


def test_scan_closes_each_group_once(capsys, monkeypatch):
    # S3 has a coprime scenario, split off the group its Hall checks ran on.
    parsed = []
    parse = corpus_mod.parse_group_text
    monkeypatch.setattr(corpus_mod, "parse_group_text",
                        lambda text: parsed.append(text) or parse(text))
    code, _, _ = run(capsys, "scan", "--group", "S3")
    assert code == 0
    assert parsed == [get_entry("S3").text]


def test_full_scan_closes_input_generators_only(capsys):
    # close runs on input only: once per corpus group.  Cores, centralizers,
    # cyclic subgroups and the N and H of a coprime split of a closed group
    # grow on its element indices instead.
    group_mod.WORK.clear()
    code, _, _ = run(capsys, "scan", "--json")
    assert code == 0
    assert group_mod.WORK["close.calls"] == len(corpus_entries()) == 20


def test_scan_json_single_entry(capsys):
    code, out, _ = run(capsys, "scan", "--group", "F20", "--json")
    records = json.loads(out)
    assert code == 0
    checks = {r["check"] for r in records}
    assert {"verify-mult", "verify-add", "verify-nr", "verify-wielandt",
            "sym-char", "interpretation"} <= checks
    assert all(r["status"] in ("pass", "fail", "inapplicable") for r in records)
    assert all(r["status"] != "fail" for r in records)


def test_full_corpus_scan(capsys):
    # The whole builtin corpus terminates with no unexpected failure; the
    # only failing records are the two documented counterexamples, carrying
    # their exact factored deviations.
    code, out, _ = run(capsys, "scan", "--json")
    records = json.loads(out)
    assert code == 0
    # The report bytes are pinned: a speedup must not change a single one.
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ee44d2c7e3b95c394c48279bae9c4ad6ff5654145550cc8b2876a7bdfc06a029")
    failures = [r for r in records if r["status"] == "fail"]
    assert [(r["group"], r["pi"]) for r in failures] == [
        ("A5", "2"), ("GL(3,2)", "2")]
    assert all(r["check"] == "verify-mult" for r in failures)
    assert "5^-4" in failures[0]["witness"]
    assert "3^-16 * 5^32 * 7^-16" in failures[1]["witness"]
    curiosity = [r for r in records if r["check"] == "curiosity"]
    assert len(curiosity) == 1 and curiosity[0]["status"] == "pass"


def _relabelled(G, rng):
    """G with its points renamed by a random sigma, generated by the
    conjugates sigma g sigma^-1 of its generators in shuffled order."""
    n = G.degree
    images = list(range(1, n + 1))
    rng.shuffle(images)
    sigma = Permutation(images)
    sigma_inv = sigma.inverse()
    gens = [sigma * g * sigma_inv for g in G.generators]
    rng.shuffle(gens)
    return close(gens)


def test_hall_records_survive_relabelling(groups):
    # Renaming points and reordering generators changes every element's
    # canonical index but none of the verifiers' witnesses.
    rng = random.Random(20261018)
    for entry in corpus_entries():
        G = groups[entry.name]
        relabelled = [_relabelled(G, rng) for _ in range(2)]
        for pi in entry.check_pis:
            expect = cli.hall_records(entry.name, G, pi, cli.HALL_CHECKS, entry)
            for H in relabelled:
                assert H.order == G.order, entry.name
                got = cli.hall_records(entry.name, H, pi, cli.HALL_CHECKS, entry)
                assert got == expect, (entry.name, str(pi))


def test_module_entry_point_matches_main(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hallfix.cli", "scan", "--group", "C6", "--json"],
        capture_output=True, text=True, env=env, timeout=120)
    code, out, _ = run(capsys, "scan", "--group", "C6", "--json")
    assert proc.returncode == code == 0
    assert proc.stderr == ""
    assert proc.stdout == out


#: The input errors that a group file of degree <= 7 and a set of primes can meet.
_NAMED_ERROR = re.compile(
    r"error: (group of order \d+ has no Hall subgroup for pi=\{[\d,]+\} \(no subgroup "
    r"of order \d+\)|the power sum for n=\d+ has about \d+ digits, over the limit 4300)\n")


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sets(st.sampled_from([2, 3, 5, 7]), min_size=1),
       st.sampled_from(("lambda", *cli.HALL_CHECKS, "curiosity")))
def test_random_group_files_exit_0_or_2_with_a_named_error(tmp_path_factory, rng, pi, command):
    # Off the corpus no check can FAIL (that would contradict a theorem) and
    # nothing may crash: the exit code is 0, or 2 with one named error line,
    # and the text and JSON reports agree.  Uniform random generators reach
    # the non-solvable groups, where Hall subgroups can be missing.
    degree = rng.randint(1, 7)
    gens = [Permutation(rng.sample(range(1, degree + 1), degree))
            for _ in range(rng.randint(1, 3))]
    path = tmp_path_factory.mktemp("random") / "g.grp"
    path.write_text(group_file_text(degree, gens))
    argv = [command, "--file", str(path), "--pi", ",".join(map(str, sorted(pi)))]
    code, text, err = _main_output(argv)
    json_code, as_json, json_err = _main_output(argv + ["--json"])
    assert (code, err) == (json_code, json_err)
    if code == 2:
        assert _NAMED_ERROR.fullmatch(err) and text == as_json == "", err
        return
    assert code == 0 and err == "", err
    records = json.loads(as_json)
    if command == "lambda":
        assert text.splitlines() == [f"element {r['element']} order {r['order']} "
                                     f"lambda {r['lambda']}" for r in records]
    elif command == "curiosity":
        assert records[0]["witness"].startswith(f"value {text.strip()}")
    else:
        assert re.findall(r"pi=\S+ +(\w+)", text) == [r["status"] for r in records]
