"""Command-line behavior: outputs, exit codes, JSON schema, determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hallfix import (NoHallSubgroupError, Permutation, PiSet, build_hall_context, cli,
                     close, corpus_entries, get_entry, is_pi_separable)
from hallfix import corpus as corpus_mod
from hallfix import group as group_mod
from hallfix import hall as hall_mod
from hallfix.cli import main
from hallfix.corpus import A5_CURIOSITY
from hallfix.groupio import parse_group_text
from hallfix.reports import FAIL, PASS
from oracles import proper_prime_sets, s5_subgroup_classes


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
    code, _, err = run(capsys, "verify-nr", "--group", "F20", "--pi", "5")
    assert code == 2
    assert "does not match" in err


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
    assert "no designated coprime scenario" in err


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
    # tau is stored as a list over element indices; index 1 is the first
    # element of its class, so the class sums read the bump.
    ctx = build_hall_context(groups["A5"], PiSet([2]))
    tau = list(ctx.tau_values)
    assert cli.sym_char_record("A5", ctx).status == PASS
    tau[1] += 1
    ctx._tau = tau
    record = cli.sym_char_record("A5", ctx)
    assert record.status == FAIL
    assert "square multiplicities" in record.witness


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
        one, every = ctx.canonical_hall.is_cyclic(), any(K.is_cyclic() for K in ctx.halls)
        assert (one, one or separable) == (every, separable or every), (name, str(pi))
        checked += 1
    assert checked == 56 + 24  # corpus pairs, then the S5 sweep's


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


def test_main_builds_one_parser_tree(capsys, monkeypatch):
    # Every command shares one parser: building it costs far more than
    # parsing, and each parser left behind is cyclic garbage.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "verify-add", "--group", "S3", "--pi", "2")[0] == 0
    tree = len(built)
    assert run(capsys, "verify-add", "--group", "S4", "--pi", "2")[0] == 0
    assert tree == len(built) == 1 + len(cli._COMMANDS)


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


def test_scan_closes_each_group_once(capsys, monkeypatch):
    # S3 has a coprime scenario; its Hall checks run on the scenario's group.
    parsed = []
    parse = corpus_mod.parse_group_text
    monkeypatch.setattr(corpus_mod, "parse_group_text",
                        lambda text: parsed.append(text) or parse(text))
    code, _, _ = run(capsys, "scan", "--group", "S3")
    assert code == 0
    assert parsed == [get_entry("S3").text]


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
