"""Builtin group corpus and group loading.

Builtins are stored as group-file text (the same external format accepted on
disk), so loading a builtin exercises the parser.  Matrix-derived entries
(SL(2,3) on the 8 nonzero vectors of F3^2, GL(3,2) on the 7 nonzero vectors
of F2^3, PGL(2,9) on the 10-point projective line over F9) carry generator
strings frozen from those constructions; the test suite rebuilds them from
the linear/field arithmetic and asserts equality.  A coprime scenario is
named by its complement's primes only; ``verify.coprime_split`` finds N and H.
An entry holds only what a command reads; the textbook facts the tests check
each group against (order, solvability, pi-separability, Hall counts) are
kept in ``tests/test_corpus.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from .arith import PiSet
from .group import DEFAULT_ELEMENT_CAP, PermGroup, close
from .groupio import parse_group_text, read_group_file


class UnknownGroupError(ValueError):
    """The requested builtin name does not exist."""


def _pis(*specs: str) -> Tuple[PiSet, ...]:
    return tuple(PiSet.parse(s) for s in specs)


class CorpusEntry(NamedTuple):
    """A named builtin group: its group-file ``text`` and the prime sets
    ``check_pis`` that a scan checks it at.

    ``scenario`` is the prime set pi of a coprime split G = N H, H a Hall
    pi-subgroup and N the normal Hall pi'-subgroup, used by the fixed-point
    checks for coprime actions.  ``expected_mult_fail`` marks the
    documented counterexample pairs for the multiplicative identity, so a
    scan can tell "theorem violated" from "known non-instance".
    """

    name: str
    text: str
    check_pis: Tuple[PiSet, ...]
    scenario: Optional[PiSet] = None
    expected_mult_fail: Tuple[PiSet, ...] = ()


_ENTRIES: List[CorpusEntry] = [
    CorpusEntry(
        name="C6",
        text="# cyclic group of order 6\ndegree: 6\ngen: (1 2 3 4 5 6)\n",
        check_pis=_pis("2", "3", "2,3"),
    ),
    CorpusEntry(
        name="C3xC2",
        text=("# direct product C3 x C2; the complement acts trivially\n"
              "degree: 5\ngen: (1 2 3)\ngen: (4 5)\n"),
        check_pis=_pis("2", "3"),
        scenario=PiSet([2]),
    ),
    CorpusEntry(
        name="V4",
        text="# Klein four-group\ndegree: 4\ngen: (1 2)(3 4)\ngen: (1 3)(2 4)\n",
        check_pis=_pis("2"),
    ),
    CorpusEntry(
        name="S3",
        text="# symmetric group on 3 points\ndegree: 3\ngen: (1 2)\ngen: (1 2 3)\n",
        check_pis=_pis("2", "3"),
        scenario=PiSet([2]),
    ),
    CorpusEntry(
        name="C3xC3",
        text="# elementary abelian 3x3\ndegree: 6\ngen: (1 2 3)\ngen: (4 5 6)\n",
        check_pis=_pis("3"),
    ),
    CorpusEntry(
        name="D10",
        text="# dihedral group of order 10\ndegree: 5\ngen: (1 2 3 4 5)\ngen: (2 5)(3 4)\n",
        check_pis=_pis("2", "5"),
        scenario=PiSet([2]),
    ),
    CorpusEntry(
        name="A4",
        text="# alternating group on 4 points\ndegree: 4\ngen: (1 2 3)\ngen: (1 2)(3 4)\n",
        check_pis=_pis("2", "3"),
    ),
    CorpusEntry(
        name="S4",
        text="# symmetric group on 4 points\ndegree: 4\ngen: (1 2)\ngen: (1 2 3 4)\n",
        check_pis=_pis("2", "3", "2,3"),
    ),
    CorpusEntry(
        name="F20",
        text=("# Frobenius group of order 20: C5 with a faithful C4 on top\n"
              "degree: 5\ngen: (1 2 3 4 5)\ngen: (2 3 5 4)\n"),
        check_pis=_pis("2", "5"),
        scenario=PiSet([2]),
    ),
    CorpusEntry(
        name="F21",
        text=("# Frobenius group of order 21: C7 with a faithful C3 on top\n"
              "degree: 7\ngen: (1 2 3 4 5 6 7)\ngen: (2 3 5)(4 7 6)\n"),
        check_pis=_pis("3", "7"),
        scenario=PiSet([3]),
    ),
    CorpusEntry(
        name="F42",
        text=("# Frobenius group of order 42: C7 with a faithful C6 on top\n"
              "degree: 7\ngen: (1 2 3 4 5 6 7)\ngen: (2 4 3 7 5 6)\n"),
        check_pis=_pis("2", "3", "7", "2,3", "3,7"),
        scenario=PiSet([2, 3]),
    ),
    CorpusEntry(
        name="F21xC2",
        text=("# direct product of F21 with a central C2\n"
              "degree: 9\ngen: (1 2 3 4 5 6 7)\ngen: (2 3 5)(4 7 6)\ngen: (8 9)\n"),
        check_pis=_pis("3", "7", "3,7", "2,3"),
    ),
    CorpusEntry(
        name="SL(2,3)",
        text=("# SL(2,3) acting on the 8 nonzero vectors of F3^2 (lex order)\n"
              "degree: 8\ngen: (1 6 2 3)(4 7 8 5)\ngen: (1 4 7)(2 8 5)\n"),
        check_pis=_pis("2", "3", "2,3"),
    ),
    CorpusEntry(
        name="S3xS3",
        text=("# S3 x S3; the base C3 x C3 carries a faithful V4\n"
              "degree: 6\ngen: (1 2 3)\ngen: (4 5 6)\ngen: (2 3)\ngen: (5 6)\n"),
        check_pis=_pis("2", "3"),
        scenario=PiSet([2]),
    ),
    CorpusEntry(
        name="C7:S3",
        text=("# C7 extended by S3: transpositions invert, 3-cycles act trivially\n"
              "degree: 10\ngen: (1 2 3 4 5 6 7)\ngen: (8 9 10)\n"
              "gen: (2 7)(3 6)(4 5)(9 10)\n"),
        check_pis=_pis("2", "3", "7", "2,3"),
        scenario=PiSet([2, 3]),
    ),
    CorpusEntry(
        name="A5",
        text="# alternating group on 5 points\ndegree: 5\ngen: (1 2 3 4 5)\ngen: (3 4 5)\n",
        check_pis=_pis("2", "3", "5", "2,3", "2,5"),
        expected_mult_fail=_pis("2"),
    ),
    CorpusEntry(
        name="S5",
        text="# symmetric group on 5 points\ndegree: 5\ngen: (1 2)\ngen: (1 2 3 4 5)\n",
        check_pis=_pis("2", "3", "5", "2,3"),
    ),
    CorpusEntry(
        name="GL(3,2)",
        text=("# GL(3,2) acting on the 7 nonzero vectors of F2^3 (binary order)\n"
              "degree: 7\ngen: (1 4 2)(3 5 6)\ngen: (2 6)(3 7)\n"),
        check_pis=_pis("2", "3", "7", "2,3"),
        expected_mult_fail=_pis("2"),
    ),
    CorpusEntry(
        name="PSL(2,9)",
        text=("# PSL(2,9), realized as the alternating group on 6 points\n"
              "degree: 6\ngen: (1 2 3 4 5)\ngen: (4 5 6)\n"),
        check_pis=_pis("2", "3", "5"),
    ),
    CorpusEntry(
        name="PGL(2,9)",
        text=("# PGL(2,9) on the projective line over F9 = F3[t]/(t^2+1);\n"
              "# point 1 is infinity, then field elements in lex order,\n"
              "# generators: x -> x+1, x -> (t+1)x, x -> 1/x\n"
              "degree: 10\ngen: (2 5 8)(3 6 9)(4 7 10)\n"
              "gen: (3 9 5 6 4 7 8 10)\ngen: (1 2)(3 4)(6 9)(7 10)\n"),
        check_pis=_pis("2", "3", "5"),
    ),
]

_BY_NAME: Dict[str, CorpusEntry] = {e.name: e for e in _ENTRIES}

#: The reference value of the A5 curiosity (conjugation on Syl_3, n = 60).
A5_CURIOSITY = 277777777777777777777777777773333333332754803832758090933


def corpus_entries() -> List[CorpusEntry]:
    """The corpus in canonical (report) order."""
    return list(_ENTRIES)


def corpus_names() -> List[str]:
    return [e.name for e in _ENTRIES]


def get_entry(name: str) -> CorpusEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownGroupError(
            f"unknown builtin group {name!r}; available: {', '.join(corpus_names())}"
        ) from None


def load_group(name_or_path: str, cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """Load a builtin by name, or a group file by path."""
    if name_or_path in _BY_NAME:
        degree, gens = parse_group_text(_BY_NAME[name_or_path].text)
    elif Path(name_or_path).exists():
        degree, gens = read_group_file(name_or_path)
    else:
        raise UnknownGroupError(
            f"{name_or_path!r} is neither a builtin group nor an existing file; "
            f"builtins: {', '.join(corpus_names())}")
    return close(gens, degree=degree, cap=cap)
