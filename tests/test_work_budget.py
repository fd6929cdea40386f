"""Exact work counts of the full scan, of the coprime commands on each corpus
split, of the mult-add commands and of the small-cmds command kinds on three
groups, against the committed ``work_budget.json``.

The counts do not depend on the host or on PYTHONHASHSEED, so any change,
up or down, fails: a change of element representation must leave them all
as they are, and a change of algorithm re-pins the file and says where the
work went.  Re-pin with ``PYTHONPATH=src python tests/test_work_budget.py``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from hallfix import cli, corpus_entries, group as group_mod

BUDGET = Path(__file__).with_name("work_budget.json")

#: The base groups of the mult-add and small-cmds commands, as group-file text.
GROUPS = {
    "PSL(2,11)": (12, ("(2 3 4 5 6 7 8 9 10 11 12)", "(3 6 7 11 5)(4 10 12 9 8)",
                       "(1 2)(3 12)(4 7)(5 9)(6 10)(8 11)")),
    "A7": (7, ("(1 2 3 4 5 6 7)", "(1 2 3)")),
    "C2^4": (8, ("(1 2)", "(3 4)", "(5 6)", "(7 8)")),
    "C4xC4": (8, ("(1 2 3 4)", "(5 6 7 8)")),
    "C3xC6": (9, ("(1 2 3)", "(4 5 6 7 8 9)")),
    "C2xC10": (12, ("(1 2)", "(3 4 5 6 7 8 9 10 11 12)")),
    "C2^5": (10, ("(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)")),
    "C2xC2xC6": (10, ("(1 2)", "(3 4)", "(5 6 7 8 9 10)")),
    "F42": (7, ("(1 2 3 4 5 6 7)", "(2 4 3 7 5 6)")),
    "A5": (5, ("(1 2 3 4 5)", "(3 4 5)")),
    "SL(2,3)": (8, ("(1 6 2 3)(4 7 8 5)", "(1 4 7)(2 8 5)")),
}

#: (group, pi, command) of each mult-add command.
MULT_ADD = (
    ("PSL(2,11)", "2", "verify-mult"), ("PSL(2,11)", "11", "verify-add"),
    ("A7", "5", "verify-mult"), ("A7", "5", "verify-add"),
    ("A7", "7", "verify-mult"), ("A7", "7", "verify-add"),
    ("C2^4", "2", "verify-mult"), ("C2^4", "2", "verify-add"),
    ("C4xC4", "2", "verify-mult"), ("C4xC4", "2", "verify-add"),
    ("C3xC6", "3", "verify-mult"), ("C3xC6", "3", "verify-add"),
    ("C2xC10", "5", "verify-add"), ("C2^5", "2", "verify-add"),
    ("C2xC2xC6", "3", "verify-add"),
)

#: (group, pi, command) of the small-cmds command kinds: F42 with Hall
#: subgroups of composite order, A5 with none, and SL(2,3) with its normal
#: quaternion Sylow 2-subgroup.
SMALL = tuple((name, pi, command)
              for name, pi in (("F42", "2,3"), ("A5", "2,5"), ("SL(2,3)", "2"))
              for command in cli.HALL_CHECKS)


def _counted(mp, counts):
    """Wrap each counted stage on ``mp``, a MonkeyPatch, adding to ``counts``."""
    close = group_mod.close

    def counted_close(*args, **kwargs):
        G = close(*args, **kwargs)
        counts["close.calls"] += 1
        counts["close.elements"] += G.order
        return G

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hallfix" and getattr(module, "close", None) is close:
            mp.setattr(module, "close", counted_close)

    grow = group_mod._grow

    def counted_grow(*args, **kwargs):
        counts["grow.calls"] += 1
        return grow(*args, **kwargs)

    mp.setattr(group_mod, "_grow", counted_grow)

    # Row entries are None until filled; each row is the last of its triple.
    fill, rows = group_mod._fill_rows, group_mod._conjugation_rows

    def counted_fill(G, xs):
        empty = sum(triple[-1].count(None) for triple in rows(G))
        out = fill(G, xs)
        counts["rows.filled"] += empty - sum(triple[-1].count(None) for triple in out)
        return out

    mp.setattr(group_mod, "_fill_rows", counted_fill)

    # A power walk, kept per element index, is where every element order is read.
    walk = group_mod.PermGroup.power_walk

    def counted_walk(G, i):
        if i not in G._walks:
            counts["power_walk.built"] += 1
        return walk(G, i)

    mp.setattr(group_mod.PermGroup, "power_walk", counted_walk)

    halls = group_mod.hall_subgroups

    def counted_halls(G, n):
        # G keeps each Hall set, so a second call for n searches nothing.
        searched = n not in G._halls
        found, normalizers = halls(G, n)
        counts["hall.subgroups"] += len(found) if searched else 0

        def counted_normalizers():
            orbits = normalizers()
            counts["hall.orbits_read"] += len(orbits)
            return orbits
        return found, counted_normalizers

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hallfix" and getattr(module, "hall_subgroups", None) is halls:
            mp.setattr(module, "hall_subgroups", counted_halls)


def measure(tmp_dir: Path):
    """The work counts of each command, keyed by its command line."""
    commands = [["scan", "--json"]]
    for entry in corpus_entries():
        if entry.scenario is not None:
            commands += [[command, "--group", entry.name, "--json"]
                         for command in ("verify-nr", "verify-wielandt")]
    for name, pi, command in MULT_ADD + SMALL:
        path = tmp_dir / f"{name}.group"
        degree, gens = GROUPS[name]
        path.write_text(f"degree: {degree}\n" + "".join(f"gen: {g}\n" for g in gens))
        commands.append([command, "--file", str(path), "--pi", pi, "--json"])
    out = {}
    for argv in commands:
        counts = Counter()
        with pytest.MonkeyPatch.context() as mp:
            _counted(mp, counts)
            code = cli.main(argv)
        key = " ".join(argv).replace(str(tmp_dir) + "/", "")
        out[key] = {"exit": code, **dict(sorted(counts.items()))}
    return out


def test_work_counts_match_the_budget(tmp_path, capsys):
    found = measure(tmp_path)
    capsys.readouterr()
    expected = json.loads(BUDGET.read_text())
    assert list(found) == list(expected)
    for key, counts in expected.items():
        assert found[key] == counts, key


if __name__ == "__main__":
    import tempfile

    from contextlib import redirect_stdout
    from io import StringIO

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()):
        counts = measure(Path(tmp))
    BUDGET.write_text(json.dumps(counts, indent=2) + "\n")
