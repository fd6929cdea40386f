"""Seeded inputs and command plans for the hallfix benchmark workloads.

Every base group is frozen here as cycle strings (or built from field
arithmetic), independent of the program's own corpus module, so a change to
the program cannot change what the benchmark feeds it.  A command workload
pass writes relabelled copies of its base groups to disk: a random point
relabelling plus a shuffled generator order.  Relabelling conjugates the group
inside the symmetric group, so the work and every ``(status, witness)`` stay
the same while each input file of a pass is distinct.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Cycles = List[List[int]]

WORKLOADS = ("corpus-groups", "small-cmds", "mult-add")

#: Commands of the small-cmds workload, each run on every (group, pi).
SMALL_COMMANDS = ("verify-mult", "verify-add", "interpretation", "sym-char")


#: sha256 of ``hallfix scan --json`` stdout over the 20 builtin groups;
#: make_golden.py checks it before it records the per-group scans.
SCAN_SHA256 = "ee44d2c7e3b95c394c48279bae9c4ad6ff5654145550cc8b2876a7bdfc06a029"

#: The builtin corpus groups of order <= 60, with the prime sets the corpus
#: checks on each: (degree, generator cycle strings, pis).
SMALL_BASES: Dict[str, Tuple[int, Tuple[str, ...], Tuple[str, ...]]] = {
    "C6": (6, ("(1 2 3 4 5 6)",), ("2", "3", "2,3")),
    "C3xC2": (5, ("(1 2 3)", "(4 5)"), ("2", "3")),
    "V4": (4, ("(1 2)(3 4)", "(1 3)(2 4)"), ("2",)),
    "S3": (3, ("(1 2)", "(1 2 3)"), ("2", "3")),
    "C3xC3": (6, ("(1 2 3)", "(4 5 6)"), ("3",)),
    "D10": (5, ("(1 2 3 4 5)", "(2 5)(3 4)"), ("2", "5")),
    "A4": (4, ("(1 2 3)", "(1 2)(3 4)"), ("2", "3")),
    "S4": (4, ("(1 2)", "(1 2 3 4)"), ("2", "3", "2,3")),
    "F20": (5, ("(1 2 3 4 5)", "(2 3 5 4)"), ("2", "5")),
    "F21": (7, ("(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"), ("3", "7")),
    "F42": (7, ("(1 2 3 4 5 6 7)", "(2 4 3 7 5 6)"),
            ("2", "3", "7", "2,3", "3,7")),
    "F21xC2": (9, ("(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)", "(8 9)"),
               ("3", "7", "3,7", "2,3")),
    "SL(2,3)": (8, ("(1 6 2 3)(4 7 8 5)", "(1 4 7)(2 8 5)"), ("2", "3", "2,3")),
    "S3xS3": (6, ("(1 2 3)", "(4 5 6)", "(2 3)", "(5 6)"), ("2", "3")),
    "C7:S3": (10, ("(1 2 3 4 5 6 7)", "(8 9 10)", "(2 7)(3 6)(4 5)(9 10)"),
              ("2", "3", "7", "2,3")),
    "A5": (5, ("(1 2 3 4 5)", "(3 4 5)"), ("2", "3", "5", "2,3", "2,5")),
}

#: The 20 builtin corpus groups that ``hallfix scan`` checks.
CORPUS_NAMES = tuple(SMALL_BASES) + ("S5", "GL(3,2)", "PSL(2,9)", "PGL(2,9)")

#: The groups of one corpus-groups pass.  PGL(2,9) alone takes 15 to 20 s
#: of the 20 to 28 s full scan; with it a run holds a single pass, whose
#: time swings by a third with the load of a shared machine.  Without it a
#: pass takes 6 to 9 s and a run reports the median of several.
CORPUS_GROUPS = tuple(name for name in CORPUS_NAMES if name != "PGL(2,9)")


#: mult-add base groups other than PSL(2,11): A7 above the Cayley-table
#: guard, and abelian groups with 15 to 31 nontrivial conjugacy classes.
MULT_ADD_CYCLE_BASES: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    "A7": (7, ("(1 2 3 4 5 6 7)", "(1 2 3)")),
    "C2^4": (8, ("(1 2)", "(3 4)", "(5 6)", "(7 8)")),
    "C4xC4": (8, ("(1 2 3 4)", "(5 6 7 8)")),
    "C3xC6": (9, ("(1 2 3)", "(4 5 6 7 8 9)")),
    "C2xC10": (12, ("(1 2)", "(3 4 5 6 7 8 9 10 11 12)")),
    "C2^5": (10, ("(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)")),
    "C2xC2xC6": (10, ("(1 2)", "(3 4)", "(5 6 7 8 9 10)")),
}

#: (base group, pi, command) triples of one mult-add pass.  A pass is kept
#: to a few seconds so that a run holds several passes and reports their
#: median: one long pass per run swings with the load of a shared machine.
#: So the heaviest commands are left out: verify-mult on C2xC10 (a 2^19
#: class-union scan, 6 s), A7 with pi=3 (3 s) and one command of each
#: PSL(2,11) pair (2 s each); the same code runs here on C3xC6 (2^17), on A7
#: with pi=5 and 7 and on the other PSL(2,11) commands.  verify-mult on C2^5 and
#: C2xC2xC6 is left out because it raises at this commit (the
#: normal-subgroup scan refuses more than 20 classes) and a benchmark
#: workload must not contain failing operations; see KNOWN_FAILING.
MULT_ADD_PLAN: Tuple[Tuple[str, str, str], ...] = (
    ("PSL(2,11)", "2", "verify-mult"), ("PSL(2,11)", "11", "verify-add"),
    ("A7", "5", "verify-mult"), ("A7", "5", "verify-add"),
    ("A7", "7", "verify-mult"), ("A7", "7", "verify-add"),
    ("C2^4", "2", "verify-mult"), ("C2^4", "2", "verify-add"),
    ("C4xC4", "2", "verify-mult"), ("C4xC4", "2", "verify-add"),
    ("C3xC6", "3", "verify-mult"), ("C3xC6", "3", "verify-add"),
    ("C2xC10", "5", "verify-add"),
    ("C2^5", "2", "verify-add"),
    ("C2xC2xC6", "3", "verify-add"),
)

#: The commands that cannot finish at this commit.  Their golden record is
#: the closed-form result, and a strict xfail test in tests/ runs them.
KNOWN_FAILING: Tuple[Tuple[str, str, str], ...] = (
    ("C2^5", "2", "verify-mult"),
    ("C2xC2xC6", "3", "verify-mult"),
)


def parse_cycles(text: str) -> Cycles:
    """Cycle strings such as ``(1 2)(3 4 5)`` as lists of points."""
    return [[int(p) for p in part.split()]
            for part in text.replace(")", "").split("(") if part.strip()]


def format_cycles(cycles: Cycles) -> str:
    """Canonical cycle string: each cycle from its least point, sorted."""
    out = []
    for cyc in cycles:
        if len(cyc) < 2:
            continue
        k = cyc.index(min(cyc))
        out.append(cyc[k:] + cyc[:k])
    out.sort(key=lambda c: c[0])
    return "".join("(" + " ".join(map(str, c)) + ")" for c in out) or "()"


def images_to_cycles(images: Sequence[int]) -> Cycles:
    """1-based image list to disjoint cycles."""
    seen = set()
    cycles: Cycles = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = images[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = images[nxt - 1]
        cycles.append(cyc)
    return cycles


def psl2_11() -> Tuple[int, Tuple[str, ...]]:
    """PSL(2,11) on the projective line over F11 (point 1 is infinity,
    point k + 2 is the field element k), generated by x -> x + 1,
    x -> 4x and x -> -1/x."""
    q = 11
    inf = q

    def point(x: int) -> int:
        return 1 if x == inf else x + 2

    def images(f) -> List[int]:
        return [point(f(x)) for x in [inf] + list(range(q))]

    def translate(x: int) -> int:
        return inf if x == inf else (x + 1) % q

    def scale(x: int) -> int:
        return inf if x == inf else 4 * x % q

    def invert(x: int) -> int:
        if x == inf:
            return 0
        if x == 0:
            return inf
        return -pow(x, q - 2, q) % q

    gens = tuple(format_cycles(images_to_cycles(images(f)))
                 for f in (translate, scale, invert))
    return q + 1, gens


def base_groups(workload: str) -> Dict[str, Tuple[int, Tuple[str, ...]]]:
    """The un-relabelled base groups of a command workload."""
    if workload == "small-cmds":
        return {name: (deg, gens) for name, (deg, gens, _) in SMALL_BASES.items()}
    if workload == "mult-add":
        return {"PSL(2,11)": psl2_11(), **MULT_ADD_CYCLE_BASES}
    raise ValueError(f"{workload} has no base group files")


def command_keys(workload: str) -> List[Tuple[str, str, str]]:
    """(base group, pi, command) triples of one pass of a workload."""
    if workload == "corpus-groups":
        return [(name, "-", "scan") for name in CORPUS_GROUPS]
    if workload == "small-cmds":
        return [(name, pi, cmd) for name, (_, _, pis) in SMALL_BASES.items()
                for pi in pis for cmd in SMALL_COMMANDS]
    if workload == "mult-add":
        return list(MULT_ADD_PLAN)
    raise ValueError(f"{workload} has no command plan")


def group_text(degree: int, gens: Sequence[str], comment: str) -> str:
    lines = [f"# {comment}", f"degree: {degree}"]
    lines += [f"gen: {g}" for g in gens]
    return "\n".join(lines) + "\n"


def relabel(degree: int, gens: Sequence[str], rng: random.Random) -> List[str]:
    """Conjugate every generator by a random point relabelling and shuffle them."""
    sigma = list(range(1, degree + 1))
    rng.shuffle(sigma)
    out = [format_cycles([[sigma[p - 1] for p in cyc] for cyc in parse_cycles(g)])
           for g in gens]
    rng.shuffle(out)
    return out


def command_argv(command: str, path: str, pi: str) -> List[str]:
    return [command, "--file", path, "--pi", pi, "--json"]


def scan_argv(name: str) -> List[str]:
    return ["scan", "--group", name, "--json"]


def _write_copy(workload: str, rng: random.Random, directory: Path,
                prefix: str) -> Dict[str, str]:
    """Write one relabelled copy of each base group; base name -> path."""
    paths = {}
    for i, (name, (degree, gens)) in enumerate(sorted(base_groups(workload).items())):
        path = directory / f"{prefix}-g{i}.group"
        text = group_text(degree, relabel(degree, gens, rng), name)
        path.write_text(text, encoding="ascii")
        paths[name] = str(path)
    return paths


def setup_inputs(workload: str, seed: int, directory: Path) -> List[str]:
    """What the set-up probe loads: one copy of each distinct base group."""
    if workload == "corpus-groups":
        return list(CORPUS_GROUPS)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:setup")
    return list(_write_copy(workload, rng, directory, "setup").values())


def write_pass(workload: str, seed: int, pass_no: int, directory: Path) -> List[dict]:
    """Write one pass's relabelled group files; return its ordered commands.

    Each command is ``{"key": [base, pi, command], "argv": [...]}``.  The same
    (workload, seed, pass) always gives the same files and order.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_no}")
    if workload == "corpus-groups":
        commands = [{"key": list(key), "argv": scan_argv(key[0])}
                    for key in command_keys(workload)]
        rng.shuffle(commands)
        return commands
    directory.mkdir(parents=True, exist_ok=True)
    paths = _write_copy(workload, rng, directory, f"p{pass_no}")
    commands = [{"key": [name, pi, cmd], "argv": command_argv(cmd, paths[name], pi)}
                for name, pi, cmd in command_keys(workload)]
    rng.shuffle(commands)
    return commands
