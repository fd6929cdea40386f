"""Regenerate golden.json from the un-relabelled base groups.

    python3 perfbench/make_golden.py

Runs every (base group, pi, command) of the command workloads once through
``hallfix.cli.main`` on the base group files as frozen in workloads.py, and
records its exit code and ``(status, witness)``.  For corpus-groups it first
runs the full ``scan --json`` and checks it against the pinned digest, then
records the exit code and stdout digest of each per-group scan after
checking that together they print the full scan's records.  The commands listed in
``workloads.KNOWN_FAILING`` raise at the commit the goldens were taken from;
their golden is the closed-form abelian result (an abelian group is
pi-separable, so the multiplicative identity holds with value 1), so that a
run of them counts as failed until the program is fixed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from hallfix import cli  # noqa: E402
from worker import GOLDEN, run_command  # noqa: E402

CLOSED_FORM = {"exit": 0, "status": "pass", "witness": "value 1"}


def corpus_records() -> list:
    full = run_command(cli.main, ["scan", "--json"])
    digest = hashlib.sha256(full["stdout"].encode()).hexdigest()
    if full["exit"] != 0 or digest != workloads.SCAN_SHA256:
        raise RuntimeError(f"full scan exit {full['exit']}, sha256 {digest}")
    expected = [r for r in json.loads(full["stdout"])
                if r["group"] in workloads.CORPUS_GROUPS]
    records, printed = [], []
    for name, pi, command in workloads.command_keys("corpus-groups"):
        outcome = run_command(cli.main, workloads.scan_argv(name))
        if outcome["error"] is not None:
            raise RuntimeError(f"scan {name}: {outcome['error']}")
        printed += json.loads(outcome["stdout"])
        records.append({"group": name, "pi": pi, "command": command,
                        "exit": outcome["exit"],
                        "sha256": hashlib.sha256(outcome["stdout"].encode()).hexdigest()})
    if printed != expected:
        raise RuntimeError("per-group scans differ from the full scan")
    return records


def main() -> int:
    work = HERE / ".work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    try:
        commands = {"corpus-groups": corpus_records()}
        for workload in ("small-cmds", "mult-add"):
            paths = {}
            for i, (name, (degree, gens)) in enumerate(
                    sorted(workloads.base_groups(workload).items())):
                path = work / f"{workload}-g{i}.group"
                path.write_text(workloads.group_text(degree, gens, name),
                                encoding="ascii")
                paths[name] = str(path)
            keys = workloads.command_keys(workload)
            if workload == "mult-add":
                keys += list(workloads.KNOWN_FAILING)
            records = []
            for name, pi, command in keys:
                if (name, pi, command) in workloads.KNOWN_FAILING:
                    records.append({"group": name, "pi": pi, "command": command,
                                    **CLOSED_FORM})
                    continue
                outcome = run_command(
                    cli.main, workloads.command_argv(command, paths[name], pi))
                if outcome["error"] is not None:
                    raise RuntimeError(f"{name} {pi} {command}: {outcome['error']}")
                [record] = json.loads(outcome["stdout"])
                records.append({"group": name, "pi": pi, "command": command,
                                "exit": outcome["exit"],
                                "status": record["status"],
                                "witness": record["witness"]})
                print(name, pi, command, record["status"], file=sys.stderr)
            commands[workload] = records
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(commands, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
