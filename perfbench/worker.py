"""Run one benchmark pass in this fresh process and write its results as JSON.

    python3 perfbench/worker.py PLAN.json OUT.json [--trace]

The plan lists the pass's commands in order.  Each command is one in-process
``hallfix.cli.main(argv)`` call whose stdout is captured; the next starts only
after the previous returns.  Every output is checked against golden.json:
for each (base group, pi, command) the exit code and either ``(status,
witness)`` or, for a scan, the sha256 of stdout.  With ``--trace`` the pass
runs under the outside-in tracer and the per-layer metrics are added.  The
pass runs under the reference sampler (reference.py); every time is taken
on its clock, and its unit time is reported for normalising.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
import traceback
from pathlib import Path

import hallfix
from hallfix import cli

from reference import Sampler
from tracer import Tracer, installed_wrappers

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def load_golden() -> dict:
    """(base group, pi, command) -> {"exit", "status", "witness"}."""
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {(r["group"], r["pi"], r["command"]): r
            for records in data.values() for r in records}


def run_command(main, argv: list, clock=time.perf_counter) -> dict:
    """One closed-loop CLI call: latency on ``clock``, exit code, stdout and
    any error."""
    buf = io.StringIO()
    error = None
    start = clock()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed operation, not a crash
        code = None
        error = traceback.format_exc().strip().splitlines()[-1]
    latency = clock() - start
    return {"latency_s": latency, "exit": code, "stdout": buf.getvalue(),
            "error": error}


def check(key: list, outcome: dict, golden: dict) -> str:
    """Why the outcome is wrong, or "" when it matches its golden record."""
    if outcome["error"] is not None:
        return outcome["error"]
    want = golden[tuple(key)]
    if outcome["exit"] != want["exit"]:
        return f"exit {outcome['exit']} != {want['exit']}"
    if "sha256" in want:
        digest = hashlib.sha256(outcome["stdout"].encode()).hexdigest()
        return "" if digest == want["sha256"] else f"stdout sha256 {digest}"
    try:
        records = json.loads(outcome["stdout"])
    except ValueError:
        return "stdout is not JSON"
    got = [(r.get("status"), r.get("witness")) for r in records]
    if got != [(want["status"], want["witness"])]:
        return f"records {got} != {(want['status'], want['witness'])}"
    return ""


def run_pass(commands: list, trace: bool) -> dict:
    golden = load_golden()
    outcomes = []
    # Every time is taken on the sampler's clock, which leaves out the
    # reference units it runs (see reference.py).
    with Sampler() as sampler:
        tracer = Tracer(clock=sampler.clock) if trace else None
        with tracer or contextlib.nullcontext():
            for command in commands:
                # Look main up per call, so that the tracer's binding is used.
                outcomes.append(run_command(cli.main, command["argv"], sampler.clock))
    result = {
        "hallfix": hallfix.__file__,
        "wall_s": sum(o["latency_s"] for o in outcomes),
        "ref_unit_s": sampler.unit_s,
        "ref_units": len(sampler.units),
        "latencies_ms": [o["latency_s"] * 1e3 for o in outcomes],
        "exits": [o["exit"] for o in outcomes],
        "digests": [hashlib.sha256(o["stdout"].encode()).hexdigest()
                    for o in outcomes],
        "failures": [{"index": i, "key": c["key"], "reason": why}
                     for i, (c, o) in enumerate(zip(commands, outcomes))
                     if (why := check(c["key"], o, golden))],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["left_installed"] = installed_wrappers()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    commands = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    result = run_pass(commands, args.trace)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
