"""The hallfix benchmark: one command, three workloads, an optional layer trace.

    python3 perfbench/run.py --workload {corpus-groups,small-cmds,mult-add}
                             --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it imports hallfix from the
checkout's ``src/``.  One process, one thread and one caller drive the load
in a closed loop: each command starts after the previous one returns.

``--trace 0`` measures the end-to-end metrics.  It times set-up in fresh
interpreters, then runs passes of the workload, each in a fresh process,
until the next pass would end after ``--seconds`` (always at least one).
``--trace 1`` runs one pass untraced and the same pass under the
outside-in tracer, checks that both print the same bytes, and reports the
per-layer metrics with the tracing overhead.

Every gated time is normalised: a reference loop is timed every 10 ms in the
same process while the program runs, and the program's time is divided by
the loop's (see reference.py).  The times as measured are printed beside.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output matched its pinned reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Fresh-interpreter set-up samples taken before the first pass and again
#: after the last; set-up is reported as the median of all of them.
SETUP_SAMPLES = 8

#: Any child process is killed after this long (the run must end in 180 s).
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run: no program, or a child process died."""


def child_env(seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # The hash seed orders sets and dicts inside the program; derive it from
    # the workload seed so that a seed fixes the whole input.
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_child(argv: List[str], env: Dict[str, str], what: str,
              capture: bool = False) -> Tuple[float, str]:
    """Run a child process to its end; return its wall time and, if
    ``capture``, its stdout.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which would
    quantize the measured time, so the wait blocks and a timer kills a child
    that overruns."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=HERE.parent, text=True,
                            stdout=subprocess.PIPE if capture else None)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
        code = proc.returncode
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise BenchError(f"{what} exited {code}")
    return elapsed, out or ""


def time_setup(inputs: List[str], env: Dict[str, str]) -> dict:
    """One sample of set-up, timed in a fresh interpreter by setup_probe.py:
    ``import hallfix`` through every base group closed, with the reference
    unit time over the same stretch."""
    _, out = run_child([sys.executable, str(HERE / "setup_probe.py"), *inputs],
                       env, "set-up probe", capture=True)
    return json.loads(out.splitlines()[-1])


def run_worker(commands: List[dict], work: Path, name: str,
               env: Dict[str, str], trace: bool) -> dict:
    """One pass in a fresh worker process; returns its result JSON."""
    plan, out = work / f"{name}.plan.json", work / f"{name}.out.json"
    plan.write_text(json.dumps(commands), encoding="utf-8")
    argv = [sys.executable, str(HERE / "worker.py"), str(plan), str(out)]
    elapsed, _ = run_child(argv + (["--trace"] if trace else []), env, f"worker {name}")
    result = json.loads(out.read_text(encoding="utf-8"))
    if not Path(result["hallfix"]).resolve().is_relative_to(SRC):
        raise BenchError(f"worker imported hallfix from {result['hallfix']}, "
                         f"not from {SRC}")
    result["process_s"] = elapsed
    return result


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    env = child_env(seed)
    inputs = workloads.setup_inputs(workload, seed, work / "setup")
    setup = [time_setup(inputs, env) for _ in range(SETUP_SAMPLES)]
    passes: List[dict] = []
    start = time.perf_counter()
    while True:
        commands = workloads.write_pass(workload, seed, len(passes), work)
        passes.append(run_worker(commands, work, f"pass{len(passes)}", env, False))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["process_s"] for p in passes)
        if elapsed + typical > seconds:
            break
    # Samples on both sides of the passes, so that a slow spell of the
    # machine during one of them does not set the median.
    setup += [time_setup(inputs, env) for _ in range(SETUP_SAMPLES)]
    failures: List[dict] = []
    p50s: List[float] = []
    p90s: List[float] = []
    for p in passes:
        failed = {f["index"] for f in p["failures"]}
        # A failed command misses every latency limit.
        latencies = [math.inf if i in failed
                     else reference.normalise(ms, p["ref_unit_s"])
                     for i, ms in enumerate(p["latencies_ms"])]
        p50s.append(statistics.median(latencies))
        p90s.append(nearest_rank(latencies, 0.9))
        failures += p["failures"]
    per_pass = len(passes[0]["latencies_ms"])
    # Every statistic is a median over passes, so that a slow spell of the
    # machine during one pass does not set it.  Times are normalised by the
    # reference loop timed over the same stretch (see reference.py).
    over = f"median over {len(passes)} passes of {per_pass} commands"
    metrics = {
        "norm_wall_s": (statistics.median(
            reference.normalise(p["wall_s"], p["ref_unit_s"]) for p in passes),
            "s", over + ", normalised"),
        "setup_s": (statistics.median(
            reference.normalise(p["setup_s"], p["unit_s"])
            for p in setup), "s",
            f"median of {len(setup)} fresh interpreters, "
            f"{len(inputs)} base groups, normalised"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB",
                        f"max over {len(passes)} pass processes"),
    }
    printed = {
        "cmd_p50_ms": (statistics.median(p50s), "ms", over + ", normalised"),
        "cmd_p90_ms": (statistics.median(p90s), "ms", over + ", normalised"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s",
                   over + ", as measured"),
        "setup_raw_s": (statistics.median(p["setup_s"] for p in setup), "s",
                        f"median of {len(setup)}, as measured"),
        "ref_unit_ms": (1e3 * statistics.median(p["ref_unit_s"] for p in passes),
                        "ms", f"median over passes of "
                        f"{sum(p['ref_units'] for p in passes)} samples, nominal "
                        f"{1e3 * reference.NOMINAL_UNIT_S:g} ms"),
    }
    notes = [f"{len(passes)} passes of {per_pass} commands, closed loop, 1 caller"]
    return {"metrics": metrics, "printed": printed,
            "attempted": per_pass * len(passes), "failures": failures,
            "notes": notes}


def trace_run(workload: str, seed: int, work: Path) -> dict:
    env = child_env(seed)
    commands = workloads.write_pass(workload, seed, 0, work)
    plain = run_worker(commands, work, "plain", env, False)
    traced = run_worker(commands, work, "traced", env, True)
    failures = plain["failures"] + traced["failures"]
    differ = [i for i, c in enumerate(commands)
              if (plain["exits"][i], plain["digests"][i])
              != (traced["exits"][i], traced["digests"][i])]
    failures += [{"index": i, "key": commands[i]["key"],
                  "reason": "traced output differs from untraced output"}
                 for i in differ]
    if traced["left_installed"]:
        failures.append({"index": -1, "key": [],
                         "reason": f"tracer left wrappers: {traced['left_installed']}"})
    units = dict(tracer.metric_names())
    # Self times are normalised by the reference loop timed during the
    # traced pass, the overhead by the loop timed during each pass.
    layers = {name: reference.normalise(value, traced["ref_unit_s"])
              if name.endswith(".self_s") else value
              for name, value in traced["layers"].items()}
    metrics = {name: (layers[name], unit, "") for name, unit in units.items()}
    walls = [reference.normalise(p["wall_s"], p["ref_unit_s"]) for p in (traced, plain)]
    metrics["trace.overhead_s"] = (walls[0] - walls[1], "s",
                                   f"traced {walls[0]:.3f} s - "
                                   f"untraced {walls[1]:.3f} s, normalised")
    printed = {name: (value, "s", "") for name, value in layers.items()
               if name not in units and name.endswith(".self_s")}
    notes = [f"1 untraced and 1 traced pass of {len(commands)} commands; "
             f"outputs {'differ' if differ else 'identical'}"]
    return {"metrics": metrics, "printed": printed,
            "attempted": 2 * len(commands), "failures": failures, "notes": notes}


def report(workload: str, seed: int, trace: bool, run: dict) -> dict:
    """Print the human-readable summary; return the result object."""
    failed = len(run["failures"])
    print(f"hallfix benchmark: workload={workload} seed={seed} trace={int(trace)}")
    for note in run["notes"]:
        print(f"  {note}")
    shown = {**run["metrics"], **run["printed"]}.items()
    if trace:
        shown = sorted(shown, key=lambda kv: -kv[1][0] if kv[1][1] == "s" else 0)
    for name, (value, unit, how) in shown:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {how}")
    print(f"  {'fail_ratio':<44} {failed / run['attempted']:>14.6g} "
          f"{'':<6} {failed} failed / {run['attempted']} attempted")
    for f in run["failures"][:10]:
        print(f"  FAILED {f['key']}: {f['reason']}")
    return {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit, _) in run["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running child is killed and
    # the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hallfix" / "__init__.py").is_file():
        print(f"error: no hallfix sources under {SRC}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        if args.trace:
            run = trace_run(args.workload, args.seed, work)
        else:
            run = timed_run(args.workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(args.workload, args.seed, bool(args.trace), run)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
