"""Tests of the benchmark itself: inputs, goldens and the tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import signal
import time
from pathlib import Path

import pytest

import reference
import tracer
import workloads
from worker import check, load_golden, run_command

from hallfix import cli, load_group

BENCH = Path(__file__).resolve().parent.parent


def _files(commands):
    return {c["argv"][2] for c in commands}


@pytest.mark.parametrize("workload", ["small-cmds", "mult-add"])
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = workloads.write_pass(workload, 7, 0, tmp_path / "a")
    again = workloads.write_pass(workload, 7, 0, tmp_path / "b")
    other = workloads.write_pass(workload, 8, 0, tmp_path / "c")

    def contents(commands, root):
        return [(c["key"], Path(c["argv"][2]).relative_to(root).as_posix(),
                 Path(c["argv"][2]).read_bytes(), c["argv"][3:]) for c in commands]

    assert contents(first, tmp_path / "a") == contents(again, tmp_path / "b")
    assert contents(first, tmp_path / "a") != contents(other, tmp_path / "c")


def test_corpus_pass_scans_every_group_but_pgl29_once(tmp_path):
    commands = workloads.write_pass("corpus-groups", 3, 0, tmp_path)
    names = sorted(c["argv"][2] for c in commands)
    assert names == sorted(set(workloads.CORPUS_NAMES) - {"PGL(2,9)"})
    golden = load_golden()
    assert all("sha256" in golden[tuple(c["key"])] for c in commands)


def test_pass_files_are_distinct_and_cover_the_plan(tmp_path):
    commands = workloads.write_pass("small-cmds", 3, 0, tmp_path)
    texts = [Path(f).read_bytes() for f in _files(commands)]
    assert len(texts) == len(set(texts)) == 16
    assert len(commands) == 172
    golden = load_golden()
    assert all(tuple(c["key"]) in golden for c in commands)


def test_relabelled_groups_keep_their_order(tmp_path):
    for workload in ("small-cmds", "mult-add"):
        bases = workloads.base_groups(workload)
        for name, (degree, gens) in bases.items():
            if name == "A7":
                continue  # 2520 elements; its order is checked by the workload
            path = tmp_path / "base.group"
            path.write_text(workloads.group_text(degree, gens, name))
            order = load_group(str(path)).order
            path.write_text(workloads.group_text(
                degree, workloads.relabel(degree, gens, random.Random(name)), name))
            assert load_group(str(path)).order == order


def test_psl2_11_has_order_660(tmp_path):
    degree, gens = workloads.psl2_11()
    path = tmp_path / "psl.group"
    path.write_text(workloads.group_text(degree, gens, "PSL(2,11)"))
    assert load_group(str(path)).order == 660


@pytest.mark.parametrize("name", ["S4", "F21", "SL(2,3)", "A5"])
def test_status_and_witness_survive_relabelling(name, tmp_path):
    degree, gens, pis = workloads.SMALL_BASES[name]
    golden = load_golden()
    for seed in (1, 2):
        path = tmp_path / f"{seed}.group"
        path.write_text(workloads.group_text(
            degree, workloads.relabel(degree, gens, random.Random(seed)), name))
        for pi in pis:
            for command in workloads.SMALL_COMMANDS:
                key = [name, pi, command]
                outcome = run_command(cli.main,
                                      workloads.command_argv(command, str(path), pi))
                assert check(key, outcome, golden) == ""


@pytest.mark.xfail(raises=RuntimeError, strict=True,
                   reason="verify-mult refuses groups with more than 20 nontrivial "
                          "classes; when this passes, add these commands back to "
                          "workloads.MULT_ADD_PLAN")
@pytest.mark.parametrize("key", workloads.KNOWN_FAILING)
def test_known_failing_commands_match_closed_form(key, tmp_path):
    name, pi, command = key
    degree, gens = workloads.base_groups("mult-add")[name]
    path = tmp_path / "g.group"
    path.write_text(workloads.group_text(degree, gens, name))
    outcome = run_command(cli.main, workloads.command_argv(command, str(path), pi))
    why = check(list(key), outcome, load_golden())
    if why:
        raise RuntimeError(why)


def _bindings():
    import hallfix
    from hallfix import group, hall, perm
    return [hallfix.subgroups_of_order, group.subgroups_of_order,
            hall.subgroups_of_order, perm.Permutation.__init__,
            group.FiniteAction.__dict__["build"], cli.main]


def test_tracer_restores_every_binding(tmp_path):
    before = _bindings()
    assert tracer.installed_wrappers() == []
    path = tmp_path / "s4.group"
    degree, gens, _ = workloads.SMALL_BASES["S4"]
    path.write_text(workloads.group_text(degree, gens, "S4"))
    with pytest.raises(KeyError):
        with tracer.Tracer() as t:
            assert tracer.installed_wrappers() != []
            assert all(a is not b for a, b in zip(before, _bindings()))
            run_command(cli.main, workloads.command_argv("sym-char", str(path), "2"))
            raise KeyError("leave the block by an exception")
    assert tracer.installed_wrappers() == []
    assert all(a is b for a, b in zip(before, _bindings()))
    metrics = t.metrics()
    assert metrics["hall.build_hall_context.calls"] == 1
    assert metrics["hall.build_hall_context.useful_ratio"] == 1.0
    assert metrics["group.close.elements"] >= 24
    assert metrics["perm.Permutation.mul.calls"] > 0
    assert metrics["cli.main.self_s"] > 0


def test_traced_output_is_byte_identical(tmp_path):
    degree, gens, _ = workloads.SMALL_BASES["A4"]
    path = tmp_path / "a4.group"
    path.write_text(workloads.group_text(degree, gens, "A4"))
    argv = workloads.command_argv("interpretation", str(path), "2")
    plain = run_command(cli.main, argv)
    with tracer.Tracer():
        traced = run_command(cli.main, argv)
    assert (plain["exit"], plain["stdout"]) == (traced["exit"], traced["stdout"])


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = dict(tracer.metric_names())
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert {m["name"] for m in spec["end_to_end"]} == {
        "norm_wall_s", "setup_s", "peak_rss_mb"}


def test_sampler_leaves_its_own_time_out_of_its_clock():
    with reference.Sampler(interval=0.005) as sampler:
        start, wall = sampler.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.2:
            pass
        own = sampler.clock() - start
    assert len(sampler.units) >= 10
    assert sampler.spent_s > 0
    assert own < time.perf_counter() - wall
    assert abs(own + sampler.spent_s - (time.perf_counter() - wall)) < 0.05
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert reference.normalise(2.0, 2 * reference.NOMINAL_UNIT_S) == 1.0
