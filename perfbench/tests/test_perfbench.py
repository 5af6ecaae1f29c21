"""Tests of the benchmark itself, on shrunken inputs.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, run, tracing, workloads  # noqa: E402


def _small(name: str, seed: int):
    """The named workload at a size that runs in about a second."""
    if name == "bigdag":
        return workloads.TaskWorkload(
            name, inputs.bigdag_inputs(seed, steps=400))
    if name == "tdl_flow":
        return workloads.TaskWorkload(
            name, inputs.tdl_flow_inputs(seed, steps=200))
    if name == "session":
        return workloads.SessionWorkload(
            inputs.session_inputs(seed, invokes=70))
    return workloads.CheckpointWorkload(inputs.checkpoint_inputs(
        seed, bases=40, versions=5, rounds=20, restore_every=10))


def _traced_run(name: str, seed: int, workdir: Path):
    """Two traced episodes of a shrunken workload: (episodes, span log)."""
    workload = _small(name, seed)
    log: list = []
    recorder = tracing.SpanRecorder(span_cap=1_000)
    recorder.install()
    try:
        episodes = []
        for _ in range(2):
            _, eps = run.run_episodes(workload, 1, workdir, recorder, log)
            episodes += eps
    finally:
        recorder.uninstall()
    return episodes, log


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_counts_and_no_errors(name, tmp_path):
    first, first_log = _traced_run(name, 7, tmp_path)
    second, second_log = _traced_run(name, 7, tmp_path)
    counts = [ep.counts for ep in first + second]
    assert all(c == counts[0] for c in counts)
    calls = [agg["calls"] for _, _, agg in first_log + second_log]
    assert all(c == calls[0] for c in calls)
    for ep in first + second:
        assert ep.failed == 0, ep.errors
        assert ep.checks_failed == 0, ep.check_failures
        assert ep.ops > 0


def test_failed_operation_counts_and_is_not_timed():
    ep = workloads.Episode()

    def fail():
        raise RuntimeError("tool aborted")

    assert ep.attempt("op", fail, "invoke_cold") is None
    assert ep.attempt("op", lambda: 1, "invoke_cold") == 1
    assert (ep.attempted, ep.failed) == (2, 1)
    assert len(ep.samples["op"]) == len(ep.detail["invoke_cold"]) == 1


def test_tracing_is_removed_after_a_traced_run(tmp_path):
    from repro.tdl.interp import Interp

    original = Interp.eval_command
    _traced_run("tdl_flow", 3, tmp_path)
    assert Interp.eval_command is original


def test_other_seed_other_inputs_same_size():
    a = workloads.make("tdl_flow", 1).task
    b = workloads.make("tdl_flow", 2).task
    assert a.source != b.source and a.steps == b.steps


def test_manifest_lists_what_the_runner_reports():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in manifest["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(run.LEDGER)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bigdag",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("name", ["bigdag", "session"])
def test_host_probes_repeat_and_stay_out_of_the_timings(name, tmp_path):
    workload = _small(name, 5)
    plain = run.run_episodes(workload, 1, tmp_path)[1][0]
    _, probed = run.run_episodes(workload, 2, tmp_path, probe=True)
    assert "host" not in plain.detail
    assert len(probed[0].detail["host"]) == len(probed[1].detail["host"]) > 1
    for ep in probed:
        assert {k: len(v) for k, v in ep.samples.items()} == \
            {k: len(v) for k, v in plain.samples.items()}
        # The probes' time is in no operation's sample, nor in the wall.
        timed = sum(sum(v) for v in ep.samples.values())
        assert ep.wall == pytest.approx(timed, rel=0.05)


def test_scaling_divides_timings_by_the_slowdown(tmp_path):
    setups, episodes = run.run_episodes(_small("tdl_flow", 2), 1, tmp_path)
    plain = run.end_to_end(setups, episodes, 1.0)
    slow = run.end_to_end(setups, episodes, 2.0)
    assert slow["setup_s"] == plain["setup_s"] / 2
    assert slow["op_p50_ms"] == plain["op_p50_ms"] / 2
    assert slow["ops_per_s"] == plain["ops_per_s"] * 2
    assert slow["max_rss_mb"] == plain["max_rss_mb"]
