"""Run one workload of the Papyrus benchmark and print its metrics.

    python3 perfbench/run.py --workload bigdag --seed 1 --seconds 16 --trace 0

The run generates its inputs from ``--seed``, then repeats a fixed number of
episodes (a fresh set-up followed by the timed operations): as many as take
``--seconds`` of timed work on the reference host.  Outputs are checked in
every episode.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics, their timings
scaled to the reference host's speed by a reference computation timed
between the operations (``perfbench/hostspeed.py``).  With
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the metrics are the per-layer ledger; the spans and a table of
layer self-time shares are written under ``.bench_out/``.

Exit status is 0 when the run completed (``correct`` is false if a check or
an operation failed), 2 when the Papyrus sources are not next to the
benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Spans, layer tables and scratch chunk stores, under the directory the
#: benchmark runs from.
OUT_DIR = ".bench_out"

#: Timings report a median and the highest percentile with at least ten
#: samples beyond it; these are the percentiles tried, highest first.
TAIL_PERCENTILES = (99, 98, 95, 90, 75, 50)

#: Set-ups per run at least; ``setup_s`` is the fastest.
MIN_SETUPS = 20

#: Timed seconds of one episode of each workload with the code this
#: benchmark was written against, on a 2-vCPU KVM guest (CPython 3.11).  A
#: run makes ``--seconds / EPISODE_S`` episodes: the count depends on the
#: arguments only, not on the program's speed, so both sides of a
#: comparison take the per-operation best over as many samples.
EPISODE_S = {"bigdag": 1.5, "tdl_flow": 0.75, "session": 2.5,
             "checkpoint": 2.5}

#: A run stops early once its timed work passes this many times
#: ``--seconds`` (a program that much slower), so that it still ends in
#: bounded time; a comparison whose runs stop early is not like for like.
OVERRUN = 4

WORKLOADS = ("bigdag", "tdl_flow", "session", "checkpoint")

#: End-to-end metrics (name, unit, better), each defined on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("max_rss_mb", "MB", "lower"),
)

#: Per-layer metrics (name, unit, better) of the traced run.
LEDGER = (
    ("tdl.self_s", "s", "lower"),
    ("tdl.parse_s", "s", "lower"),
    ("tdl.commands", "count", "lower"),
    ("tdl.expr_calls", "count", "lower"),
    ("taskmgr.self_s", "s", "lower"),
    ("taskmgr.steps", "count", "higher"),
    ("taskmgr.wake_checks_per_step", "count/step", "lower"),
    ("taskmgr.restarts", "count", "lower"),
    ("sprite.self_s", "s", "lower"),
    ("sprite.idle_checks_per_step", "count/step", "lower"),
    ("sprite.migrations", "count", "lower"),
    ("sprite.evictions", "count", "lower"),
    ("obs.self_s", "s", "lower"),
    ("obs.registry_s", "s", "lower"),
    ("obs.registry_calls_per_step", "count/step", "lower"),
    ("octdb.self_s", "s", "lower"),
    ("octdb.put_calls", "count", "lower"),
    ("octdb.put_s", "s", "lower"),
    ("octdb.get_s", "s", "lower"),
    ("octdb.chunk_put_s", "s", "lower"),
    ("octdb.chunk_load_s", "s", "lower"),
    ("octdb.chunks_written", "count", "lower"),
    ("octdb.dedup_frac", "ratio", "higher"),
    ("octdb.bytes_written", "bytes", "lower"),
    ("core.self_s", "s", "lower"),
    ("core.fingerprints", "count", "lower"),
    ("core.memo_key_s", "s", "lower"),
    ("core.memo_hit_frac", "ratio", "higher"),
    ("core.scope_s", "s", "lower"),
    ("core.scope_hit_frac", "ratio", "higher"),
    ("core.scope_nodes_visited", "count", "lower"),
    ("core.commit_s", "s", "lower"),
    ("activity.self_s", "s", "lower"),
    ("activity.layout_s", "s", "lower"),
    ("activity.save_s", "s", "lower"),
    ("activity.restore_s", "s", "lower"),
    ("activity.journal_entries", "count", "lower"),
    ("activity.journal_bytes", "bytes", "lower"),
    ("activity.lazy_decode_frac", "ratio", "lower"),
    ("cad.self_s", "s", "lower"),
    ("cad.tool_s", "s", "lower"),
    ("cad.tool_runs", "count", "lower"),
    ("cad.tool_failures", "count", "lower"),
) + tuple((f"{layer}.self_share", "ratio", "lower")
          for layer in ("tdl", "taskmgr", "sprite", "obs", "octdb", "core",
                        "activity", "cad")) + (
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.unattributed_frac", "ratio", "lower"),
)


def quantile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method); 0 without samples,
    which happens only when every attempt of the operation failed."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail(values: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest percentile with >= 10 samples above
    it, falling back to the median for tiny sample counts."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, quantile(values, pct)
    return 50, quantile(values, 50)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ running


def episode_count(name: str, seconds: float) -> int:
    return max(1, round(seconds / EPISODE_S[name]))


def run_episodes(workload, count: int, workdir: Path, recorder=None,
                 trace_log: list | None = None,
                 limit: float = float("inf"),
                 probe: bool = False) -> tuple[list, list]:
    """Set up and run ``count`` episodes, or fewer once their timed work
    passes ``limit`` seconds, then set up alone until there have been
    ``MIN_SETUPS`` set-ups.  With ``probe``, episodes time the reference
    computation of ``perfbench/hostspeed.py`` between their operations.

    Returns (set-up seconds, episodes).  With a recorder, per-episode span
    aggregates (set-up and episode together) are appended to ``trace_log``.
    """
    from perfbench import tracing
    from perfbench.workloads import Episode, read_counters

    setups: list[float] = []
    episodes: list = []
    measured = 0.0
    while len(episodes) < count and measured <= limit:
        gc.collect()
        before = read_counters()
        snap = recorder.snapshot() if recorder is not None else None
        start = time.perf_counter()
        with recorder.recording() if recorder is not None else nullcontext():
            state = workload.setup(workdir)
        setups.append(time.perf_counter() - start)
        ep = Episode(recorder, workload.probe_every if probe else 0)
        try:
            workload.episode(state, ep)
        finally:
            workload.close(state)
            # Dropped here, the installation is garbage by the next
            # gc.collect(), not collected inside the next timed episode.
            del state
        after = read_counters()
        ep.counts.update({k: after[k] - before[k] for k in after})
        episodes.append(ep)
        measured += ep.wall
        if recorder is not None:
            trace_log.append((setups[-1], ep,
                              tracing.delta(recorder.snapshot(), snap)))
    while len(setups) < MIN_SETUPS:
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(workdir)
        setups.append(time.perf_counter() - start)
        workload.close(state)
        del state
    return setups, episodes


def best(episodes: list, kind: str) -> list[float]:
    """Per-operation minimum over the run's episodes.

    Every episode replays the same operations, so the i-th sample of a kind
    is the same operation in each.  Interference from other processes only
    adds time, so the minimum filters it; a cost the program pays on every
    replay, such as a collection pause at the same allocation, remains.
    The episode count is fixed by the arguments, so the estimator is the
    same whatever the program's speed.
    """
    series = [ep.samples.get(kind) or ep.detail.get(kind, []) for ep in
              episodes]
    length = min(len(s) for s in series)
    return [min(s[i] for s in series) for i in range(length)]


def best_wall(episodes: list) -> float:
    """Timed seconds of one episode made of every operation's best time."""
    kinds = {kind for ep in episodes for kind in ep.samples}
    return sum(sum(best(episodes, kind)) for kind in kinds)


def rate(episodes: list) -> float:
    """Operations of one episode per second of its best wall."""
    wall = best_wall(episodes)
    return episodes[0].ops / wall if wall else 0.0


def end_to_end(setups: list[float], episodes: list,
               slowdown: float) -> dict:
    """The gated metrics, each defined for every workload (see README).

    Timings are divided by the host's ``slowdown`` over the run (see
    ``perfbench/hostspeed.py``), so they read as the reference host's.
    Tail latencies are printed with the workload's figures but not gated:
    their run-to-run spread on a shared host exceeds the largest bound.
    """
    ops = best(episodes, "op")
    return {
        "setup_s": min(setups) / slowdown,
        "ops_per_s": rate(episodes) * slowdown,
        "op_p50_ms": quantile(ops, 50) * 1e3 / slowdown,
        "max_rss_mb": max_rss_mb(),
    }


def workload_figures(name: str, episodes: list) -> list[tuple]:
    """Each workload's own figures: (metric, value, unit, note), from
    untraced episodes.

    Timings are per-operation bests over the episodes, like the gated
    metrics; ``n`` is the number of operations.
    """
    rows: list[tuple] = []

    def timing(metric: str, kind: str) -> None:
        values = best(episodes, kind)
        if values:
            pct, high = tail(values)
            note = f"n={len(values)}"
            rows.append((f"{metric}_p50_ms", quantile(values, 50) * 1e3,
                         "ms", note))
            rows.append((f"{metric}_p{pct}_ms", high * 1e3, "ms", note))

    ops_per_s = rate(episodes)
    if name in ("bigdag", "tdl_flow"):
        rows.append(("steps_per_s", ops_per_s, "steps/s",
                     f"{episodes[0].ops} steps"))
        timing("step_gap", "op")
    elif name == "session":
        rows.append(("session_ops_per_s", ops_per_s, "ops/s",
                     f"{episodes[0].ops} ops"))
        timing("invoke", "op")
        timing("invoke_cold", "invoke_cold")
        timing("invoke_replay", "invoke_replay")
        timing("switch", "switch")
    elif name == "checkpoint":
        rows.append(("rounds_per_s", ops_per_s, "rounds/s",
                     f"{episodes[0].ops} rounds"))
        rows.append(("checkpoint_s", min(best(episodes, "checkpoint")), "s",
                     f"n={len(episodes)} episodes"))
        timing("save", "op")
        restores = best(episodes, "restore")
        rows.append(("restore_ms", statistics.median(restores) * 1e3, "ms",
                     f"n={len(restores)}, median"))
        timing("read", "read")
        ratios = [ep.values["stored_bytes"] / ep.values["user_bytes"]
                  for ep in episodes]
        rows.append(("stored_bytes_per_user_byte", statistics.median(ratios),
                     "ratio", f"n={len(episodes)} episodes"))
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    rows.append(("max_rss_mb", max_rss_mb(), "MB", "peak"))
    rows.append(("error_frac", failed / attempted, "ratio",
                 f"{failed}/{attempted}"))
    return rows


# ------------------------------------------------------------------- ledger


def _per_step(count: float, steps: float) -> float:
    return count / steps if steps else 0.0


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def ledger(traced: list, untraced: list) -> dict:
    """Per-layer metrics: per-episode means over the traced episodes (set-up
    and episode together), plus tracing overhead and the unattributed
    remainder."""
    from perfbench.tracing import LAYERS

    n = len(traced)
    acc: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0.0) + value / n

    for setup_s, ep, agg in traced:
        calls, self_s = agg["calls"], agg["self_s"]
        gcalls, gsec = agg["group_calls"], agg["group_s"]
        counts, values = ep.counts, ep.values
        wall = setup_s + ep.wall
        steps = counts["engine.steps_completed"]
        for layer in LAYERS:
            add(f"{layer}.self_s", self_s.get(layer, 0.0))
            add(f"{layer}.self_share", _frac(self_s.get(layer, 0.0), wall))
        add("tdl.commands", calls.get("Interp.eval_command", 0))
        add("tdl.expr_calls", gcalls.get("tdl.expr", 0))
        add("tdl.parse_s", gsec.get("tdl.parse", 0.0))
        add("taskmgr.steps", steps)
        add("taskmgr.wake_checks_per_step",
            _per_step(counts["engine.wake_checks"], steps))
        add("taskmgr.restarts", counts["engine.restarts"])
        add("sprite.idle_checks_per_step",
            _per_step(gcalls.get("sprite.idle", 0), steps))
        add("sprite.migrations", counts.get("migrations", 0))
        add("sprite.evictions", counts.get("evictions", 0))
        add("obs.registry_calls_per_step",
            _per_step(gcalls.get("obs.registry", 0), steps))
        add("obs.registry_s", gsec.get("obs.registry", 0.0))
        add("octdb.put_calls", calls.get("DesignDatabase.put", 0))
        add("octdb.put_s", gsec.get("octdb.put", 0.0))
        add("octdb.get_s", gsec.get("octdb.get", 0.0))
        add("octdb.chunk_put_s", gsec.get("octdb.chunk_put", 0.0))
        add("octdb.chunk_load_s", gsec.get("octdb.chunk_load", 0.0))
        written = counts["persist.chunks_written"]
        deduped = counts["persist.chunks_deduped"]
        add("octdb.chunks_written", written)
        add("octdb.dedup_frac", _frac(deduped, written + deduped))
        add("octdb.bytes_written", values.get("stored_bytes", 0))
        add("core.fingerprints", gcalls.get("core.fingerprint", 0))
        add("core.memo_key_s", gsec.get("core.memo", 0.0))
        hits, misses = counts["memo.hits"], counts["memo.misses"]
        add("core.memo_hit_frac", _frac(hits, hits + misses))
        add("core.scope_s", gsec.get("core.scope", 0.0))
        s_hits = counts["datascope.cache_hits"]
        s_miss = counts["datascope.cache_misses"]
        add("core.scope_hit_frac", _frac(s_hits, s_hits + s_miss))
        add("core.scope_nodes_visited", counts.get("scope_nodes_visited", 0))
        add("core.commit_s", gsec.get("core.commit", 0.0))
        add("activity.layout_s", gsec.get("activity.layout", 0.0))
        add("activity.save_s", gsec.get("activity.save", 0.0))
        add("activity.journal_entries", counts["persist.journal_entries"])
        add("activity.journal_bytes", values.get("journal_bytes", 0))
        add("activity.restore_s", gsec.get("activity.restore", 0.0))
        add("activity.lazy_decode_frac",
            _frac(counts["persist.lazy_decodes"], values.get("versions", 0)))
        add("cad.tool_runs", calls.get("ToolRegistry.run", 0))
        add("cad.tool_s", gsec.get("cad.tool", 0.0))
        add("cad.tool_failures", counts["engine.steps_failed"])
        add("bench.unattributed_frac", _frac(wall - agg["top_s"], wall))
    acc["bench.trace_overhead_frac"] = \
        best_wall([ep for _, ep, _ in traced]) / best_wall(untraced) - 1.0
    return acc


def layer_table(metrics: dict) -> list[str]:
    from perfbench.tracing import LAYERS

    lines = [f"  {'layer':<10}{'self s/episode':>16}{'share':>9}"]
    for layer in sorted(LAYERS, key=lambda name: -metrics[f"{name}.self_s"]):
        lines.append(f"  {layer:<10}{metrics[f'{layer}.self_s']:>16.4f}"
                     f"{metrics[f'{layer}.self_share']:>9.1%}")
    lines.append(f"  {'(none)':<10}{'':>16}"
                 f"{metrics['bench.unattributed_frac']:>9.1%}")
    return lines


# --------------------------------------------------------------------- main


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one Papyrus benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed work to measure (set-up excluded), "
                             "as episodes of the reference host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: Papyrus sources not found at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import hostspeed, tracing, workloads

    out = Path(OUT_DIR).resolve()
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed)
    try:
        if args.trace:
            half = episode_count(args.workload, args.seconds / 2)
            limit = OVERRUN * args.seconds / 2
            setups, plain = run_episodes(workload, half, workdir,
                                         limit=limit)
            recorder = tracing.SpanRecorder()
            recorder.install()
            traced: list = []
            try:
                _, spans_eps = run_episodes(workload, half, workdir,
                                            recorder, traced, limit)
            finally:
                recorder.uninstall()
            episodes = plain + spans_eps
        else:
            setups, plain = run_episodes(
                workload, episode_count(args.workload, args.seconds), workdir,
                limit=OVERRUN * args.seconds, probe=True)
            episodes = plain
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    checks_failed = sum(ep.checks_failed for ep in episodes)
    check_failures = [m for ep in episodes for m in ep.check_failures]
    counts = [ep.counts for ep in episodes]
    label = f"{args.workload} seed={args.seed}"
    expected = episode_count(args.workload, args.seconds / (1 + args.trace))
    if len(plain) < expected:
        print(f"  stopped early: {len(plain)} of {expected} episodes "
              f"(timed work passed {OVERRUN} x --seconds)")
    print(f"workload {label}: {len(episodes)} episodes, "
          f"{sum(ep.wall for ep in episodes):.2f} s timed, "
          f"{len(setups)} set-ups")
    print("  episode walls (s, unscaled like the figures below): "
          + " ".join(f"{ep.wall:.3f}" for ep in episodes))
    for metric, value, unit, note in workload_figures(args.workload, plain):
        print(f"  {metric:<28}{value:>14.4f} {unit:<8} {note}")
    print("  work counters per episode"
          f"{'' if all(c == counts[0] for c in counts) else ' (VARYING)'}: "
          + ", ".join(f"{k}={v:g}" for k, v in sorted(counts[0].items())
                      if v))
    for message in (check_failures + [e for ep in episodes
                                      for e in ep.errors])[:20]:
        print(f"  FAILED: {message}")

    if args.trace:
        metrics = ledger(traced, plain)
        table = layer_table(metrics)
        print(f"layer self time, traced ({len(traced)} episodes, "
              f"trace overhead {metrics['bench.trace_overhead_frac']:.1%}):")
        print("\n".join(table))
        stem = f"{args.workload}-seed{args.seed}"
        out.mkdir(parents=True, exist_ok=True)
        recorder.write_spans(out / f"{stem}-spans.jsonl", label)
        (out / f"{stem}-layers.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "episodes": len(traced), "spans_kept": len(recorder.spans),
             "spans_dropped": recorder.dropped, "metrics": metrics},
            indent=2, sort_keys=True) + "\n")
        print(f"spans and layer table written to {out}/{stem}-*")
        spec = LEDGER
    else:
        probes = best(episodes, "host")
        slowdown = hostspeed.slowdown(probes)
        raw = end_to_end(setups, episodes, 1.0)
        metrics = end_to_end(setups, episodes, slowdown)
        print(f"host slowdown {slowdown:.4f} (reference computation "
              f"{statistics.median(probes) * 1e3:.4f} ms, median of "
              f"{len(probes)} probes' best, "
              f"{hostspeed.REFERENCE_S * 1e3:g} ms on the reference host); "
              "unscaled: "
              + ", ".join(f"{name}={raw[name]:.6g}"
                          for name, _, _ in END_TO_END))
        spec = END_TO_END
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit, _ in spec}
    correct = checks_failed == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
