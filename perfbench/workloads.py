"""The four workloads.

Each workload is a set-up (an installation plus its preload) and an episode
(the timed operations, run as one designer in a closed loop: each operation
starts when the previous one returns).  Every episode of a run replays the
same seeded inputs on a fresh set-up, so per-episode work counts repeat
exactly and the i-th operation of one episode is the i-th of every other.

Only the operations themselves are timed.  Choosing the next target,
reading results back and checking them happen outside the timed blocks.
"""

from __future__ import annotations

import json
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from perfbench import inputs as gen
from perfbench.hostspeed import PROBES, reference_work
from repro import Papyrus
from repro.activity import persistence
from repro.cad.registry import ToolRegistry, ToolResult
from repro.clock import VirtualClock
from repro.core import LWTSystem
from repro.core.history import HistoryRecord, StepRecord
from repro.obs import METRICS
from repro.octdb import DesignDatabase
from repro.octdb.naming import parse_name
from repro.sprite import Cluster
from repro.taskmgr import TaskManager
from repro.workloads.templates import standard_library

#: Always-on ``repro.obs.METRICS`` counters read around every episode.
COUNTERS = (
    "engine.steps_completed", "engine.wake_checks", "engine.restarts",
    "engine.steps_failed", "memo.hits", "memo.misses",
    "datascope.cache_hits", "datascope.cache_misses",
    "persist.chunks_written", "persist.chunks_deduped",
    "persist.journal_entries", "persist.lazy_decodes",
)


def read_counters() -> dict[str, float]:
    return {name: METRICS.value(name) for name in COUNTERS}


class Episode:
    """Samples, counts and check results of one episode."""

    def __init__(self, recorder=None, probe_every: int = 0):
        self.recorder = recorder
        #: Time the reference computation after every this many
        #: operations (0: never); see ``perfbench/hostspeed.py``.
        self.probe_every = probe_every
        self.wall = 0.0                 # seconds inside timed blocks
        self.ops = 0                    # the workload's unit of throughput
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Timed blocks by kind, in order; together they make up ``wall``.
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Finer or re-labelled timings inside those blocks, by kind.
        self.detail: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self.checks_failed = 0
        self.check_failures: list[str] = []     # the first few messages

    @contextmanager
    def timed(self, kind: str, detail: str | None = None):
        """Time one block; spans are recorded only inside timed blocks.

        The time counts towards ``wall`` either way, but becomes a sample of
        ``kind`` (and of ``detail``) only if the block returns normally.
        """
        recording = self.recorder.recording() if self.recorder is not None \
            else nullcontext()
        start = time.perf_counter()
        try:
            with recording:
                yield
        finally:
            elapsed = time.perf_counter() - start
            self.wall += elapsed
        self.samples[kind].append(elapsed)
        if detail is not None:
            self.detail[detail].append(elapsed)

    def attempt(self, kind: str, fn, detail: str | None = None):
        """Run one operation; any exception counts as a failed operation,
        whose time is no sample."""
        self.attempted += 1
        try:
            with self.timed(kind, detail):
                return fn()
        except Exception as exc:   # counted and reported, never swallowed
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if self.probe_every and self.attempted % self.probe_every == 0:
                self.probe()

    def probe(self) -> float:
        """Time the reference computation once, as a ``host`` sample, and
        return its seconds.  The i-th probe of one episode comes at the same
        point of the operations as the i-th of every other."""
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.detail["host"].append(elapsed)
        return elapsed

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.checks_failed += 1
            if len(self.check_failures) < 20:
                self.check_failures.append(message)


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# --------------------------------------------------------------- task DAGs


class TaskWorkload:
    """One ``TaskManager.run_task`` of a generated template on 8 simulated
    hosts, with a trivial ``mark`` tool.  The set-up loads the standard
    template library plus the generated template.

    The run is timed in segments cut at every tool run: ``op`` samples are
    the gaps between consecutive tool runs, the dispatch cadence of the
    engine while it drains the task; the first segment is the
    interpretation of the template up to the first completion.  Host
    probes run inside the tool, between two segments, so they are in no
    segment.
    """

    hosts = 8

    def __init__(self, name: str, task: gen.TaskInputs):
        self.name = name
        self.task = task
        self.probe_every = max(1, task.steps // PROBES)

    def setup(self, workdir: Path) -> dict:
        library = standard_library()
        library.add_source(self.task.source)
        clock = VirtualClock()
        db = DesignDatabase(clock=clock)
        db.put("seed", "S")
        #: (arrive, leave) per tool run: a segment is the gap from one
        #: run's leave to the next run's arrive.
        marks: list[tuple[float, float]] = []
        probing: list[Episode] = []

        def mark(call):
            arrive = time.perf_counter()
            ep = probing[0] if probing else None
            if ep is not None and ep.probe_every and \
                    len(marks) % ep.probe_every == 0:
                ep.wall -= ep.probe()
                marks.append((arrive, time.perf_counter()))
            else:
                marks.append((arrive, arrive))
            value = "m"
            if "-v" in call.options:
                value = call.options[call.options.index("-v") + 1]
            return ToolResult(outputs={n: value for n in call.output_names})

        registry = ToolRegistry()
        registry.add("mark", mark, cost=lambda call: 1.0)
        cluster = Cluster.homogeneous(self.hosts, clock=clock)
        manager = TaskManager(db, registry, library, cluster=cluster,
                              clock=clock)
        return {"db": db, "manager": manager, "cluster": cluster,
                "marks": marks, "probing": probing}

    def episode(self, state: dict, ep: Episode) -> None:
        manager = state["manager"]
        marks = state["marks"]
        state["probing"][:] = [ep]

        def run():
            start = time.perf_counter()
            marks.append((start, start))
            record = manager.run_task(self.task.name,
                                      inputs={"Seed": "seed@1"},
                                      outputs={"Final": "final"})
            end = time.perf_counter()
            marks.append((end, end))
            return record

        record = ep.attempt("task", run)
        segments = [] if record is None else \
            [b[0] - a[1] for a, b in zip(marks, marks[1:])]
        ep.detail["task"] = ep.samples.pop("task", [])
        ep.samples["segment"] = segments
        ep.detail["op"] = segments[1:-1]
        ep.ops = len(record.steps) if record is not None else 0
        ep.check(ep.ops == self.task.steps,
                 f"{ep.ops} steps committed, expected {self.task.steps}")
        db = state["db"]
        final = db.get("final@1").payload if db.exists("final@1") else None
        ep.check(final == self.task.final_value,
                 f"final@1 is {final!r}, expected {self.task.final_value!r}")
        ep.counts["migrations"] = state["cluster"].stats.migrations
        ep.counts["evictions"] = state["cluster"].stats.evictions

    def close(self, state: dict) -> None:
        pass


# ----------------------------------------------------------- designer session


class SessionWorkload:
    """A designer session on ``Papyrus.standard(hosts=4)``.

    ``op`` samples are ``ActivityManager.invoke`` latencies, cold and
    replayed mixed; ``switch`` samples are context switches (cursor move,
    data scope, one name resolution).
    """

    name = "session"
    scope_check_every = 25

    def __init__(self, session: gen.SessionInputs):
        self.session = session
        self.probe_every = max(1, len(session.ops) // PROBES)

    def setup(self, workdir: Path) -> dict:
        papyrus = Papyrus.standard(hosts=4)
        designer = papyrus.open_thread("designer", owner="bench")
        return {"papyrus": papyrus, "designer": designer}

    def episode(self, state: dict, ep: Episode) -> None:
        designer = state["designer"]
        thread = designer.thread
        stream = thread.stream
        db = thread.db
        made: dict[int, tuple] = {}    # k -> (cursor, call, payloads)
        scope_seen: list[frozenset] = []
        switches = 0
        hot_turn = 0
        check_visits = 0      # scope nodes visited by the checks themselves

        def outputs_of(point) -> dict | None:
            if point is None:
                return None
            return {parse_name(n).base: db.get(n).payload
                    for n in stream.record(point).outputs}

        for op in self.session.ops:
            kind = op[0]
            if kind == "new":
                _, task, design, k = op
                call = gen.session_call(task, design, k)
                cursor = thread.current_cursor
                point = ep.attempt("op", lambda: designer.invoke(*call),
                                   "invoke_cold")
                made[k] = (cursor, call, outputs_of(point))
                ep.ops += 1
            elif kind == "rework":
                cursor, call, cold = made[op[1]]
                ep.attempt("rework_move", lambda: designer.move_cursor(cursor))
                point = ep.attempt("op", lambda: designer.invoke(*call),
                                   "invoke_replay")
                ep.check(cold is not None and outputs_of(point) == cold,
                         f"replay of {call[0]} differs from its cold run")
                ep.ops += 2
            else:
                _, hot, u = op
                if hot:
                    frontier = stream.frontier()
                    target = frontier[-1 - (hot_turn % min(2, len(frontier)))]
                    hot_turn += 1
                else:
                    points = stream.points()
                    target = points[1 + int(u * (len(points) - 1))]
                node = stream.node(target)
                name = None
                if node.record is not None and node.record.outputs:
                    name = parse_name(node.record.outputs[0]).base

                def switch(target=target, name=name):
                    designer.move_cursor(target)
                    scope_seen[:] = [thread.data_scope()]
                    if name is not None:
                        thread.resolve(name)

                ep.attempt("switch", switch)
                ep.ops += 1
                switches += 1
                if switches % self.scope_check_every == 0 and scope_seen:
                    scope = thread.scope
                    visited = scope.nodes_visited
                    uncached = scope.thread_state(target, use_cache=False) \
                        | frozenset(thread.extra_objects)
                    check_visits += scope.nodes_visited - visited
                    ep.check(scope_seen[0] == uncached,
                             f"cached scope differs at point {target}")
        ep.counts["history_records"] = len(stream)
        ep.counts["scope_nodes_visited"] = \
            thread.scope.nodes_visited - check_visits
        ep.check(len(stream) >= self.session.invokes,
                 f"history has {len(stream)} records, "
                 f"expected {self.session.invokes}")

    def close(self, state: dict) -> None:
        pass


# ---------------------------------------------------------------- checkpoint


class CheckpointWorkload:
    """A persistent workspace: cold save, then rounds of puts + commit +
    incremental save, with a restore and point reads every few rounds.

    The store is a fresh directory under the run's work directory; saves
    use the code's own flush policy (every journal append is fsynced).
    ``op`` samples are incremental saves; ``restore`` samples are
    ``load_system`` plus the first batch of reads.
    """

    name = "checkpoint"

    def __init__(self, plan: gen.CheckpointInputs):
        self.plan = plan
        self.probe_every = max(1, 2 * len(plan.rounds) // PROBES)
        sizes = [len(json.dumps(p, sort_keys=True)) for p in plan.pool]
        self.preload_bytes = sum(
            sizes[(b * plan.versions + v) % len(sizes)]
            for v in range(plan.versions) for b in range(plan.bases))
        self.round_bytes = sum(len(json.dumps(p, sort_keys=True))
                               for puts in plan.rounds for _, p in puts)
        self._episodes = 0

    @staticmethod
    def _record(task: str, inputs: tuple, output: str, now: float):
        return HistoryRecord(
            task=task, inputs=inputs, outputs=(output,),
            steps=(StepRecord(name="run", tool=task, options=(),
                              inputs=inputs, outputs=(output,), host="h0",
                              started_at=now, completed_at=now, status=0),))

    def setup(self, workdir: Path) -> dict:
        plan = self.plan
        clock = VirtualClock()
        lwt = LWTSystem(clock=clock)
        thread = lwt.create_thread("workspace", owner="bench")
        puts = 0
        for version in range(plan.versions):
            for base in range(plan.bases):
                clock.advance(0.001)
                payload = plan.pool[(base * plan.versions + version)
                                    % len(plan.pool)]
                obj = lwt.db.put(f"cell{base}", payload, creator="bench")
                puts += 1
                if puts % plan.commit_every == 0:
                    inputs = (f"cell{base}@{version}",) if version else ()
                    thread.commit_record(self._record(
                        "synth", inputs, str(obj.name), clock.now))
        self._episodes += 1
        directory = workdir / f"store{self._episodes}"
        session = persistence.PersistentSession(lwt, directory)
        return {"lwt": lwt, "thread": thread, "session": session,
                "directory": directory}

    def episode(self, state: dict, ep: Episode) -> None:
        plan = self.plan
        lwt, thread, session = state["lwt"], state["thread"], state["session"]
        directory = state["directory"]
        clock = lwt.clock
        db = lwt.db
        ep.attempt("checkpoint", session.save)
        for index, puts in enumerate(plan.rounds):
            names: list[str] = []

            def put_round(puts=puts, names=names):
                for base, payload in puts:
                    clock.advance(0.001)
                    names.append(str(db.put(f"cell{base}", payload,
                                            creator="bench").name))
                thread.commit_record(self._record(
                    "eco", (), names[-1], clock.now))

            ep.attempt("puts", put_round)
            ep.attempt("op", session.save)
            ep.ops += 1
            if (index + 1) % plan.restore_every == 0:
                self._restore(ep, directory, db, names)
        ep.values["stored_bytes"] = _dir_bytes(directory / "objects")
        ep.values["user_bytes"] = self.preload_bytes + self.round_bytes
        journal = directory / "journal.jsonl"
        ep.values["journal_bytes"] = \
            journal.stat().st_size if journal.exists() else 0
        ep.values["versions"] = len(db)

    def _restore(self, ep: Episode, directory: Path, live_db,
                 recent: list[str]) -> None:
        reads = list(recent)
        for base, u in self.plan.reads:
            latest = live_db.latest_version(f"cell{base}")
            reads.append(f"cell{base}@{1 + int(u * latest)}")
        got: list = []

        def restore_and_read():
            restored = persistence.load_system(
                directory, LWTSystem(clock=VirtualClock()))
            for name in reads:
                start = time.perf_counter()
                got.append(restored.db.get(name).payload)
                ep.detail["read"].append(time.perf_counter() - start)
            return restored

        restored = ep.attempt("restore", restore_and_read)
        if restored is None:
            return
        for name, payload in zip(reads, got):
            ep.check(payload == live_db.get(name).payload,
                     f"restored {name} differs from the live payload")
        for base in range(self.plan.bases):
            live = live_db.latest_version(f"cell{base}")
            back = restored.db.latest_version(f"cell{base}")
            ep.check(live == back, f"cell{base}: {back} versions restored, "
                                   f"{live} live")

    def close(self, state: dict) -> None:
        state["session"].close()
        shutil.rmtree(state["directory"], ignore_errors=True)


# ------------------------------------------------------------------- registry


def make(name: str, seed: int):
    """The named workload with inputs generated from ``seed``."""
    if name == "bigdag":
        return TaskWorkload(name, gen.bigdag_inputs(seed))
    if name == "tdl_flow":
        return TaskWorkload(name, gen.tdl_flow_inputs(seed))
    if name == "session":
        return SessionWorkload(gen.session_inputs(seed))
    if name == "checkpoint":
        return CheckpointWorkload(gen.checkpoint_inputs(seed))
    raise ValueError(f"unknown workload {name!r}")
