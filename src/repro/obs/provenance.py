"""Provenance & audit: queryable design-history lineage (§6.3 exposed).

Papyrus already produces four lineage records but keeps them siloed: the ADG
derivation edges (``metadata/adg.py``), the control-stream history records
(which record committed which version, on which branch), the derivation
cache's reuse chains (memo hits materialized via ``DesignDatabase.alias``),
and the trace spans (timing/host/pid of the producing step).  This module
joins them into one :class:`ProvenanceGraph` with the three questions a
history-based system must answer about any object version:

* :meth:`ProvenanceGraph.why` — the derivation chain back to primary
  sources, with per-hop tool/options/host/duration and reuse attribution
  (a memo hit points at the version it aliased, hence at the record that
  originally paid for the computation);
* :meth:`ProvenanceGraph.blame` — the per-version producing record, thread,
  design point and annotation of a base name;
* :meth:`ProvenanceGraph.impact` — the forward closure (what breaks if this
  version changes), cross-checkable against ``adg.affected_set``.

The graph builds from a live installation (:meth:`from_papyrus`) or from a
streamed JSONL trace (:meth:`from_jsonl`) — the latter is what CI uses to
prove the trace alone carries complete lineage.  Exports: DOT and JSONL.

The module also owns the **audit journal**: an append-only record of every
destructive history mutation (erase-on-rework, splice-out, region
replacement, reclamation sweeps, fork/cascade/join, SDS ``MOVE``) with
actor, virtual timestamp and reason.  History is the primary artifact here;
anything that rewrites it must leave a trail.  Entries mirror to ``audit.*``
trace events, survive session save/restore (``activity/persistence``), and
the hooks are installed at the :class:`~repro.core.control_stream.ControlStream`
mutator level so each mutation is journaled exactly once no matter which
caller triggered it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import IO, TYPE_CHECKING, Any, Iterable

from repro.clock import GLOBAL_CLOCK
from repro.octdb.naming import parse_name

if TYPE_CHECKING:
    from repro.core.thread import DesignThread
    from repro.metadata.adg import AugmentedDerivationGraph
    from repro.octdb.database import DesignDatabase


# ------------------------------------------------------------- audit journal


def _json_safe(value: Any) -> Any:
    """Reduce a detail value to something JSON-serializable and stable."""
    if isinstance(value, (type(None), bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


@dataclass(frozen=True)
class AuditEntry:
    """One destructive history mutation, journaled at the moment it happened."""

    seq: int              # journal sequence number (append order)
    kind: str             # erase / splice_out / replace_region / fork / ...
    at: float             # virtual-clock timestamp
    actor: str            # thread owner (or explicit actor) responsible
    thread: str           # thread whose history was mutated ("" for SDS-level)
    reason: str           # why ("erase-on-rework", "horizontal aging", ...)
    details: dict[str, Any] = field(default_factory=dict)

    def detail(self, key: str, default: Any = None) -> Any:
        return self.details.get(key, default)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq, "kind": self.kind, "at": self.at,
            "actor": self.actor, "thread": self.thread,
            "reason": self.reason, "details": self.details,
        }

    def render(self) -> str:
        detail = " ".join(
            f"{k}={json.dumps(v)}" for k, v in sorted(self.details.items())
        )
        reason = f" ({self.reason})" if self.reason else ""
        actor = self.actor or "-"
        thread = self.thread or "-"
        return (f"#{self.seq:<4} {self.at:10.1f}s {self.kind:<16} "
                f"thread={thread} actor={actor}{reason}"
                + (f"  {detail}" if detail else ""))


class AuditJournal:
    """Append-only journal of destructive history mutations.

    The journal is process-global (like the tracer): every thread's hooks
    feed the one instance so a session has a single ordered trail.  Entries
    are never edited or removed by the recording path; :meth:`restore`
    replaces the contents wholesale when a saved session is loaded, and
    :meth:`clear` resets between deterministic runs (tests).
    """

    def __init__(self):
        self._entries: list[AuditEntry] = []
        self._seq = itertools.count(1)
        self._suspended = 0

    # ------------------------------------------------------------- recording

    @contextlib.contextmanager
    def suspended(self):
        """No-op all :meth:`record` calls inside the block.

        Journal replay re-executes the very mutators whose hooks feed this
        journal; without suspension every replayed erase/splice/move would
        be recorded a second time.  The persisted trail is restored
        separately (:meth:`restore` + :meth:`append_dicts`).
        """
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def record(
        self,
        kind: str,
        *,
        thread: str = "",
        actor: str = "",
        reason: str = "",
        at: float | None = None,
        **details: Any,
    ) -> AuditEntry | None:
        """Append one entry (and mirror it as an ``audit.<kind>`` event).

        Returns None (recording nothing) while :meth:`suspended` is active.
        """
        if self._suspended:
            return None
        from repro.obs import METRICS, TRACER

        entry = AuditEntry(
            seq=next(self._seq),
            kind=kind,
            at=GLOBAL_CLOCK.now if at is None else at,
            actor=actor,
            thread=thread,
            reason=reason,
            details={k: _json_safe(v) for k, v in details.items()},
        )
        self._entries.append(entry)
        METRICS.counter("audit.entries", kind=kind).inc()
        if TRACER.enabled:
            TRACER.event(f"audit.{kind}", cat="audit", seq=entry.seq,
                         thread=entry.thread, actor=entry.actor,
                         reason=entry.reason, **entry.details)
        return entry

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entries(self, kind: str | None = None) -> list[AuditEntry]:
        return [e for e in self._entries if kind is None or e.kind == kind]

    def render(self, limit: int | None = None,
               kind: str | None = None) -> list[str]:
        entries = self.entries(kind=kind)
        if limit is not None:
            entries = entries[-limit:]
        return [e.render() for e in entries]

    # ----------------------------------------------------------- persistence

    def to_dicts(self) -> list[dict[str, Any]]:
        return [e.to_dict() for e in self._entries]

    def restore(self, dicts: Iterable[dict[str, Any]]) -> None:
        """Replace the journal with a persisted trail (session restore)."""
        self._entries = [
            AuditEntry(
                seq=d["seq"], kind=d["kind"], at=d["at"],
                actor=d.get("actor", ""), thread=d.get("thread", ""),
                reason=d.get("reason", ""), details=dict(d.get("details", {})),
            )
            for d in dicts
        ]
        top = max((e.seq for e in self._entries), default=0)
        self._seq = itertools.count(top + 1)

    def append_dicts(self, dicts: Iterable[dict[str, Any]]) -> int:
        """Append persisted entries after the current tail (journal replay).

        Unlike :meth:`restore` this does not replace the trail: a restored
        snapshot's audit plus the write-ahead journal's audit deltas rebuild
        the live trail incrementally.  Returns the number appended.
        """
        added = 0
        for d in dicts:
            self._entries.append(AuditEntry(
                seq=d["seq"], kind=d["kind"], at=d["at"],
                actor=d.get("actor", ""), thread=d.get("thread", ""),
                reason=d.get("reason", ""),
                details=dict(d.get("details", {})),
            ))
            added += 1
        top = max((e.seq for e in self._entries), default=0)
        self._seq = itertools.count(top + 1)
        return added

    def export_jsonl(self, target: str | IO[str]) -> int:
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as fh:
                return self.export_jsonl(fh)
        for entry in self._entries:
            target.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
        return len(self._entries)

    def clear(self) -> None:
        """Reset for a fresh deterministic run (tests, new session)."""
        self._entries.clear()
        self._seq = itertools.count(1)


#: The process-wide journal every mutation hook records into.
AUDIT = AuditJournal()


# ---------------------------------------------------------- provenance graph


@dataclass(frozen=True)
class Hop:
    """One derivation hop: a tool application that produced ``output``."""

    output: str
    inputs: tuple[str, ...]
    tool: str
    options: tuple[str, ...]
    step: str
    task: str
    host: str
    started: float
    completed: float
    reused: bool = False
    #: Versioned name of the committed version a memo hit aliased (reuse
    #: attribution: the original producing record is ``commit_of(reused_from)``).
    reused_from: str | None = None
    thread: str = ""
    point: int = -1
    pid: int | None = None

    @property
    def duration(self) -> float:
        return self.completed - self.started


@dataclass(frozen=True)
class Commit:
    """Where a version entered the design history."""

    thread: str
    point: int
    task: str
    annotation: str = ""
    recorded_at: float = 0.0
    spliced: bool = False


class ProvenanceGraph:
    """The unified lineage graph over ADG edges, history records, memo reuse
    chains and trace spans."""

    def __init__(self):
        self._hops: dict[str, Hop] = {}            # output -> producing hop
        self._commits: dict[str, Commit] = {}      # version -> commit info
        self._aliases: dict[str, str] = {}         # reused version -> source
        self._aliased_by: dict[str, list[str]] = {}
        self._consumers: dict[str, list[str]] = {}  # input -> outputs
        self._objects: set[str] = set()

    # ----------------------------------------------------------- construction

    def add_hop(self, hop: Hop) -> None:
        """Register a producing hop (first producer wins: records grafted
        into several threads share the same immutable step)."""
        if hop.output in self._hops:
            return
        self._hops[hop.output] = hop
        self._objects.add(hop.output)
        for name in hop.inputs:
            self._objects.add(name)
            self._consumers.setdefault(name, []).append(hop.output)

    def note_alias(self, alias: str, source: str) -> None:
        if alias in self._aliases:
            return
        self._aliases[alias] = source
        self._aliased_by.setdefault(source, []).append(alias)
        self._objects.update((alias, source))

    def note_commit(self, name: str, commit: Commit) -> None:
        if name not in self._commits:
            self._commits[name] = commit
            self._objects.add(name)

    # ---------------------------------------------------------------- sources

    @classmethod
    def from_threads(
        cls,
        threads: Iterable["DesignThread"],
        db: "DesignDatabase | None" = None,
        events: list[dict[str, Any]] | None = None,
    ) -> "ProvenanceGraph":
        """Build from live control streams, joining the database's alias
        back-links (memo reuse) and, when available, buffered trace events."""
        graph = cls()
        for thread in threads:
            stream = thread.stream
            for point in stream.points():
                record = stream.node(point).record
                if record is None:
                    continue
                commit = Commit(
                    thread=thread.name, point=point, task=record.task,
                    annotation=record.annotation,
                    recorded_at=record.recorded_at,
                )
                for name in record.outputs:
                    graph.note_commit(name, commit)
                for step in record.steps:
                    if step.status != 0:
                        continue
                    for name in step.outputs:
                        graph.note_commit(name, commit)
                        source = None
                        if step.reused and db is not None:
                            source = db.alias_source(name)
                        graph.add_hop(Hop(
                            output=name, inputs=step.inputs, tool=step.tool,
                            options=step.options, step=step.name,
                            task=record.task, host=step.host,
                            started=step.started_at,
                            completed=step.completed_at,
                            reused=step.reused, reused_from=source,
                            thread=thread.name, point=point,
                        ))
        if db is not None:
            for alias, source in db.aliases().items():
                graph.note_alias(alias, source)
        if events:
            graph._merge_trace(events)
        return graph

    @classmethod
    def from_papyrus(cls, papyrus) -> "ProvenanceGraph":
        """Build from a wired installation (threads + db + trace buffer)."""
        from repro.obs import TRACER

        events = TRACER.events if TRACER.enabled and TRACER.events else None
        return cls.from_threads(papyrus.lwt.threads.values(),
                                db=papyrus.db, events=events)

    def _merge_trace(self, events: list[dict[str, Any]]) -> None:
        """Join trace-only detail (pid of the producing process) onto hops."""
        for event in events:
            if event.get("kind") != "span":
                continue
            if not str(event.get("name", "")).startswith("step:"):
                continue
            args = event.get("args", {})
            pid = args.get("pid")
            if pid is None:
                continue
            for output in args.get("outputs", ()):
                hop = self._hops.get(output)
                if hop is not None and hop.pid is None:
                    self._hops[output] = replace(hop, pid=pid)

    @classmethod
    def from_jsonl(cls, path: str | IO[str]) -> "ProvenanceGraph":
        """Reconstruct lineage from a streamed JSONL trace alone.

        Requires the enriched instrumentation (step spans carrying
        ``inputs``/``outputs``/``options``, ``thread.commit`` carrying
        ``outputs``): the CI smoke proves a streamed run's trace is a
        complete lineage record with no live objects in hand.
        """
        from repro.obs.tracer import read_jsonl

        events = read_jsonl(path)
        graph = cls()
        span_names: dict[int, str] = {}
        commit_of: dict[str, Commit] = {}
        task_outputs: dict[int, list[str]] = {}
        for event in events:
            name = event.get("name", "")
            args = event.get("args", {})
            if event.get("kind") == "span" and event.get("id") is not None:
                span_names[event["id"]] = name
            if name == "db.version":
                graph._objects.add(args["object"])
            elif name == "db.alias":
                graph.note_alias(args["object"], args["source"])
            elif name == "thread.commit":
                commit = Commit(
                    thread=args.get("thread", ""),
                    point=args.get("point", -1),
                    task=args.get("task", ""),
                    recorded_at=event.get("ts", 0.0),
                    spliced=bool(args.get("spliced", False)),
                )
                for output in args.get("outputs", ()):
                    commit_of.setdefault(output, commit)
            elif name == "task.commit" and "instance" in args:
                task_outputs[args["instance"]] = list(args.get("outputs", ()))
        for event in events:
            if event.get("kind") != "span":
                continue
            name = str(event.get("name", ""))
            if not name.startswith("step:"):
                continue
            args = event.get("args", {})
            if args.get("status", 0) != 0:
                continue
            outputs = args.get("outputs", ())
            if not outputs:
                continue
            parent = span_names.get(event.get("parent"), "")
            task = parent[5:] if parent.startswith("task:") else ""
            commit = None
            for output in task_outputs.get(args.get("instance"), ()):
                commit = commit_of.get(output)
                if commit is not None:
                    break
            started = event.get("ts", 0.0)
            completed = started + event.get("dur", 0.0)
            for output in outputs:
                graph.note_commit(output, commit or Commit(
                    thread="", point=-1, task=task))
                graph.add_hop(Hop(
                    output=output,
                    inputs=tuple(args.get("inputs", ())),
                    tool=args.get("tool", ""),
                    options=tuple(args.get("options", ())),
                    step=name[5:],
                    task=(commit.task if commit else task),
                    host=args.get("host", ""),
                    started=started,
                    completed=completed,
                    reused=bool(args.get("reused", False)),
                    reused_from=graph._aliases.get(output),
                    thread=(commit.thread if commit else ""),
                    point=(commit.point if commit else -1),
                    pid=args.get("pid"),
                ))
        return graph

    # ---------------------------------------------------------------- queries

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def objects(self) -> list[str]:
        return sorted(self._objects)

    def producer(self, name: str) -> Hop | None:
        return self._hops.get(name)

    def commit_of(self, name: str) -> Commit | None:
        return self._commits.get(name)

    def alias_source(self, name: str) -> str | None:
        return self._aliases.get(name)

    def hops(self) -> list[Hop]:
        """Every hop, in registration (stream/trace) order."""
        return list(self._hops.values())

    def why(self, name: str) -> list[Hop]:
        """The derivation chain of ``name`` in dependency order: every hop
        needed to rebuild it, ending with its own producing hop."""
        ordered: list[Hop] = []
        seen: set[str] = set()
        stack: list[tuple[str, bool]] = [(name, False)]
        while stack:
            obj, expanded = stack.pop()
            hop = self._hops.get(obj)
            if hop is None:
                continue
            if expanded:
                ordered.append(hop)
                continue
            if obj in seen:
                continue
            seen.add(obj)
            stack.append((obj, True))
            for parent in reversed(hop.inputs):
                if parent not in seen:
                    stack.append((parent, False))
        return ordered

    def primary_sources(self, name: str) -> list[str]:
        """The terminals of the derivation chain: versions with no recorded
        producer (seed designs, external check-ins)."""
        sources: set[str] = set()
        seen: set[str] = set()
        stack = [name]
        while stack:
            obj = stack.pop()
            if obj in seen:
                continue
            seen.add(obj)
            hop = self._hops.get(obj)
            if hop is None:
                sources.add(obj)
                continue
            stack.extend(hop.inputs)
        return sorted(sources)

    def blame(self, base: str) -> list[tuple[str, Hop | None, Commit | None]]:
        """Per-version lineage of a base name, oldest version first."""
        rows = []
        for obj in self._objects:
            parsed = parse_name(obj)
            if parsed.base != base:
                continue
            rows.append((parsed.version or 0, obj))
        return [
            (obj, self._hops.get(obj), self._commits.get(obj))
            for _, obj in sorted(rows)
        ]

    def impact(self, name: str, include_aliases: bool = True) -> list[str]:
        """Forward closure: everything derived (transitively) from ``name``.

        With ``include_aliases`` the closure also follows memo-reuse links
        (an alias of an affected version is affected); without them the
        result is structurally comparable to ``adg.affected_set``.
        """
        affected: list[str] = []
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            following = list(self._consumers.get(current, ()))
            if include_aliases:
                following.extend(self._aliased_by.get(current, ()))
            for obj in following:
                if obj in seen:
                    continue
                seen.add(obj)
                affected.append(obj)
                stack.append(obj)
        return sorted(affected)

    def to_adg(self) -> "AugmentedDerivationGraph":
        """Project the hop set into an :class:`AugmentedDerivationGraph`
        (cross-check substrate: ``impact`` vs ``affected_set``)."""
        from repro.core.history import StepRecord
        from repro.metadata.adg import AugmentedDerivationGraph

        adg = AugmentedDerivationGraph()
        for hop in self._hops.values():
            adg.add_step(StepRecord(
                name=hop.step, tool=hop.tool, options=hop.options,
                inputs=hop.inputs, outputs=(hop.output,), host=hop.host,
                started_at=hop.started, completed_at=hop.completed,
                reused=hop.reused,
            ), task=hop.task)
        for alias, source in self._aliases.items():
            adg.note_alias(alias, source)
        return adg

    # -------------------------------------------------------------- exporters

    def to_dot(self) -> str:
        """Graphviz DOT: derivation edges solid (labelled by tool), memo
        reuse links dashed."""
        lines = ["digraph provenance {", "  rankdir=LR;",
                 '  node [shape=box, fontsize=10];']
        for obj in sorted(self._objects):
            lines.append(f'  "{obj}";')
        edges: list[str] = []
        for output, hop in self._hops.items():
            for name in hop.inputs:
                edges.append(
                    f'  "{name}" -> "{output}" [label="{hop.tool}"];')
        for alias, source in self._aliases.items():
            edges.append(
                f'  "{source}" -> "{alias}" '
                '[style=dashed, label="reused"];')
        lines.extend(sorted(edges))
        lines.append("}")
        return "\n".join(lines)

    def export_jsonl(self, target: str | IO[str]) -> int:
        """One JSON object per hop/alias/commit (stable order)."""
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as fh:
                return self.export_jsonl(fh)
        count = 0
        for output in sorted(self._hops):
            hop = self._hops[output]
            target.write(json.dumps({
                "kind": "hop", "output": hop.output,
                "inputs": list(hop.inputs), "tool": hop.tool,
                "options": list(hop.options), "step": hop.step,
                "task": hop.task, "host": hop.host, "pid": hop.pid,
                "started": hop.started, "completed": hop.completed,
                "reused": hop.reused, "reused_from": hop.reused_from,
                "thread": hop.thread, "point": hop.point,
            }, sort_keys=True) + "\n")
            count += 1
        for alias in sorted(self._aliases):
            target.write(json.dumps({
                "kind": "alias", "alias": alias,
                "source": self._aliases[alias],
            }, sort_keys=True) + "\n")
            count += 1
        for name in sorted(self._commits):
            commit = self._commits[name]
            target.write(json.dumps({
                "kind": "commit", "object": name, "thread": commit.thread,
                "point": commit.point, "task": commit.task,
                "annotation": commit.annotation,
                "recorded_at": commit.recorded_at,
            }, sort_keys=True) + "\n")
            count += 1
        return count


# ------------------------------------------------------------------ renderers


def _where(graph: ProvenanceGraph, name: str) -> str:
    commit = graph.commit_of(name)
    if commit is None or not commit.thread:
        return ""
    return f"{commit.thread} p{commit.point}"


def render_why(graph: ProvenanceGraph, name: str) -> list[str]:
    """Deterministic text rendering of the derivation chain.

    Stays byte-identical across same-seed runs: nothing here depends on
    process-global counters (record instances and pids are excluded).
    """
    lines = [f"why {name}"]
    if name not in graph:
        lines.append("  unknown object (no lineage recorded)")
        return lines
    chain = graph.why(name)
    if not chain:
        lines.append("  primary source (no recorded derivation)")
        return lines
    for source in graph.primary_sources(name):
        lines.append(f"  source {source}")
    for index, hop in enumerate(chain, 1):
        where = f" [{hop.thread} p{hop.point}]" if hop.thread else ""
        opts = f" opts({' '.join(hop.options)})" if hop.options else ""
        lines.append(
            f"  {index:2d}. {hop.output} <= {hop.tool}"
            f"({', '.join(hop.inputs)}){opts}{where} host={hop.host} "
            f"t={hop.started:.1f}s dur={hop.duration:.1f}s"
        )
        if hop.reused:
            if hop.reused_from:
                origin = _where(graph, hop.reused_from)
                origin_text = f" [{origin}]" if origin else ""
                lines.append(
                    f"      reused from {hop.reused_from}{origin_text}")
            else:
                lines.append("      reused (origin unknown)")
    return lines


def render_blame(graph: ProvenanceGraph, base: str) -> list[str]:
    lines = [f"blame {base}"]
    rows = graph.blame(base)
    if not rows:
        lines.append("  no versions recorded")
        return lines
    for name, hop, commit in rows:
        where = f"[{commit.thread} p{commit.point}]" if commit and \
            commit.thread else "[external]"
        if hop is None:
            lines.append(f"  {name:<30} {where} primary source")
            continue
        detail = (f"task={hop.task} step={hop.step} tool={hop.tool} "
                  f"host={hop.host} at={hop.completed:.1f}s")
        lines.append(f"  {name:<30} {where} {detail}")
        if hop.reused and hop.reused_from:
            origin = _where(graph, hop.reused_from)
            lines.append(f"      reused from {hop.reused_from}"
                         + (f" [{origin}]" if origin else ""))
        if commit and commit.annotation:
            lines.append(f'      note "{commit.annotation}"')
    return lines


def render_impact(graph: ProvenanceGraph, name: str) -> list[str]:
    affected = graph.impact(name)
    lines = [f"impact {name}: {len(affected)} affected version(s)"]
    for obj in affected:
        suffix = " (reused alias)" if graph.alias_source(obj) == name or \
            obj in graph._aliases and graph._aliases[obj] in affected else ""
        lines.append(f"  {obj}{suffix}")
    return lines


# ------------------------------------------------------------------ checking


def check_lineage(
    graph: ProvenanceGraph,
    name: str,
    adg: "AugmentedDerivationGraph | None" = None,
) -> list[str]:
    """Validate the lineage invariants for one object; returns problems.

    * the ``why`` chain exists and terminates only at primary sources
      (a terminal that is itself a memo alias is a lineage orphan);
    * every reused hop carries its reuse attribution;
    * ``impact`` (without alias links) agrees with ``adg.affected_set``.
    """
    problems: list[str] = []
    chain = graph.why(name)
    if not chain:
        problems.append(f"no derivation recorded for {name}")
        return problems
    for source in graph.primary_sources(name):
        if graph.alias_source(source) is not None:
            problems.append(
                f"chain terminates at {source}, which is a memo alias "
                "of a committed version (lineage orphan)")
    for hop in chain:
        if hop.reused and not hop.reused_from:
            problems.append(
                f"reused hop {hop.output} has no reuse attribution")
    if adg is not None:
        for source in graph.primary_sources(name):
            ours = graph.impact(source, include_aliases=False)
            theirs = adg.affected_set(source)
            if ours != theirs:
                problems.append(
                    f"impact({source}) disagrees with adg.affected_set: "
                    f"{sorted(set(ours) ^ set(theirs))}")
    return problems


# ------------------------------------------------------------ module CLI


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.provenance CMD trace.jsonl ...`` (CI smoke)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.provenance",
        description="Query design-history lineage from a streamed trace.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, help_text in [
        ("why", "derivation chain back to primary sources"),
        ("blame", "per-version producing record of a base name"),
        ("impact", "forward closure of a version"),
        ("check", "validate lineage invariants (exit 1 on problems)"),
    ]:
        cp = sub.add_parser(cmd, help=help_text)
        cp.add_argument("trace", help="JSONL trace file")
        cp.add_argument("object", help="object name (versioned)")
    ep = sub.add_parser("export", help="export the graph (DOT / JSONL)")
    ep.add_argument("trace")
    ep.add_argument("--dot", help="write Graphviz DOT here")
    ep.add_argument("--jsonl", help="write provenance JSONL here")
    args = parser.parse_args(argv)

    graph = ProvenanceGraph.from_jsonl(args.trace)
    if args.cmd == "why":
        for line in render_why(graph, args.object):
            print(line)
    elif args.cmd == "blame":
        for line in render_blame(graph, parse_name(args.object).base):
            print(line)
    elif args.cmd == "impact":
        for line in render_impact(graph, args.object):
            print(line)
    elif args.cmd == "check":
        problems = check_lineage(graph, args.object, graph.to_adg())
        for problem in problems:
            print(f"PROBLEM: {problem}")
        if problems:
            return 1
        chain = graph.why(args.object)
        reused = sum(1 for h in chain if h.reused)
        print(f"OK: {args.object} derives from "
              f"{len(graph.primary_sources(args.object))} primary source(s) "
              f"via {len(chain)} hop(s), {reused} reused; impact agrees "
              "with adg.affected_set")
    elif args.cmd == "export":
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(graph.to_dot() + "\n")
            print(f"wrote DOT to {args.dot}")
        if args.jsonl:
            count = graph.export_jsonl(args.jsonl)
            print(f"wrote {count} provenance records to {args.jsonl}")
        if not args.dot and not args.jsonl:
            print(graph.to_dot())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
