"""Span recording at the program's layer boundaries, from outside the program.

A traced run wraps the public entry points of each layer (the repository's
modules ``tdl``, ``taskmgr``, ``sprite``, ``obs``, ``octdb``, ``core``,
``activity`` and ``cad``) with a recorder that notes each call's name, start,
end and parent span.  Self time is a span's duration minus the time its
child spans cover; the program is single-threaded, so spans nest strictly.
Aggregates are kept for every call; raw spans are kept in memory up to a cap
and written out when the run ends.

Wrapping happens only in a traced run and is undone afterwards.  The
untraced run that gives the end-to-end metrics never installs a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("tdl", "taskmgr", "sprite", "obs", "octdb", "core", "activity",
          "cad")

#: (module, attribute path, layer, group).  The attribute path is
#: ``Class.method`` or a module-level function.  ``group`` names the
#: inclusive-time metric the call feeds (outermost call of the group only,
#: so recursion and calls between members are not counted twice).
BOUNDARIES = (
    ("repro.tdl.interp", "Interp.eval_command", "tdl", "tdl.commands"),
    ("repro.tdl.interp", "Interp.substitute", "tdl", None),
    ("repro.tdl.expr", "evaluate", "tdl", "tdl.expr"),
    ("repro.tdl.template", "TemplateLibrary.add_source", "tdl", "tdl.parse"),
    ("repro.taskmgr.manager", "TaskManager.run_task", "taskmgr", None),
    # The engine half of TDL's ``step``/``subtask``/``attribute`` commands
    # and of reading ``$status`` (which waits for the last step): without
    # these the engine work done inside a TDL command is charged to ``tdl``.
    ("repro.taskmgr.execution", "TaskExecution._cmd_step", "taskmgr", None),
    ("repro.taskmgr.execution", "TaskExecution._cmd_subtask", "taskmgr",
     None),
    ("repro.taskmgr.execution", "TaskExecution._cmd_attribute", "taskmgr",
     None),
    ("repro.taskmgr.execution", "TaskExecution._status_trace", "taskmgr",
     None),
    ("repro.sprite.cluster", "Cluster.submit", "sprite", None),
    ("repro.sprite.cluster", "Cluster.step", "sprite", None),
    ("repro.sprite.cluster", "Cluster.remigrate", "sprite", None),
    ("repro.sprite.cluster", "Cluster.find_idle_host", "sprite", None),
    ("repro.sprite.cluster", "Cluster.is_idle", "sprite", "sprite.idle"),
    ("repro.obs.metrics", "MetricsRegistry.counter", "obs", "obs.registry"),
    ("repro.obs.metrics", "MetricsRegistry.gauge", "obs", "obs.registry"),
    ("repro.obs.metrics", "MetricsRegistry.histogram", "obs", "obs.registry"),
    ("repro.octdb.database", "DesignDatabase.put", "octdb", "octdb.put"),
    ("repro.octdb.database", "DesignDatabase.get", "octdb", "octdb.get"),
    ("repro.octdb.database", "DesignDatabase.alias", "octdb", "octdb.put"),
    ("repro.octdb.chunkstore", "ChunkStore.put_payload", "octdb",
     "octdb.chunk_put"),
    ("repro.octdb.chunkstore", "ChunkStore.load_payload", "octdb",
     "octdb.chunk_load"),
    ("repro.core.memo", "fingerprint", "core", "core.fingerprint"),
    ("repro.core.memo", "DerivationCache.key_for", "core", "core.memo"),
    ("repro.core.memo", "DerivationCache.lookup", "core", "core.memo"),
    ("repro.core.memo", "DerivationCache.populate", "core", "core.memo"),
    ("repro.core.datascope", "DataScope.thread_state", "core", "core.scope"),
    ("repro.core.datascope", "DataScope.visible_versions", "core",
     "core.scope"),
    ("repro.core.datascope", "DataScope.resolve", "core", "core.scope"),
    ("repro.core.thread", "DesignThread.commit_record", "core",
     "core.commit"),
    ("repro.core.thread", "DesignThread.move_cursor", "core", None),
    ("repro.activity.manager", "ActivityManager.invoke", "activity", None),
    ("repro.activity.manager", "ActivityManager.commit", "activity", None),
    ("repro.activity.manager", "ActivityManager.move_cursor", "activity",
     None),
    ("repro.activity.viewport", "grid_layout", "activity",
     "activity.layout"),
    ("repro.activity.persistence", "PersistentSession.save", "activity",
     "activity.save"),
    ("repro.activity.persistence", "load_system", "activity",
     "activity.restore"),
    ("repro.cad.registry", "ToolRegistry.run", "cad", "cad.tool"),
)

#: Modules that bind a wrapped module-level function under its own name
#: (``from x import f``); the binding there is replaced too.
REBOUND = {
    ("repro.core.memo", "fingerprint"): ("repro.octdb.chunkstore",),
    ("repro.activity.viewport", "grid_layout"): ("repro.activity.manager",),
}


class SpanRecorder:
    """Collects spans while :attr:`active`; aggregates per name and layer."""

    def __init__(self, span_cap: int = 100_000):
        self.active = False
        self.span_cap = span_cap
        self.spans: list[tuple] = []        # (id, parent, name, start, end)
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)   # per layer
        self.group_calls: dict[str, int] = defaultdict(int)
        self.group_s: dict[str, float] = defaultdict(float)  # inclusive
        self.top_s = 0.0   # time covered by outermost spans
        self._stack: list[list] = []        # [id, start, child_time]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for module_name, path, layer, group in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, path, layer, group)
            self._patch(owner, attr, original, wrapped)
            for other in REBOUND.get((module_name, path), ()):
                rebound = importlib.import_module(other)
                if getattr(rebound, attr) is original:
                    self._patch(rebound, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str, layer: str, group: str | None):
        rec = self
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        calls = self.calls
        self_s = self.self_s
        group_calls = self.group_calls
        group_s = self.group_s
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            span_id = rec._next_id
            rec._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            if group is not None:
                depth[group] += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[1]
                self_s[layer] += elapsed - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += elapsed
                else:
                    rec.top_s += elapsed
                if group is not None:
                    group_calls[group] += 1
                    depth[group] -= 1
                    if depth[group] == 0:
                        group_s[group] += elapsed
                if len(spans) < rec.span_cap:
                    spans.append((span_id, parent, name, frame[1], end))
                else:
                    rec.dropped += 1

        return wrapper

    # ------------------------------------------------------------- control

    @contextmanager
    def recording(self):
        """Record spans for the duration of the block."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def snapshot(self) -> dict:
        """Aggregates so far (subtract two snapshots for one phase)."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "group_calls": dict(self.group_calls),
                "group_s": dict(self.group_s), "top_s": self.top_s}

    def write_spans(self, path: Path, label: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": label, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def delta(after: dict, before: dict) -> dict:
    """Aggregates accumulated between two snapshots."""
    out: dict = {}
    for key in ("calls", "self_s", "group_calls", "group_s"):
        out[key] = {k: v - before[key].get(k, 0)
                    for k, v in after[key].items()}
    out["top_s"] = after["top_s"] - before["top_s"]
    return out
